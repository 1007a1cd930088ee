"""Cohomology calculators: Čech cohomology of line bundles on projective
space, Lie algebra cohomology, a Koszul-type complex for the odd action,
and the obstruction space measuring failure of fullness.

Every calculator assembles honest differential matrices and takes exact
ranks; closed-form binomial counts appear only as cross-checks in tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .gradedmod import (
    GradedModule, ModuleError, Rep, check_tensor_size, concentrated, dual, merge_sign, tensor,
)
from .linalg import Matrix
from .record import Record
from .rigid import CohomologyTable


# limits on `cech_size`, `koszul_size` and `ce_size`, measured: about 2 s
# at each (`chevalley_eilenberg`: 1.8 s for sl2 on its 516-dim irreducible,
# 0.7 s for an abelian dim0 = 8 on a zero 18-dim V, both at 4.0 million)
MAX_CECH_SIZE = 400_000
MAX_KOSZUL_DEGREE = 10_000
MAX_KOSZUL_ENTRIES = 4_000_000
MAX_CE_ENTRIES = 4_000_000
# a refused size is printed when it is at most this, and otherwise only
# said to be over its limit
_PRINTED_SIZE = 10 ** 30


def _printed(n: int) -> str:
    """n in digits, or by its digit count when |n| is over `_PRINTED_SIZE`
    (counted without `str`, which refuses an int of over 4300 digits)."""
    a = abs(n)
    if a <= _PRINTED_SIZE:
        return str(n)
    k = (a.bit_length() - 1) * 3010 // 10000  # 10**k <= a, as 0.3010 < log10(2)
    p = 10 ** k
    while p * 10 <= a:
        p, k = p * 10, k + 1
    return f"{'-' if n < 0 else ''}<{k + 1} digits>"


# ---------------------------------------------------------------------------
# Cech cohomology of O(d) on P^r


def _multidegree_range(r: int, d: int):
    """(lo, t): the exponent vectors a in Z^(r+1) with sum d that can
    support a nonzero class, plus a one-step margin, are those with every
    a_i >= lo = min(0, d+r) - 1, that is the compositions of t = d -
    lo*(r+1) >= 1 into r+1 parts shifted by lo: C(t + r, r) of them.

    A monomial contributes to H^0 only when all a_i >= 0 and to H^r only
    when all a_i <= -1 (forcing a_i >= d + r); anything with a smaller
    coordinate sits in an acyclic piece, and the margin lets the rank
    computation witness that acyclicity rather than assume it.
    """
    lo = min(0, d + r) - 1
    return lo, d - lo * (r + 1)


def cech_size(r: int, d: int) -> int:
    """The work of `cech_line_bundle(r, d)`: its multidegrees, plus the
    2^(r+1) chart sets scanned by each of its distinct pieces, at most
    min(that count, 2^(r+1)) of them."""
    lo, t = _multidegree_range(r, d)
    count = comb(t + r, r)
    return count + min(count, 2 ** (r + 1)) * 2 ** (r + 1)


def _cech_piece(r: int, neg: frozenset) -> CohomologyTable:
    """Cohomology dims of the one-multidegree subcomplex: chart sets
    I with |I| = p+1 containing every index where the exponent is
    negative, with the alternating-sum incidence differential."""
    verts = range(r + 1)
    bases = {}
    for p in range(r + 1):
        bases[p] = [s for s in combinations(verts, p + 1) if neg.issubset(s)]
    ranks = {}
    for p in range(r):
        cols = {s: k for k, s in enumerate(bases[p])}
        data = [[Fraction(0)] * len(cols) for _ in bases[p + 1]]
        for ri, s in enumerate(bases[p + 1]):
            for k in range(len(s)):
                ci = cols.get(s[:k] + s[k + 1 :])
                if ci is not None:
                    data[ri][ci] = Fraction(-1 if k % 2 else 1)
        ranks[p] = Matrix(len(data), len(cols), data).rank()
    return CohomologyTable.of_complex({p: len(b) for p, b in bases.items()}, ranks)


def cech_line_bundle(r: int, d: int) -> CohomologyTable:
    """H^p(P^r, O(d)) for 0 <= p <= r over the rationals.

    The Cech complex for the standard affine cover splits over Laurent
    multidegrees; each finite piece is handled by incidence-matrix ranks.
    """
    if r < 1:
        raise ValueError("projective space dimension must be >= 1")
    lo, t = _multidegree_range(r, d)
    # 2^(r+1) and t + 1 <= C(t + r, r) bound cech_size below, so a huge r
    # or d is refused before the binomial is formed
    size = None if MAX_CECH_SIZE >> (r + 1) == 0 or t >= MAX_CECH_SIZE else cech_size(r, d)
    if size is None or size > MAX_CECH_SIZE:
        shown = f" {size}," if size is not None and size <= _PRINTED_SIZE else ""
        raise ValueError(
            f"the Cech complex of O({_printed(d)}) on P^{_printed(r)} has size{shown} "
            f"over the limit of {MAX_CECH_SIZE}"
        )
    totals = {p: 0 for p in range(r + 1)}
    cache = {}
    for e in _exponents(r + 1, t):
        neg = frozenset(i for i, x in enumerate(e) if x + lo < 0)
        piece = cache.get(neg)
        if piece is None:
            piece = _cech_piece(r, neg)
            cache[neg] = piece
        for p, v in piece.entries:
            totals[p] += v
    return CohomologyTable.from_dict(totals)


def cech_closed_form(r: int, d: int) -> CohomologyTable:
    """Binomial-coefficient cross-check for cech_line_bundle."""
    out = {p: 0 for p in range(r + 1)}
    if d >= 0:
        out[0] = comb(d + r, r)
    if d <= -r - 1:
        out[r] = comb(-d - 1, r)
    return CohomologyTable.from_dict(out)


# ---------------------------------------------------------------------------
# the two-term shape of twisted extension spaces


class ExtEntry(Record):
    cohom_degree: int      # l: which H^l on P^r contributes
    sym_degree: int        # symmetric power of the tautological weight
    top_twist_present: bool
    dim: int


class ExtDescriptor(Record):
    source_twist: int
    target_twist: int
    proj_dim: int  # r
    entries: tuple
    note: str

    def entry_at(self, l: int):
        for e in self.entries:
            if e.cohom_degree == l:
                return e
        return None

    @property
    def total_dim(self) -> int:
        return sum(e.dim for e in self.entries)


def ext_twisted(i: int, j: int, r: int) -> ExtDescriptor:
    """Degree-one extensions between the twists i and j over P^r.

    Only the bottom (l = 0) and top (l = r) cohomology of O(j - i) can
    contribute; the dims come from the honest Cech computation.
    """
    d = j - i
    table = cech_line_bundle(r, d)
    entries = []
    h0 = table.dim(0)
    if h0:
        entries.append(ExtEntry(0, d, False, h0))
    hr = table.dim(r)
    if hr:
        entries.append(ExtEntry(r, -d - r - 1, True, hr))
    return ExtDescriptor(
        source_twist=i,
        target_twist=j,
        proj_dim=r,
        entries=tuple(entries),
        note=(
            "twist difference enters as O(j - i); the top entry carries the "
            "determinant twist, so its symmetric degree is -(j-i)-r-1"
        ),
    )


# ---------------------------------------------------------------------------
# Lie algebra cohomology (Chevalley-Eilenberg)


def _ce_differential(rep: Rep, p: int) -> Matrix:
    """d: Lambda^p g0* (x) V -> Lambda^(p+1) g0* (x) V, one dim V block
    per pair of basis elements lambda_s, lambda_t."""
    dv, n0 = rep.dim, rep.alg.dim0
    src = {s: k for k, s in enumerate(combinations(range(n0), p))}
    tgt = list(combinations(range(n0), p + 1))
    ident = Matrix.identity(dv)
    placed = []
    for ti, t in enumerate(tgt):
        for k in range(p + 1):
            # action term: x_(t_k) acting, from the face t without t_k
            face = t[:k] + t[k + 1 :]
            placed.append((ti * dv, src[face] * dv, -1 if k % 2 else 1, rep.mats[t[k]]))
            # bracket contraction term: lambda_s on [x_(t_k), x_(t_l)], x_rest
            for l in range(k + 1, p + 1):
                rest = t[:k] + t[k + 1 : l] + t[l + 1 :]
                for b, c in enumerate(rep.alg.bracket[t[k]][t[l]]):
                    if c and b not in rest:
                        sgn = c * merge_sign((b,), rest) * (-1 if (k + l) % 2 else 1)
                        placed.append((ti * dv, src[tuple(sorted((b,) + rest))] * dv, sgn, ident))
    return Matrix.place(len(tgt) * dv, len(src) * dv, placed)


def ce_size(dim0: int, dim_v: int) -> int:
    """The entries of the dense differentials of `chevalley_eilenberg`:
    the sum over p < dim0 of C(dim0, p+1) * C(dim0, p) * dim V^2, which
    is C(2 dim0, dim0 - 1) * dim V^2."""
    return comb(2 * dim0, dim0 - 1) * dim_v ** 2 if dim0 else 0


def check_ce_size(dim0: int, dim_v: int):
    """Refuse the Chevalley-Eilenberg complex of a dim0-dim g0 on a
    dim_v-dim V over `MAX_CE_ENTRIES`; nothing needs to be built first."""
    size = ce_size(dim0, dim_v)
    if size > MAX_CE_ENTRIES:
        raise ValueError(
            f"the Chevalley-Eilenberg complex of a {dim0}-dim g0 on a {dim_v}-dim V has "
            f"{size} differential entries, over the limit of {MAX_CE_ENTRIES}"
        )


def chevalley_eilenberg(rep: Rep) -> CohomologyTable:
    """H^p(g0, V) for 0 <= p <= dim g0, by exact ranks of the standard
    complex on Lambda^p g0* (x) V, g0 the even part of rep.alg."""
    check_ce_size(rep.alg.dim0, rep.dim)
    n = rep.alg.dim0
    dims = {p: comb(n, p) * rep.dim for p in range(n + 1)}
    ranks = {p: _ce_differential(rep, p).rank() for p in range(n)}
    return CohomologyTable.of_complex(dims, ranks)


# ---------------------------------------------------------------------------
# symmetric powers and the odd Koszul complex


def _exponents(n: int, total: int):
    if n == 0:
        if total == 0:
            yield ()
        return

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + (a,), remaining - a, slots - 1)

    yield from rec((), total, n)


def sym_power(rep: Rep, m: int) -> Rep:
    """S^m of a representation on the monomial basis, acting by derivations."""
    n = rep.dim
    basis = list(_exponents(n, m))
    index = {e: k for k, e in enumerate(basis)}
    mats = []
    for a in rep.mats:
        entries = []
        for dst, src, c in a.nonzeros():
            for ci, e in enumerate(basis):
                if e[src]:
                    t = list(e)
                    t[src] -= 1
                    t[dst] += 1
                    entries.append((index[tuple(t)], ci, e[src] * c))
        mats.append(Matrix.from_nonzeros(len(basis), len(basis), entries))
    return Rep(rep.alg, len(basis), tuple(mats))


def _sym_dim(n: int, p: int) -> int:
    """dim S^p(k^n): the monomials of degree p in n variables."""
    return comb(p + n - 1, p) if n else int(p == 0)


def koszul_size(v: GradedModule, p_max: int) -> int:
    """The entries of the dense differentials of `koszul_odd(v, p_max)`:
    the sum over p < p_max of dim C^(p+1) * dim C^p, where dim C^p =
    C(p + n - 1, p) * dim V counts the monomials of S^p(g1*).  Summing
    stops once the total is over `_PRINTED_SIZE`, so a result over it
    only bounds the size below, and no larger term is formed."""
    n, dv2 = v.alg.dim1, v.total_dim ** 2
    total, sym = 0, 1  # dim S^0
    for p in range(p_max):
        nxt = sym * (p + n) // (p + 1)  # C(p + n, p + 1), exactly
        total += nxt * sym * dv2
        if total > _PRINTED_SIZE:
            break
        sym = nxt
    return total


def koszul_odd(v: GradedModule, p_max: int) -> CohomologyTable:
    """Cohomology of S^p(g1*) (x) V with d(s (x) w) = sum_e t_e s (x) a_e w.

    Returns H^p for 0 <= p < p_max; d squares to zero by the odd-action
    anticommutation.
    """
    if not 1 <= p_max <= MAX_KOSZUL_DEGREE:
        raise ValueError(f"p_max must be in [1, {MAX_KOSZUL_DEGREE}], got {p_max}")
    size = koszul_size(v, p_max)
    if size > MAX_KOSZUL_ENTRIES:
        shown = f"{size} differential entries, over" if size <= _PRINTED_SIZE else "differential entries over"
        raise ValueError(f"the Koszul complex up to p_max = {p_max} has {shown} the limit of {MAX_KOSZUL_ENTRIES}")
    n = v.alg.dim1
    dv = v.total_dim
    acts = [v.total_odd(e) for e in range(n)]
    bases = {p: list(_exponents(n, p)) for p in range(p_max + 1)}
    ranks = {}
    for p in range(p_max):
        src = bases[p]
        tgt = bases[p + 1]
        index = {e: k for k, e in enumerate(tgt)}
        placed = []
        for ci, exp in enumerate(src):
            for e in range(n):
                t = list(exp)
                t[e] += 1
                placed.append((index[tuple(t)] * dv, ci * dv, 1, acts[e]))
        ranks[p] = Matrix.place(len(tgt) * dv, len(src) * dv, placed).rank()
    dims = {p: len(bases[p]) * dv for p in range(p_max)}
    return CohomologyTable.of_complex(dims, ranks)


# ---------------------------------------------------------------------------
# the obstruction space for fullness


def _nonfullness_degree(alg, i: int, j: int):
    """m = i - j - dim g1, the symmetric degree of the obstruction space's
    coefficients, or None when the space vanishes: when m < 0 or its
    cohomological degree m + 1 exceeds dim g0."""
    m = i - j - alg.dim1
    return None if m < 0 or m + 1 > alg.dim0 else m


def check_nonfullness_size(alg, i: int, j: int, dim_v: int, dim_w: int):
    """Refuse `nonfullness_ext` on representations of dims dim_v and dim_w
    as its tensor products and Chevalley-Eilenberg complex would, from the
    dims alone; a vanishing space is never refused."""
    m = _nonfullness_degree(alg, i, j)
    if m is None:
        return
    sym = _sym_dim(alg.dim1, m)
    check_tensor_size(dim_v, sym)
    check_tensor_size(dim_v * sym, dim_w)
    check_ce_size(alg.dim0, dim_v * sym * dim_w)


def nonfullness_ext(v: Rep, w: Rep, i: int, j: int) -> int:
    """dim of the degree-(i - j) obstruction space between twists of the
    g0-representations V and W, over their common algebra.

    Nonzero only when m = i - j - dim1 >= 0 and the cohomological degree
    p = m + 1 fits inside [0, dim g0]; the space is then
    H^p(g0, V* (x) S^m(g1) (x) W), the coefficients the degree-0 part of
    the graded dual and tensor products of the three in degree 0.  Of
    the Chevalley-Eilenberg complex only d^(p-1) and d^p are ranked.
    """
    alg = v.alg
    if w.alg != alg:
        raise ModuleError("algebra mismatch in nonfullness_ext")
    m = _nonfullness_degree(alg, i, j)
    if m is None:
        return 0
    check_nonfullness_size(alg, i, j, v.dim, w.dim)
    p = m + 1
    sym = sym_power(Rep(alg, alg.dim1, alg.action), m)
    v0, s0, w0 = (concentrated(q, 0) for q in (v, sym, w))
    coeff = tensor(tensor(dual(v0), s0), w0).rep_at(0)
    ranks = {q: _ce_differential(coeff, q).rank() for q in (p - 1, p) if q < alg.dim0}
    return CohomologyTable.of_complex({p: comb(alg.dim0, p) * coeff.dim}, ranks).dim(p)
