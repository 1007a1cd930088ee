"""Cohomology calculators: Čech cohomology of line bundles on projective
space, Lie algebra cohomology, a Koszul-type complex for the odd action,
and the obstruction space measuring failure of fullness.

Every calculator assembles honest differential matrices and takes exact
ranks; closed-form binomial counts appear only as cross-checks in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .algebra import LieAlgebraEven, SuperAlgebra
from .gradedmod import GradedModule, Rep
from .linalg import Matrix
from .rigid import CohomologyTable


# ---------------------------------------------------------------------------
# Cech cohomology of O(d) on P^r


def _multidegrees(r: int, d: int):
    """All exponent vectors a in Z^(r+1) with sum d that can support a
    nonzero class, plus a one-step margin: every a_i >= min(0, d+r) - 1.

    A monomial contributes to H^0 only when all a_i >= 0 and to H^r only
    when all a_i <= -1 (forcing a_i >= d + r); anything with a smaller
    coordinate sits in an acyclic piece, and the margin lets the rank
    computation witness that acyclicity rather than assume it.
    """
    lo = min(0, d + r) - 1
    n = r + 1

    def rec(prefix, remaining, slots):
        if slots == 1:
            if remaining >= lo:
                yield prefix + (remaining,)
            return
        # remaining coordinates are each >= lo, so this one is bounded above
        hi = remaining - lo * (slots - 1)
        for a in range(lo, hi + 1):
            yield from rec(prefix + (a,), remaining - a, slots - 1)

    yield from rec((), d, n)


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
    totals = {p: 0 for p in range(r + 1)}
    cache = {}
    for a in _multidegrees(r, d):
        neg = frozenset(i for i, x in enumerate(a) if x < 0)
        piece = cache.get(neg)
        if piece is None:
            piece = _cech_piece(r, neg)
            cache[neg] = piece
        for p, v in piece.entries:
            totals[p] += v
    return CohomologyTable.from_dict(
        {p: v for p, v in totals.items()}, context=f"cech P^{r} O({d})"
    )


def cech_closed_form(r: int, d: int) -> CohomologyTable:
    """Binomial-coefficient cross-check for cech_line_bundle."""
    out = {p: 0 for p in range(r + 1)}
    if d >= 0:
        out[0] = comb(d + r, r)
    if d <= -r - 1:
        out[r] = comb(-d - 1, r)
    return CohomologyTable.from_dict(out, context=f"closed form P^{r} O({d})")


# ---------------------------------------------------------------------------
# the two-term shape of twisted extension spaces


@dataclass(frozen=True)
class ExtEntry:
    cohom_degree: int      # l: which H^l on P^r contributes
    sym_degree: int        # symmetric power of the tautological weight
    top_twist_present: bool
    dim: int


@dataclass(frozen=True)
class ExtDescriptor:
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


def _alt_eval(s: tuple, args: tuple) -> int:
    """Value of the alternating dual basis element lambda_s on x_args."""
    if len(set(args)) != len(args) or set(args) != set(s):
        return 0
    # sign of the permutation sorting args into ascending order
    a = list(args)
    sign = 1
    for k in range(len(a)):
        m = min(range(k, len(a)), key=lambda t: a[t])
        if m != k:
            a[k], a[m] = a[m], a[k]
            sign = -sign
    return sign


def _ce_differential(g0: LieAlgebraEven, rep: Rep, p: int) -> Matrix:
    """d: Lambda^p g0* (x) V -> Lambda^(p+1) g0* (x) V."""
    n = g0.dim0
    dv = rep.dim
    src = list(combinations(range(n), p))
    tgt = list(combinations(range(n), p + 1))
    m = [[Fraction(0)] * (len(src) * dv) for _ in range(len(tgt) * dv)]
    for si, s in enumerate(src):
        for ti, t in enumerate(tgt):
            # action term
            for k in range(p + 1):
                if t[:k] + t[k + 1 :] != s:
                    continue
                coef = rep.mats[t[k]].scale(-1 if k % 2 else 1)
                for rr in range(dv):
                    for cc in range(dv):
                        if coef.data[rr][cc]:
                            m[ti * dv + rr][si * dv + cc] += coef.data[rr][cc]
            # bracket contraction term
            for k in range(p + 1):
                for l in range(k + 1, p + 1):
                    rest = t[:k] + t[k + 1 : l] + t[l + 1 :]
                    cs = g0.bracket_coeffs(t[k], t[l])
                    for b, c in enumerate(cs):
                        if c == 0:
                            continue
                        val = _alt_eval(s, (b,) + rest)
                        if val == 0:
                            continue
                        sgn = c * val * (-1 if (k + l) % 2 else 1)
                        for rr in range(dv):
                            m[ti * dv + rr][si * dv + rr] += sgn
    return Matrix(len(tgt) * dv, len(src) * dv, m)


def chevalley_eilenberg(g0: LieAlgebraEven, rep: Rep) -> CohomologyTable:
    """H^p(g0, V) for 0 <= p <= dim g0, by exact ranks of the standard
    complex on Lambda^p g0* (x) V."""
    rep.check()
    n = g0.dim0
    dims = {p: comb(n, p) * rep.dim for p in range(n + 1)}
    ranks = {p: _ce_differential(g0, rep, p).rank() for p in range(n)}
    return CohomologyTable.of_complex(dims, ranks, context="chevalley-eilenberg")


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
    rep.check()
    n = rep.dim
    basis = list(_exponents(n, m))
    index = {e: k for k, e in enumerate(basis)}
    mats = []
    for i in range(rep.g0.dim0):
        a = rep.mats[i]
        mat = [[Fraction(0)] * len(basis) for _ in basis]
        for ci, e in enumerate(basis):
            for src in range(n):
                if e[src] == 0:
                    continue
                for dst in range(n):
                    c = a.data[dst][src]
                    if c == 0:
                        continue
                    t = list(e)
                    t[src] -= 1
                    t[dst] += 1
                    mat[index[tuple(t)]][ci] += e[src] * c
        mats.append(Matrix(len(basis), len(basis), mat))
    return Rep(rep.g0, len(basis), tuple(mats))


def koszul_odd(v: GradedModule, p_max: int) -> CohomologyTable:
    """Cohomology of S^p(g1*) (x) V with d(s (x) w) = sum_e t_e s (x) a_e w.

    Returns H^p for 0 <= p < p_max; d squares to zero by the odd-action
    anticommutation.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    n = v.alg.dim1
    dv = v.total_dim
    acts = [v.total_odd(e) for e in range(n)]
    bases = {p: list(_exponents(n, p)) for p in range(p_max + 1)}
    ranks = {}
    for p in range(p_max):
        src = bases[p]
        tgt = bases[p + 1]
        index = {e: k for k, e in enumerate(tgt)}
        m = [[Fraction(0)] * (len(src) * dv) for _ in range(len(tgt) * dv)]
        for ci, exp in enumerate(src):
            for e in range(n):
                t = list(exp)
                t[e] += 1
                ti = index[tuple(t)]
                a = acts[e]
                for rr in range(dv):
                    for cc in range(dv):
                        if a.data[rr][cc]:
                            m[ti * dv + rr][ci * dv + cc] += a.data[rr][cc]
        ranks[p] = Matrix(len(tgt) * dv, len(src) * dv, m).rank()
    dims = {p: len(bases[p]) * dv for p in range(p_max)}
    return CohomologyTable.of_complex(dims, ranks, context="odd koszul")


# ---------------------------------------------------------------------------
# the obstruction space for fullness


def nonfullness_ext(alg: SuperAlgebra, v: Rep, w: Rep, i: int, j: int) -> int:
    """dim of the degree-(i - j) obstruction space between twists of the
    g0-representations V and W.

    Nonzero only when m = i - j - dim1 >= 0 and the cohomological degree
    p = m + 1 fits inside [0, dim g0]; the space is then
    H^p(g0, V* (x) S^m(g1) (x) W).
    """
    v.check()
    w.check()
    n = alg.dim1
    m = i - j - n
    p = m + 1
    if m < 0 or p < 0 or p > alg.dim0:
        return 0
    g1_rep = Rep(alg.even, n, tuple(alg.odd.action))
    coeff = v.dual().tensor(sym_power(g1_rep, m)).tensor(w)
    return chevalley_eilenberg(alg.even, coeff).dim(p)
