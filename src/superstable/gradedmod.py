"""Finite-dimensional Z-graded g-modules: g0 acts in degree 0, g1 in degree +1.

Provides the category operations (shift, direct sum, tensor, dual),
hom-space computation by linear solve, and induced modules built on the
exterior algebra Lambda(g1) of the odd part.  Data are validated once,
where they come in (`make_module`, `make_map`); what a construction or a
solve here returns is assembled, and its docstring says why it is a
module or a g-map.  This module owns the
conventions of Lambda(g1): the (size, lex) order of its basis
(`subsets`), the wedge sign (`merge_sign`) and the basis layout of an
induced module (`induced_blocks`); every other module reads them here.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import SuperAlgebra, representation_failure
from .linalg import LinearSystem, Matrix, vanishes
from .record import Record

# largest 2^dim(g1) * dim allowed for a build or sum over the exterior
# algebra (the induced modules, the Frobenius comparison and the trace
# sum), the largest total dimension of a tensor product and the most
# unknowns of a `hom_graded` system
MAX_EXTERIOR_SIZE = 1024


class ModuleError(ValueError):
    """Raised when module data violates shape or invariant constraints."""


def check_tensor_size(dim_v: int, dim_w: int):
    """Refuse a tensor product of total dimension dim_v * dim_w over
    `MAX_EXTERIOR_SIZE`."""
    if dim_v * dim_w > MAX_EXTERIOR_SIZE:
        raise ModuleError(
            f"the tensor product has total dimension {dim_v * dim_w}, "
            f"over the limit of {MAX_EXTERIOR_SIZE}"
        )


def check_exterior_size(n: int, dim: int, what: str):
    """Refuse `what`, of size 2^n * dim, over `MAX_EXTERIOR_SIZE`; the
    size itself is never formed, so a huge n costs nothing."""
    if dim > MAX_EXTERIOR_SIZE >> n:
        raise ModuleError(
            f"{what} has size 2^{n} * {dim}, over the limit of {MAX_EXTERIOR_SIZE}"
        )


# ---------------------------------------------------------------------------
# plain g0-representations (coefficients for induced modules, CE, Sym powers)


class Rep(Record):
    """Finite-dimensional module over the even part g0 of `alg`: one
    dim x dim matrix per even basis index.  `check` is its one
    validation, run where its data come in (`serialize.rep_from_json`);
    the library's own Reps are built as representations."""

    alg: SuperAlgebra
    dim: int
    mats: tuple

    def __post_init__(self):
        if len(self.mats) != self.alg.dim0:
            raise ModuleError("one action matrix per even basis element required")
        for m in self.mats:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ModuleError("g0-action matrix of wrong shape")

    def check(self):
        bad = representation_failure(self.alg, [m.sparse_rows() for m in self.mats], self.dim)
        if bad is not None:
            raise ModuleError(f"representation property fails at ({bad[0]},{bad[1]})")
        return self

    @staticmethod
    def trivial(alg: SuperAlgebra, dim: int) -> "Rep":
        return Rep(alg, dim, (Matrix.zero(dim, dim),) * alg.dim0)


# ---------------------------------------------------------------------------
# graded modules


class GradedModule(Record):
    """Graded module on a window [lo, hi].

    dims[j-lo] is the dimension in degree j; rho0[j-lo][i] the even
    action; odd[j-lo][e] maps degree j to degree j+1 (zero rows at the
    top of the window).
    """

    alg: SuperAlgebra
    lo: int
    hi: int
    dims: tuple
    rho0: tuple  # per degree, tuple of dim0 square matrices
    odd: tuple   # per degree, tuple of dim1 matrices dims[j+1] x dims[j]

    def dim_at(self, j: int) -> int:
        if self.lo <= j <= self.hi:
            return self.dims[j - self.lo]
        return 0

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def rho_at(self, j: int, i: int) -> Matrix:
        if self.lo <= j <= self.hi:
            return self.rho0[j - self.lo][i]
        return Matrix.zero(0, 0)

    def odd_at(self, j: int, e: int) -> Matrix:
        """Action of e-th odd basis element from degree j to j+1."""
        if self.lo <= j <= self.hi:
            return self.odd[j - self.lo][e]
        return Matrix.zero(self.dim_at(j + 1), 0)

    def total_odd(self, e: int) -> Matrix:
        """Ungraded action of the e-th odd generator on the total space."""
        blocks = Matrix.block_diag(self.odd_at(j, e) for j in self.degrees())
        return Matrix.zero(self.dim_at(self.lo), self.total_dim).vstack(blocks)

    def rep_at(self, j: int) -> Rep:
        """Degree-j component as a plain g0-module."""
        return Rep(self.alg, self.dim_at(j), tuple(self.rho0[j - self.lo]))


def _check_shapes(alg, lo, hi, dims, rho0, odd):
    ndeg = hi - lo + 1
    if len(dims) != ndeg or len(rho0) != ndeg or len(odd) != ndeg:
        raise ModuleError("window/dims/action length mismatch")
    for k in range(ndeg):
        d = dims[k]
        if len(rho0[k]) != alg.dim0:
            raise ModuleError(f"degree {lo+k}: one even matrix per basis element required")
        for m in rho0[k]:
            if (m.rows, m.cols) != (d, d):
                raise ModuleError(f"degree {lo+k}: even action matrix shape mismatch")
        if len(odd[k]) != alg.dim1:
            raise ModuleError(f"degree {lo+k}: one odd matrix per basis element required")
        tgt = dims[k + 1] if k + 1 < ndeg else 0
        for m in odd[k]:
            if (m.rows, m.cols) != (tgt, d):
                raise ModuleError(f"degree {lo+k}: odd action matrix shape mismatch")


def _check_invariants(v: GradedModule):
    """Each identity is a sparse combination of sparse products that must
    vanish (`linalg.vanishes`); every action matrix is made sparse once."""
    alg = v.alg
    n0, n1 = alg.dim0, alg.dim1
    rho = {j: [m.sparse_rows() for m in v.rho0[j - v.lo]] for j in v.degrees()}
    odd = {j: [m.sparse_rows() for m in v.odd[j - v.lo]] for j in v.degrees()}
    # column e of each x_i on g1: [x_i, e] = sum_k coeffs[i][e][k] e_k
    coeffs = [a.transpose().sparse_rows() for a in alg.action]
    for j in v.degrees():
        # even representation property per degree
        bad = representation_failure(alg, rho[j], v.dim_at(j))
        if bad is not None:
            raise ModuleError(f"even representation fails at degree {j}, pair ({bad[0]},{bad[1]})")
        if j == v.hi:
            continue  # the odd action leaves the window: nothing more to check
        # mixed bracket [x_i, e] on degree j
        for i in range(n0):
            for e in range(n1):
                terms = [(1, (rho[j + 1][i], odd[j][e])), (-1, (odd[j][e], rho[j][i]))]
                terms += [(-c, (odd[j][k],)) for k, c in coeffs[i][e].items()]
                if not vanishes(terms, v.dim_at(j + 1)):
                    raise ModuleError(f"equivariance fails at degree {j}, even {i}, odd {e}")
        # odd anticommutation
        if j + 1 < v.hi:
            for e in range(n1):
                for f in range(e, n1):
                    terms = [(1, (odd[j + 1][e], odd[j][f])), (1, (odd[j + 1][f], odd[j][e]))]
                    if not vanishes(terms, v.dim_at(j + 2)):
                        raise ModuleError(f"anticommutation fails at degree {j}, odd pair ({e},{f})")


def _assemble(alg: SuperAlgebra, lo: int, hi: int, dims, rho0, odd) -> GradedModule:
    """The graded module with these actions, shapes checked but identities
    not: for the constructions whose identities follow from those of
    their already validated inputs."""
    dims = tuple(int(d) for d in dims)
    rho0 = tuple(tuple(r) for r in rho0)
    odd = tuple(tuple(o) for o in odd)
    _check_shapes(alg, lo, hi, dims, rho0, odd)
    return GradedModule(alg, lo, hi, dims, rho0, odd)


def make_module(alg: SuperAlgebra, lo: int, hi: int, dims, rho0, odd) -> GradedModule:
    """Build a validated graded module; raises ModuleError with the first
    failing identity.  The one validating constructor, for data that
    comes from outside."""
    v = _assemble(alg, lo, hi, dims, rho0, odd)
    _check_invariants(v)
    return v


def concentrated(q: Rep, degree: int) -> GradedModule:
    """The g0-representation q as a graded module over q.alg in one
    degree, with zero odd action.  It is assembled without a re-check:
    the odd identities read 0 = 0, and the even one is q's, so q must be
    a representation (checked where it came in, or built as one)."""
    return _assemble(q.alg, degree, degree, (q.dim,), (q.mats,), ((Matrix.zero(0, q.dim),) * q.alg.dim1,))


def trivial_module(alg: SuperAlgebra, degree: int = 0, dim: int = 1) -> GradedModule:
    """dim copies of k concentrated in one degree, all actions zero."""
    return concentrated(Rep.trivial(alg, dim), degree)


# ---------------------------------------------------------------------------
# graded maps


class GradedMap(Record):
    source: GradedModule
    target: GradedModule
    comps: dict  # degree -> Matrix target.dim_at(j) x source.dim_at(j)

    def comp_at(self, j: int) -> Matrix:
        m = self.comps.get(j)
        if m is None:
            return Matrix.zero(self.target.dim_at(j), self.source.dim_at(j))
        return m

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.source is not other.source and self.source != other.source:
            return False
        if self.target != other.target:
            return False
        degs = set(self.source.degrees()) | set(self.target.degrees())
        return all(self.comp_at(j) == other.comp_at(j) for j in degs)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other, assembled without a re-check: a composite of
        g-maps commutes with every action as each factor does."""
        if other.target != self.source:
            raise ModuleError("composition mismatch")
        comps = {
            j: self.comp_at(j) * other.comp_at(j)
            for j in other.source.degrees()
            if self.target.dim_at(j) and other.source.dim_at(j)
        }
        return GradedMap(other.source, self.target, comps)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        comps = {
            j: self.comp_at(j) + other.comp_at(j)
            for j in set(self.comps) | set(other.comps)
        }
        return GradedMap(self.source, self.target, comps)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        comps = {
            j: self.comp_at(j) - other.comp_at(j)
            for j in set(self.comps) | set(other.comps)
        }
        return GradedMap(self.source, self.target, comps)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def total_matrix(self) -> Matrix:
        degs = sorted(set(self.source.degrees()) | set(self.target.degrees()))
        return Matrix.block_diag(self.comp_at(j) for j in degs)


def _squares(v: GradedModule, w: GradedModule):
    """Every square a graded g-map f: v -> w must close, f_k A = B f_j
    with A acting on v^j and B on w^j, as (kind, j, k, A, B): per degree
    j, the even ones (k = j, one per even basis element), then the odd
    ones (k = j + 1, one per odd basis element).  Squares whose corner
    w^k or v^j is zero hold trivially and are left out."""
    for j in sorted(set(v.degrees()) | set(w.degrees())):
        if v.dim_at(j) and w.dim_at(j):
            for i in range(v.alg.dim0):
                yield "even", j, j, v.rho_at(j, i), w.rho_at(j, i)
        if v.dim_at(j) and w.dim_at(j + 1):
            for e in range(v.alg.dim1):
                yield "odd", j, j + 1, v.odd_at(j, e), w.odd_at(j, e)


def check_map(phi: GradedMap):
    """Verify phi commutes with every even and odd action: the one check
    that a map is equivariant."""
    v, w = phi.source, phi.target
    if v.alg != w.alg:
        raise ModuleError("source and target live over different algebras")
    comp = {}
    for kind, j, k, a, b in _squares(v, w):
        for d in (j, k):
            if d not in comp:
                comp[d] = phi.comp_at(d).sparse_rows()
        terms = [(1, (comp[k], a.sparse_rows())), (-1, (b.sparse_rows(), comp[j]))]
        if not vanishes(terms, w.dim_at(k)):
            raise ModuleError(f"map fails to commute with {kind} action at degree {j}")
    return phi


def make_map(source: GradedModule, target: GradedModule, comps: dict) -> GradedMap:
    """Build a checked graded map: shapes, then `check_map`.  The one
    validating constructor of maps, for components that come from outside."""
    for j, m in comps.items():
        if (m.rows, m.cols) != (target.dim_at(j), source.dim_at(j)):
            raise ModuleError(f"component shape mismatch at degree {j}")
    return check_map(GradedMap(source, target, dict(comps)))


def identity_map(v: GradedModule) -> GradedMap:
    return GradedMap(v, v, {j: Matrix.identity(v.dim_at(j)) for j in v.degrees()})


def zero_map(v: GradedModule, w: GradedModule) -> GradedMap:
    return GradedMap(v, w, {})


# ---------------------------------------------------------------------------
# category operations


def shift(v: GradedModule, m: int) -> GradedModule:
    """Degree shift: the new degree-i component is the old degree-(i-m) one."""
    return GradedModule(v.alg, v.lo + m, v.hi + m, v.dims, v.rho0, v.odd)


def restrict(v: GradedModule) -> GradedModule:
    """Res to g0: V's even action with a zero odd action, a module as
    every odd identity then reads 0 = 0.  A g-map between restrictions
    is a graded g0-map."""
    odd = tuple((Matrix.zero(v.dim_at(j + 1), v.dim_at(j)),) * v.alg.dim1 for j in v.degrees())
    return _assemble(v.alg, v.lo, v.hi, v.dims, v.rho0, odd)


def direct_sum(v: GradedModule, *ws: GradedModule) -> GradedModule:
    """V + W_1 + ... + W_k, the summands' bases in argument order in each
    degree.  Every action matrix is block diagonal, so each identity
    holds as it does in each summand: the sum is assembled without a
    re-check."""
    mods = (v,) + ws
    if any(w.alg != v.alg for w in ws):
        raise ModuleError("algebra mismatch in direct sum")
    lo, hi = min(m.lo for m in mods), max(m.hi for m in mods)
    dims, rho0, odd = [], [], []
    for j in range(lo, hi + 1):
        dims.append(sum(m.dim_at(j) for m in mods))
        rho0.append(
            tuple(
                Matrix.block_diag([m.rho_at(j, i) for m in mods])
                for i in range(v.alg.dim0)
            )
        )
        # odd_at(j, e) has dim_at(j + 1) rows, so the block rows match
        odd.append(
            tuple(
                Matrix.block_diag([m.odd_at(j, e) for m in mods])
                for e in range(v.alg.dim1)
            )
        )
    return _assemble(v.alg, lo, hi, dims, rho0, odd)


def tensor(v: GradedModule, w: GradedModule) -> GradedModule:
    """Graded tensor product with the Koszul sign on the odd action.

    The degree-l component is the direct sum over ascending i of
    V^i (x) W^(l-i), blocks assembled with the lexicographic Kronecker
    convention.  It is assembled without a re-check: x acts by
    x (x) 1 + 1 (x) x, whose terms commute; e by e (x) 1 + (-1)^i 1 (x) e on
    V^i (x) W, so equivariance holds factor by factor, and in ef + fe the
    Koszul sign cancels the cross terms ev (x) fw and fv (x) ew.
    """
    if v.alg != w.alg:
        raise ModuleError("algebra mismatch in tensor product")
    check_tensor_size(v.total_dim, w.total_dim)
    alg = v.alg
    lo, hi = v.lo + w.lo, v.hi + w.hi

    def blocks(l):
        return [
            (i, l - i)
            for i in range(max(v.lo, l - w.hi), min(v.hi, l - w.lo) + 1)
        ]

    dims = [sum(v.dim_at(i) * w.dim_at(j) for i, j in blocks(l)) for l in range(lo, hi + 1)]
    rho0 = []
    for l in range(lo, hi + 1):
        mats = []
        for x in range(alg.dim0):
            # x (x) 1 and 1 (x) x, both added into each diagonal block
            placed, c0 = [], 0
            for i, j in blocks(l):
                placed.append((c0, c0, 1, v.rho_at(i, x), w.dim_at(j), True))
                placed.append((c0, c0, 1, w.rho_at(j, x), v.dim_at(i), False))
                c0 += v.dim_at(i) * w.dim_at(j)
            mats.append(Matrix.place_kron(c0, c0, placed))
        rho0.append(tuple(mats))
    odd = []
    for l in range(lo, hi + 1):
        tgt_off, run = {}, 0
        for i, j in blocks(l + 1) if l < hi else []:
            tgt_off[(i, j)] = run
            run += v.dim_at(i) * w.dim_at(j)
        mats = []
        for e in range(alg.dim1):
            placed, c0 = [], 0
            for i, j in blocks(l):
                # e acting on the first factor lands in block (i+1, j); on
                # the second factor, with sign (-1)^i, in block (i, j+1)
                if (i + 1, j) in tgt_off:
                    placed.append((tgt_off[(i + 1, j)], c0, 1, v.odd_at(i, e), w.dim_at(j), True))
                if (i, j + 1) in tgt_off:
                    sign = -1 if i % 2 else 1
                    placed.append((tgt_off[(i, j + 1)], c0, sign, w.odd_at(j, e), v.dim_at(i), False))
                c0 += v.dim_at(i) * w.dim_at(j)
            mats.append(Matrix.place_kron(run, dims[l - lo], placed))
        odd.append(tuple(mats))
    return _assemble(alg, lo, hi, dims, rho0, odd)


def dual(v: GradedModule) -> GradedModule:
    """Graded dual: degree i is the dual of V^(-i).

    Even action is minus transpose; the odd action carries the super
    sign (-1)^i on degree i.  (The source text's dual-action formula
    lacks the Lie-theoretic minus sign; without it the even components
    would not be representations.)  It is assembled without a re-check:
    transposition turns each identity of V into the one of V*, as a
    product of odd matrices on adjacent degrees carries the same sign
    (-1)^i (-1)^(i+1) = -1 in both terms of ef + fe.
    """
    alg = v.alg
    lo, hi = -v.hi, -v.lo
    dims = tuple(v.dim_at(-i) for i in range(lo, hi + 1))
    rho0 = tuple(
        tuple((-v.rho_at(-i, x)).transpose() for x in range(alg.dim0))
        for i in range(lo, hi + 1)
    )
    # V^(-i-1) -> V^(-i), transposed: at i = hi it leaves V's window, and
    # odd_at gives the empty matrix the top degree needs
    odd = tuple(
        tuple(v.odd_at(-i - 1, e).transpose().scale(-1 if i % 2 else 1) for e in range(alg.dim1))
        for i in range(lo, hi + 1)
    )
    return _assemble(alg, lo, hi, dims, rho0, odd)


def graded_map_system(v: GradedModule, w: GradedModule) -> LinearSystem:
    """LinearSystem whose unknowns, named by their degree j, are the
    components f_j of a graded g-map v -> w, one per degree where both
    are nonzero, with the constraint that it close every square of
    `_squares`.  The one builder of a `LinearSystem`: a solution is the
    map's component dict, and a caller adds its own constraints.  A
    g0-map v -> w of degree -n is a g-map restrict(v) -> shift(restrict(w), n)."""
    sys = LinearSystem()
    for j in sorted(set(v.degrees()) | set(w.degrees())):
        if v.dim_at(j) and w.dim_at(j):
            sys.add_unknown(j, w.dim_at(j), v.dim_at(j))
    for _, j, k, a, b in _squares(v, w):
        # an odd square may meet only one component, or none
        terms = [(1, k, a)] if k in sys.shapes else []
        if j in sys.shapes:
            terms.append((b, j, -1))
        if terms:
            sys.add_constraint(terms, Matrix.zero(w.dim_at(k), v.dim_at(j)))
    return sys


def hom_graded(v: GradedModule, w: GradedModule) -> list:
    """Deterministic basis of the degree-preserving g-homomorphisms V -> W.
    Each basis map is a solution of `graded_map_system`, so it closes
    every square `check_map` would evaluate, and is returned as it is.
    The unknowns, sum over j of dim V^j * dim W^j, are the degree-0 part
    of V* (x) W, which is refused over `MAX_EXTERIOR_SIZE` as `tensor`
    refuses it, before any system is built."""
    if v.alg != w.alg:
        raise ModuleError("algebra mismatch in hom")
    size = sum(v.dim_at(j) * w.dim_at(j) for j in v.degrees())
    if size > MAX_EXTERIOR_SIZE:
        raise ModuleError(
            f"Hom(V, W) has {size} unknowns, sum over j of dim V^j * dim W^j, "
            f"over the limit of {MAX_EXTERIOR_SIZE}"
        )
    return [GradedMap(v, w, sol) for sol in graded_map_system(v, w).solution_basis()]


# ---------------------------------------------------------------------------
# the exterior algebra Lambda(g1) and induced modules


def subsets(n: int) -> list:
    """Every subset S of range(n) as an ascending tuple, in the (size,
    lex) order of the basis e_S = e_(s1) ^ ... ^ e_(sl) of Lambda(k^n)."""
    return [s for size in range(n + 1) for s in combinations(range(n), size)]


def merge_sign(a: tuple, b: tuple) -> int:
    """The sign of e_a ^ e_b against e_(a u b), for disjoint ascending
    tuples a and b: -1 to the number of pairs x in a, y in b with x > y."""
    return -1 if sum(1 for x in a for y in b if x > y) % 2 else 1


def induced_blocks(n: int, reps) -> dict:
    """The basis layout of the induced sum over the degrees j in `reps` of
    Lambda(g1) (x) Q_j, n = dim g1: degree l -> its blocks (j, S), |S| =
    l - j, in basis order, that is ascending j, then S in `subsets`
    order.  Block (j, S) holds e_S (x) the basis of Q_j."""
    out = {}
    for j in sorted(reps):
        for s in subsets(n):
            out.setdefault(j + len(s), []).append((j, s))
    return out


def _positions(n: int) -> list:
    """Per exterior degree l: {S: position of S among the l-subsets}."""
    index = [{} for _ in range(n + 1)]
    for s in subsets(n):
        index[len(s)][s] = len(index[len(s)])
    return index


def exterior_odd_action(n: int):
    """Per exterior degree l, per odd index i: the left-wedge matrix
    Lambda^l -> Lambda^(l+1) in the `subsets` basis."""
    index = _positions(n) + [{}]
    out = []
    for l in range(n + 1):
        src, tgt = index[l], index[l + 1]
        mats = []
        for i in range(n):
            wedge = [(tgt[tuple(sorted(s + (i,)))], c, merge_sign((i,), s))
                     for s, c in src.items() if i not in s]
            mats.append(Matrix.from_nonzeros(len(tgt), len(src), wedge))
        out.append(mats)
    return out


def exterior_even_action(alg: SuperAlgebra):
    """Derivation action of g0 on each Lambda^l(g1) in the `subsets`
    basis: x replaces one factor e_s of e_S at a time by x.e_s."""
    # column x of each x_i on g1: [x_i, e_x] = sum_k coeffs[i][x][k] e_k
    coeffs = [a.transpose().sparse_rows() for a in alg.action]
    out = []
    for index in _positions(alg.dim1):
        mats = []
        for i in range(alg.dim0):
            entries = []
            for s, c in index.items():
                for pos, x in enumerate(s):
                    rest = s[:pos] + s[pos + 1 :]
                    for k, coeff in coeffs[i][x].items():
                        if k in rest:
                            continue
                        # e_S = +-e_x ^ e_rest, and e_k ^ e_rest = +-e_T
                        sgn = merge_sign((x,), rest) * merge_sign((k,), rest)
                        entries.append((index[tuple(sorted(rest + (k,)))], c, sgn * coeff))
            mats.append(Matrix.from_nonzeros(len(index), len(index), entries))
        out.append(mats)
    return out


def induced_sum(reps: dict) -> GradedModule:
    """The direct sum over ascending j of Lambda(g1) (x) reps[j], with
    reps[j] placed in degree j, over the algebra of the Reps.

    Odd generators act by left wedge on the exterior factor; even ones by
    the derivation action on Lambda(g1) plus the given action on Q.  The
    window is [min j, max j + dim1], and the basis is that of
    `induced_blocks`: block (j, S) of degree l is e_S (x) Q_j, with the
    lexicographic Kronecker convention.  Each action matrix is written
    once, by one `Matrix.place_kron`, from the blocks of Lambda(g1):
    x acts on summand j of degree l by x_(l-j) (x) I + I (x) x_Q, and
    e maps it into summand j of degree l + 1 by e_(l-j) (x) I.

    Nothing is checked here.  Every action matrix is block diagonal over
    the summands, so each identity holds summand by summand.  In each,
    the derivations extend the g0-representation g1 (checked where the
    algebra came in) to one on each Lambda^l, left wedges anticommute,
    and [x, e_i ^ -] = (x.e_i) ^ - as x acts by derivations; the action
    on Q_j is a representation (checked where reps[j] came in, or built
    as one) and commutes with every action on the exterior factor.  Reps
    over another algebra are refused.
    """
    if not reps:
        raise ModuleError("an induced sum needs at least one summand")
    alg = next(iter(reps.values())).alg
    if any(q.alg != alg for q in reps.values()):
        raise ModuleError("algebra mismatch in induced sum")
    n = alg.dim1
    check_exterior_size(n, max(1, sum(q.dim for q in reps.values())), "the induced module")
    even, wedge = exterior_even_action(alg), exterior_odd_action(n)
    lo, hi = min(reps), max(reps) + n
    # per degree l: {j: offset of summand j}, and the dimension; degree
    # hi + 1, empty, is the target of the odd action on degree hi
    offsets, dims = [], []
    for l in range(lo, hi + 2):
        off, run = {}, 0
        for j in sorted(reps):
            if 0 <= l - j <= n:
                off[j] = run
                run += comb(n, l - j) * reps[j].dim
        offsets.append(off)
        dims.append(run)
    rho0, odd = [], []
    for k, l in enumerate(range(lo, hi + 1)):
        rho0.append(tuple(
            Matrix.place_kron(dims[k], dims[k], [
                blk
                for j, c0 in offsets[k].items()
                for blk in ((c0, c0, 1, even[l - j][i], reps[j].dim, True),
                            (c0, c0, 1, reps[j].mats[i], comb(n, l - j), False))
            ])
            for i in range(alg.dim0)
        ))
        odd.append(tuple(
            Matrix.place_kron(dims[k + 1], dims[k], [
                (offsets[k + 1][j], c0, 1, wedge[l - j][e], reps[j].dim, True)
                for j, c0 in offsets[k].items()
                if j in offsets[k + 1]
            ])
            for e in range(n)
        ))
    return _assemble(alg, lo, hi, dims[:-1], rho0, odd)


def induced_module(q: Rep, base_degree: int = 0) -> GradedModule:
    """Lambda(g1) (x) Q graded by exterior degree + base_degree: the
    one-summand case of `induced_sum`, so its degree-(base_degree + l)
    basis is the (size, lex) subset basis of Lambda^l(g1) kron that of Q.
    Total dimension is 2^dim1 * dim Q.
    """
    return induced_sum({base_degree: q})


def submodule(v: GradedModule, basis: dict):
    """Module structure on an action-stable graded subspace.

    basis: degree -> Matrix whose independent columns span the subspace
    in that degree.  Returns (module, embedding).  Raises if a degree is
    outside V's window, a matrix has the wrong number of rows, the
    columns are dependent or the span is not stable under all actions.
    The caller's basis is checked by its shapes, one rank and the
    stability solves, which find each action X on the subspace with
    b X = A b.  Both results are then assembled: b is injective, so each
    identity of the A's carries over to the X's, and the embedding's
    squares are those solves.
    """
    lo = v.lo
    hi = v.hi
    for j, b in basis.items():
        if not lo <= j <= hi:
            raise ModuleError(f"submodule basis given at degree {j}, outside the window [{lo}, {hi}]")
        if b.rows != v.dim_at(j):
            raise ModuleError(f"submodule basis at degree {j} has {b.rows} rows, not dim V^{j} = {v.dim_at(j)}")
    cols = {j: basis.get(j, Matrix.zero(v.dim_at(j), 0)) for j in v.degrees()}
    dims, rho0, odd = [], [], []
    for j in v.degrees():
        b = cols[j]
        if b.rank() != b.cols:
            raise ModuleError(f"submodule basis columns are dependent at degree {j}")
        dims.append(b.cols)
        mats = []
        for i in range(v.alg.dim0):
            x = b.solve_matrix(v.rho_at(j, i) * b)
            if x is None:
                raise ModuleError(f"subspace not g0-stable at degree {j}")
            mats.append(x)
        rho0.append(tuple(mats))
    for j in v.degrees():
        b = cols[j]
        bt = cols.get(j + 1, Matrix.zero(v.dim_at(j + 1), 0))
        mats = []
        for e in range(v.alg.dim1):
            img = v.odd_at(j, e) * b
            if j + 1 > hi:
                if not img.is_zero():
                    raise ModuleError("odd action escapes the window")
                mats.append(Matrix.zero(0, b.cols))
                continue
            x = bt.solve_matrix(img)
            if x is None:
                raise ModuleError(f"subspace not g1-stable at degree {j}")
            mats.append(x)
        odd.append(tuple(mats))
    sub = _assemble(v.alg, lo, hi, dims, rho0, odd)
    return sub, GradedMap(sub, v, {j: cols[j] for j in v.degrees() if cols[j].cols})
