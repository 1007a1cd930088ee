"""Finite-dimensional Z-graded g-modules: g0 acts in degree 0, g1 in degree +1.

Provides the category operations (shift, tensor, dual, right twist),
hom-space computation by linear solve, and induced modules built on the
exterior algebra of the odd part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .algebra import LieAlgebraEven, SuperAlgebra, representation_failure
from .linalg import LinearSystem, Matrix, vanishes

_ZERO = Fraction(0)


class ModuleError(ValueError):
    """Raised when module data violates shape or invariant constraints."""


# ---------------------------------------------------------------------------
# plain g0-representations (coefficients for induced modules, CE, Sym powers)


@dataclass(frozen=True)
class Rep:
    """Finite-dimensional g0-module: one dim x dim matrix per even basis index."""

    g0: LieAlgebraEven
    dim: int
    mats: tuple

    def __post_init__(self):
        if len(self.mats) != self.g0.dim0:
            raise ModuleError("one action matrix per even basis element required")
        for m in self.mats:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ModuleError("g0-action matrix of wrong shape")

    def check(self):
        bad = representation_failure(self.g0, [m.sparse_rows() for m in self.mats], self.dim)
        if bad is not None:
            raise ModuleError(f"representation property fails at ({bad[0]},{bad[1]})")
        return self

    @staticmethod
    def trivial(g0: LieAlgebraEven, dim: int) -> "Rep":
        return Rep(g0, dim, tuple(Matrix.zero(dim, dim) for _ in range(g0.dim0)))

    def dual(self) -> "Rep":
        return Rep(self.g0, self.dim, tuple((-m).transpose() for m in self.mats))

    def tensor(self, other: "Rep") -> "Rep":
        from .linalg import kron

        d = self.dim * other.dim
        mats = tuple(
            kron(a, Matrix.identity(other.dim)) + kron(Matrix.identity(self.dim), b)
            for a, b in zip(self.mats, other.mats)
        )
        return Rep(self.g0, d, mats)

    def direct_sum(self, other: "Rep") -> "Rep":
        return Rep(
            self.g0,
            self.dim + other.dim,
            tuple(Matrix.block_diag([a, b]) for a, b in zip(self.mats, other.mats)),
        )


# ---------------------------------------------------------------------------
# graded modules


@dataclass(frozen=True)
class GradedModule:
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
        n = self.total_dim
        out = [[Fraction(0)] * n for _ in range(n)]
        off = {}
        run = 0
        for j in self.degrees():
            off[j] = run
            run += self.dim_at(j)
        for j in self.degrees():
            if j + 1 > self.hi:
                continue
            a = self.odd_at(j, e)
            r0, c0 = off[j + 1], off[j]
            for r in range(a.rows):
                for c in range(a.cols):
                    out[r0 + r][c0 + c] = a.data[r][c]
        return Matrix(n, n, out)

    def rep_at(self, j: int) -> Rep:
        """Degree-j component as a plain g0-module."""
        return Rep(self.alg.even, self.dim_at(j), tuple(self.rho0[j - self.lo]))


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
    for j in v.degrees():
        # even representation property per degree
        bad = representation_failure(alg.even, rho[j], v.dim_at(j))
        if bad is not None:
            raise ModuleError(f"even representation fails at degree {j}, pair ({bad[0]},{bad[1]})")
        if j == v.hi:
            continue  # the odd action leaves the window: nothing more to check
        # mixed bracket [x_i, e] on degree j
        for i in range(n0):
            ai = alg.odd.action[i].data
            for e in range(n1):
                terms = [(1, (rho[j + 1][i], odd[j][e])), (-1, (odd[j][e], rho[j][i]))]
                terms += [(-ai[k][e], (odd[j][k],)) for k in range(n1)]
                if not vanishes(terms, v.dim_at(j + 1)):
                    raise ModuleError(f"equivariance fails at degree {j}, even {i}, odd {e}")
        # odd anticommutation
        if j + 1 < v.hi:
            for e in range(n1):
                for f in range(e, n1):
                    terms = [(1, (odd[j + 1][e], odd[j][f])), (1, (odd[j + 1][f], odd[j][e]))]
                    if not vanishes(terms, v.dim_at(j + 2)):
                        raise ModuleError(f"anticommutation fails at degree {j}, odd pair ({e},{f})")


def make_module(alg: SuperAlgebra, lo: int, hi: int, dims, rho0, odd) -> GradedModule:
    """Build a validated graded module; raises ModuleError with the first
    failing identity."""
    dims = tuple(int(d) for d in dims)
    rho0 = tuple(tuple(r) for r in rho0)
    odd = tuple(tuple(o) for o in odd)
    _check_shapes(alg, lo, hi, dims, rho0, odd)
    v = GradedModule(alg, lo, hi, dims, rho0, odd)
    _check_invariants(v)
    return v


def trivial_module(alg: SuperAlgebra, degree: int = 0, dim: int = 1) -> GradedModule:
    """dim copies of k concentrated in one degree, all actions zero."""
    return make_module(
        alg,
        degree,
        degree,
        (dim,),
        ((Matrix.zero(dim, dim),) * alg.dim0,),
        ((Matrix.zero(0, dim),) * alg.dim1,),
    )


# ---------------------------------------------------------------------------
# graded maps


@dataclass(frozen=True)
class GradedMap:
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
        """self after other."""
        if other.target != self.source:
            raise ModuleError("composition mismatch")
        comps = {
            j: self.comp_at(j) * other.comp_at(j)
            for j in other.source.degrees()
            if self.target.dim_at(j) and other.source.dim_at(j)
        }
        return make_map(other.source, self.target, comps)

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


def check_map(phi: GradedMap):
    """Verify phi commutes with every even and odd action."""
    v, w = phi.source, phi.target
    if v.alg != w.alg:
        raise ModuleError("source and target live over different algebras")
    degs = sorted(set(v.degrees()) | set(w.degrees()))
    comp = {j: phi.comp_at(j).sparse_rows() for j in {*degs, *(d + 1 for d in degs)}}
    for j in degs:
        for i in range(v.alg.dim0):
            terms = [
                (1, (comp[j], v.rho_at(j, i).sparse_rows())),
                (-1, (w.rho_at(j, i).sparse_rows(), comp[j])),
            ]
            if not vanishes(terms, w.dim_at(j)):
                raise ModuleError(f"map fails to commute with even action at degree {j}")
        for e in range(v.alg.dim1):
            terms = [
                (1, (comp[j + 1], v.odd_at(j, e).sparse_rows())),
                (-1, (w.odd_at(j, e).sparse_rows(), comp[j])),
            ]
            if not vanishes(terms, w.dim_at(j + 1)):
                raise ModuleError(f"map fails to commute with odd action at degree {j}")
    return phi


def make_map(source: GradedModule, target: GradedModule, comps: dict) -> GradedMap:
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


def direct_sum(v: GradedModule, w: GradedModule) -> GradedModule:
    if v.alg != w.alg:
        raise ModuleError("algebra mismatch in direct sum")
    lo, hi = min(v.lo, w.lo), max(v.hi, w.hi)
    dims, rho0, odd = [], [], []
    for j in range(lo, hi + 1):
        dims.append(v.dim_at(j) + w.dim_at(j))
        rho0.append(
            tuple(
                Matrix.block_diag([v.rho_at(j, i), w.rho_at(j, i)])
                for i in range(v.alg.dim0)
            )
        )
        # odd_at(j, e) has dim_at(j + 1) rows, so the block rows match
        odd.append(
            tuple(
                Matrix.block_diag([v.odd_at(j, e), w.odd_at(j, e)])
                for e in range(v.alg.dim1)
            )
        )
    return make_module(v.alg, lo, hi, dims, rho0, odd)


def tensor(v: GradedModule, w: GradedModule) -> GradedModule:
    """Graded tensor product with the Koszul sign on the odd action.

    The degree-l component is the direct sum over ascending i of
    V^i (x) W^(l-i), blocks assembled with the lexicographic Kronecker
    convention.
    """
    from .linalg import kron

    if v.alg != w.alg:
        raise ModuleError("algebra mismatch in tensor product")
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
            mats.append(
                Matrix.block_diag(
                    [
                        kron(v.rho_at(i, x), Matrix.identity(w.dim_at(j)))
                        + kron(Matrix.identity(v.dim_at(i)), w.rho_at(j, x))
                        for i, j in blocks(l)
                    ]
                )
            )
        rho0.append(tuple(mats))
    odd = []
    for l in range(lo, hi + 1):
        src = blocks(l)
        tgt = blocks(l + 1) if l < hi else []
        tgt_off = {}
        run = 0
        for i, j in tgt:
            tgt_off[(i, j)] = run
            run += v.dim_at(i) * w.dim_at(j)
        tdim = run
        mats = []
        for e in range(alg.dim1):
            out = [[Fraction(0)] * dims[l - lo] for _ in range(tdim)]
            c0 = 0
            for i, j in src:
                bdim = v.dim_at(i) * w.dim_at(j)
                # e acting on the first factor: lands in block (i+1, j)
                if (i + 1, j) in tgt_off:
                    m = kron(v.odd_at(i, e), Matrix.identity(w.dim_at(j)))
                    r0 = tgt_off[(i + 1, j)]
                    for r in range(m.rows):
                        for c in range(m.cols):
                            if m.data[r][c] != 0:
                                out[r0 + r][c0 + c] += m.data[r][c]
                # e acting on the second factor with sign (-1)^i
                if (i, j + 1) in tgt_off:
                    m = kron(Matrix.identity(v.dim_at(i)), w.odd_at(j, e))
                    sgn = -1 if i % 2 else 1
                    r0 = tgt_off[(i, j + 1)]
                    for r in range(m.rows):
                        for c in range(m.cols):
                            if m.data[r][c] != 0:
                                out[r0 + r][c0 + c] += sgn * m.data[r][c]
                c0 += bdim
            mats.append(Matrix(tdim, dims[l - lo], out))
        odd.append(tuple(mats))
    return make_module(alg, lo, hi, dims, rho0, odd)


def dual(v: GradedModule) -> GradedModule:
    """Graded dual: degree i is the dual of V^(-i).

    Even action is minus transpose; the odd action carries the super
    sign (-1)^i on degree i.  (The source text's dual-action formula
    lacks the Lie-theoretic minus sign; without it the even components
    would not be representations.)
    """
    alg = v.alg
    lo, hi = -v.hi, -v.lo
    dims = tuple(v.dim_at(-i) for i in range(lo, hi + 1))
    rho0 = tuple(
        tuple((-v.rho_at(-i, x)).transpose() for x in range(alg.dim0))
        for i in range(lo, hi + 1)
    )
    odd = []
    for i in range(lo, hi + 1):
        sgn = -1 if i % 2 else 1
        row = []
        for e in range(alg.dim1):
            if i < hi:
                a = v.odd_at(-i - 1, e)  # V^(-i-1) -> V^(-i)
                row.append(a.transpose().scale(sgn))
            else:
                row.append(Matrix.zero(0, dims[i - lo]))
        odd.append(tuple(row))
    return make_module(alg, lo, hi, dims, rho0, tuple(odd))


def double_dual_map(v: GradedModule) -> GradedMap:
    """Canonical evaluation isomorphism V -> V**, (-1)^j per degree."""
    dd = dual(dual(v))
    comps = {
        j: Matrix.identity(v.dim_at(j)).scale(-1 if j % 2 else 1) for j in v.degrees()
    }
    return make_map(v, dd, comps)


def right_twist(v: GradedModule) -> GradedModule:
    """Right-module structure stored as left data: odd action scaled by (-1)^j."""
    odd = []
    for j in v.degrees():
        sgn = -1 if j % 2 else 1
        odd.append(tuple(m.scale(sgn) for m in v.odd[j - v.lo]))
    return make_module(v.alg, v.lo, v.hi, v.dims, v.rho0, tuple(odd))


def graded_map_system(v: GradedModule, w: GradedModule, name: str = "f") -> LinearSystem:
    """LinearSystem whose unknowns `{name}{j}` are the components of a
    graded g-map v -> w, one per degree where both are nonzero, with the
    constraints that it commute with every even and odd action."""
    degs = sorted(set(v.degrees()) | set(w.degrees()))
    sys = LinearSystem()
    live = [j for j in degs if v.dim_at(j) and w.dim_at(j)]
    for j in live:
        sys.add_unknown(f"{name}{j}", w.dim_at(j), v.dim_at(j))
    for j in live:
        for i in range(v.alg.dim0):
            sys.add_constraint(
                [(1, f"{name}{j}", v.rho_at(j, i)), (w.rho_at(j, i), f"{name}{j}", -1)],
                Matrix.zero(w.dim_at(j), v.dim_at(j)),
            )
    for j in degs:
        # odd-action square at each degree, over whichever components exist
        if not (w.dim_at(j + 1) and v.dim_at(j)):
            continue
        for e in range(v.alg.dim1):
            terms = []
            if j + 1 in live:
                terms.append((1, f"{name}{j+1}", v.odd_at(j, e)))
            if j in live:
                terms.append((w.odd_at(j, e), f"{name}{j}", -1))
            if terms:
                sys.add_constraint(terms, Matrix.zero(w.dim_at(j + 1), v.dim_at(j)))
    return sys


def hom_graded(v: GradedModule, w: GradedModule) -> list:
    """Deterministic basis of the degree-preserving g-homomorphisms V -> W."""
    if v.alg != w.alg:
        raise ModuleError("algebra mismatch in hom")
    live = [j for j in sorted(set(v.degrees()) | set(w.degrees())) if v.dim_at(j) and w.dim_at(j)]
    basis = graded_map_system(v, w).solution_basis()
    return [make_map(v, w, {j: sol[f"f{j}"] for j in live}) for sol in basis]


# ---------------------------------------------------------------------------
# exterior algebra and induced modules


def wedge_insert_sign(s: tuple, i: int) -> int:
    """Sign of e_i ^ e_S relative to the ascending monomial on S u {i}."""
    return -1 if sum(1 for x in s if x < i) % 2 else 1


def exterior_odd_action(n: int):
    """Per exterior degree l, per odd index i: the left-wedge matrix
    Lambda^l -> Lambda^(l+1) in the (size, lex) subset basis."""
    by_size = [list(combinations(range(n), size)) for size in range(n + 1)]
    index = [{s: k for k, s in enumerate(lvl)} for lvl in by_size]
    out = []
    for l in range(n + 1):
        src, tgt = by_size[l], by_size[l + 1] if l < n else []
        mats = []
        for i in range(n):
            m = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
            for c, s in enumerate(src):
                if i in s or l >= n:
                    continue
                t = tuple(sorted(s + (i,)))
                m[index[l + 1][t]][c] = Fraction(wedge_insert_sign(s, i))
            mats.append(Matrix(len(tgt), len(src), m))
        out.append(mats)
    return out


def exterior_even_action(alg: SuperAlgebra):
    """Derivation action of g0 on each Lambda^l(g1) in the subset basis."""
    n = alg.dim1
    by_size = [list(combinations(range(n), size)) for size in range(n + 1)]
    index = [{s: k for k, s in enumerate(lvl)} for lvl in by_size]
    out = []
    for l in range(n + 1):
        src = by_size[l]
        mats = []
        for i in range(alg.dim0):
            ai = alg.odd.action[i]
            m = [[Fraction(0)] * len(src) for _ in range(len(src))]
            for c, s in enumerate(src):
                for pos, x in enumerate(s):
                    for k in range(n):
                        coeff = ai.data[k][x]
                        if coeff == 0:
                            continue
                        if k == x:
                            m[c][c] += coeff
                        elif k not in s:
                            rest = s[:pos] + s[pos + 1 :]
                            # sign of moving e_k into ascending position
                            sgn = -1 if sum(1 for y in rest if y < k) % 2 else 1
                            sgn *= -1 if sum(1 for y in rest if y < x) % 2 else 1
                            t = tuple(sorted(rest + (k,)))
                            m[index[l][t]][c] += sgn * coeff
            mats.append(Matrix(len(src), len(src), m))
        out.append(mats)
    return out


def induced_sum(alg: SuperAlgebra, reps: dict) -> GradedModule:
    """The direct sum over j of Lambda(g1) (x) reps[j] graded by exterior
    degree + j, built and validated as one module (each Rep is checked).

    Odd generators act by left wedge on the exterior factor; even ones by
    the derivation action on Lambda(g1) plus the given action on Q.  The
    window is [min j, max j + dim1].  Basis of degree l: ascending source
    degree j, then the (size, lex) subset basis of Lambda^(l-j)(g1), then
    the basis of reps[j] (Kronecker order), i.e. the order of the direct
    sum of the single induced modules taken in ascending j.
    """
    if not reps:
        raise ModuleError("an induced sum needs at least one summand")
    for q in reps.values():
        q.check()
    n = alg.dim1
    wedge = [[m.sparse_rows() for m in per] for per in exterior_odd_action(n)]
    deriv = [[m.sparse_rows() for m in per] for per in exterior_even_action(alg)]
    qmats = {j: [m.sparse_rows() for m in q.mats] for j, q in reps.items()}
    lo, hi = min(reps), max(reps) + n
    offsets, dims = [], []  # per degree: {j: offset of the j-th summand}, dim
    for l in range(lo, hi + 1):
        off, run = {}, 0
        for j in sorted(reps):
            if 0 <= l - j <= n:
                off[j] = run
                run += comb(n, l - j) * reps[j].dim
        offsets.append(off)
        dims.append(run)
    rho0, odd = [], []
    for k, off in enumerate(offsets):
        l = lo + k
        d, d_next = dims[k], dims[k + 1] if l < hi else 0
        per_even, per_odd = [], []
        for i in range(alg.dim0):
            # kron(derivation, I_Q) + kron(I_Lambda, Q action) per summand
            out = [[_ZERO] * d for _ in range(d)]
            for j, o in off.items():
                qd = reps[j].dim
                for a, d_row in enumerate(deriv[l - j][i]):
                    for b, q_row in enumerate(qmats[j][i]):
                        row = out[o + a * qd + b]
                        for a2, x in d_row.items():
                            row[o + a2 * qd + b] += x
                        for b2, y in q_row.items():
                            row[o + a * qd + b2] += y
            per_even.append(Matrix(d, d, out))
        for e in range(n):
            # kron(wedge, I_Q) from each summand into its next degree
            out = [[_ZERO] * d for _ in range(d_next)]
            for j, o in off.items():
                if l - j == n:
                    continue
                qd, r0 = reps[j].dim, offsets[k + 1][j]
                for a, w_row in enumerate(wedge[l - j][e]):
                    for a2, x in w_row.items():
                        for b in range(qd):
                            out[r0 + a * qd + b][o + a2 * qd + b] = x
            per_odd.append(Matrix(d_next, d, out))
        rho0.append(tuple(per_even))
        odd.append(tuple(per_odd))
    return make_module(alg, lo, hi, dims, rho0, odd)


def induced_module(alg: SuperAlgebra, q: Rep, base_degree: int = 0) -> GradedModule:
    """Lambda(g1) (x) Q graded by exterior degree + base_degree: the
    one-summand case of `induced_sum`, so its degree-(base_degree + l)
    basis is the (size, lex) subset basis of Lambda^l(g1) kron that of Q.
    Total dimension is 2^dim1 * dim Q.
    """
    return induced_sum(alg, {base_degree: q})


def submodule(v: GradedModule, basis: dict):
    """Module structure on an action-stable graded subspace.

    basis: degree -> Matrix whose columns span the subspace in that
    degree.  Returns (module, embedding).  Raises if the span is not
    stable under all actions.
    """
    lo = v.lo
    hi = v.hi
    cols = {j: basis.get(j, Matrix.zero(v.dim_at(j), 0)) for j in v.degrees()}
    dims, rho0, odd = [], [], []
    for j in v.degrees():
        b = cols[j]
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
    sub = make_module(v.alg, lo, hi, dims, rho0, odd)
    emb = make_map(sub, v, {j: cols[j] for j in v.degrees() if cols[j].cols})
    return sub, emb
