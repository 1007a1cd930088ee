"""The correspondence between graded modules and rigid complexes.

A rigid complex is stored as the matrix family D_e^j, the coordinates of
the differential d^j under the dual-basis identification of the twisting
sheaf's global sections with g1*.  The sign convention s(j) = (-1)^j is
used symmetrically in both directions, so the roundtrip is the identity
on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SuperAlgebra
from .gradedmod import GradedModule, ModuleError, make_module
from .linalg import Matrix, scalar


@dataclass(frozen=True)
class RigidComplex:
    alg: SuperAlgebra
    lo: int
    hi: int
    dims: tuple
    rho0: tuple  # per degree, tuple of dim0 matrices (the g0-structure)
    diff: tuple  # per degree, tuple of dim1 matrices dims[j+1] x dims[j]

    def dim_at(self, j: int) -> int:
        if self.lo <= j <= self.hi:
            return self.dims[j - self.lo]
        return 0

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def rho_at(self, j: int, i: int) -> Matrix:
        if self.lo <= j <= self.hi:
            return self.rho0[j - self.lo][i]
        return Matrix.zero(0, 0)

    def diff_at(self, j: int, e: int) -> Matrix:
        if self.lo <= j <= self.hi:
            return self.diff[j - self.lo][e]
        return Matrix.zero(self.dim_at(j + 1), 0)


@dataclass(frozen=True)
class OddPoint:
    """A representative of a point of P(g1): a nonzero coordinate vector."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(scalar(c) for c in self.coords))
        if all(c == 0 for c in self.coords):
            raise ValueError("odd point must have a nonzero coordinate vector")

    def scale(self, c) -> "OddPoint":
        return OddPoint(tuple(scalar(c) * x for x in self.coords))


@dataclass(frozen=True)
class FiberComplex:
    lo: int
    hi: int
    dims: tuple
    d: tuple  # d[j-lo]: dims[j+1] x dims[j]

    def dim_at(self, j: int) -> int:
        if self.lo <= j <= self.hi:
            return self.dims[j - self.lo]
        return 0

    def d_at(self, j: int) -> Matrix:
        if self.lo <= j <= self.hi:
            return self.d[j - self.lo]
        return Matrix.zero(self.dim_at(j + 1), 0)

    def degrees(self):
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class CohomologyTable:
    """degree -> dimension, the universal output of all cohomology calculators."""

    entries: tuple  # sorted tuple of (degree, dim)
    context: str = ""

    @staticmethod
    def from_dict(d: dict, context: str = "") -> "CohomologyTable":
        items = tuple(sorted((int(k), int(v)) for k, v in d.items()))
        if any(v < 0 for _, v in items):
            raise ValueError("cohomology dimensions must be nonnegative")
        return CohomologyTable(items, context)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def dim(self, degree: int) -> int:
        return dict(self.entries).get(degree, 0)

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)


def _sign(j: int) -> int:
    return -1 if j % 2 else 1


def _check_complex(l: RigidComplex):
    alg = l.alg
    n0, n1 = alg.dim0, alg.dim1
    for j in l.degrees():
        d = l.dim_at(j)
        # symmetrized composability: this is d^(j+1) d^j = 0 coefficientwise
        for e in range(n1):
            for f in range(e, n1):
                s = l.diff_at(j + 1, e) * l.diff_at(j, f) + l.diff_at(j + 1, f) * l.diff_at(j, e)
                if not s.is_zero():
                    raise ModuleError(f"composability fails at degree {j}, pair ({e},{f})")
        # g0-equivariance of the differential
        for i in range(n0):
            for e in range(n1):
                lhs = l.rho_at(j + 1, i) * l.diff_at(j, e) - l.diff_at(j, e) * l.rho_at(j, i)
                rhs = Matrix.zero(l.dim_at(j + 1), d)
                ai = alg.odd.action[i]
                for k in range(n1):
                    c = ai.data[k][e]
                    if c != 0:
                        rhs = rhs + l.diff_at(j, k).scale(c)
                if lhs != rhs:
                    raise ModuleError(f"equivariance fails at degree {j}, even {i}, odd {e}")


def make_complex(alg, lo, hi, dims, rho0, diff) -> RigidComplex:
    l = RigidComplex(alg, lo, hi, tuple(dims), tuple(map(tuple, rho0)), tuple(map(tuple, diff)))
    _check_complex(l)
    return l


def L_of(v: GradedModule) -> RigidComplex:
    """Module -> rigid complex: D_e^j = (-1)^j a_e^j."""
    diff = []
    for j in v.degrees():
        s = _sign(j)
        diff.append(tuple(m.scale(s) for m in v.odd[j - v.lo]))
    return make_complex(v.alg, v.lo, v.hi, v.dims, v.rho0, diff)


def V_of(l: RigidComplex) -> GradedModule:
    """Rigid complex -> module, inverting L_of exactly: a_e^j = (-1)^j D_e^j."""
    odd = []
    for j in l.degrees():
        s = _sign(j)
        odd.append(tuple(m.scale(s) for m in l.diff[j - l.lo]))
    return make_module(l.alg, l.lo, l.hi, l.dims, l.rho0, odd)


def map_on_complexes(phi, lv: RigidComplex, lw: RigidComplex) -> bool:
    """Check that a graded map's matrices commute with the D families."""
    degs = sorted(set(lv.degrees()) | set(lw.degrees()))
    for j in degs:
        for e in range(lv.alg.dim1):
            if phi.comp_at(j + 1) * lv.diff_at(j, e) != lw.diff_at(j, e) * phi.comp_at(j):
                return False
    return True


def fiber(l: RigidComplex, x: OddPoint) -> FiberComplex:
    """Evaluate the differentials at a rational point of P(g1)."""
    if len(x.coords) != l.alg.dim1:
        raise ValueError("point dimension does not match the odd part")
    ds = []
    for j in l.degrees():
        m = Matrix.zero(l.dim_at(j + 1), l.dim_at(j))
        for e, c in enumerate(x.coords):
            if c != 0:
                m = m + l.diff_at(j, e).scale(c)
        ds.append(m)
    f = FiberComplex(l.lo, l.hi, l.dims, tuple(ds))
    for j in f.degrees():
        if not (f.d_at(j + 1) * f.d_at(j)).is_zero():
            raise ModuleError("fiber differential does not square to zero")
    return f


def fiber_cohomology(f: FiberComplex) -> CohomologyTable:
    """dim H^j = dims[j] - rank d^j - rank d^(j-1), exactly."""
    ranks = {j: f.d_at(j).rank() for j in f.degrees()}
    out = {}
    for j in f.degrees():
        out[j] = f.dim_at(j) - ranks.get(j, 0) - ranks.get(j - 1, 0)
    return CohomologyTable.from_dict(out, context="fiber")
