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

    @staticmethod
    def of_complex(dims: dict, ranks: dict, context: str = "") -> "CohomologyTable":
        """Cohomology of a complex of finite-dimensional spaces:
        dim H^j = dims[j] - rank d^j - rank d^(j-1) for each degree j in
        dims, where ranks[j] is the rank of d^j: C^j -> C^(j+1) and a
        degree missing from ranks has no differential (rank 0)."""
        out = {j: d - ranks.get(j, 0) - ranks.get(j - 1, 0) for j, d in dims.items()}
        return CohomologyTable.from_dict(out, context)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def dim(self, degree: int) -> int:
        return dict(self.entries).get(degree, 0)

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)


def _signed(lo: int, fam) -> list:
    """The family with its degree-j matrices times (-1)^j, degrees from lo:
    the sign between D and a, in either direction."""
    return [tuple(m.scale(-1 if (lo + k) % 2 else 1) for m in per) for k, per in enumerate(fam)]


def make_complex(alg, lo, hi, dims, rho0, diff) -> RigidComplex:
    """Build a validated rigid complex; raises ModuleError with the first
    failing identity.  The module identities (`make_module`) check it:
    D^j = (-1)^j a^j multiplies each anticommutation sum by -1 and each
    equivariance identity by (-1)^j, so the family is a rigid complex
    exactly when it is a valid odd action (composability is the
    anticommutation identity).  The shapes and that rho0 is a
    g0-representation in every degree are checked too."""
    v = make_module(alg, lo, hi, dims, rho0, diff)
    return RigidComplex(v.alg, v.lo, v.hi, v.dims, v.rho0, v.odd)


def L_of(v: GradedModule) -> RigidComplex:
    """Module -> rigid complex: D_e^j = (-1)^j a_e^j."""
    return make_complex(v.alg, v.lo, v.hi, v.dims, v.rho0, _signed(v.lo, v.odd))


def V_of(l: RigidComplex) -> GradedModule:
    """Rigid complex -> module, inverting L_of exactly: a_e^j = (-1)^j D_e^j."""
    return make_module(l.alg, l.lo, l.hi, l.dims, l.rho0, _signed(l.lo, l.diff))


def evaluate_at(fam, x: OddPoint, dim1: int) -> list:
    """A per-degree odd family at x: F_x^j = sum_e x_e F_e^j for each degree.

    fam[k] holds the dim1 matrices F_e^j of the k-th degree of the window.
    On a complex's `diff` this gives the fiber differentials d_x^j; on a
    module's `odd` it gives the blocks a_x^j of x_M, which is
    block-subdiagonal, so rank x_M is the sum of their ranks."""
    if len(x.coords) != dim1:
        raise ValueError("point dimension does not match the odd part")
    out = []
    for per in fam:
        m = Matrix.zero(per[0].rows, per[0].cols)
        for f, c in zip(per, x.coords):
            if c != 0:
                m = m + f.scale(c)
        out.append(m)
    return out


def fiber(l: RigidComplex, x: OddPoint) -> FiberComplex:
    """Evaluate the differentials at a rational point of P(g1)."""
    f = FiberComplex(l.lo, l.hi, l.dims, tuple(evaluate_at(l.diff, x, l.alg.dim1)))
    for j in f.degrees():
        if not (f.d_at(j + 1) * f.d_at(j)).is_zero():
            raise ModuleError("fiber differential does not square to zero")
    return f


def fiber_cohomology(f: FiberComplex) -> CohomologyTable:
    """dim H^j = dims[j] - rank d^j - rank d^(j-1), exactly."""
    ranks = {j: f.d_at(j).rank() for j in f.degrees()}
    return CohomologyTable.of_complex(dict(zip(f.degrees(), f.dims)), ranks, context="fiber")
