"""The correspondence between graded modules and rigid complexes.

The rigid complex L(V) = sum over j of V^j (x) O(j), with differential
d = sum over e of a_e (x) t_e, is stored as a `GradedModule` whose odd
family is D_e^j = (-1)^j a_e^j: the coordinates of d^j under the
dual-basis identification of the twisting sheaf's global sections with
g1*.  The sign multiplies each anticommutation sum by -1 and each
equivariance identity by (-1)^j, so a family is a rigid complex exactly
when it is a valid odd action, and composability d^(j+1) d^j = 0 is the
anticommutation identity: `make_module` validates both.  The sign
convention s(j) = (-1)^j is used symmetrically in both directions, so
the roundtrip is the identity on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gradedmod import GradedModule, make_module
from .linalg import Matrix, scalar


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


def _signed(lo: int, fam) -> tuple:
    """The family with its degree-j matrices times (-1)^j, degrees from lo:
    the sign between D and a, in either direction."""
    return tuple(tuple(m.scale(-1 if (lo + k) % 2 else 1) for m in per) for k, per in enumerate(fam))


def L_of(v: GradedModule) -> GradedModule:
    """Module -> rigid complex: D_e^j = (-1)^j a_e^j.  It re-validates the
    signed family of a valid module through `make_module`: not needed,
    but dropping it waits on a benchmark whose peak RSS does not grow
    with its pass count (ROADMAP item 1)."""
    return make_module(v.alg, v.lo, v.hi, v.dims, v.rho0, _signed(v.lo, v.odd))


def V_of(l: GradedModule) -> GradedModule:
    """Rigid complex -> module, inverting L_of exactly: a_e^j = (-1)^j D_e^j.
    Assembled without a re-check: l is valid (from `load_complex` or
    `L_of`), and the sign maps its identities onto the module's."""
    return GradedModule(l.alg, l.lo, l.hi, l.dims, l.rho0, _signed(l.lo, l.odd))


def evaluate_at(fam, x: OddPoint, dim1: int) -> list:
    """A per-degree odd family at x: F_x^j = sum_e x_e F_e^j for each degree.

    fam[k] holds the dim1 matrices F_e^j of the k-th degree of the window.
    On a rigid complex's odd family this gives the fiber differentials
    d_x^j; on a module's it gives the blocks a_x^j of x_M, which is
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


def fiber(l: GradedModule, x: OddPoint) -> FiberComplex:
    """Evaluate the differentials at a rational point of P(g1).  The fiber
    is a complex with nothing to check: d_x^(j+1) d_x^j is the sum over
    e, f of x_e x_f D_e^(j+1) D_f^j, which vanishes by the anticommutation
    identity `make_module` verified on l."""
    return FiberComplex(l.lo, l.hi, l.dims, tuple(evaluate_at(l.odd, x, l.alg.dim1)))


def fiber_cohomology(f: FiberComplex) -> CohomologyTable:
    """dim H^j = dims[j] - rank d^j - rank d^(j-1), exactly."""
    ranks = {j: f.d_at(j).rank() for j in f.degrees()}
    return CohomologyTable.of_complex(dict(zip(f.degrees(), f.dims)), ranks, context="fiber")
