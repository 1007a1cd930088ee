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
the roundtrip is the identity on the nose.  At a point x of P(g1) both
the fiber of L(V) and the DS fiber V_x are the cohomology of V
restricted to the line k[x]/(x^2) through x (`fiber`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import grassmann
from .gradedmod import GradedModule, make_module
from .linalg import Matrix, scalar

# the line k[x]/(x^2) = Lambda(kx), over which every fiber is a module
LINE = grassmann(1)


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
class CohomologyTable:
    """degree -> dimension, the universal output of all cohomology calculators."""

    entries: tuple  # sorted tuple of (degree, dim)

    @staticmethod
    def from_dict(d: dict) -> "CohomologyTable":
        items = tuple(sorted((int(k), int(v)) for k, v in d.items()))
        if any(v < 0 for _, v in items):
            raise ValueError("cohomology dimensions must be nonnegative")
        return CohomologyTable(items)

    @staticmethod
    def of_complex(dims: dict, ranks: dict) -> "CohomologyTable":
        """Cohomology of a complex of finite-dimensional spaces:
        dim H^j = dims[j] - rank d^j - rank d^(j-1) for each degree j in
        dims, where ranks[j] is the rank of d^j: C^j -> C^(j+1) and a
        degree missing from ranks has no differential (rank 0)."""
        out = {j: d - ranks.get(j, 0) - ranks.get(j - 1, 0) for j, d in dims.items()}
        return CohomologyTable.from_dict(out)

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


def fiber(v: GradedModule, x: OddPoint) -> GradedModule:
    """v restricted to the line through x: the module over `LINE` =
    Lambda(kx) with the one odd matrix a_x^j = sum_e x_e a_e^j per degree,
    for v a module or its rigid complex (whose a_x is the fiber
    differential d_x).  It is assembled without a check: a_x^(j+1) a_x^j
    is the sum over e, f of x_e x_f a_e^(j+1) a_f^j, which vanishes by the
    anticommutation identity `make_module` verified on v.  M_x = 0 exactly
    when this restriction is free (Duflo-Serganova)."""
    if len(x.coords) != v.alg.dim1:
        raise ValueError("point dimension does not match the odd part")
    odd = []
    for per in v.odd:
        a = Matrix.zero(per[0].rows, per[0].cols)
        for f, c in zip(per, x.coords):
            if c != 0:
                a = a + f.scale(c)
        odd.append((a,))
    return GradedModule(LINE, v.lo, v.hi, v.dims, ((),) * len(v.dims), tuple(odd))


def fiber_cohomology(f: GradedModule) -> CohomologyTable:
    """The cohomology of a module over `LINE`, as a complex under its odd
    matrix: dim H^j = dims[j] - rank a^j - rank a^(j-1), exactly."""
    if f.alg.dim1 != 1:
        raise ValueError("fiber cohomology needs a module over the line, such as a fiber")
    ranks = {j: f.odd_at(j, 0).rank() for j in f.degrees()}
    return CohomologyTable.of_complex(dict(zip(f.degrees(), f.dims)), ranks)
