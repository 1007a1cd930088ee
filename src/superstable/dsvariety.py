"""Duflo-Serganova fibers and the projective associated variety.

M_x = Ker x_M / Im x_M for the square-zero operator x_M; the variety is
the rank-deficiency locus, cut out by the minors of the symbolic matrix
x_M(t) with entries linear in the odd coordinates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import ceil

from .gradedmod import GradedModule
from .linalg import Polynomial
from .record import Record
from .rigid import CohomologyTable, L_of, OddPoint, fiber, fiber_cohomology


class PolyIdeal(Record):
    nvars: int
    generators: tuple

    def vanishes_at(self, point) -> bool:
        return all(g.eval(point) == 0 for g in self.generators)


class DsResult(Record):
    """The DS fiber M_x at one point: `ds_dim` = dim M - 2 rank x_M from
    the module, `per_degree` from the fiber of the rigid complex.  A record
    whose two computations disagree is refused."""

    point: OddPoint
    total_dim: int
    rank_x: int
    per_degree: CohomologyTable

    def __post_init__(self):
        if not self.consistent:
            raise ValueError(
                f"DS dimension {self.ds_dim} disagrees with the fiber cohomology "
                f"total {self.per_degree.total}"
            )

    @property
    def ds_dim(self) -> int:
        return self.total_dim - 2 * self.rank_x

    @property
    def in_variety(self) -> bool:
        """x lies in the associated variety: the DS fiber is nonzero."""
        return self.ds_dim > 0

    @property
    def consistent(self) -> bool:
        return self.ds_dim == self.per_degree.total


def ds_at(m: GradedModule, x: OddPoint) -> DsResult:
    """Dimensions of the DS fiber M_x, with its grading refinement."""
    return _ds_result(m, L_of(m), x)


def _ds_result(m: GradedModule, lm: GradedModule, x: OddPoint) -> DsResult:
    """`ds_at(m, x)` with the rigid complex lm = L_of(m) already built.

    rank x_M is summed over the degree blocks a_x^j of m's fiber at x;
    the graded table is the cohomology of lm's fiber at x."""
    r = sum(a.rank() for (a,) in fiber(m, x).odd)
    per = fiber_cohomology(fiber(lm, x))
    return DsResult(x, m.total_dim, r, per)


def in_variety(m: GradedModule, x: OddPoint) -> bool:
    """True iff rank x_M < dim M / 2, equivalently the DS fiber is nonzero."""
    return ds_at(m, x).in_variety


def symbolic_x_matrix(m: GradedModule) -> list:
    """x_M(t) as a total-space matrix of linear forms in t_1..t_n."""
    n1 = m.alg.dim1
    n = m.total_dim
    rows = [[Polynomial(n1) for _ in range(n)] for _ in range(n)]
    for e in range(n1):
        te = Polynomial.variable(n1, e)
        for r, c, x in m.total_odd(e).nonzeros():
            rows[r][c] = rows[r][c] + te.scale(x)
    return rows


def _poly_det(entries, rows, cols) -> Polynomial:
    """Determinant by cofactor expansion along the sparsest row."""
    nvars = entries[0][0].nvars if entries else 0
    k = len(rows)
    if k == 0:
        return Polynomial.constant(nvars, 1)
    if k == 1:
        return entries[rows[0]][cols[0]]
    # pick the row with the fewest nonzero entries
    best, best_nz = None, None
    for ri, r in enumerate(rows):
        nz = sum(1 for c in cols if not entries[r][c].is_zero())
        if best_nz is None or nz < best_nz:
            best, best_nz = ri, nz
            if nz == 0:
                return Polynomial(entries[r][cols[0]].nvars)
    r = rows[best]
    sub_rows = rows[:best] + rows[best + 1 :]
    total = Polynomial(entries[r][cols[0]].nvars)
    for ci, c in enumerate(cols):
        p = entries[r][c]
        if p.is_zero():
            continue
        sub = _poly_det(entries, sub_rows, cols[:ci] + cols[ci + 1 :])
        term = p * sub
        if (best + ci) % 2:
            term = -term
        total = total + term
    return total


# largest total dimension whose minors `variety_ideal` enumerates; measured:
# at most 0.1 s over the random modules of total dimension 10-12
MAX_MINOR_DIM = 12


def variety_ideal(m: GradedModule) -> PolyIdeal:
    """Determinantal ideal of the associated variety.

    Generators are all minors of size ceil(dim M / 2) of x_M(t); a point
    lies in the variety iff every generator vanishes there.  Minor
    enumeration is combinatorial, so a module of total dimension over
    `MAX_MINOR_DIM` is refused.
    """
    n1 = m.alg.dim1
    d = m.total_dim
    if d > MAX_MINOR_DIM:
        raise ValueError(
            f"total dimension {d} exceeds the minor-enumeration cap {MAX_MINOR_DIM}; "
            "use the sampling test instead"
        )
    size = ceil(Fraction(d, 2))
    entries = symbolic_x_matrix(m)
    if size == 0:
        return PolyIdeal(n1, ())
    # rows/columns that are identically zero can never be in a nonzero minor
    live_rows = [r for r in range(d) if any(not p.is_zero() for p in entries[r])]
    live_cols = [c for c in range(d) if any(not entries[r][c].is_zero() for r in range(d))]
    gens = []
    seen = set()
    if len(live_rows) >= size and len(live_cols) >= size:
        for rows in combinations(live_rows, size):
            for cols in combinations(live_cols, size):
                p = _poly_det(entries, list(rows), list(cols))
                if p.is_zero():
                    continue
                p = p.monic()
                if p not in seen:
                    seen.add(p)
                    gens.append(p)
    return PolyIdeal(n1, tuple(gens))


def random_points(dim1: int, count: int, seed: int) -> list:
    """Reproducible sample of nonzero points with integer coordinates in
    [-9, 9].  Raises ValueError when dim1 = 0: P(g1) then has no point."""
    if dim1 < 1:
        raise ValueError("P(g1) is empty for dim g1 = 0: there is no point to sample")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coords = tuple(rng.randint(-9, 9) for _ in range(dim1))
        if any(c != 0 for c in coords):
            out.append(OddPoint(coords))
    return out


class SupportCheckReport(Record):
    entries: tuple  # one DsResult per sample

    @property
    def ok(self) -> bool:
        return all(e.consistent for e in self.entries)


def support_check(m: GradedModule, samples) -> SupportCheckReport:
    """Fiberwise comparison of rigid-complex cohomology with the DS fiber:
    the `DsResult` of each sample, which refuses a disagreement.  L_of(m)
    is built once for all samples.
    """
    lm = L_of(m)
    return SupportCheckReport(tuple(_ds_result(m, lm, x) for x in samples))
