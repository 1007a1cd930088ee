"""Duflo-Serganova fibers and the projective associated variety.

M_x = Ker x_M / Im x_M for the square-zero operator x_M; the variety is
the rank-deficiency locus, cut out by the minors of the symbolic matrix
x_M(t) with entries linear in the odd coordinates.  x_M(t) maps degree j
only to degree j + 1, so each of its nonzero minors is, up to sign, a
product of minors of the degree blocks a^j(t), and `variety_ideal`
builds the ideal from those.
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


# work units `variety_ideal` may spend, each charged before its work is
# done: an entry of a block a^j(t), a (rows, cols) pair whose block minor is
# looked up, a minor expanded by cofactors, and |p| |q| for a product of
# polynomials of |p| and |q| terms.  Measured in process on a 2-CPU host, a
# unit takes 3.3-5.5 us, so a refusal comes after about 0.4 s; the modules
# the former caps on total dimension (15) and on minor terms accepted take
# at most 27 672 units, a dense basis of random_module(163, 15)
MINOR_BUDGET = 100_000


class _Budget:
    """The work units one `variety_ideal` has left."""

    def __init__(self):
        self.left = MINOR_BUDGET

    def charge(self, units: int):
        if units > self.left:
            raise ValueError(
                f"the minors of x_M(t) take more work than the limit of {MINOR_BUDGET} units; "
                "use the sampling test instead (variety --sample)"
            )
        self.left -= units


def _symbolic_blocks(m: GradedModule, budget: _Budget) -> list:
    """(row offset, column offset, a^j(t)) per degree j, where a^j(t) =
    sum_e t_e a_e^j, the block of x_M(t) from degree j to degree j + 1,
    is a list of rows of linear forms in t_1..t_n and the offsets place
    it in the total space, degrees in increasing order."""
    n1 = m.alg.dim1
    units = [tuple(int(i == e) for i in range(n1)) for e in range(n1)]
    out, c0 = [], 0
    for j in m.degrees():
        rows, cols = m.dim_at(j + 1), m.dim_at(j)
        budget.charge(rows * cols)
        terms = [[{} for _ in range(cols)] for _ in range(rows)]
        for e in range(n1):
            for r, c, x in m.odd_at(j, e).nonzeros():
                terms[r][c][units[e]] = x
        out.append((c0 + cols, c0, [[Polynomial(n1, t) for t in row] for row in terms]))
        c0 += cols
    return out


def _poly_det(entries, rows: tuple, cols: tuple, memo: dict, budget: _Budget) -> Polynomial:
    """Determinant of entries[rows][cols] (k >= 1 of each) by cofactor
    expansion along the first row.  `memo` keeps each minor of size >= 2
    once found, so the minors of one block share their subminors."""
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    p = memo.get((rows, cols))
    if p is None:
        budget.charge(1)
        r, sub = rows[0], rows[1:]
        p = Polynomial(entries[r][cols[0]].nvars)
        for ci, c in enumerate(cols):
            a = entries[r][c]
            if not a.is_zero():
                minor = _poly_det(entries, sub, cols[:ci] + cols[ci + 1 :], memo, budget)
                if not minor.is_zero():
                    budget.charge(len(a.terms) * len(minor.terms))
                    term = a * minor
                    p = p + (-term if ci % 2 else term)
        memo[(rows, cols)] = p
    return p


def _block_minors(entries, s: int, memo: dict, budget: _Budget) -> dict:
    """The distinct nonzero minors of size s of the block `entries` (rows
    of Polynomials), monic, each mapped to (rows, cols) of its first
    occurrence in the order of (rows, cols), increasing tuples of block
    indices; the one minor of size 0 is None.  `memo` is `_poly_det`'s,
    for this block."""
    if s == 0:
        return {None: ((), ())}
    live_rows = [r for r, row in enumerate(entries) if any(not p.is_zero() for p in row)]
    live_cols = [c for c in range(len(entries[0]))
                 if any(not row[c].is_zero() for row in entries)]
    first = {}
    for rows in combinations(live_rows, s):
        for cols in combinations(live_cols, s):
            budget.charge(1)
            p = _poly_det(entries, rows, cols, memo, budget)
            if not p.is_zero():
                first.setdefault(p.monic(), (rows, cols))
    return first


def variety_ideal(m: GradedModule) -> PolyIdeal:
    """Determinantal ideal of the associated variety.

    Generators are all minors of size ceil(dim M / 2) of x_M(t); a point
    lies in the variety iff every generator vanishes there.  x_M(t) has
    nonzero blocks a^j(t) only from degree j to j + 1, so a minor on rows
    R and columns C is nonzero only if R meets degree j + 1 in as many
    indices as C meets degree j, for every j, and it is then +- the
    product of the block minors a^j(t)[R_(j+1), C_j].  The minors of each
    block are combined across blocks and taken in the order of (R, C), so
    the generators are the distinct monic minors in the order of their
    first occurrence among the rows-then-columns combinations.  Neither
    the dimension nor the block shapes bound the cost, so the work is
    counted as it is done, and a module that needs more than
    `MINOR_BUDGET` units of it is refused.
    """
    n1 = m.alg.dim1
    size = ceil(Fraction(m.total_dim, 2))
    if size == 0:
        return PolyIdeal(n1, ())
    budget = _Budget()
    blocks = _symbolic_blocks(m, budget)
    caps = [min(len(a), len(a[0]) if a else 0) for _, _, a in blocks]
    later = sum(caps)
    # per product of one minor from each block so far, the global (rows,
    # cols) of its first occurrence.  Two choices with one product have
    # one size (its degree), and each later block appends the same rows
    # and columns to both, so the first stays first; a product of monic
    # factors is monic, as grlex is a monomial order
    first = {None: ((), ())}
    for k, (r0, c0, a) in enumerate(blocks):
        later -= caps[k]
        minors, memo, grown = {}, {}, {}
        for p, (rows, cols) in first.items():
            for s in range(max(0, size - later - len(rows)), min(caps[k], size - len(rows)) + 1):
                if s not in minors:
                    minors[s] = [(q, tuple(r0 + r for r in br), tuple(c0 + c for c in bc))
                                 for q, (br, bc) in _block_minors(a, s, memo, budget).items()]
                for q, br, bc in minors[s]:
                    if p is not None and q is not None:
                        budget.charge(len(p.terms) * len(q.terms))
                    pq = q if p is None else p if q is None else p * q
                    key = (rows + br, cols + bc)
                    if pq not in grown or key < grown[pq]:
                        grown[pq] = key
        first = grown
    return PolyIdeal(n1, tuple(sorted(first, key=first.get)))


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
