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
from math import ceil, comb

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


def _symbolic_blocks(m: GradedModule) -> list:
    """(row offset, column offset, a^j(t)) per degree j, where a^j(t) =
    sum_e t_e a_e^j, the block of x_M(t) from degree j to degree j + 1,
    is a list of rows of linear forms in t_1..t_n and the offsets place
    it in the total space, degrees in increasing order."""
    n1 = m.alg.dim1
    units = [tuple(int(i == e) for i in range(n1)) for e in range(n1)]
    out, c0 = [], 0
    for j in m.degrees():
        rows, cols = m.dim_at(j + 1), m.dim_at(j)
        terms = [[{} for _ in range(cols)] for _ in range(rows)]
        for e in range(n1):
            for r, c, x in m.odd_at(j, e).nonzeros():
                terms[r][c][units[e]] = x
        out.append((c0 + cols, c0, [[Polynomial(n1, t) for t in row] for row in terms]))
        c0 += cols
    return out


def _poly_det(entries, rows: tuple, cols: tuple, memo: dict) -> Polynomial:
    """Determinant of entries[rows][cols] (k >= 1 of each) by cofactor
    expansion along the first row.  `memo` keeps each minor of size >= 2
    once found, so the minors of one block share their subminors."""
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    p = memo.get((rows, cols))
    if p is None:
        r, sub = rows[0], rows[1:]
        p = Polynomial(entries[r][cols[0]].nvars)
        for ci, c in enumerate(cols):
            a = entries[r][c]
            if not a.is_zero():
                minor = _poly_det(entries, sub, cols[:ci] + cols[ci + 1 :], memo)
                if not minor.is_zero():
                    term = a * minor
                    p = p + (-term if ci % 2 else term)
        memo[(rows, cols)] = p
    return p


def _block_minors(entries, s: int, memo: dict) -> dict:
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
            p = _poly_det(entries, rows, cols, memo)
            if not p.is_zero():
                first.setdefault(p.monic(), (rows, cols))
    return first


# largest total dimension whose minors `variety_ideal` enumerates; measured
# in process on a 2-CPU host: at most 2.1 ms over the 84 random modules of
# total dimension 13-15 among `random_module(seed, 15)`, seeds 0-1499, and
# at most 40 ms over the same modules in a dense basis (a random integer
# unitriangular change of basis in each degree).  At dimension 16 a dense
# basis of a (2, 6, 6, 2) module takes 1.4-4.9 s for its ~10^4 generators
MAX_MINOR_DIM = 15

# most terms C(s + n - 1, s), the monomials of degree s in n odd
# coordinates, that a block minor of size s may have: per block of x_M(t),
# s is the largest size it contributes to the minors `variety_ideal`
# takes and n the number of odd basis elements acting nonzero on it.
# The cost of a cofactor expansion grows with it, and the total dimension
# does not bound it.  Measured in process on a 2-CPU host, a dense
# two-degree (d, d) module over grassmann(n): at most 92 ms over the
# modules at or under the limit, (7, 7) over grassmann(3) at 36 terms the
# slowest, as slow as dim g1 <= 3 allows within `MAX_MINOR_DIM`; (6, 6)
# over grassmann(4), at the limit, 80 ms.  Over it, (5, 5) over
# grassmann(5) at 126 terms takes 52 ms, (7, 7) over grassmann(4) at 120
# 0.24 s, (6, 6) over grassmann(8) at 1716 1.2 s and (7, 7) over
# grassmann(10) at 11440 9.9 s
MAX_MINOR_TERMS = 84


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
    first occurrence among the rows-then-columns combinations.  Minor
    enumeration is combinatorial, so a module of total dimension over
    `MAX_MINOR_DIM` is refused, and so is one whose block minors may have
    more than `MAX_MINOR_TERMS` terms, before any minor is formed.
    """
    n1 = m.alg.dim1
    d = m.total_dim
    if d > MAX_MINOR_DIM:
        raise ValueError(
            f"total dimension {d} exceeds the minor-enumeration cap {MAX_MINOR_DIM}; "
            "use the sampling test instead"
        )
    size = ceil(Fraction(d, 2))
    if size == 0:
        return PolyIdeal(n1, ())
    worst = (1, 0, 0)  # (terms, size, odd coordinates) of the largest block minor
    for j in m.degrees():
        s = min(size, m.dim_at(j), m.dim_at(j + 1))
        n = sum(1 for e in range(n1) if not m.odd_at(j, e).is_zero())
        if s and n:
            worst = max(worst, (comb(s + n - 1, s), s, n))
    terms, s, n = worst
    if terms > MAX_MINOR_TERMS:
        raise ValueError(
            f"a block minor of size {s} in {n} odd coordinates has up to {terms} terms, "
            f"over the limit of {MAX_MINOR_TERMS}; use the sampling test instead (variety --sample)"
        )
    blocks = _symbolic_blocks(m)
    caps = [min(len(a), len(a[0]) if a else 0) for _, _, a in blocks]
    # per product of one minor from each block so far, the global (rows,
    # cols) of its first occurrence.  Two choices with one product have
    # one size (its degree), and each later block appends the same rows
    # and columns to both, so the first stays first; a product of monic
    # factors is monic, as grlex is a monomial order
    first = {None: ((), ())}
    for k, (r0, c0, a) in enumerate(blocks):
        later = sum(caps[k + 1 :])
        minors, memo, grown = {}, {}, {}
        for p, (rows, cols) in first.items():
            for s in range(max(0, size - later - len(rows)), min(caps[k], size - len(rows)) + 1):
                if s not in minors:
                    minors[s] = [(q, tuple(r0 + r for r in br), tuple(c0 + c for c in bc))
                                 for q, (br, bc) in _block_minors(a, s, memo).items()]
                for q, br, bc in minors[s]:
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
