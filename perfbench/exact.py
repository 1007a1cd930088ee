"""Independent exact reference computations for the benchmark's answer checks.

Nothing here calls the linear algebra of `superstable`: modules and maps
are read through their public data fields (`dims`, `lo`, `odd`, `rho0`,
`alg`; `comps`) and every rank is taken by the sparse elimination below,
so a defect in the library's own kernels cannot also hide in the
expectation it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def sparse_rank(rows) -> int:
    """Rank over Q of rows given as dicts {column: nonzero Fraction or int}."""
    pivots = {}  # pivot column -> reduced row with coefficient 1 there
    rank = 0
    for row in rows:
        row = {c: Fraction(x) for c, x in row.items() if x}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                rank += 1
                break
            f = row[c]
            for k, v in p.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return rank


def map_rank(phi) -> int:
    """Rank of a graded map: the sum of the ranks of its components."""
    return sum(
        sparse_rank({c: x for c, x in enumerate(row) if x} for row in m.data)
        for m in phi.comps.values()
    )


def _offsets(v):
    out, run = {}, 0
    for j in range(v.lo, v.hi + 1):
        out[j] = run
        run += v.dims[j - v.lo]
    return out


def odd_total(v, e):
    """Sparse total-space matrix {(row, col): value} of the e-th odd generator."""
    off = _offsets(v)
    out = {}
    for j in range(v.lo, v.hi):
        a = v.odd[j - v.lo][e]
        for r, row in enumerate(a.data):
            for c, x in enumerate(row):
                if x:
                    out[(off[j + 1] + r, off[j] + c)] = x
    return out


def _as_rows(entries):
    rows = {}
    for (r, c), x in entries.items():
        rows.setdefault(r, {})[c] = x
    return list(rows.values())


def x_rank(v, coords) -> int:
    """rank of x_M = sum_e coords[e] * a_e on the total space."""
    acc = {}
    for e, t in enumerate(coords):
        if t:
            for rc, x in odd_total(v, e).items():
                acc[rc] = acc.get(rc, 0) + t * x
    return sparse_rank(_as_rows({rc: x for rc, x in acc.items() if x}))


def ds_dim(v, coords) -> int:
    return sum(v.dims) - 2 * x_rank(v, coords)


def hom_dim(v, w) -> int:
    """dim of the degree-preserving g-maps V -> W, as the nullity of the
    equivariance equations written out entry by entry."""
    index = {}
    for j in range(min(v.lo, w.lo), max(v.hi, w.hi) + 1):
        dv, dw = _dim(v, j), _dim(w, j)
        for r in range(dw):
            for c in range(dv):
                index[(j, r, c)] = len(index)
    rows = []

    def eq(terms):
        row = {}
        for var, x in terms:
            k = index.get(var)
            if k is not None and x:
                row[k] = row.get(k, 0) + x
        row = {k: x for k, x in row.items() if x}
        if row:
            rows.append(row)

    for j in range(min(v.lo, w.lo), max(v.hi, w.hi) + 1):
        dv, dw, dw1 = _dim(v, j), _dim(w, j), _dim(w, j + 1)
        if dv and dw:
            # f_j rho_v - rho_w f_j = 0, entry (r, c)
            for i in range(v.alg.dim0):
                rv, rw = v.rho0[j - v.lo][i].data, w.rho0[j - w.lo][i].data
                for r in range(dw):
                    for c in range(dv):
                        eq([((j, r, k), rv[k][c]) for k in range(dv)]
                           + [((j, k, c), -rw[r][k]) for k in range(dw)])
        if dv and dw1:
            # f_{j+1} a_v - a_w f_j = 0, entry (r, c)
            dv1 = _dim(v, j + 1)
            for e in range(v.alg.dim1):
                av = v.odd[j - v.lo][e].data if v.lo <= j <= v.hi else None
                aw = w.odd[j - w.lo][e].data if w.lo <= j <= w.hi else None
                for r in range(dw1):
                    for c in range(dv):
                        terms = []
                        if av is not None:
                            terms += [((j + 1, r, k), av[k][c]) for k in range(dv1)]
                        if aw is not None:
                            terms += [((j, k, c), -aw[r][k]) for k in range(dw)]
                        eq(terms)
    return len(index) - sparse_rank(rows)


def _dim(v, j) -> int:
    return v.dims[j - v.lo] if v.lo <= j <= v.hi else 0


def koszul_dims(v, p_max: int) -> dict:
    """dim H^p, p < p_max, of S^p(g1*) (x) V with d(s (x) w) = sum_e t_e s (x) a_e w."""
    n, dv = v.alg.dim1, sum(v.dims)
    acts = [odd_total(v, e) for e in range(n)]
    bases = [_monomials(n, p) for p in range(p_max + 1)]
    ranks = []
    for p in range(p_max):
        index = {a: k for k, a in enumerate(bases[p + 1])}
        cols = {}  # column (source monomial, basis vector) -> {row: value}
        for ci, a in enumerate(bases[p]):
            for e, act in enumerate(acts):
                t = list(a)
                t[e] += 1
                ti = index[tuple(t)]
                for (r, c), x in act.items():
                    col = cols.setdefault(ci * dv + c, {})
                    col[ti * dv + r] = col.get(ti * dv + r, 0) + x
        # rank of d equals the rank of its transpose, whose rows are the columns
        ranks.append(sparse_rank(cols.values()))
    return {
        p: len(bases[p]) * dv - ranks[p] - (ranks[p - 1] if p else 0)
        for p in range(p_max)
    }


def _monomials(n: int, p: int):
    """Exponent vectors of length n and total degree p."""
    if n == 0:
        return [()] if p == 0 else []
    return [(k,) + rest for k in range(p + 1) for rest in _monomials(n - 1, p - k)]


def cech_closed_form(r: int, d: int) -> dict:
    """Nonzero dims of H^p(P^r, O(d)) from the classical formula."""
    if d >= 0:
        return {0: comb(d + r, r)}
    if d <= -r - 1:
        return {r: comb(-d - 1, r)}
    return {}
