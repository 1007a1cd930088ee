import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable.algebra import grassmann
from superstable.corpus import corpus_modules, random_module
from superstable.dsvariety import (
    DsResult,
    ds_at,
    in_variety,
    random_points,
    support_check,
    variety_ideal,
)
from superstable.gradedmod import direct_sum, make_module, submodule, trivial_module
from superstable.linalg import Matrix, Polynomial
from superstable.rigid import (
    CohomologyTable,
    L_of,
    OddPoint,
    fiber,
    fiber_cohomology,
)


def x_operator(m, x):
    """Oracle: the dense ungraded x_M = sum_e x_e a_e on the total space,
    each block a_e^j placed by hand at the rows of degree j+1 and the
    columns of degree j."""
    if len(x.coords) != m.alg.dim1:
        raise ValueError("point dimension does not match the odd part")
    n = m.total_dim
    out = [[Fraction(0)] * n for _ in range(n)]
    off = {}
    run = 0
    for j in m.degrees():
        off[j] = run
        run += m.dim_at(j)
    for j in m.degrees():
        if j + 1 > m.hi:
            continue
        r0, c0 = off[j + 1], off[j]
        for e, t in enumerate(x.coords):
            a = m.odd_at(j, e)
            for r in range(a.rows):
                for c in range(a.cols):
                    out[r0 + r][c0 + c] += t * a.data[r][c]
    return Matrix(n, n, out)


def test_x_operator_squares_to_zero():
    for e in corpus_modules().values():
        v = e.module
        for x in random_points(v.alg.dim1, 5, seed=17):
            xm = x_operator(v, x)
            assert (xm * xm).is_zero()


def unit_points(n):
    return [OddPoint(tuple(int(i == k) for i in range(n))) for k in range(n)]


@given(st.one_of(st.sampled_from(sorted(corpus_modules())), st.integers(0, 10**6)), st.data())
@settings(max_examples=60, deadline=None)
def test_ds_rank_matches_dense_x_operator(source, data):
    # a corpus module by name, or a random module by seed
    v = corpus_modules()[source].module if isinstance(source, str) else random_module(source, 12)
    n = v.alg.dim1
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    pts = unit_points(n) + [OddPoint(c) for c in data.draw(st.lists(coords, max_size=3))]
    lv = L_of(v)
    for x in pts:
        xm = x_operator(v, x)
        assert (xm * xm).is_zero()
        assert ds_at(v, x).rank_x == xm.rank()
        blocks = [a for (a,) in fiber(v, x).odd]
        assert Matrix.place(v.total_dim, v.total_dim, [(v.dim_at(v.lo), 0, 1, Matrix.block_diag(blocks))]) == xm
        signed = tuple(b.scale(-1 if j % 2 else 1) for j, b in zip(v.degrees(), blocks))
        assert tuple(d for (d,) in fiber(lv, x).odd) == signed
        total = Matrix.zero(v.total_dim, v.total_dim)
        for e, c in enumerate(x.coords):
            total = total + v.total_odd(e).scale(c)
        assert total == xm


def test_point_of_wrong_length_is_refused():
    for name in ("grassmann1_trivial", "sl2_triv2_free", "sl2_adjoint_natural"):
        v = corpus_modules()[name].module
        for k in (v.alg.dim1 - 1, v.alg.dim1 + 1):
            if k == 0:
                continue
            x = OddPoint((1,) * k)
            for call in (ds_at, in_variety, lambda m, y: support_check(m, [y])):
                with pytest.raises(ValueError, match="point dimension"):
                    call(v, x)


def test_ds_dims_free_module_oracle():
    # grassmann(1) free module at t = 1: x_M = [[0,0],[1,0]], rank 1,
    # so the fiber vanishes (worked by hand)
    v = corpus_modules()["grassmann1_free"].module
    res = ds_at(v, OddPoint((1,)))
    assert (res.total_dim, res.rank_x, res.ds_dim) == (2, 1, 0)
    assert not in_variety(v, OddPoint((1,)))


def test_ds_dims_trivial_module_oracle():
    v = corpus_modules()["grassmann1_trivial"].module
    res = ds_at(v, OddPoint((3,)))
    assert (res.total_dim, res.rank_x, res.ds_dim) == (1, 0, 1)
    assert in_variety(v, OddPoint((3,)))


def test_ds_scale_invariance():
    v = corpus_modules()["sl2_triv2_mixed"].module
    for x in random_points(2, 10, seed=5):
        assert ds_at(v, x).ds_dim == ds_at(v, x.scale(Fraction(7, 3))).ds_dim


def symbolic_x_matrix(m):
    """Oracle: x_M(t) as a total-space matrix of linear forms in t_1..t_n."""
    n1 = m.alg.dim1
    n = m.total_dim
    rows = [[Polynomial(n1) for _ in range(n)] for _ in range(n)]
    for e in range(n1):
        te = Polynomial.variable(n1, e)
        for r, c, x in m.total_odd(e).nonzeros():
            rows[r][c] = rows[r][c] + te.scale(x)
    return rows


def cofactor_det(entries, rows, cols):
    """Oracle: the determinant of entries[rows][cols] by cofactor expansion
    along the first row."""
    if not rows:
        return Polynomial.constant(entries[0][0].nvars, 1)
    total = Polynomial(entries[0][0].nvars)
    for ci, c in enumerate(cols):
        p = entries[rows[0]][c]
        if not p.is_zero():
            term = p * cofactor_det(entries, rows[1:], cols[:ci] + cols[ci + 1 :])
            total = total + (term.scale(-1) if ci % 2 else term)
    return total


def whole_matrix_ideal(m):
    """Oracle: the distinct monic minors of size ceil(dim M / 2) of the
    whole x_M(t), in the order of their first occurrence among the
    rows-then-columns combinations of its nonzero rows and columns."""
    d = m.total_dim
    size = ceil(Fraction(d, 2))
    entries = symbolic_x_matrix(m)
    live_rows = [r for r in range(d) if any(not p.is_zero() for p in entries[r])]
    live_cols = [c for c in range(d) if any(not entries[r][c].is_zero() for r in range(d))]
    gens = []
    for rows in combinations(live_rows, size) if size else ():
        for cols in combinations(live_cols, size):
            p = cofactor_det(entries, list(rows), list(cols))
            if not p.is_zero() and p.monic() not in gens:
                gens.append(p.monic())
    return tuple(gens)


def test_symbolic_matrix_specializes_to_x_operator():
    v = corpus_modules()["sl2_triv2_free"].module
    sym = symbolic_x_matrix(v)
    for x in random_points(2, 5, seed=23):
        xm = x_operator(v, x)
        for r in range(v.total_dim):
            for c in range(v.total_dim):
                assert sym[r][c].eval(x.coords) == xm.data[r][c]


def dense_basis(m, seed):
    """m in the basis of the columns of L U in each degree, L and U seeded
    unit lower and upper triangular: the same module with dense blocks,
    whose minors are many and mostly distinct."""
    rng = random.Random(seed)

    def unit(n, lower):
        return Matrix.from_rows([[1 if r == c else rng.randint(-2, 2) if (r > c) == lower else 0
                                  for c in range(n)] for r in range(n)])

    return submodule(m, {j: unit(m.dim_at(j), True) * unit(m.dim_at(j), False) for j in m.degrees()})[0]


def test_variety_ideal_matches_the_whole_matrix_minors():
    # the same generators in the same order: the ideal is built from the
    # degree blocks, the oracle from every square submatrix of x_M(t),
    # which is feasible up to total dimension 15
    mods = [e.module for e in corpus_modules().values() if e.module.total_dim <= 15]
    mods += [random_module(seed, 12) for seed in range(300)]
    mods += [dense_basis(random_module(seed, 8), seed) for seed in range(60)]
    for k, v in enumerate(mods):
        assert variety_ideal(v).generators == whole_matrix_ideal(v), k


def test_variety_ideal_vs_rank_test():
    for name in ("grassmann2_mixed", "sl2_triv1_mixed", "sl2_triv2_free"):
        v = corpus_modules()[name].module
        ideal = variety_ideal(v)
        for x in random_points(v.alg.dim1, 30, seed=41):
            assert ideal.vanishes_at(x.coords) == in_variety(v, x), (name, x)


def test_variety_ideal_generators_monic_and_unique():
    v = corpus_modules()["grassmann2_mixed"].module
    ideal = variety_ideal(v)
    assert len(set(ideal.generators)) == len(ideal.generators)
    for g in ideal.generators:
        assert g.sorted_terms()[0][1] == 1


def test_variety_ideal_over_15_dimensions_vs_rank_test():
    # past the whole-matrix oracle: the zeros of the ideal against the
    # rank test, at unit points, often in the variety, and random ones
    mods = [(s, random_module(s, 24)) for s in range(200)]
    mods = [(s, v) for s, v in mods if 16 <= v.total_dim <= 24]
    assert len(mods) > 50
    for s, v in mods:
        ideal = variety_ideal(v)
        n = v.alg.dim1
        for x in unit_points(n) + random_points(n, 3, seed=s):
            assert ideal.vanishes_at(x.coords) == in_variety(v, x), (s, x)


def test_variety_ideal_of_sl2_adjoint_natural():
    v = corpus_modules()["sl2_adjoint_natural"].module
    ideal = variety_ideal(v)
    assert len(ideal.generators) == 45
    pts = [OddPoint(c) for c in product(range(-2, 3), repeat=3) if any(c)]
    assert len(pts) == 124
    # no point of the grid is a common zero, and none is in the variety
    for x in pts:
        assert not ideal.vanishes_at(x.coords) and not in_variety(v, x), x
    # with a trivial summand rank x_M < dim M / 2 everywhere: no
    # generator, and every point is in the variety
    w = direct_sum(v, trivial_module(v.alg))
    assert variety_ideal(w).generators == ()
    assert all(in_variety(w, x) for x in pts)


def test_random_points_reproducible_and_nonzero():
    a = random_points(3, 10, seed=9)
    b = random_points(3, 10, seed=9)
    assert a == b
    assert all(any(c != 0 for c in p.coords) for p in a)
    assert random_points(3, 10, seed=10) != a


def test_support_check_consistency():
    for e in corpus_modules().values():
        v = e.module
        pts = random_points(v.alg.dim1, 10, seed=31)
        assert support_check(v, pts).ok


def line_module():
    """Lambda(g1)/(e_1) for dim g1 = 2: e_2 acts by 1 and e_1 by 0, so its
    DS fiber is nonzero exactly on the line t_2 = 0."""
    odd = ((Matrix.zero(1, 1), Matrix.identity(1)), (Matrix.zero(0, 1),) * 2)
    return make_module(grassmann(2), 0, 1, (1, 1), ((), ()), odd)


MODULES = {name: e.module for name, e in corpus_modules().items()}
MODULES["grassmann2_line"] = line_module()


@given(st.sampled_from(sorted(MODULES)), st.data())
@settings(max_examples=60, deadline=None)
def test_support_check_entries_match_ds_at_and_fiber(name, data):
    v = MODULES[name]
    # unit vectors and small coordinates put points on the variety as
    # well as off it
    n = v.alg.dim1
    coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    pts = unit_points(n) + [OddPoint(c) for c in data.draw(st.lists(coords, max_size=3))]
    report = support_check(v, pts)
    for e, x in zip(report.entries, pts):
        assert e == ds_at(v, x)
        assert e.point == x
        assert e.per_degree.total == fiber_cohomology(fiber(L_of(v), x)).total
        assert e.in_variety == (e.ds_dim > 0) == in_variety(v, x)


def test_ds_is_the_reduced_part_of_the_fiber():
    # over the line Lambda(kx) a module is free plus copies of k, and
    # M_x = 0 exactly when the restriction fiber(m, x) is free: the DS
    # fiber is the reduced part of the restriction, degree by degree
    from superstable.projstable import decompose, is_projective

    mods = [e.module for e in corpus_modules().values()]
    mods += [random_module(seed, 12) for seed in range(40)]
    pairs = 0
    for k, v in enumerate(mods):
        n = v.alg.dim1
        for x in unit_points(n) + random_points(n, 3, seed=k):
            f = fiber(v, x)
            assert f.total_odd(0) == x_operator(v, x)
            res = ds_at(v, x)
            reduced = decompose(f).reduced_part
            assert {j: reduced.dim_at(j) for j in v.degrees()} == res.per_degree.as_dict(), (k, x)
            assert is_projective(f) == (res.ds_dim == 0), (k, x)
            pairs += 1
    assert pairs > 250


def test_ds_result_rejects_inconsistent_dimensions():
    # ds_dim = dim M - 2 rank x_M is derived; the fiber cohomology must agree
    x = OddPoint((1,))
    with pytest.raises(ValueError, match="disagrees with the fiber cohomology"):
        DsResult(x, total_dim=2, rank_x=1, per_degree=CohomologyTable.from_dict({0: 1}))
    res = DsResult(x, total_dim=2, rank_x=0, per_degree=CohomologyTable.from_dict({0: 2}))
    assert (res.ds_dim, res.in_variety, res.consistent) == (2, True, True)
