from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superstable.algebra import (
    MAX_CLOSURE_DIM,
    SuperAlgebra,
    builtin_algebra,
    grassmann,
    is_semisimple,
    killing_form,
    representation_failure,
    sl2_adjoint,
    sl2_natural_sum,
    sl2_trivial,
    validate,
)
from superstable.linalg import Matrix, kron


def test_sl2_validates():
    for g in (sl2_trivial(1), sl2_trivial(3), sl2_adjoint(), sl2_natural_sum(2)):
        assert validate(g)["ok"]


def test_grassmann_validates():
    assert validate(grassmann(3))["ok"]


def test_killing_form_sl2_values():
    # basis (e, h, f): K(h,h) = 8, K(e,f) = 4, off-diagonal with h vanishes
    k = killing_form(sl2_trivial(0))
    assert k[1, 1] == 8
    assert k[0, 2] == 4 and k[2, 0] == 4
    assert k[0, 0] == 0 and k[2, 2] == 0
    assert k[0, 1] == 0 and k[1, 2] == 0
    assert k.rank() == 3
    assert k == k.transpose()


def test_semisimplicity():
    assert is_semisimple(sl2_trivial(0))
    # sl2 + sl2 assembled from structure constants
    g = sl2_trivial(0)
    c = [[[Fraction(0)] * 6 for _ in range(6)] for _ in range(6)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i][j][k] = g.bracket[i][j][k]
                c[i + 3][j + 3][k + 3] = g.bracket[i][j][k]
    double = SuperAlgebra(6, c, 0, (Matrix.zero(0, 0),) * 6)
    assert is_semisimple(double)
    # one-dimensional center: abelian algebra
    abelian = SuperAlgebra(1, [[[0]]], 0, (Matrix.zero(0, 0),))
    assert not is_semisimple(abelian)
    # dim0 = 0 counts as semisimple (vacuous hypothesis)
    assert is_semisimple(grassmann(2))


def test_validation_failure_recorded():
    # break antisymmetry: [x,x] = x
    g = SuperAlgebra(1, [[[1]]], 0, (Matrix.zero(0, 0),))
    rep = validate(g)
    assert not rep["ok"] and rep["failures"][0][0] == "antisymmetry"


def test_jacobi_failure_found_only_by_the_linear_check():
    # [x0, x1] = [x1, x0] = x1: ad holds at (0, 1) and fails at (1, 0),
    # where twice ad x1 is the linear part of the identity
    g = SuperAlgebra(2, [[[0, 0], [0, 1]], [[0, 1], [0, 0]]], 1,
                     (Matrix.from_rows([[1]]), Matrix.from_rows([[0]])))
    assert validate(g)["failures"] == [("antisymmetry", (0, 1)), ("jacobi", (1, 0))]


def jacobi_failure_oracle(g0):
    """The former dim0^5 check: the first (i, j, l) with [[x_i,x_j],x_l] +
    [[x_j,x_l],x_i] + [[x_l,x_i],x_j] != 0, or None."""
    n, c = g0.dim0, g0.bracket
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    total = sum(c[i][j][m] * c[m][l][k] + c[j][l][m] * c[m][i][k]
                                + c[l][i][m] * c[m][j][k] for m in range(n))
                    if total:
                        return (i, j, l)
    return None


def _dense_ad_failure(g0, i, j):
    ads = [g0.ad(k) for k in range(g0.dim0)]
    lhs = ads[i] * ads[j] - ads[j] * ads[i]
    rhs = Matrix.zero(g0.dim0, g0.dim0)
    for k, c in enumerate(g0.bracket[i][j]):
        rhs = rhs + ads[k].scale(c)
    return lhs != rhs


# antisymmetric, with [x0, x1] = x1 and [x1, x2] = x0: the Jacobi sum of
# (x0, x1, x2) is [x1, x2] + [x0, x0] + 0 = x0
BROKEN_JACOBI = [[[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                 [[0, -1, 0], [0, 0, 0], [1, 0, 0]],
                 [[0, 0, 0], [-1, 0, 0], [0, 0, 0]]]


def test_broken_jacobi_reported_as_a_pair():
    g0 = SuperAlgebra(3, BROKEN_JACOBI, 0, (Matrix.zero(0, 0),) * 3)
    rep = validate(g0)
    assert rep["antisymmetry"] and rep["representation"] and not rep["jacobi"] and not rep["ok"]
    assert jacobi_failure_oracle(g0) is not None
    [(kind, (i, j))] = rep["failures"]
    assert kind == "jacobi"
    # ad fails to be a representation there, and at no earlier pair
    assert _dense_ad_failure(g0, i, j)
    assert not any(_dense_ad_failure(g0, a, b) for a in range(3) for b in range(3) if (a, b) < (i, j))


def _antisymmetric(dim0, entries):
    c = [[[0] * dim0 for _ in range(dim0)] for _ in range(dim0)]
    for (i, j, k), x in zip(((i, j, k) for i in range(dim0) for j in range(i + 1, dim0)
                             for k in range(dim0)), entries):
        c[i][j][k], c[j][i][k] = x, -x
    return SuperAlgebra(dim0, c, 0, (Matrix.zero(0, 0),) * dim0)


@given(st.integers(1, 4), st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=24, max_size=24))
@settings(max_examples=80, deadline=None)
@example(3, [0, 1, 0] + [0] * 21)  # [x0, x1] = x1: the 2-dim solvable algebra, plus x2
@example(3, [0, 0, 1] + [0] * 21)  # [x0, x1] = x2: the Heisenberg algebra
@example(3, [0, 1, 0, 0, 0, 0, 1, 0, 0] + [0] * 15)  # BROKEN_JACOBI
def test_jacobi_as_ad_representation_matches_the_cyclic_sum(dim0, entries):
    g = _antisymmetric(dim0, entries)
    assert validate(g)["jacobi"] == (jacobi_failure_oracle(g) is None)


def test_representation_failure_recorded():
    # sl2 acting on a 1-dim space by nonzero scalars cannot be a rep
    acts = (Matrix.from_rows([[1]]), Matrix.from_rows([[1]]), Matrix.from_rows([[1]]))
    g = SuperAlgebra(3, sl2_trivial(0).bracket, 1, acts)
    rep = validate(g)
    assert not rep["representation"]


def test_builtin_parser():
    assert builtin_algebra("grassmann(2)").dim1 == 2
    assert builtin_algebra("sl2_adjoint").dim1 == 3
    assert builtin_algebra("sl2_natural_sum(3)").dim1 == 6
    assert builtin_algebra(" grassmann( 0 ) ").dim1 == 0
    with pytest.raises(KeyError):
        builtin_algebra("nope(1)")
    with pytest.raises(KeyError):
        builtin_algebra("grassmann(2).json")
    for bad in ("grassmann(-1)", "grassmann(x)", "grassmann(1.5)", "grassmann", "sl2_adjoint(1)"):
        with pytest.raises(ValueError):
            builtin_algebra(bad)


def test_builtin_algebra_built_once_per_spelling(monkeypatch):
    from superstable import algebra

    algebra._built.cache_clear()
    calls = []
    real = algebra.killing_form
    monkeypatch.setattr(algebra, "killing_form", lambda g: calls.append(g) or real(g))
    g = builtin_algebra("sl2_trivial(2)")
    for spelling in ("sl2_trivial(2)", " sl2_trivial( 02 ) ", "sl2_trivial (2)"):
        assert builtin_algebra(spelling) is g
        assert is_semisimple(builtin_algebra(spelling))
    assert calls == [g]
    assert builtin_algebra("sl2_trivial(3)") is not g
    # a refusal is never kept: every call refuses again
    for _ in range(2):
        with pytest.raises(ValueError, match="over the limit"):
            builtin_algebra("sl2_trivial(30000)")


def test_name_is_not_part_of_the_identity():
    g = sl2_trivial(1)
    renamed = SuperAlgebra(g.dim0, g.bracket, g.dim1, g.action, name="other")
    assert renamed == g and hash(renamed) == hash(g)
    assert sl2_trivial(1) != sl2_trivial(2) and sl2_trivial(3) != sl2_adjoint()
    # entries are coerced to exact scalars, so an int bracket is the same algebra
    assert SuperAlgebra(1, [[[0]]], 0, [Matrix.zero(0, 0)]).bracket == ((((Fraction(0),),),))


# representation_failure evaluates the product identity only on the pairs
# i < j; these check it against every ordered pair, dense


def ordered_pairs_failure(g, mats):
    """The first (i, j) in lexicographic order, over all dim0^2 ordered
    pairs, at which [rho_i, rho_j] = sum_k c_ij^k rho_k fails, by dense
    products."""
    for i in range(g.dim0):
        for j in range(g.dim0):
            lhs = mats[i] * mats[j] - mats[j] * mats[i]
            for k, c in enumerate(g.bracket[i][j]):
                lhs = lhs - mats[k].scale(c)
            if not lhs.is_zero():
                return (i, j)
    return None


@st.composite
def brackets_and_matrices(draw):
    dim0, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    small = st.sampled_from([0, 0, 0, 1, -1, 2])
    c = [[[draw(small) for _ in range(dim0)] for _ in range(dim0)] for _ in range(dim0)]
    if draw(st.booleans()):  # an antisymmetric bracket
        for i in range(dim0):
            for j in range(i + 1):
                c[i][j] = [-x for x in c[j][i]] if i != j else [0] * dim0
    g = SuperAlgebra(dim0, c, 0, (Matrix.zero(0, 0),) * dim0)
    kind = draw(st.sampled_from(["dense", "sparse", "scalar", "ad"]))
    if kind == "ad":  # a representation when the bracket is a Lie bracket
        return g, [g.ad(i) for i in range(dim0)]
    if kind == "scalar":  # commuting: only the linear part of each identity is left
        return g, [Matrix.identity(dim).scale(draw(small)) for _ in range(dim0)]
    entries = st.sampled_from([0, 1, -1] if kind == "dense" else [0] * 5 + [1, -1])
    return g, [Matrix.from_rows([[draw(entries) for _ in range(dim)] for _ in range(dim)])
               for _ in range(dim0)]


@given(brackets_and_matrices())
@settings(max_examples=150, deadline=None)
@example((SuperAlgebra(1, [[[1]]], 0, (Matrix.zero(0, 0),)), [Matrix.from_rows([[1]])]))
@example((SuperAlgebra(2, [[[0, 0], [0, 0]], [[0, 1], [0, 0]]], 0, (Matrix.zero(0, 0),) * 2),
          [Matrix.zero(1, 1), Matrix.from_rows([[1]])]))  # fails only at (1, 0)
def test_representation_failure_matches_every_ordered_pair(case):
    g, mats = case
    dim = mats[0].rows
    assert representation_failure(g, [m.sparse_rows() for m in mats], dim) == ordered_pairs_failure(g, mats)


@given(brackets_and_matrices())
@settings(max_examples=60, deadline=None)
def test_validate_reports_the_ordered_pairs_failure(case):
    g, _ = case
    ads = [g.ad(i) for i in range(g.dim0)]
    jacobi = ordered_pairs_failure(g, ads)
    rep = validate(g)
    assert rep["jacobi"] == (jacobi is None)
    assert ("jacobi", jacobi) in rep["failures"] or jacobi is None


def generated_dim_oracle(g, idx):
    """Dimension of the span of the right-normed brackets
    [x_a1, [x_a2, ... x_ak]] of the x_a, a in idx: the subalgebra they
    generate, for a Lie bracket."""
    n, ads = g.dim0, [g.ad(i) for i in idx]

    def rank(rows):
        return Matrix.from_rows(rows).rank() if rows else 0

    span = [[int(k == i) for k in range(n)] for i in idx]
    while True:
        images = [[sum(ad[r, c] * v[c] for c in range(n)) for r in range(n)] for ad in ads for v in span]
        if rank(span + images) == rank(span):
            return rank(span)
        span = span + images


def test_generators_generate_g0_and_none_is_redundant():
    abelian = SuperAlgebra(2, [[[0, 0]] * 2] * 2, 1, (Matrix.zero(1, 1),) * 2)
    solvable = SuperAlgebra(2, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]], 0, (Matrix.zero(0, 0),) * 2)
    algebras = [grassmann(2), sl2_trivial(0), sl2_trivial(2), sl2_adjoint(), sl2_natural_sum(2),
                abelian, solvable]
    for g in algebras:
        gens = g.generators
        assert generated_dim_oracle(g, gens) == g.dim0, (g.name, gens)
        for i in gens:
            assert generated_dim_oracle(g, [k for k in gens if k != i]) < g.dim0, (g.name, gens, i)
    assert sl2_adjoint().generators == (0, 2)  # e and f; h = [e, f]
    assert abelian.generators == (0, 1)
    assert solvable.generators == (0, 1)  # [x0, x1] = x1 reaches nothing new
    assert grassmann(2).generators == ()


def module_generated_dim_oracle(g, mats, seeds):
    """Dimension of the smallest subspace holding the vectors `seeds` (rows
    of length mats[0].cols) and stable under every matrix of `mats`: their
    images added until the rank stops growing."""
    def independent(rows):
        return [rows[i] for i in Matrix.from_rows(rows).transpose().pivot_columns()] if rows else []

    span = independent([list(s) for s in seeds])
    while span:
        images = [[p[r, c] for c in range(p.cols)] for m in mats
                  for p in (Matrix.from_rows(span) * m.transpose(),) for r in range(p.rows)]
        grown = independent(span + images)
        if len(grown) == len(span):
            break
        span = grown
    return len(span)


def symmetric_square(g):
    """x on g1 (x) g1 as kron(x, 1) + kron(1, x), and for each odd pair
    e <= f the symmetric tensor e (x) f + f (x) e, dense, in the basis of
    g1 (x) g1: S^2(g1) by tensors, not by the monomials of the library."""
    n = g.dim1
    one = Matrix.identity(n)
    mats = [kron(a, one) + kron(one, a) for a in g.action]
    pairs = [(e, f) for e in range(n) for f in range(e, n)]
    vecs = {(e, f): [int(k == e * n + f) + int(k == f * n + e) for k in range(n * n)] for e, f in pairs}
    return mats, pairs, vecs


def test_odd_and_square_generators_generate_and_none_is_redundant():
    abelian_on_g1 = SuperAlgebra(2, [[[0, 0]] * 2] * 2, 2,
                                 (Matrix.from_rows([[2, 1], [0, 2]]), Matrix.from_rows([[0, 1], [0, 0]])))
    algebras = [grassmann(2), sl2_trivial(0), sl2_trivial(2), sl2_adjoint(), sl2_natural_sum(1),
                sl2_natural_sum(2), sl2_natural_sum(3), abelian_on_g1]
    for g in algebras:
        assert g.g1_is_module, g.name
        units = {e: [int(k == e) for k in range(g.dim1)] for e in range(g.dim1)}
        odd = g.odd_generators
        assert module_generated_dim_oracle(g, g.action, [units[e] for e in odd]) == g.dim1, (g.name, odd)
        for e in odd:
            rest = [units[k] for k in odd if k != e]
            assert module_generated_dim_oracle(g, g.action, rest) < g.dim1, (g.name, odd, e)
        mats, pairs, vecs = symmetric_square(g)
        sq = g.square_generators
        assert set(sq) <= set(pairs) and list(sq) == sorted(sq)
        assert module_generated_dim_oracle(g, mats, [vecs[p] for p in sq]) == len(pairs), (g.name, sq)
        for p in sq:
            rest = [vecs[q] for q in sq if q != p]
            assert module_generated_dim_oracle(g, mats, rest) < len(pairs), (g.name, sq, p)
    # e generates the adjoint module; e.f has a part in both summands of
    # S^2(sl2) = V(4) + V(0), and no monomial of e, h, f but e.f and h.h does
    assert sl2_adjoint().odd_generators == (0,)
    assert sl2_adjoint().square_generators == ((0, 2),)
    assert sl2_natural_sum(1).odd_generators == (0,)
    assert sl2_natural_sum(1).square_generators == ((0, 0),)
    # the forward pass keeps e_0 and then e_1; e_1 alone generates, as x_1 e_1 = e_0
    assert abelian_on_g1.odd_generators == (1,)
    # S^2 of dimension 21 under `MAX_CLOSURE_DIM` is reduced, of 36 over it not
    assert len(sl2_natural_sum(3).square_generators) < 21 <= MAX_CLOSURE_DIM
    assert len(sl2_natural_sum(4).square_generators) == 36 > MAX_CLOSURE_DIM
    # g0 acting by zero: every index
    for g in (grassmann(3), sl2_trivial(3)):
        assert g.odd_generators == (0, 1, 2)
        assert g.square_generators == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def test_both_sets_are_full_when_g0_does_not_act_on_g1_by_a_representation():
    # sl2 with h acting on g1 = k by 1, e and f by 0: [rho_e, rho_f] = 0,
    # not rho_h, so the mixed identities of e and f do not imply h's
    g = SuperAlgebra(3, sl2_trivial(0).bracket, 1,
                     (Matrix.zero(1, 1), Matrix.identity(1), Matrix.zero(1, 1)))
    assert not validate(g)["representation"] and not g.g1_is_module
    assert g.odd_generators == (0,) and g.square_generators == ((0, 0),)
    # the same with g1 = k^2 and h acting by a nonzero nilpotent: reduced
    # under a representation, both would be smaller than every index
    g2 = SuperAlgebra(3, sl2_trivial(0).bracket, 2,
                      (Matrix.zero(2, 2), Matrix.from_rows([[0, 1], [0, 0]]), Matrix.zero(2, 2)))
    assert not g2.g1_is_module
    assert g2.odd_generators == (0, 1)
    assert g2.square_generators == ((0, 0), (0, 1), (1, 1))
    # a module over g on which e and f's mixed identities hold and h's
    # fails: refused, by the identity of h, though h is not a generator
    from superstable.gradedmod import ModuleError, make_module

    assert g.generators == (0, 2)
    zero = (Matrix.zero(1, 1),) * 3
    with pytest.raises(ModuleError, match=r"^equivariance fails at degree 0, even 1, odd 0$"):
        make_module(g, 0, 1, (1, 1), (zero, zero), ((Matrix.identity(1),), (Matrix.zero(0, 1),)))
