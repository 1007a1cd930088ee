from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superstable.algebra import (
    SuperAlgebra,
    builtin_algebra,
    grassmann,
    is_semisimple,
    killing_form,
    sl2_adjoint,
    sl2_natural_sum,
    sl2_trivial,
    validate,
)
from superstable.linalg import Matrix


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
