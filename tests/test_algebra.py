from fractions import Fraction

import pytest

from superstable.algebra import (
    LieAlgebraEven,
    OddPart,
    SuperAlgebra,
    builtin_algebra,
    grassmann,
    is_semisimple,
    killing_form,
    sl2,
    sl2_adjoint,
    sl2_natural_sum,
    sl2_trivial,
    validate,
)
from superstable.linalg import Matrix


def test_sl2_validates():
    for g in (sl2_trivial(1), sl2_trivial(3), sl2_adjoint(), sl2_natural_sum(2)):
        assert validate(g).ok


def test_grassmann_validates():
    assert validate(grassmann(3)).ok


def test_killing_form_sl2_values():
    # basis (e, h, f): K(h,h) = 8, K(e,f) = 4, off-diagonal with h vanishes
    k = killing_form(sl2())
    assert k[1, 1] == 8
    assert k[0, 2] == 4 and k[2, 0] == 4
    assert k[0, 0] == 0 and k[2, 2] == 0
    assert k[0, 1] == 0 and k[1, 2] == 0
    assert k.rank() == 3
    assert k == k.transpose()


def test_semisimplicity():
    assert is_semisimple(sl2())
    # sl2 + sl2 assembled from structure constants
    g = sl2()
    c = [[[Fraction(0)] * 6 for _ in range(6)] for _ in range(6)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i][j][k] = g.bracket[i][j][k]
                c[i + 3][j + 3][k + 3] = g.bracket[i][j][k]
    double = LieAlgebraEven.from_constants(6, c)
    assert is_semisimple(double)
    # one-dimensional center: abelian algebra
    abelian = LieAlgebraEven.from_constants(1, [[[0]]])
    assert not is_semisimple(abelian)
    # dim0 = 0 counts as semisimple (vacuous hypothesis)
    assert is_semisimple(grassmann(2).even)


def test_validation_failure_recorded():
    # break antisymmetry: [x,x] = x
    bad = LieAlgebraEven.from_constants(1, [[[1]]])
    g = SuperAlgebra(bad, OddPart(0, (Matrix.zero(0, 0),)))
    rep = validate(g)
    assert not rep.ok and rep.failures[0][0] == "antisymmetry"


def test_representation_failure_recorded():
    # sl2 acting on a 1-dim space by nonzero scalars cannot be a rep
    acts = (Matrix.from_rows([[1]]), Matrix.from_rows([[1]]), Matrix.from_rows([[1]]))
    g = SuperAlgebra(sl2(), OddPart(1, acts))
    rep = validate(g)
    assert not rep.representation


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
