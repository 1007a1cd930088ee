import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable.algebra import grassmann, sl2_trivial
from superstable.corpus import corpus_modules, random_module
from superstable.gradedmod import GradedModule, ModuleError, make_module
from superstable.linalg import Matrix
from superstable.rigid import (
    CohomologyTable,
    L_of,
    OddPoint,
    V_of,
    fiber,
    fiber_cohomology,
)


def test_roundtrip_on_corpus():
    for e in corpus_modules().values():
        v = e.module
        assert V_of(L_of(v)) == v
        l = L_of(v)
        assert L_of(V_of(l)) == l


@given(st.integers(0, 499))
@settings(max_examples=30, deadline=None)
def test_roundtrip_on_random_modules(seed):
    v = random_module(seed)
    assert V_of(L_of(v)) == v


def test_differential_signs():
    v = corpus_modules()["grassmann2_free"].module
    l = L_of(v)
    for j in v.degrees():
        for e in range(v.alg.dim1):
            expected = v.odd_at(j, e).scale(-1 if j % 2 else 1)
            assert l.odd_at(j, e) == expected


def test_composability_is_anticommutation():
    # a family violating anticommutation is rejected as a rigid complex
    # for exactly the composability reason, which is the anticommutation
    # identity of the module checks
    from superstable.algebra import grassmann

    g = grassmann(2)
    d1 = Matrix.from_rows([[1], [0]])
    d2 = Matrix.from_rows([[0], [1]])
    t1 = Matrix.from_rows([[0, 1]])
    t2 = Matrix.from_rows([[1, 0]])
    with pytest.raises(ModuleError, match="anticommutation"):
        make_module(
            g, 0, 2, (1, 2, 1), ((), (), ()), ((d1, d2), (t1, t2), (Matrix.zero(0, 1),) * 2)
        )


def test_fiber_and_cohomology_of_free_module():
    v = corpus_modules()["grassmann2_free"].module
    l = L_of(v)
    f = fiber(l, OddPoint((1, 2)))
    table = fiber_cohomology(f)
    assert table.total == 0  # free modules have exact fibers


def test_fiber_of_trivial_module():
    v = corpus_modules()["grassmann1_trivial"].module
    table = fiber_cohomology(fiber(L_of(v), OddPoint((5,))))
    assert table.as_dict() == {0: 1}


@given(st.one_of(st.sampled_from(sorted(corpus_modules())), st.integers(0, 10**6)), st.data())
@settings(max_examples=60, deadline=None)
def test_fiber_squares_to_zero(source, data):
    # `fiber` checks nothing: d_x^(j+1) d_x^j = 0 follows from the
    # anticommutation identity, and the dense products here hold it
    v = corpus_modules()[source].module if isinstance(source, str) else random_module(source, 12)
    n = v.alg.dim1
    coords = data.draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(lambda c: any(c))
    )
    f = fiber(L_of(v), OddPoint(tuple(coords)))
    for j in f.degrees():
        assert (f.d_at(j + 1) * f.d_at(j)).is_zero()


def test_fiber_point_dimension_mismatch():
    v = corpus_modules()["grassmann2_free"].module
    with pytest.raises(ValueError):
        fiber(L_of(v), OddPoint((1,)))


def test_odd_point_rejects_zero():
    with pytest.raises(ValueError):
        OddPoint((0, 0))


def test_cohomology_table_validation():
    with pytest.raises(ValueError):
        CohomologyTable.from_dict({0: -1})
    t = CohomologyTable.from_dict({2: 1, 0: 3})
    assert t.entries == ((0, 3), (2, 1))
    assert t.total == 4 and t.dim(2) == 1 and t.dim(5) == 0


def test_cohomology_table_of_complex():
    # 0 -> k^2 -> k^3 -> k^1 -> 0 with ranks 2 and 1: H = (0, 0, 0)
    t = CohomologyTable.of_complex({0: 2, 1: 3, 2: 1}, {0: 2, 1: 1}, context="c")
    assert t.as_dict() == {0: 0, 1: 0, 2: 0} and t.context == "c"
    # degree 2 has no differential and degree 1's is zero
    t = CohomologyTable.of_complex({0: 3, 1: 2, 2: 4}, {0: 1, 1: 0})
    assert t.as_dict() == {0: 2, 1: 1, 2: 4}
    # only the degrees in dims are reported; a rank above them still counts
    t = CohomologyTable.of_complex({5: 3}, {4: 1, 5: 2})
    assert t.entries == ((5, 0),)
    assert CohomologyTable.of_complex({}, {}).entries == ()
    with pytest.raises(ValueError):
        CohomologyTable.of_complex({0: 1}, {0: 2})


# ---------------------------------------------------------------------------
# a rigid complex is validated by the module identities (make_module); the
# former dense complex validator is kept here as the oracle


def dense_check_complex(l):
    """Composability and g0-equivariance of the differential, by dense
    Matrix arithmetic on the D family; raises ModuleError."""
    alg = l.alg
    n0, n1 = alg.dim0, alg.dim1

    def rho_at(j, i):
        return l.rho0[j - l.lo][i] if l.lo <= j <= l.hi else Matrix.zero(0, 0)

    for j in l.degrees():
        d = l.dim_at(j)
        for e in range(n1):
            for f in range(e, n1):
                s = l.odd_at(j + 1, e) * l.odd_at(j, f) + l.odd_at(j + 1, f) * l.odd_at(j, e)
                if not s.is_zero():
                    raise ModuleError(f"composability fails at degree {j}, pair ({e},{f})")
        for i in range(n0):
            for e in range(n1):
                lhs = rho_at(j + 1, i) * l.odd_at(j, e) - l.odd_at(j, e) * rho_at(j, i)
                rhs = Matrix.zero(l.dim_at(j + 1), d)
                ai = alg.odd.action[i]
                for k in range(n1):
                    c = ai.data[k][e]
                    if c != 0:
                        rhs = rhs + l.odd_at(j, k).scale(c)
                if lhs != rhs:
                    raise ModuleError(f"equivariance fails at degree {j}, even {i}, odd {e}")


def dense_is_representation(g0, mats) -> bool:
    """[rho_i, rho_l] = sum_k c_il^k rho_k for all i, l, by dense products."""
    for i in range(g0.dim0):
        for l in range(g0.dim0):
            lhs = mats[i] * mats[l] - mats[l] * mats[i]
            for k in range(g0.dim0):
                lhs = lhs - mats[k].scale(g0.bracket[i][l][k])
            if not lhs.is_zero():
                return False
    return True


def oracle_rejects(alg, lo, hi, dims, rho0, diff) -> bool:
    if not all(dense_is_representation(alg.even, per) for per in rho0):
        return True
    try:
        dense_check_complex(GradedModule(alg, lo, hi, tuple(dims), rho0, diff))
    except ModuleError:
        return True
    return False


@functools.lru_cache(maxsize=None)
def complexes():
    out = {n: L_of(e.module) for n, e in corpus_modules().items()}
    for k in range(12):
        out[f"random{k}"] = L_of(random_module(900 + k, 8))
    return out


def perturbed(fam, k, x, r, c, delta):
    data = fam[k][x].copy_data()
    data[r][c] += delta
    m = Matrix(len(data), fam[k][x].cols, data)
    return tuple(
        tuple(m if (kk, xx) == (k, x) else mm for xx, mm in enumerate(per))
        for kk, per in enumerate(fam)
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_make_complex_agrees_with_the_dense_oracle(data):
    l = data.draw(st.sampled_from(sorted(complexes().items())))[1]
    slots = [
        (name, k, x, m.rows, m.cols)
        for name in ("rho0", "odd")
        for k, per in enumerate(getattr(l, name))
        for x, m in enumerate(per)
        if m.rows and m.cols
    ]
    if not slots:
        return
    name, k, x, rows, cols = data.draw(st.sampled_from(slots))
    r, c = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    delta = data.draw(st.sampled_from((1, -2, Fraction(1, 3))))
    rho0, diff = l.rho0, l.odd
    if name == "rho0":
        rho0 = perturbed(rho0, k, x, r, c, delta)
    else:
        diff = perturbed(diff, k, x, r, c, delta)
    expect = oracle_rejects(l.alg, l.lo, l.hi, l.dims, rho0, diff)
    try:
        got = make_module(l.alg, l.lo, l.hi, l.dims, rho0, diff)
    except ModuleError:
        assert expect
    else:
        assert not expect
        assert (got.rho0, got.odd) == (rho0, diff)


def test_complex_with_non_representation_rho0_is_refused():
    # one degree, so no equivariance or composability identity involves rho0:
    # only the representation check sees that [e, f] = h fails
    g = sl2_trivial(1)
    ident = Matrix.identity(2)
    rho0 = ((ident,) * 3,)
    diff = ((Matrix.zero(0, 2),),)
    l = GradedModule(g, 0, 0, (2,), rho0, diff)
    dense_check_complex(l)  # the composability/equivariance checks pass
    with pytest.raises(ModuleError, match="even representation fails at degree 0"):
        make_module(g, 0, 0, (2,), rho0, diff)


def test_complex_with_wrong_shaped_diff_is_refused():
    g = grassmann(1)
    with pytest.raises(ModuleError, match="odd action matrix shape mismatch"):
        make_module(g, 0, 1, (1, 1), ((), ()), ((Matrix.zero(2, 1),), (Matrix.zero(0, 1),)))
    with pytest.raises(ModuleError, match="length mismatch"):
        make_module(g, 0, 1, (1,), ((), ()), ((Matrix.zero(1, 1),), (Matrix.zero(0, 1),)))
