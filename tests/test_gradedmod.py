import contextlib
import functools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable.algebra import SL2_NATURAL, SuperAlgebra, grassmann, sl2_adjoint, sl2_trivial
from superstable.corpus import _adjoint_rep, _natural_rep, corpus_modules, corpus_reps
from superstable.gradedmod import (
    GradedMap,
    GradedModule,
    ModuleError,
    Rep,
    check_map,
    concentrated,
    direct_sum,
    dual,
    exterior_even_action,
    exterior_odd_action,
    hom_graded,
    identity_map,
    induced_blocks,
    induced_module,
    induced_sum,
    make_map,
    make_module,
    shift,
    submodule,
    tensor,
    trivial_module,
    zero_map,
)
from superstable.linalg import Matrix, kron
from superstable.serialize import module_to_json


def free_module(n, qdim=1, base=0):
    g = grassmann(n)
    return induced_module(Rep.trivial(g, qdim), base_degree=base)


def test_trivial_module_valid():
    v = trivial_module(sl2_trivial(2), degree=1, dim=2)
    assert v.dims == (2,)
    assert v.total_dim == 2


def test_invariant_violation_detected():
    g = grassmann(2)
    # a_1 a_2 + a_2 a_1 != 0 on a 2-step module
    odd1 = Matrix.from_rows([[1], [0]])
    odd2 = Matrix.from_rows([[0], [1]])
    top1 = Matrix.from_rows([[0, 1]])
    top2 = Matrix.from_rows([[1, 0]])
    with pytest.raises(ModuleError):
        make_module(
            g,
            0,
            2,
            (1, 2, 1),
            ((), (), ()),
            ((odd1, odd2), (top1, top2), ((Matrix.zero(0, 1),) * 2)[:2]),
        )


def test_even_rep_violation_detected():
    g = sl2_trivial(1)
    bad = (Matrix.from_rows([[1]]),) * 3  # not an sl2 representation
    with pytest.raises(ModuleError):
        make_module(g, 0, 0, (1,), (bad,), ((Matrix.zero(0, 1),),))


def test_mixed_equivariance_violation_detected():
    # g1 = adjoint: letting only e act (by the identity) violates the
    # mixed bracket relation with h, since [h, e] = 2e
    g = sl2_adjoint()
    rho = tuple(SL2_NATURAL)
    odd = (Matrix.identity(2), Matrix.zero(2, 2), Matrix.zero(2, 2))
    with pytest.raises(ModuleError):
        make_module(g, 0, 1, (2, 2), (rho, rho), (odd, (Matrix.zero(0, 2),) * 3))


def test_induced_dims_binomial():
    v = free_module(3)
    assert v.dims == (1, 3, 3, 1)
    w = induced_module(Rep(sl2_adjoint(), 2, tuple(SL2_NATURAL)))
    assert w.dims == (2, 6, 6, 2)


def test_induced_additive_in_q():
    g = sl2_trivial(2)
    q1 = Rep.trivial(g, 1)
    q2 = Rep(g, 2, tuple(SL2_NATURAL))
    q12 = Rep(g, 3, tuple(Matrix.block_diag([a, b]) for a, b in zip(q1.mats, q2.mats)))
    both = induced_module(q12)
    split = direct_sum(induced_module(q1), induced_module(q2))
    assert both.dims == split.dims
    assert both.total_dim == split.total_dim
    # same dimensions of graded homs certifies an isomorphic pair here
    basis = hom_graded(both, split)
    assert len(basis) == len(hom_graded(both, both))
    for b in basis:
        check_map(b)


def test_shift():
    v = free_module(2)
    assert shift(v, 3).lo == 3
    assert shift(v, 3).dims == v.dims


def test_dual_is_involutive_up_to_canonical_iso():
    for v in (free_module(2), free_module(1, qdim=2, base=-1)):
        dd = dual(dual(v))
        assert dd.dims == v.dims
        # the canonical evaluation isomorphism V -> V**, (-1)^j in degree j
        phi = make_map(
            v, dd, {j: Matrix.identity(v.dim_at(j)).scale(-1 if j % 2 else 1) for j in v.degrees()}
        )
        assert phi.source == v and phi.target == dd
        # invertible in every degree
        for j in v.degrees():
            assert phi.comp_at(j).rank() == v.dim_at(j)


def test_tensor_dimensions_and_validity():
    v = free_module(2)
    w = trivial_module(grassmann(2), degree=1, dim=2)
    t = tensor(v, w)
    assert t.total_dim == v.total_dim * w.total_dim
    assert t.lo == v.lo + w.lo and t.hi == v.hi + w.hi


def test_tensor_with_unit():
    v = free_module(2)
    unit = trivial_module(grassmann(2), degree=0, dim=1)
    t = tensor(v, unit)
    assert t.dims == v.dims
    assert t.rho0 == v.rho0 and t.odd == v.odd


def test_hom_graded_counts():
    g = grassmann(1)
    free = free_module(1)
    triv = trivial_module(g)
    # no nonzero maps k -> free: the odd generator acts injectively on
    # the bottom of the free module
    assert len(hom_graded(triv, free)) == 0
    # free -> free: determined by the bottom scalar
    assert len(hom_graded(free, free)) == 1
    # free -> k: kill the top; one parameter
    assert len(hom_graded(free, triv)) == 1
    for b in hom_graded(free, triv) + hom_graded(free, free):
        check_map(b)
    for b in hom_graded(free, triv):
        assert b.comp_at(1).is_zero() or triv.dim_at(1) == 0


def test_make_map_validates():
    g = grassmann(1)
    free = free_module(1)
    with pytest.raises(ModuleError):
        make_map(free, free, {0: Matrix.from_rows([[1]]), 1: Matrix.from_rows([[2]])})
    phi = make_map(free, free, {0: Matrix.from_rows([[3]]), 1: Matrix.from_rows([[3]])})
    assert phi.compose(identity_map(free)) == phi


def test_submodule_extraction():
    g = grassmann(2)
    free = free_module(2)
    triv = trivial_module(g, degree=2)
    m = direct_sum(free, triv)
    # the span of the trivial summand at top degree plus nothing else
    basis = {2: Matrix.from_rows([[0], [1]])}
    sub, emb = submodule(m, basis)
    assert sub.total_dim == 1
    assert emb.comp_at(2) == Matrix.from_rows([[0], [1]])
    # both are assembled: the checks hold them here
    make_module(sub.alg, sub.lo, sub.hi, sub.dims, sub.rho0, sub.odd)
    check_map(emb)


def test_submodule_refuses_dependent_columns():
    g = grassmann(2)
    m = direct_sum(free_module(2), trivial_module(g, degree=2))
    # the trivial summand's line, spanned twice: stable, but not a basis
    with pytest.raises(ModuleError, match="dependent at degree 2"):
        submodule(m, {2: Matrix.from_rows([[0, 0], [1, 2]])})


def test_submodule_refuses_bases_of_the_wrong_shape():
    # free + trivial over grassmann(2), both in degree 0: window [0, 2],
    # dimension 2 in degree 0
    g = grassmann(2)
    m = direct_sum(free_module(2), trivial_module(g))
    assert (m.lo, m.hi, m.dim_at(0)) == (0, 2, 2)
    with pytest.raises(ModuleError, match="degree 7, outside the window"):
        submodule(m, {7: Matrix.from_rows([[1]])})
    with pytest.raises(ModuleError, match="degree 0 has 1 rows"):
        submodule(m, {0: Matrix.from_rows([[1]])})


def test_induced_sum_refuses_reps_over_two_algebras():
    reps = {0: Rep.trivial(sl2_trivial(1), 1), 1: Rep.trivial(sl2_adjoint(), 1)}
    with pytest.raises(ModuleError, match="algebra mismatch"):
        induced_sum(reps)


def test_submodule_rejects_unstable_span():
    free = free_module(1)
    # degree-0 line is not stable: the odd generator moves it up
    with pytest.raises(ModuleError):
        submodule(free, {0: Matrix.from_rows([[1]])})


def test_degree_window_access():
    v = free_module(2)
    assert v.dim_at(99) == 0
    assert v.rho_at(99, 0).rows == 0 if v.alg.dim0 else True
    assert v.odd_at(-5, 0).rows == v.dim_at(-4)


# ---------------------------------------------------------------------------
# mutation tests: one perturbed entry must be caught by the sparse identity
# checks exactly when the dense products show a broken identity, and by
# the same identity


def dense_module_failure(v):
    """First broken identity by dense Matrix arithmetic, in check order."""
    alg = v.alg
    for j in v.degrees():
        for i in range(alg.dim0):
            for l in range(alg.dim0):
                lhs = v.rho_at(j, i) * v.rho_at(j, l) - v.rho_at(j, l) * v.rho_at(j, i)
                for k in range(alg.dim0):
                    lhs = lhs - v.rho_at(j, k).scale(alg.bracket[i][l][k])
                if not lhs.is_zero():
                    return "even representation"
        for i in range(alg.dim0):
            for e in range(alg.dim1):
                lhs = v.rho_at(j + 1, i) * v.odd_at(j, e) - v.odd_at(j, e) * v.rho_at(j, i)
                for k in range(alg.dim1):
                    lhs = lhs - v.odd_at(j, k).scale(alg.action[i][k, e])
                if not lhs.is_zero():
                    return "equivariance"
        for e in range(alg.dim1):
            for f in range(e, alg.dim1):
                s = v.odd_at(j + 1, e) * v.odd_at(j, f) + v.odd_at(j + 1, f) * v.odd_at(j, e)
                if not s.is_zero():
                    return "anticommutation"
    return None


def dense_map_failure(phi):
    v, w = phi.source, phi.target
    for j in sorted(set(v.degrees()) | set(w.degrees())):
        for i in range(v.alg.dim0):
            if phi.comp_at(j) * v.rho_at(j, i) != w.rho_at(j, i) * phi.comp_at(j):
                return "even action"
        for e in range(v.alg.dim1):
            if phi.comp_at(j + 1) * v.odd_at(j, e) != w.odd_at(j, e) * phi.comp_at(j):
                return "odd action"
    return None


def bump(m, r, c, delta):
    return Matrix.from_nonzeros(m.rows, m.cols, [*m.nonzeros(), (r, c, delta)])


def module_mutants(v, delta):
    """(kind of family, perturbed rho0, perturbed odd) for every entry."""
    for fam in ("rho0", "odd"):
        mats = getattr(v, fam)
        for k, per in enumerate(mats):
            for x, m in enumerate(per):
                for r in range(m.rows):
                    for c in range(m.cols):
                        new = tuple(
                            tuple(bump(mm, r, c, delta) if (kk, xx) == (k, x) else mm
                                  for xx, mm in enumerate(p))
                            for kk, p in enumerate(mats)
                        )
                        yield (new, v.odd) if fam == "rho0" else (v.rho0, new)


@functools.lru_cache(maxsize=None)
def small_modules():
    from superstable.corpus import corpus_modules, random_module

    mods = {n: e.module for n, e in corpus_modules().items() if e.module.total_dim <= 8}
    for k in range(8):
        v = random_module(700 + k, 8)
        if v.total_dim <= 8:
            mods[f"random{k}"] = v
    return mods


def caught(fn):
    try:
        fn()
    except ModuleError as exc:
        return str(exc)
    return None


def check_module_mutant(v, rho0, odd):
    """Assert make_module agrees with the dense oracle; return the kind."""
    expect = dense_module_failure(GradedModule(v.alg, v.lo, v.hi, v.dims, rho0, odd))
    msg = caught(lambda: make_module(v.alg, v.lo, v.hi, v.dims, rho0, odd))
    assert (msg is None) == (expect is None), (expect, msg)
    assert expect is None or msg.startswith(expect), (expect, msg)
    return expect


def test_module_mutations_cover_every_identity():
    # every entry of these modules, with and without an even part
    seen = set()
    for name in ("sl2_triv2_free", "sl2_triv1_mixed", "grassmann2_free"):
        v = small_modules()[name]
        for rho0, odd in module_mutants(v, Fraction(-1, 2)):
            seen.add(check_module_mutant(v, rho0, odd))
    assert seen == {"even representation", "equivariance", "anticommutation", None}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_module_mutations_caught_by_the_broken_identity(data):
    v = data.draw(st.sampled_from(sorted(small_modules().items())))[1]
    mutants = list(module_mutants(v, data.draw(st.sampled_from((1, -2, Fraction(1, 3))))))
    if mutants:
        check_module_mutant(v, *data.draw(st.sampled_from(mutants)))


def test_map_mutations_caught_by_the_broken_identity():
    from superstable.corpus import corpus_morphisms

    maps = [e.map for e in corpus_morphisms().values()]
    for v in small_modules().values():
        maps.append(identity_map(v))
        maps.extend(hom_graded(v, v)[:2])
    for phi in maps:
        check_map(phi)  # the unperturbed maps hold
    seen = set()
    for n, phi in enumerate(maps):
        delta = (1, -2, Fraction(1, 3))[n % 3]
        for j, m in phi.comps.items():
            for r in range(m.rows):
                for c in range(m.cols):
                    comps = dict(phi.comps)
                    comps[j] = bump(m, r, c, delta)
                    bad = GradedMap(phi.source, phi.target, comps)
                    expect = dense_map_failure(bad)
                    msg = caught(lambda: make_map(phi.source, phi.target, comps))
                    assert (msg is None) == (expect is None), (expect, msg)
                    if expect is not None:
                        assert expect in msg, (expect, msg)
                        seen.add(expect)
    assert seen == {"even action", "odd action"}


def test_rep_check_mutations():
    g = sl2_adjoint()
    q = Rep(g, 2, tuple(SL2_NATURAL))
    assert q.check() is q
    for i in range(3):
        for r in range(2):
            for c in range(2):
                mats = tuple(bump(m, r, c, 1) if k == i else m for k, m in enumerate(q.mats))
                with pytest.raises(ModuleError):
                    Rep(g, 2, mats).check()


def test_empty_window_module_and_map():
    v = make_module(grassmann(1), 0, -1, (), (), ())
    assert v.total_dim == 0
    assert make_map(v, v, {}).is_zero()
    # the product of two empty windows is the empty window at v.lo + w.lo
    w = make_module(grassmann(1), 3, 2, (), (), ())
    t = tensor(v, w)
    assert (t.lo, t.hi, t.dims, t.total_dim) == (3, 2, (), 0)
    # and so is the product of an empty window with a module over several
    # degrees, in either order, not a zero module over all but one of them
    e = make_module(grassmann(2), 5, 4, (), (), ())
    free = corpus_modules()["grassmann2_free"].module
    assert free.hi > free.lo
    for t in (tensor(e, free), tensor(free, e)):
        assert (t.lo, t.hi, t.dims) == (5 + free.lo, 4 + free.lo, ())


# ---------------------------------------------------------------------------
# the one-module induced builder against the former fold: one validated
# induced module per degree from dense kron blocks, summed by direct_sum


def induced_module_oracle(alg, q, base_degree):
    n = alg.dim1
    wedge = exterior_odd_action(n)
    deriv = exterior_even_action(alg)
    dims, rho0, odd = [], [], []
    for l in range(n + 1):
        lam = comb(n, l)
        dims.append(lam * q.dim)
        rho0.append(tuple(
            kron(deriv[l][i], Matrix.identity(q.dim)) + kron(Matrix.identity(lam), q.mats[i])
            for i in range(alg.dim0)
        ))
        odd.append(tuple(kron(wedge[l][e], Matrix.identity(q.dim)) for e in range(n)))
    return make_module(alg, base_degree, base_degree + n, dims, rho0, odd)


def induced_fold_oracle(alg, reps):
    parts = [induced_module_oracle(alg, reps[j], j) for j in sorted(reps)]
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


def test_induced_sum_matches_fold_on_corpus_reps():
    for name, e in corpus_reps().items():
        for reps in ({0: e.rep}, {-1: e.rep, 1: e.rep}, {-2: e.rep, 0: e.rep, 3: e.rep}):
            expect = induced_fold_oracle(e.alg, reps)
            assert induced_sum(reps) == expect, (name, sorted(reps))
            assert module_to_json(induced_sum(reps)) == module_to_json(expect)
        assert induced_module(e.rep, base_degree=2) == induced_module_oracle(e.alg, e.rep, 2)
    # Lambda(g1), which induced_sum assembles unchecked, is a module over
    # every corpus algebra: induced from the 1-dim trivial Q, it is itself
    for name, e in corpus_modules().items():
        alg = e.module.alg
        n = alg.dim1
        lam = make_module(alg, 0, n, [comb(n, l) for l in range(n + 1)],
                          exterior_even_action(alg), exterior_odd_action(n))
        assert induced_module(Rep.trivial(alg, 1)) == lam, name


def test_induced_module_of_zero_rep():
    g = sl2_adjoint()
    v = induced_module(Rep.trivial(g, 0), base_degree=1)
    assert (v.lo, v.hi, v.dims) == (1, 4, (0, 0, 0, 0))
    assert v == induced_module_oracle(g, Rep.trivial(g, 0), 1)
    with pytest.raises(ModuleError):
        induced_sum({})


INDUCED_ALGEBRAS = [grassmann(1), grassmann(2), grassmann(3), sl2_trivial(1), sl2_trivial(2), sl2_adjoint()]


@st.composite
def algebra_and_reps(draw):
    alg = draw(st.sampled_from(INDUCED_ALGEBRAS))
    degrees = draw(st.sets(st.integers(-2, 2), min_size=1, max_size=3))
    kinds = ["trivial1", "trivial2"] + (["natural", "adjoint"] if alg.dim0 else [])
    reps = {}
    for j in degrees:
        kind = draw(st.sampled_from(kinds))
        if kind == "natural":
            reps[j] = _natural_rep(alg)
        elif kind == "adjoint":
            reps[j] = _adjoint_rep(alg)
        else:
            reps[j] = Rep.trivial(alg, int(kind[-1]))
    return alg, reps


@given(algebra_and_reps())
@settings(max_examples=40, deadline=None)
def test_induced_sum_matches_fold_on_random_reps(case):
    alg, reps = case
    expect = induced_fold_oracle(alg, reps)
    got = induced_sum(reps)
    assert got == expect
    assert module_to_json(got) == module_to_json(expect)


# ---------------------------------------------------------------------------
# induced_sum writes each action matrix in one placement; the construction
# it replaced, Lambda(g1) tensored with each Q_j in degree j and summed by
# one direct_sum, is the oracle


def induced_tensor_oracle(reps):
    alg = next(iter(reps.values())).alg
    n = alg.dim1
    lam = make_module(alg, 0, n, [comb(n, l) for l in range(n + 1)],
                      exterior_even_action(alg), exterior_odd_action(n))
    return direct_sum(*(tensor(lam, concentrated(q, j)) for j, q in sorted(reps.items())))


def assert_induced_sum_matches_tensor_oracle(reps):
    got, expect = induced_sum(reps), induced_tensor_oracle(reps)
    assert got == expect
    for j in expect.degrees():
        for i in range(expect.alg.dim0):
            assert got.rho_at(j, i) == expect.rho_at(j, i), (j, i)
        for e in range(expect.alg.dim1):
            assert got.odd_at(j, e) == expect.odd_at(j, e), (j, e)


def test_induced_sum_matches_tensor_oracle_on_corpus_reps():
    for e in corpus_reps().values():
        for reps in ({0: e.rep}, {-1: e.rep, 1: e.rep}, {-2: e.rep, 0: e.rep, 3: e.rep}):
            assert_induced_sum_matches_tensor_oracle(reps)


def test_induced_sum_matches_tensor_oracle_on_the_qs_of_decompose(monkeypatch):
    """Every induced sum that `decompose` and the certificates build on a
    corpus module: its Q's and the degree components of the module."""
    from superstable import projstable

    seen = []

    def recording(reps):
        seen.append(dict(reps))
        return induced_sum(reps)

    monkeypatch.setattr(projstable, "induced_sum", recording)
    for e in corpus_modules().values():
        projstable.decompose(e.module)
        projstable.projective_certificate(e.module)
    assert seen
    for reps in seen:
        assert_induced_sum_matches_tensor_oracle(reps)


ORACLE_ALGEBRAS = INDUCED_ALGEBRAS + [sl2_trivial(0)]


@st.composite
def unequal_reps(draw):
    """Two to four summands over one algebra, of drawn dimensions: trivial
    ones of dim 0-3 and, for g0 = sl2, the natural and adjoint ones."""
    alg = draw(st.sampled_from(ORACLE_ALGEBRAS))
    degrees = draw(st.sets(st.integers(-3, 3), min_size=2, max_size=4))
    kinds = [0, 1, 2, 3] + (["natural", "adjoint"] if alg.dim0 else [])
    reps = {}
    for j in sorted(degrees):
        kind = draw(st.sampled_from(kinds))
        if kind == "natural":
            reps[j] = _natural_rep(alg)
        elif kind == "adjoint":
            reps[j] = _adjoint_rep(alg)
        else:
            reps[j] = Rep.trivial(alg, kind)
    return reps


@given(unequal_reps())
@settings(max_examples=60, deadline=None)
def test_induced_sum_matches_tensor_oracle_on_random_reps(reps):
    assert_induced_sum_matches_tensor_oracle(reps)


def test_induced_sum_matches_tensor_oracle_without_odd_or_even_part():
    sl2 = sl2_trivial(0)  # dim g1 = 0: Ind(Q) is Q in its degree
    assert (sl2.dim0, sl2.dim1) == (3, 0)
    for reps in ({0: _natural_rep(sl2)}, {-1: _adjoint_rep(sl2), 2: _natural_rep(sl2)}):
        assert_induced_sum_matches_tensor_oracle(reps)
    for n in (1, 2, 3):  # dim g0 = 0
        g = grassmann(n)
        assert g.dim0 == 0
        assert_induced_sum_matches_tensor_oracle({0: Rep.trivial(g, 2), 1: Rep.trivial(g, 1)})
        assert_induced_sum_matches_tensor_oracle({-2: Rep.trivial(g, 0), 2: Rep.trivial(g, 3)})


# ---------------------------------------------------------------------------
# block assembly: total_matrix and the odd blocks of direct_sum go through
# Matrix.block_diag; the former hand-placed assembly is the oracle


def total_matrix_oracle(phi):
    degs = sorted(set(phi.source.degrees()) | set(phi.target.degrees()))
    rows = sum(phi.target.dim_at(j) for j in degs)
    cols = sum(phi.source.dim_at(j) for j in degs)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for j in degs:
        m = phi.comp_at(j)
        for r in range(m.rows):
            for c in range(m.cols):
                out[r0 + r][c0 + c] = m.data[r][c]
        r0 += m.rows
        c0 += m.cols
    return Matrix(rows, cols, out)


def direct_sum_odd_oracle(v, w):
    lo, hi = min(v.lo, w.lo), max(v.hi, w.hi)
    odd = []
    for j in range(lo, hi + 1):
        tgt = v.dim_at(j + 1) + w.dim_at(j + 1) if j < hi else 0
        row = []
        for e in range(v.alg.dim1):
            a, b = v.odd_at(j, e), w.odd_at(j, e)
            blk = [[Fraction(0)] * (a.cols + b.cols) for _ in range(tgt)]
            for r in range(a.rows):
                for c in range(a.cols):
                    blk[r][c] = a.data[r][c]
            r0 = v.dim_at(j + 1)
            for r in range(b.rows):
                for c in range(b.cols):
                    blk[r0 + r][a.cols + c] = b.data[r][c]
            row.append(Matrix(tgt, a.cols + b.cols, blk))
        odd.append(tuple(row))
    return tuple(odd)


@functools.lru_cache(maxsize=None)
def random_pool():
    from superstable.corpus import random_module

    pool = {}
    for k in range(60):
        v = random_module(1300 + k, 8)
        pool.setdefault(v.alg.name, []).append(v)
    return {name: vs for name, vs in pool.items() if len(vs) >= 2}


@st.composite
def module_pairs(draw):
    vs = draw(st.sampled_from(sorted(random_pool().items())))[1]
    v, w = draw(st.permutations(vs))[:2]
    return v, shift(w, draw(st.integers(-3, 3)))


@given(module_pairs())
@settings(max_examples=40, deadline=None)
def test_direct_sum_odd_blocks_match_hand_placement(pair):
    v, w = pair
    assert direct_sum(v, w).odd == direct_sum_odd_oracle(v, w)


def tensor_oracle(v, w):
    """(dims, rho0, odd) of V (x) W by the dense kron-and-sum formula:
    degree l holds the blocks V^i (x) W^(l-i) in ascending i, x acts by
    kron(x, I) + kron(I, x) on each, and e maps block (i, j) by kron(e, I)
    to block (i+1, j) and by (-1)^i kron(I, e) to block (i, j+1)."""
    lo, hi = v.lo + w.lo, v.hi + w.hi

    def offsets(l):
        off, run = {}, 0
        for i in v.degrees():
            if w.lo <= l - i <= w.hi:
                off[(i, l - i)] = run
                run += v.dim_at(i) * w.dim_at(l - i)
        return off, run

    def add(out, r0, c0, sign, m):
        for r in range(m.rows):
            for c in range(m.cols):
                out[r0 + r][c0 + c] += sign * m.data[r][c]

    dims, rho0, odd = [], [], []
    for l in range(lo, hi + 1):
        src, n = offsets(l)
        tgt, t = offsets(l + 1) if l < hi else ({}, 0)
        dims.append(n)
        mats = []
        for x in range(v.alg.dim0):
            out = [[Fraction(0)] * n for _ in range(n)]
            for (i, j), o in src.items():
                add(out, o, o, 1, kron(v.rho_at(i, x), Matrix.identity(w.dim_at(j))))
                add(out, o, o, 1, kron(Matrix.identity(v.dim_at(i)), w.rho_at(j, x)))
            mats.append(Matrix(n, n, out))
        rho0.append(tuple(mats))
        mats = []
        for e in range(v.alg.dim1):
            out = [[Fraction(0)] * n for _ in range(t)]
            for (i, j), o in src.items():
                if (i + 1, j) in tgt:
                    add(out, tgt[(i + 1, j)], o, 1, kron(v.odd_at(i, e), Matrix.identity(w.dim_at(j))))
                if (i, j + 1) in tgt:
                    sign = -1 if i % 2 else 1
                    add(out, tgt[(i, j + 1)], o, sign, kron(Matrix.identity(v.dim_at(i)), w.odd_at(j, e)))
            mats.append(Matrix(t, n, out))
        odd.append(tuple(mats))
    return lo, hi, dims, rho0, odd


@given(module_pairs())
@settings(max_examples=40, deadline=None)
def test_tensor_matches_the_dense_kron_formula(pair):
    v, w = pair
    t = tensor(v, w)
    lo, hi, dims, rho0, odd = tensor_oracle(v, w)
    assert (t.lo, t.hi) == (lo, hi)
    for k, l in enumerate(range(lo, hi + 1)):
        assert t.dims[k] == dims[k], l
        assert t.rho0[k] == rho0[k], l
        assert t.odd[k] == odd[k], l


def test_direct_sum_of_several_matches_nested_sums():
    by_alg = {}
    for e in corpus_modules().values():
        by_alg.setdefault(e.module.alg.name, []).append(e.module)
        assert module_to_json(direct_sum(e.module)) == module_to_json(e.module)
    triples = [mods[:3] for mods in by_alg.values() if len(mods) >= 3]
    assert len(triples) >= 3
    for a, b, c in triples:
        b = shift(b, 1)
        got = direct_sum(a, b, c)
        assert got == direct_sum(direct_sum(a, b), c)
        assert module_to_json(got) == module_to_json(direct_sum(a, direct_sum(b, c)))
    with pytest.raises(ModuleError):
        direct_sum(a, b, trivial_module(grassmann(4)))


@given(module_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_total_matrix_matches_hand_placement(pair, rng):
    v, w = pair
    # any components of the right shapes: total_matrix does not need a g-map
    comps = {
        j: Matrix(w.dim_at(j), v.dim_at(j),
                  [[rng.randint(-3, 3) for _ in range(v.dim_at(j))] for _ in range(w.dim_at(j))])
        for j in set(v.degrees()) & set(w.degrees())
        if rng.random() < 0.8
    }
    phi = GradedMap(v, w, comps)
    assert phi.total_matrix() == total_matrix_oracle(phi)
    s = direct_sum(v, w)
    assert identity_map(s).total_matrix() == total_matrix_oracle(identity_map(s))


# ---------------------------------------------------------------------------
# validate once: direct_sum, tensor, dual, shift and induced_sum assemble
# their output without re-checking it, so the dense oracle sweeps it here


@functools.lru_cache(maxsize=None)
def modules_by_algebra():
    pool = {}
    for v in small_modules().values():
        pool.setdefault(v.alg.name, []).append(v)
    return pool


def summand_inclusions(alg, reps, total):
    """Each Lambda(g1) (x) reps[j], built by dense kron and validated, with
    its inclusion into `total` at the blocks `induced_blocks` gives it."""
    layout = induced_blocks(alg.dim1, reps)
    for j in sorted(reps):
        part = induced_module_oracle(alg, reps[j], j)
        comps = {}
        for l in part.degrees():
            off = sum(reps[i].dim for i, _ in layout[l] if i < j)
            comps[l] = Matrix.place(total.dim_at(l), part.dim_at(l),
                                    [(off, 0, 1, Matrix.identity(part.dim_at(l)))])
        yield GradedMap(part, total, comps)


@st.composite
def constructions(draw):
    """(name, inputs, output) of one category operation on small corpus
    and random modules, or of induced_sum on corpus-style reps."""
    op = draw(st.sampled_from(["direct_sum", "tensor", "dual", "shift", "induced_sum"]))
    if op == "induced_sum":
        if draw(st.booleans()):
            alg, reps = draw(algebra_and_reps())
        else:
            e = draw(st.sampled_from(sorted(corpus_reps().items())))[1]
            degrees = draw(st.sets(st.integers(-2, 2), min_size=1, max_size=3))
            alg, reps = e.alg, {j: e.rep for j in degrees}
        return op, (alg, reps), induced_sum(reps)
    if draw(st.booleans()):
        from superstable.corpus import random_module

        v = random_module(draw(st.integers(0, 10**6)), 8)
        pool = [v] + modules_by_algebra().get(v.alg.name, [])
    else:
        pool = draw(st.sampled_from(sorted(modules_by_algebra().items())))[1]
        v = draw(st.sampled_from(pool))
    if op == "dual":
        return op, v, dual(v)
    if op == "shift":
        return op, v, shift(v, draw(st.integers(-3, 3)))
    if op == "tensor":  # the dense oracle on a product over 32 dims takes seconds
        pool = [m for m in pool if m.total_dim * v.total_dim <= 32] or [trivial_module(v.alg)]
    w = shift(draw(st.sampled_from(pool)), draw(st.integers(-2, 2)))
    return op, (v, w), (direct_sum if op == "direct_sum" else tensor)(v, w)


@given(constructions())
@settings(max_examples=60, deadline=None)
def test_assembled_modules_pass_the_dense_oracle(case):
    op, args, out = case
    assert dense_module_failure(out) is None, op
    if op == "dual":
        # V -> V**, (-1)^j in degree j, is a g-map only with the sign (-1)^i
        dd = dual(out)
        signs = {j: Matrix.identity(args.dim_at(j)).scale(-1 if j % 2 else 1) for j in args.degrees()}
        assert dense_map_failure(GradedMap(args, dd, signs)) is None
    if op == "induced_sum":
        # each summand sits in the blocks of `induced_blocks`
        for incl in summand_inclusions(*args, out):
            assert dense_map_failure(incl) is None


# `_squares` keeps one even square per generator of g0; these check the
# answers against the system with one per even basis element


@contextlib.contextmanager
def every_even_square():
    """`_squares`, `check_map` and `graded_map_system` with an even square
    for every even basis element, as if every one were a generator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuperAlgebra, "generators", property(lambda g: tuple(range(g.dim0))))
        yield


def same_hom_basis(v, w):
    fast = hom_graded(v, w)
    with every_even_square():
        slow = hom_graded(v, w)
    assert [phi.comps for phi in fast] == [phi.comps for phi in slow]
    return fast


def same_verdict(phi):
    msg = caught(lambda: check_map(phi))
    with every_even_square():
        assert caught(lambda: check_map(phi)) == msg
    return msg


def test_generator_squares_give_the_hom_bases_of_every_square_on_corpus_pairs():
    mods = [e.module for e in corpus_modules().values()]
    pairs = [(v, w) for v in mods for w in mods if v.alg == w.alg]
    assert any(v.alg.generators != tuple(range(v.alg.dim0)) for v, _ in pairs)
    for v, w in pairs:
        for phi in same_hom_basis(v, w):
            assert same_verdict(phi) is None


@given(module_pairs())
@settings(max_examples=40, deadline=None)
def test_generator_squares_give_the_hom_bases_of_every_square_on_random_pairs(pair):
    v, w = pair
    for phi in same_hom_basis(v, w):
        assert same_verdict(phi) is None


def test_generator_squares_give_the_verdicts_of_every_square_on_map_mutants():
    from superstable.corpus import corpus_morphisms

    maps = [e.map for e in corpus_morphisms().values()]
    for v in small_modules().values():
        maps.append(identity_map(v))
        maps.extend(hom_graded(v, v)[:2])
    seen = set()
    for n, phi in enumerate(maps):
        delta = (1, -2, Fraction(1, 3))[n % 3]
        for j, m in phi.comps.items():
            for r in range(m.rows):
                for c in range(m.cols):
                    comps = dict(phi.comps)
                    comps[j] = bump(m, r, c, delta)
                    seen.add(same_verdict(GradedMap(phi.source, phi.target, comps)))
    assert {msg.split(" at ")[0] if msg else msg for msg in seen} == {
        None, "map fails to commute with even action", "map fails to commute with odd action"}


# `_check_invariants` scans first with the reduced index sets of
# `SuperAlgebra` (the mixed identity over `generators`, anticommutation
# over `square_generators`), and `_squares` keeps the odd squares of
# `odd_generators` only; these check verdicts, messages and solves
# against every index


def every_pair(g):
    return tuple((e, f) for e in range(g.dim1) for f in range(e, g.dim1))


@contextlib.contextmanager
def every_module_identity():
    """`make_module` with the mixed identity of every even index and the
    anticommutation of every odd pair in its first scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuperAlgebra, "generators", property(lambda g: tuple(range(g.dim0))))
        mp.setattr(SuperAlgebra, "square_generators", property(every_pair))
        yield


@contextlib.contextmanager
def every_odd_square():
    """`_squares`, `check_map` and `graded_map_system` with an odd square
    for every odd basis element."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuperAlgebra, "odd_generators", property(lambda g: tuple(range(g.dim1))))
        yield


@functools.lru_cache(maxsize=None)
def differential_modules():
    """The corpus, `random_module` draws, modules over both
    `sl2_natural_sum` algebras the corpus lacks, and `sl2_adjoint_natural`
    in a dense basis: every built-in family."""
    from superstable.algebra import sl2_natural_sum
    from superstable.corpus import random_module
    from test_dsvariety import dense_basis

    mods = [e.module for e in corpus_modules().values()]
    mods += [random_module(1500 + k, 12) for k in range(40)]
    for m in (1, 2):
        g = sl2_natural_sum(m)
        mods += [induced_module(Rep(g, 2, tuple(SL2_NATURAL)), base_degree=-1),
                 direct_sum(dual(induced_module(Rep.trivial(g, 1))), trivial_module(g, degree=1))]
    mods.append(dense_basis(corpus_modules()["sl2_adjoint_natural"].module, 0))
    return tuple(mods)


def one_entry_mutant(v, data):
    """(rho0, odd) of v with one entry, drawn, bumped."""
    cells = [(fam, k, x) for fam in ("rho0", "odd") for k, per in enumerate(getattr(v, fam))
             for x, m in enumerate(per) if m.rows and m.cols]
    if not cells:
        return v.rho0, v.odd
    fam, k, x = data.draw(st.sampled_from(cells))
    mats, m = getattr(v, fam), getattr(v, fam)[k][x]
    r, c = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    delta = data.draw(st.sampled_from((1, -2, Fraction(1, 3))))
    new = tuple(tuple(bump(mm, r, c, delta) if (kk, xx) == (k, x) else mm for xx, mm in enumerate(per))
                for kk, per in enumerate(mats))
    return (new, v.odd) if fam == "rho0" else (v.rho0, new)


def same_module_verdict(v, rho0, odd):
    args = (v.alg, v.lo, v.hi, v.dims, rho0, odd)
    msg = caught(lambda: make_module(*args))
    with every_module_identity():
        assert caught(lambda: make_module(*args)) == msg
    return msg


def test_reduced_identity_sets_accept_every_module_of_the_pool():
    mods = differential_modules()
    names = {v.alg.name for v in mods}
    assert {"grassmann(1)", "grassmann(2)", "grassmann(3)", "sl2_trivial(1)", "sl2_trivial(2)",
            "sl2_adjoint", "sl2_natural_sum(1)", "sl2_natural_sum(2)"} <= names, names
    assert any(v.alg.square_generators != every_pair(v.alg) for v in mods)
    for v in mods:
        assert same_module_verdict(v, v.rho0, v.odd) is None


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_reduced_identity_sets_give_the_verdict_and_message_of_every_identity(data):
    v = data.draw(st.sampled_from(differential_modules()))
    same_module_verdict(v, *one_entry_mutant(v, data))


def test_reduced_identity_sets_on_every_odd_mutant_of_sl2_adjoint_natural():
    # the benchmark's module, where every set is reduced: every entry of
    # every odd matrix, bumped, is refused with the message of the full scan
    v = corpus_modules()["sl2_adjoint_natural"].module
    g = v.alg
    assert (g.generators, g.odd_generators, g.square_generators) == ((0, 2), (0,), ((0, 2),))
    seen = set()
    for rho0, odd in module_mutants(v, Fraction(1, 2)):
        if rho0 is v.rho0:
            seen.add(same_module_verdict(v, rho0, odd).split(" at ")[0])
    assert seen == {"equivariance fails", "anticommutation fails"}


def same_odd_hom_basis(v, w):
    fast = hom_graded(v, w)
    with every_odd_square():
        slow = hom_graded(v, w)
    assert [phi.comps for phi in fast] == [phi.comps for phi in slow]
    return fast


def same_odd_verdict(phi):
    msg = caught(lambda: check_map(phi))
    with every_odd_square():
        assert caught(lambda: check_map(phi)) == msg
    return msg


def test_odd_generator_squares_give_the_hom_bases_of_every_odd_square_on_corpus_pairs():
    mods = [e.module for e in corpus_modules().values()]
    pairs = [(v, w) for v in mods for w in mods if v.alg == w.alg]
    assert any(v.alg.odd_generators != tuple(range(v.alg.dim1)) for v, _ in pairs)
    for v, w in pairs:
        for phi in same_odd_hom_basis(v, w):
            assert same_odd_verdict(phi) is None


@given(module_pairs())
@settings(max_examples=40, deadline=None)
def test_odd_generator_squares_give_the_hom_bases_of_every_odd_square_on_random_pairs(pair):
    v, w = pair
    for phi in same_odd_hom_basis(v, w):
        assert same_odd_verdict(phi) is None


def test_odd_generator_squares_give_the_projectors_and_certificates_of_every_odd_square():
    from superstable.corpus import corpus_morphisms
    from superstable.projstable import decompose, projective_certificate, stable_equal_certificate

    mods = [e.module for e in corpus_modules().values()]
    maps = [e.map for e in corpus_morphisms().values()]
    fast = ([decompose(v) for v in mods], [projective_certificate(v) for v in mods],
            [stable_equal_certificate(f, zero_map(f.source, f.target)) for f in maps])
    with every_odd_square():
        slow = ([decompose(v) for v in mods], [projective_certificate(v) for v in mods],
                [stable_equal_certificate(f, zero_map(f.source, f.target)) for f in maps])
    assert fast == slow
    assert any(c is not None for c in fast[1]) and any(c is not None for c in fast[2])


def test_odd_generator_squares_give_the_verdicts_of_every_odd_square_on_map_mutants():
    from superstable.corpus import corpus_morphisms

    maps = [e.map for e in corpus_morphisms().values()]
    for v in small_modules().values():
        maps.append(identity_map(v))
        maps.extend(hom_graded(v, v)[:2])
    v = corpus_modules()["sl2_adjoint_natural"].module
    maps.append(identity_map(v))
    seen = set()
    for n, phi in enumerate(maps):
        delta = (1, -2, Fraction(1, 3))[n % 3]
        for j, m in phi.comps.items():
            for r in range(m.rows):
                for c in range(m.cols):
                    comps = dict(phi.comps)
                    comps[j] = bump(m, r, c, delta)
                    seen.add(same_odd_verdict(GradedMap(phi.source, phi.target, comps)))
    assert {msg.split(" at ")[0] if msg else msg for msg in seen} == {
        None, "map fails to commute with even action", "map fails to commute with odd action"}
