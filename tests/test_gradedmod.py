import functools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable.algebra import SL2_NATURAL, grassmann, sl2_adjoint, sl2_trivial
from superstable.corpus import _adjoint_rep, _natural_rep, corpus_modules, corpus_reps
from superstable.gradedmod import (
    GradedMap,
    GradedModule,
    ModuleError,
    Rep,
    check_map,
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
)
from superstable.linalg import Matrix, kron
from superstable.serialize import module_to_json


def free_module(n, qdim=1, base=0):
    g = grassmann(n)
    return induced_module(g, Rep.trivial(g.even, qdim), base_degree=base)


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
    w = induced_module(sl2_adjoint(), Rep(sl2_adjoint().even, 2, tuple(SL2_NATURAL)))
    assert w.dims == (2, 6, 6, 2)


def test_induced_additive_in_q():
    g = sl2_trivial(2)
    q1 = Rep.trivial(g.even, 1)
    q2 = Rep(g.even, 2, tuple(SL2_NATURAL))
    q12 = Rep(g.even, 3, tuple(Matrix.block_diag([a, b]) for a, b in zip(q1.mats, q2.mats)))
    both = induced_module(g, q12)
    split = direct_sum(induced_module(g, q1), induced_module(g, q2))
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
                    lhs = lhs - v.rho_at(j, k).scale(alg.even.bracket[i][l][k])
                if not lhs.is_zero():
                    return "even representation"
        for i in range(alg.dim0):
            for e in range(alg.dim1):
                lhs = v.rho_at(j + 1, i) * v.odd_at(j, e) - v.odd_at(j, e) * v.rho_at(j, i)
                for k in range(alg.dim1):
                    lhs = lhs - v.odd_at(j, k).scale(alg.odd.action[i][k, e])
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
    data = m.copy_data()
    data[r][c] += delta
    return Matrix(m.rows, m.cols, data)


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
    g = sl2_adjoint().even
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
            assert induced_sum(e.alg, reps) == expect, (name, sorted(reps))
            assert module_to_json(induced_sum(e.alg, reps)) == module_to_json(expect)
        assert induced_module(e.alg, e.rep, base_degree=2) == induced_module_oracle(e.alg, e.rep, 2)
    # Lambda(g1), which induced_sum assembles unchecked, is a module over
    # every corpus algebra: induced from the 1-dim trivial Q, it is itself
    for name, e in corpus_modules().items():
        alg = e.module.alg
        n = alg.dim1
        lam = make_module(alg, 0, n, [comb(n, l) for l in range(n + 1)],
                          exterior_even_action(alg), exterior_odd_action(n))
        assert induced_module(alg, Rep.trivial(alg.even, 1)) == lam, name


def test_induced_module_of_zero_rep():
    g = sl2_adjoint()
    v = induced_module(g, Rep.trivial(g.even, 0), base_degree=1)
    assert (v.lo, v.hi, v.dims) == (1, 4, (0, 0, 0, 0))
    assert v == induced_module_oracle(g, Rep.trivial(g.even, 0), 1)
    with pytest.raises(ModuleError):
        induced_sum(g, {})


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
            reps[j] = Rep.trivial(alg.even, int(kind[-1]))
    return alg, reps


@given(algebra_and_reps())
@settings(max_examples=40, deadline=None)
def test_induced_sum_matches_fold_on_random_reps(case):
    alg, reps = case
    expect = induced_fold_oracle(alg, reps)
    got = induced_sum(alg, reps)
    assert got == expect
    assert module_to_json(got) == module_to_json(expect)


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
        return op, (alg, reps), induced_sum(alg, reps)
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
