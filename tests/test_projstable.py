import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable import linalg, projstable
from superstable.algebra import SL2_NATURAL, SuperAlgebra, grassmann, sl2_adjoint, sl2_trivial
from superstable.corpus import corpus_modules, corpus_morphisms, corpus_reps, random_module
from superstable.gradedmod import (
    MAX_EXTERIOR_SIZE,
    GradedMap,
    ModuleError,
    Rep,
    check_exterior_size,
    check_map,
    concentrated,
    direct_sum,
    graded_map_system,
    hom_graded,
    identity_map,
    induced_module,
    make_map,
    make_module,
    merge_sign,
    restrict,
    shift,
    subsets,
    trivial_module,
    zero_map,
)
from superstable.linalg import Matrix
from superstable.projstable import (
    HypothesisError,
    _evaluation_map,
    _induced_on,
    _lift_along_evaluation,
    _trace_preimage,
    decompose,
    frobenius_check,
    is_projective,
    is_reduced,
    projective_certificate,
    stable_equal,
    stable_equal_certificate,
    top_operator,
)
from superstable.serialize import map_to_json
from superstable.rigid import L_of, fiber, fiber_cohomology
from superstable.dsvariety import random_points


def test_top_operator_free_module_full_rank():
    v = corpus_modules()["grassmann2_free"].module
    op = top_operator(v)
    # E: bottom degree -> top degree is an isomorphism on a free module
    assert op.comp_at(0).rank() == 1
    assert not op.is_zero()


def _no_odd_part_modules():
    """Modules over grassmann(0) and sl2_trivial(0), where g1 = 0."""
    g, s = grassmann(0), sl2_trivial(0)
    return [
        direct_sum(trivial_module(g, 0, 2), trivial_module(g, 1, 1)),
        direct_sum(concentrated(Rep(s, 2, tuple(SL2_NATURAL)), -1), trivial_module(s, 1)),
    ]


def test_top_operator_is_the_identity_with_no_odd_part():
    # the empty odd word is the identity: a module is induced from
    # itself, so it is projective with reduced part 0, and not reduced
    for v in _no_odd_part_modules():
        assert top_operator(v) == identity_map(v)
        dec = decompose(v)
        assert dec.q_dim == dec.induced_part.total_dim == v.total_dim
        assert dec.reduced_part.total_dim == 0
        _check_decomposition_maps(dec)
        assert is_projective(v) and tau_decides(v) and projective_certificate(v) is not None
        assert not is_reduced(v)


def test_is_reduced():
    mods = corpus_modules()
    assert is_reduced(mods["grassmann1_trivial"].module)
    assert is_reduced(mods["sl2_adjoint_trivial"].module)
    assert not is_reduced(mods["grassmann2_free"].module)
    assert not is_reduced(mods["grassmann2_mixed"].module)


def test_decompose_corpus_expectations():
    for name, e in corpus_modules().items():
        dec = decompose(e.module)
        n = e.module.alg.dim1
        assert dec.induced_part.total_dim == (2**n) * dec.q_dim, name
        assert dec.reduced_part.total_dim == e.reduced_dim, name
        assert (
            dec.induced_part.total_dim + dec.reduced_part.total_dim
            == e.module.total_dim
        ), name
        if dec.reduced_part.total_dim:
            assert is_reduced(dec.reduced_part), name
        _check_decomposition_maps(dec)


def _check_decomposition_maps(dec):
    """The projector (the trace of pi) and both embeddings are g-maps,
    the assembled reduced part passes the module checks, and the
    projector restricted to the induced part is the identity."""
    for phi in (dec.projector, dec.induced_embedding, dec.reduced_embedding):
        check_map(phi)
    r = dec.reduced_part
    make_module(r.alg, r.lo, r.hi, r.dims, r.rho0, r.odd)
    assert dec.projector.compose(dec.induced_embedding) == identity_map(dec.induced_part)


def test_decompose_reduced_part_has_nonzero_fiber():
    v = corpus_modules()["sl2_triv2_mixed"].module
    dec = decompose(v)
    for x in random_points(2, 5, seed=3):
        assert fiber_cohomology(fiber(L_of(dec.reduced_part), x)).total > 0


def retraction_oracle(dec):
    """The former retraction solve: a g-map r: V -> Ind(Q) with r o emb =
    id by one solve over every component of a graded map into the induced
    part, and whether it is the only one (the homogeneous system, r o emb
    = 0, has only the zero solution)."""
    v, ind, emb = dec.projector.source, dec.induced_part, dec.induced_embedding
    systems = []
    for rhs in (Matrix.identity, lambda k: Matrix.zero(k, k)):
        sys = graded_map_system(v, ind)
        for j in ind.degrees():
            if ind.dim_at(j):
                sys.add_constraint([(1, j, emb.comp_at(j))], rhs(ind.dim_at(j)))
        systems.append(sys)
    solve, homogeneous = systems
    return GradedMap(v, ind, solve.solve()), not homogeneous.solution_basis()


def test_projector_matches_the_retraction_solve():
    # the closed-form projector is a g-map and a retraction everywhere, and
    # it is the solve's retraction wherever that one is unique: on the 12
    # corpus modules with an induced part and on 186 of the 195 such
    # random ones (seeds 0-299)
    corpus = [e.module for e in corpus_modules().values()]
    unique = []
    for k, v in enumerate(corpus + [random_module(seed, 12) for seed in range(300)]):
        try:
            dec = decompose(v)
        except HypothesisError:
            continue
        check_map(dec.projector)
        assert dec.projector.compose(dec.induced_embedding) == identity_map(dec.induced_part)
        if dec.induced_part.total_dim:
            oracle, is_unique = retraction_oracle(dec)
            if is_unique:
                assert dec.projector == oracle, v
                unique.append(k)
    assert sum(k < len(corpus) for k in unique) == 12 and len(unique) == 198


def test_is_projective_matches_decomposition(monkeypatch):
    # with no linear system to be had: the rank test solves nothing
    def refuse(*args):
        raise AssertionError("is_projective built a linear system")

    monkeypatch.setattr(projstable, "graded_map_system", refuse)
    for name, e in corpus_modules().items():
        assert is_projective(e.module) == (e.reduced_dim == 0), name
    with pytest.raises(AssertionError, match="built a linear system"):
        tau_decides(corpus_modules()["grassmann1_free"].module)


def tau_decides(v):
    """The oracle: is the identity of V a trace (Higman's criterion)?"""
    return _trace_preimage(identity_map(v)) is not None


def table_modules():
    """(module, projective?) for Ind(k^2) and Ind(k^2) + k over
    grassmann(4), grassmann(5), sl2_trivial(6) and grassmann(7): only
    Ind(k^2) is, as k is reduced."""
    out = []
    for alg in (grassmann(4), grassmann(5), sl2_trivial(6), grassmann(7)):
        ind = induced_module(Rep.trivial(alg, 2))
        out += [(ind, True), (direct_sum(ind, trivial_module(alg)), False)]
    return out


def test_rank_test_agrees_with_tau_and_decompose():
    # the rank of the top operator, the trace criterion and an empty
    # reduced part of `decompose` give one answer
    mods = [e.module for e in corpus_modules().values()] + _no_odd_part_modules()
    mods += [random_module(seed, 12) for seed in range(300)]
    answers = []
    for v in mods:
        answer = is_projective(v)
        assert answer == tau_decides(v) == (decompose(v).reduced_part.total_dim == 0), v
        answers.append(answer)
    assert 0 < sum(answers) < len(mods)


def test_is_projective_answers_over_the_trace_sum_cap():
    # the trace criterion refuses these (2^n * dim over the cap); the rank
    # of the top operator answers each in milliseconds
    import time

    table = table_modules()
    for v, expected in (table[3], table[4], table[7]):
        assert (1 << v.alg.dim1) * v.total_dim > MAX_EXTERIOR_SIZE
        with pytest.raises(ModuleError, match="over the limit"):
            tau_decides(v)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert is_projective(v) == expected, v.total_dim
            best = min(best, time.perf_counter() - t0)
        assert best < 0.1, (v.total_dim, best)


def test_rank_path_keeps_the_semisimple_hypothesis():
    # g0 = k h acts trivially on g1 = k e, V = <a> + <ea, b> + <eb> with
    # h.b = ea: V is free over Lambda(g1), so 2 rank E = dim V, but g1.V
    # has no g0-stable complement and the identity is not a trace
    g = SuperAlgebra(1, [[[0]]], 1, (Matrix.zero(1, 1),))
    v = make_module(
        g, 0, 2, (1, 2, 1),
        ((Matrix.zero(1, 1),), (Matrix.from_rows([[0, 1], [0, 0]]),), (Matrix.zero(1, 1),)),
        [(Matrix.from_rows([[1], [0]]),), (Matrix.from_rows([[0, 1]]),), (Matrix.zero(0, 1),)],
    )
    op = top_operator(v)
    assert 2 * sum(op.comp_at(j).rank() for j in v.degrees()) == 4 == v.total_dim
    assert not tau_decides(v)
    with pytest.raises(HypothesisError):
        is_projective(v)


def test_projective_certificate_checks_out():
    v = corpus_modules()["sl2_triv2_natural"].module
    section = projective_certificate(v)
    assert section is not None
    # section really is a right inverse of the evaluation in every degree
    assert _evaluation_onto(v).compose(section) == identity_map(v)


# sha256 of the compact, key-sorted map_to_json of the section of
# sl2_adjoint_natural, as computed by the dense elimination the sparse
# kernel replaced; identity minus zero lifts to the same section
ADJOINT_NATURAL_SECTION_SHA256 = "68cc0c368e6fbf878819fa49b4b08d43c09349113befd2ad534304bf42218a29"


def test_lift_certificates_golden():
    v = corpus_modules()["sl2_adjoint_natural"].module

    def digest(phi):
        text = json.dumps(map_to_json(phi), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(projective_certificate(v)) == ADJOINT_NATURAL_SECTION_SHA256
    lift = stable_equal_certificate(identity_map(v), zero_map(v, v))
    assert digest(lift) == ADJOINT_NATURAL_SECTION_SHA256


def test_stable_equal_corpus_morphisms():
    for name, e in corpus_morphisms().items():
        z = zero_map(e.map.source, e.map.target)
        assert stable_equal(e.map, z) == e.stably_zero, name


def test_stable_equal_is_reflexive_and_respects_sums():
    v = corpus_modules()["grassmann2_mixed"].module
    f = identity_map(v)
    assert stable_equal(f, f)
    assert not stable_equal(f, zero_map(v, v))


def test_stable_equal_requires_matching_shapes():
    a = corpus_modules()["grassmann1_trivial"].module
    b = corpus_modules()["grassmann1_free"].module
    with pytest.raises(ModuleError):
        stable_equal(identity_map(a), identity_map(b))


def test_hypothesis_guard():
    # a non-semisimple nonzero even part is rejected
    abelian = SuperAlgebra(1, [[[0]]], 1, (Matrix.zero(1, 1),))
    v = trivial_module(abelian)
    with pytest.raises(HypothesisError):
        is_projective(v)


def test_frobenius_all_shipped_reps():
    for name, e in corpus_reps().items():
        assert frobenius_check(e.rep), name


def test_frobenius_with_no_odd_part():
    # Ind(Q) = Q = Coind(Q), and the comparison is the identity
    assert frobenius_check(Rep.trivial(grassmann(0), 1))
    assert frobenius_check(Rep(sl2_trivial(0), 2, tuple(SL2_NATURAL)))


def test_frobenius_reports_a_flipped_sign(monkeypatch, capsys, tmp_path):
    from superstable.cli import main
    from superstable.serialize import dump, rep_to_json

    g2 = grassmann(2)
    q = Rep.trivial(g2, 1)
    path = str(tmp_path / "q.json")
    dump(rep_to_json(q), path)
    sign = projstable.merge_sign
    calls = []

    def flip_first(a, b):
        # the first sign computed is the one of S = {} in degree 0
        calls.append((a, b))
        return -sign(a, b) if len(calls) == 1 else sign(a, b)

    assert frobenius_check(q)
    monkeypatch.setattr(projstable, "merge_sign", flip_first)
    assert not frobenius_check(q)
    calls.clear()
    assert main(["frobenius-check", "--algebra", "grassmann(2)", "--q", path]) == 1
    assert "induced/coinduced comparison: FAIL" in capsys.readouterr().out


def test_frobenius_fails_on_a_trace_one_action(capsys, tmp_path):
    # g0 = k h abelian, g1 = k e with h.e = e: Lambda^1(g1) is not trivial,
    # so Ind(Q) and Coind(Q) differ already as g0-modules in degree 0
    from superstable.cli import main
    from superstable.serialize import algebra_to_json, dump, rep_to_json

    g = SuperAlgebra(1, [[[0]]], 1, (Matrix.from_rows([[1]]),))
    q = Rep.trivial(g, 1)
    assert not frobenius_check(q)
    paths = {k: str(tmp_path / f"{k}.json") for k in ("alg", "q")}
    dump(algebra_to_json(g), paths["alg"])
    dump(rep_to_json(q), paths["q"])
    assert main(["frobenius-check", "--algebra", paths["alg"], "--q", paths["q"]]) == 1
    assert "induced/coinduced comparison: FAIL" in capsys.readouterr().out


def test_frobenius_on_more_algebras_and_reps():
    from superstable.algebra import sl2_natural_sum
    from superstable.cohomology import sym_power

    for alg in (grassmann(1), grassmann(3), grassmann(4)):
        assert frobenius_check(Rep.trivial(alg, 1)) and frobenius_check(Rep.trivial(alg, 2))
    for alg in (sl2_adjoint(), sl2_natural_sum(1), sl2_natural_sum(2), sl2_trivial(3)):
        nat = Rep(alg, 2, tuple(SL2_NATURAL))
        for q in (Rep.trivial(alg, 1), nat, sym_power(nat, 2), sym_power(nat, 3)):
            if q.dim << alg.dim1 <= 64:
                assert frobenius_check(q), (alg.name, q.dim)


# ---------------------------------------------------------------------------
# the size limit on 2^dim(g1) * dim


def test_exterior_size_limit_boundary():
    check_exterior_size(0, MAX_EXTERIOR_SIZE, "x")
    check_exterior_size(10, MAX_EXTERIOR_SIZE >> 10, "x")
    check_exterior_size(10**6, 0, "x")
    for n, dim in ((0, MAX_EXTERIOR_SIZE + 1), (10, (MAX_EXTERIOR_SIZE >> 10) + 1), (10**6, 1)):
        with pytest.raises(ModuleError, match=f"2\\^{n} \\* {dim}, over the limit of {MAX_EXTERIOR_SIZE}"):
            check_exterior_size(n, dim, "x")


def _flat_module(n):
    """Dimension 1 in each degree 0..n over grassmann(n), odd action zero."""
    return make_module(
        grassmann(n), 0, n, (1,) * (n + 1), ((),) * (n + 1),
        [tuple(Matrix.zero(1 if j < n else 0, 1) for _ in range(n)) for j in range(n + 1)],
    )


def test_exterior_builds_refused_over_the_limit():
    g = grassmann(40)
    q = Rep.trivial(g, 1)
    for build in (lambda: induced_module(q), lambda: frobenius_check(q)):
        with pytest.raises(ModuleError, match="over the limit"):
            build()
    v = _flat_module(40)
    for query in (
        lambda: stable_equal(identity_map(v), identity_map(v)),
        lambda: stable_equal_certificate(identity_map(v), identity_map(v)),
    ):
        with pytest.raises(ModuleError, match="the trace sum has size 2\\^40 \\* 41"):
            query()
    # projectivity builds nothing of size 2^n: E = 0 here, so V is not free
    assert not is_projective(v)


def test_exterior_builds_at_the_limit():
    n = MAX_EXTERIOR_SIZE.bit_length() - 1
    g = grassmann(n)
    assert frobenius_check(Rep.trivial(g, 1))
    # the identity of a module with 2^n * dim at the limit is a trace
    v = induced_module(Rep.trivial(grassmann(5), 1))
    assert (1 << 5) * v.total_dim <= MAX_EXTERIOR_SIZE
    assert is_projective(v)


# ---------------------------------------------------------------------------
# the trace criterion against the former 2^n-sized lift


def lift_oracle(h):
    """Oracle: sigma: V -> Ind(W) with ev o sigma = h, by one solve over
    every component of a graded map into the induced module, or None."""
    v = h.source
    ev = _evaluation_onto(h.target)
    ind = ev.source
    sys = graded_map_system(v, ind)
    for j in v.degrees():
        if not v.dim_at(j):
            continue
        if ind.dim_at(j):
            sys.add_constraint([(ev.comp_at(j), j, 1)], h.comp_at(j))
        elif not h.comp_at(j).is_zero():
            return None
    sol = sys.solve()
    if sol is None:
        return None
    return make_map(v, ind, sol)


def _evaluation_onto(w):
    """The evaluation Ind(W as g0-module) ->> W, checked."""
    reps = {j: w.rep_at(j) for j in w.degrees() if w.dim_at(j)}
    ev = _evaluation_map(w, {j: Matrix.identity(w.dim_at(j)) for j in reps}, _induced_on(w, reps))
    return check_map(ev)


def _word(m, d, s):
    """a_S on m^d by dense products, the last index of S acting first."""
    out = Matrix.identity(m.dim_at(d))
    for k, e in enumerate(reversed(s)):
        out = m.odd_at(d + k, e) * out
    return out


def _trace(v, w, tau, d):
    """Tr(tau) on v^d: the sum over S of eps(S, S^c) a^W_{S^c} tau a^V_S."""
    n = v.alg.dim1
    total = Matrix.zero(w.dim_at(d), v.dim_at(d))
    for s in subsets(n):
        sc = tuple(x for x in range(n) if x not in s)
        if d + len(s) in tau:
            term = _word(w, d + len(s) - n, sc) * tau[d + len(s)] * _word(v, d, s)
            total = total + term.scale(merge_sign(s, sc))
    return total


def _agrees_with_oracle(h):
    expected = lift_oracle(h)
    tau = _trace_preimage(h)
    assert (tau is not None) == (expected is not None)
    if tau is not None:
        # tau is a g0-map of degree -n, and its trace is h
        v, w = h.source, h.target
        check_map(GradedMap(restrict(v), shift(restrict(w), v.alg.dim1), tau))
        for d in v.degrees():
            assert _trace(v, w, tau, d) == h.comp_at(d), d
    sigma = _lift_along_evaluation(h)
    assert (sigma is None) == (expected is None)
    if sigma is not None:
        check_map(sigma)
        assert _evaluation_onto(h.target).compose(sigma) == h
        assert sigma == expected


def _scaled(phi, c):
    return GradedMap(phi.source, phi.target, {j: m.scale(c) for j, m in phi.comps.items()})


def test_trace_criterion_matches_oracle_on_corpus():
    for name, e in corpus_modules().items():
        _agrees_with_oracle(identity_map(e.module))
    for name, e in corpus_morphisms().items():
        _agrees_with_oracle(e.map - zero_map(e.map.source, e.map.target))


@given(st.one_of(st.sampled_from(sorted(corpus_modules())), st.integers(0, 10**6)), st.data())
@settings(max_examples=30, deadline=None)
def test_trace_criterion_matches_oracle(source, data):
    # a corpus module by name, or a random module by seed; the identity,
    # one Hom basis map and an integer combination of the basis
    v = corpus_modules()[source].module if isinstance(source, str) else random_module(source, 12)
    maps = [identity_map(v)]
    basis = hom_graded(v, v)
    for b in basis:
        check_map(b)
    _check_decomposition_maps(decompose(v))
    if basis:
        maps.append(data.draw(st.sampled_from(basis)))
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        combo = zero_map(v, v)
        for c, b in zip(coeffs, basis):
            combo = combo + _scaled(b, c)
        maps.append(combo)
    for h in maps:
        _agrees_with_oracle(h)


def test_certificate_path_coerces_only_outside_data(monkeypatch):
    # Ind(W) and the lift are built from Matrices, which hand their
    # Fractions on uncoerced; what scalar() still sees (84 entries) is in
    # the small matrices of g and of Lambda(g1).  Coercing
    # every entry of every operation would be over 75,000
    calls = []
    coerce = linalg.scalar
    monkeypatch.setattr(linalg, "scalar", lambda x: calls.append(1) or coerce(x))
    assert projective_certificate(corpus_modules()["sl2_adjoint_natural"].module) is not None
    assert len(calls) < 2000
