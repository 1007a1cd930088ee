import hashlib
import json

import pytest

from superstable.algebra import SL2_NATURAL, grassmann, sl2_adjoint, sl2_trivial
from superstable.corpus import corpus_modules, corpus_morphisms, corpus_reps
from superstable.gradedmod import (
    ModuleError,
    Rep,
    identity_map,
    induced_module,
    trivial_module,
    zero_map,
)
from superstable.projstable import (
    HypothesisError,
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
    assert op.block_at(0).rank() == 1
    assert not op.is_zero()


def test_top_operator_errors_on_no_odd_part():
    from superstable.algebra import LieAlgebraEven, OddPart, SuperAlgebra
    from superstable.linalg import Matrix

    g = SuperAlgebra(LieAlgebraEven.from_constants(0, []), OddPart(0, ()))
    v = trivial_module(g)
    with pytest.raises(ModuleError):
        top_operator(v)


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
        # projector restricted to the induced part is the identity
        rt = dec.projector.compose(dec.induced_embedding)
        assert rt == identity_map(dec.induced_part), name


def test_decompose_reduced_part_has_nonzero_fiber():
    v = corpus_modules()["sl2_triv2_mixed"].module
    dec = decompose(v)
    for x in random_points(2, 5, seed=3):
        assert fiber_cohomology(fiber(L_of(dec.reduced_part), x)).total > 0


def test_is_projective_matches_decomposition():
    for name, e in corpus_modules().items():
        assert is_projective(e.module) == (e.reduced_dim == 0), name


def test_projective_certificate_checks_out():
    v = corpus_modules()["sl2_triv2_natural"].module
    section = projective_certificate(v)
    assert section is not None
    # section really is a right inverse of the evaluation in every degree
    from superstable.projstable import _evaluation_map, _induced_on
    from superstable.linalg import Matrix

    reps = {j: v.rep_at(j) for j in v.degrees() if v.dim_at(j)}
    ind = _induced_on(v, reps)
    ev = _evaluation_map(v, {j: Matrix.identity(v.dim_at(j)) for j in reps}, ind)
    assert ev.compose(section) == identity_map(v)


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
    from superstable.algebra import LieAlgebraEven, OddPart, SuperAlgebra
    from superstable.linalg import Matrix

    abelian = SuperAlgebra(
        LieAlgebraEven.from_constants(1, [[[0]]]),
        OddPart(1, (Matrix.zero(1, 1),)),
    )
    v = trivial_module(abelian)
    with pytest.raises(HypothesisError):
        is_projective(v)


def test_frobenius_all_shipped_reps():
    for name, e in corpus_reps().items():
        assert frobenius_check(e.alg, e.rep), name


def test_frobenius_rejects_missing_odd_part():
    from superstable.algebra import LieAlgebraEven, OddPart, SuperAlgebra

    g = SuperAlgebra(LieAlgebraEven.from_constants(0, []), OddPart(0, ()))
    with pytest.raises(ModuleError):
        frobenius_check(g, Rep.trivial(g.even, 1))
