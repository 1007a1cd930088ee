"""The record contract of every immutable record class: construction by
position and keyword, `__post_init__` checks, equality and hash over the
compared fields, `Name(field=...)` repr, refused assignment, and copy
and pickle round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from superstable.algebra import SuperAlgebra, is_semisimple, sl2_adjoint
from superstable.cohomology import ExtDescriptor, ExtEntry, ext_twisted
from superstable.corpus import (
    CorpusModule,
    CorpusMorphism,
    CorpusRep,
    corpus_modules,
    corpus_morphisms,
    corpus_reps,
)
from superstable.dsvariety import (
    DsResult,
    PolyIdeal,
    SupportCheckReport,
    ds_at,
    support_check,
    variety_ideal,
)
from superstable.gradedmod import GradedMap, GradedModule, ModuleError, Rep
from superstable.linalg import Matrix
from superstable.projstable import Decomposition, decompose
from superstable.rigid import CohomologyTable, OddPoint

# each record class with its fields in declaration order
FIELDS = {
    SuperAlgebra: ("dim0", "bracket", "dim1", "action", "name"),
    Rep: ("alg", "dim", "mats"),
    GradedModule: ("alg", "lo", "hi", "dims", "rho0", "odd"),
    GradedMap: ("source", "target", "comps"),
    OddPoint: ("coords",),
    CohomologyTable: ("entries",),
    ExtEntry: ("cohom_degree", "sym_degree", "top_twist_present", "dim"),
    ExtDescriptor: ("source_twist", "target_twist", "proj_dim", "entries", "note"),
    PolyIdeal: ("nvars", "generators"),
    DsResult: ("point", "total_dim", "rank_x", "per_degree"),
    SupportCheckReport: ("entries",),
    Decomposition: ("q_basis", "induced_part", "induced_embedding", "reduced_part",
                    "reduced_embedding", "projector"),
    CorpusModule: ("name", "module", "induced", "reduced_dim"),
    CorpusMorphism: ("name", "map", "stably_zero"),
    CorpusRep: ("name", "alg", "rep"),
}
# a dict field makes the tuple of compared fields unhashable, and
# GradedMap compares by its own __eq__, which leaves it (and a record
# holding one) unhashable
UNHASHABLE = {GradedMap, Decomposition, CorpusMorphism}


def _samples():
    mods = corpus_modules()
    free = mods["sl2_triv2_free"].module
    points = [OddPoint((1, 2)), OddPoint((Fraction(1, 3), -1))]
    ext = ext_twisted(3, 0, 2)
    return [
        sl2_adjoint(),
        corpus_reps()["sl2_adjoint_natural"].rep,
        free,
        corpus_morphisms()["grassmann2_mixed_proj"].map,
        points[0],
        CohomologyTable(((0, 1), (1, 2))),
        ext.entries[0],
        ext,
        variety_ideal(mods["grassmann2_mixed"].module),
        ds_at(free, points[0]),
        support_check(free, points),
        decompose(mods["grassmann2_mixed"].module),
        mods["grassmann2_mixed"],
        corpus_morphisms()["grassmann2_free_zero"],
        corpus_reps()["sl2_triv2_natural"],
    ]


SAMPLES = _samples()


def _values(rec):
    return [getattr(rec, f) for f in FIELDS[type(rec)]]


def _compared(rec):
    """The values of the compared fields: all but an algebra's name."""
    return _values(rec)[:4] if type(rec) is SuperAlgebra else _values(rec)


def test_every_record_class_is_sampled():
    assert [type(r) for r in SAMPLES] == list(FIELDS)


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_construction_by_position_and_keyword(rec):
    cls, names = type(rec), FIELDS[type(rec)]
    values = _values(rec)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for built in (by_position, by_keyword, mixed):
        assert built == rec and _values(built) == values
    with pytest.raises(TypeError, match="missing .*required"):
        cls(*values[:-1]) if cls is not SuperAlgebra else cls(*values[:-2])
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_equality_and_hash_over_the_compared_fields(rec):
    twin = type(rec)(*_values(rec))
    assert twin is not rec and twin == rec and not twin != rec
    assert rec != object() and rec != tuple(_compared(rec))
    if type(rec) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec) == hash(tuple(_compared(rec)))


def test_graded_map_is_unhashable_and_compares_by_its_components():
    f = corpus_morphisms()["grassmann2_mixed_proj"].map
    with pytest.raises(TypeError):
        hash(f)
    assert f == GradedMap(f.source, f.target, {**f.comps})
    assert f != GradedMap(f.source, f.target, {})


def test_a_field_that_differs_makes_records_unequal():
    assert CohomologyTable(((0, 1),)) != CohomologyTable(((0, 2),))
    assert OddPoint((1, 2)) != OddPoint((2, 1))
    assert ExtEntry(0, 1, False, 2) != ExtEntry(0, 1, True, 2)
    table = CohomologyTable(((0, 1),))
    assert CohomologyTable(((0, 1),)) in {table} and CohomologyTable(((0, 2),)) not in {table}


def test_the_name_of_an_algebra_is_neither_compared_nor_hashed():
    named = sl2_adjoint()
    unnamed = SuperAlgebra(named.dim0, named.bracket, named.dim1, named.action)
    assert named.name == "sl2_adjoint" and unnamed.name == ""
    assert named == unnamed and hash(named) == hash(unnamed)
    assert hash(named) == hash((named.dim0, named.bracket, named.dim1, named.action))
    assert {named: 1}[unnamed] == 1
    assert "name='sl2_adjoint'" in repr(named) and "name=''" in repr(unnamed)


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_are_refused(rec):
    for name in FIELDS[type(rec)] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert _values(rec) == _values(copy.copy(rec))


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_repr_names_the_class_and_each_field(rec):
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[type(rec)], _values(rec)))
    assert repr(rec) == f"{type(rec).__qualname__}({fields})"


def test_repr_shape():
    assert repr(CohomologyTable(((0, 1),))) == "CohomologyTable(entries=((0, 1),))"
    assert repr(OddPoint((1, 0))) == "OddPoint(coords=(Fraction(1, 1), Fraction(0, 1)))"
    assert repr(ExtEntry(0, 1, False, 2)) == (
        "ExtEntry(cohom_degree=0, sym_degree=1, top_twist_present=False, dim=2)"
    )


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__name__)
def test_copy_deepcopy_and_pickle_give_an_equal_record(rec):
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec) and twin == rec
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[type(rec)][0], None)


def test_cached_property_on_a_record():
    g = sl2_adjoint()
    assert is_semisimple(g) and "_semisimple" in vars(g)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.name == g.name and is_semisimple(twin)
    unnamed = SuperAlgebra(g.dim0, g.bracket, g.dim1, g.action)
    assert "_semisimple" not in vars(unnamed) and unnamed == g


def test_post_init_coerces_and_refuses():
    # coercions run by position and by keyword alike
    assert OddPoint(coords=[1, 2]).coords == (Fraction(1), Fraction(2))
    assert SuperAlgebra(dim0=1, bracket=[[[0]]], dim1=0, action=[Matrix.zero(0, 0)]).bracket == (
        ((Fraction(0),),),
    )
    for build in (lambda: OddPoint((0, 0)), lambda: OddPoint(coords=(0, Fraction(0)))):
        with pytest.raises(ValueError, match="nonzero coordinate vector"):
            build()
    free = corpus_modules()["sl2_triv2_free"].module
    r = ds_at(free, OddPoint((1, 2)))
    with pytest.raises(ValueError, match="disagrees with the fiber cohomology"):
        DsResult(r.point, r.total_dim, r.rank_x + 1, r.per_degree)
    with pytest.raises(ValueError, match="disagrees with the fiber cohomology"):
        DsResult(point=r.point, total_dim=r.total_dim + 1, rank_x=r.rank_x, per_degree=r.per_degree)
    rep = corpus_reps()["sl2_adjoint_natural"].rep
    with pytest.raises(ModuleError, match="wrong shape"):
        Rep(rep.alg, rep.dim + 1, rep.mats)
    with pytest.raises(ModuleError, match="one action matrix per even basis element"):
        Rep(alg=rep.alg, dim=rep.dim, mats=rep.mats[:1])
