from superstable.algebra import validate
from superstable.corpus import (
    corpus_modules,
    corpus_morphisms,
    corpus_reps,
    nonfullness_witness,
    random_module,
    random_modules,
)
from superstable.gradedmod import check_map, trivial_module


def test_corpus_required_entries_present():
    mods = corpus_modules()
    assert mods["grassmann2_free"].module.dims == (1, 2, 1)
    assert "grassmann1_free" in mods
    # trivial modules at several degrees
    assert mods["grassmann1_trivial"].module.lo == 0
    assert mods["grassmann2_trivial_deg2"].module.lo == 2
    # sl2 with trivial odd parts of dims 1..3
    for n in (1, 2, 3):
        assert any(
            e.module.alg.name == f"sl2_trivial({n})" for e in mods.values()
        ), n
    # adjoint odd part, induced and mixed examples
    assert any(e.module.alg.name == "sl2_adjoint" and e.induced for e in mods.values())
    assert any(e.reduced_dim > 0 and e.module.total_dim > 1 for e in mods.values())


def test_every_corpus_algebra_validates():
    for e in corpus_modules().values():
        assert validate(e.module.alg).ok


def test_corpus_morphisms_are_valid_maps():
    for name, e in corpus_morphisms().items():
        check_map(e.map)  # raises on failure
    kinds = {e.stably_zero for e in corpus_morphisms().values()}
    assert kinds == {True, False}
    not_zero = [e for e in corpus_morphisms().values() if not e.stably_zero]
    assert len(not_zero) >= 4


def test_corpus_reps_valid():
    for e in corpus_reps().values():
        e.rep.check()


def test_nonfullness_parameter_set():
    w = nonfullness_witness()
    assert w["name"] == "sl2_triv1_nonfullness"
    assert w["i"] - w["j"] == 3
    assert w["algebra"].dim1 == 1
    assert w["v"].dim == w["w"].dim == 1


def test_random_modules_bounds_and_determinism():
    a = random_modules(10, seed=123)
    b = random_modules(10, seed=123)
    assert all(x == y for x, y in zip(a, b))
    for m in a:
        assert m.total_dim <= 24
        assert m.alg.dim1 <= 3
        assert m.alg.dim0 in (0, 3)
    assert random_module(1) != random_module(2) or random_module(3) != random_module(4)


def test_random_module_keeps_its_dimension_bound():
    for max_dim in (8, 12):
        for seed in range(400):
            assert random_module(seed, max_dim).total_dim <= max_dim, (seed, max_dim)
    # seed 26 draws a 24-dim first piece and a 24-dim fallback piece at
    # max_dim 12, and gets the 1-dim trivial module
    m = random_module(26, 12)
    assert m == trivial_module(m.alg)
