import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable import serialize
from superstable.algebra import SuperAlgebra, grassmann, sl2_adjoint, sl2_trivial
from superstable.corpus import corpus_modules, corpus_morphisms
from superstable.gradedmod import ModuleError, Rep, identity_map, zero_map
from superstable.linalg import Matrix, Polynomial
from superstable.rigid import L_of
from superstable.serialize import (
    FormatError,
    algebra_from_json,
    algebra_to_json,
    complex_from_json,
    complex_to_json,
    load_algebra,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
    polynomial_from_json,
    polynomial_to_json,
    rep_from_json,
    rep_to_json,
    scalar_from_str,
    scalar_to_str,
)


def test_scalar_strings():
    assert scalar_to_str(Fraction(3, 4)) == "3/4"
    assert scalar_to_str(Fraction(-7)) == "-7"
    assert scalar_to_str(Fraction(6, 4)) == "3/2"
    assert scalar_from_str("3/4") == Fraction(3, 4)
    assert scalar_from_str("-2") == Fraction(-2)
    with pytest.raises(FormatError):
        scalar_from_str("1/0")
    with pytest.raises(FormatError):
        scalar_from_str("0.5")
    assert scalar_from_str(3) == 3
    for bad in (0.1, 2.0, True, None, [1]):
        with pytest.raises(FormatError):
            scalar_from_str(bad)
    with pytest.raises(FormatError):
        matrix_from_json([[0.1, 1]])


def test_matrix_roundtrip_dense_and_sparse():
    m = Matrix.from_rows([[1, "1/2"], [0, -3]])
    assert matrix_from_json(matrix_to_json(m)) == m
    sparse = {"rows": 2, "cols": 2, "entries": [[0, 1, "1/2"], [1, 1, "-3"], [0, 0, "1"]]}
    assert matrix_from_json(sparse) == m


def test_sparse_matrix_refuses_a_repeated_entry():
    # a later value would overwrite the first, even with a zero
    for value in ("5", "0", "1"):
        obj = {"rows": 2, "cols": 2, "entries": [[0, 0, "1"], [1, 1, "2"], [0, "0", value]]}
        with pytest.raises(FormatError, match=r"entry \(0, 0\) is given twice"):
            matrix_from_json(obj, 2, 2)


def test_matrix_shape_enforcement():
    with pytest.raises(FormatError):
        matrix_from_json([["1", "2"], ["3"]])
    with pytest.raises(FormatError):
        matrix_from_json([["1"]], rows=2, cols=2)
    # empty matrices take their shape from the context
    z = matrix_from_json([], rows=3, cols=0)
    assert (z.rows, z.cols) == (3, 0)


def test_polynomial_roundtrip():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * x + y.scale(Fraction(-1, 3))
    j = polynomial_to_json(p)
    assert polynomial_from_json(j, 2) == p
    assert all(set(t) == {"exponents", "coefficient"} for t in j)


def test_algebra_roundtrip_inline():
    for g in (grassmann(2), sl2_trivial(2), sl2_adjoint()):
        j = algebra_to_json(g)
        g2 = algebra_from_json(j)
        assert g2 == g


def test_algebra_builtin_reference():
    assert algebra_from_json("sl2_trivial(2)") == sl2_trivial(2)
    assert load_algebra("grassmann(3)") == grassmann(3)


def test_algebra_rejects_invalid():
    bad = {"dim0": 1, "bracket": [[0, 0, 0, "1"]], "dim1": 0, "action": [[]]}
    with pytest.raises(FormatError):
        algebra_from_json(bad)


def test_rep_roundtrip():
    g = sl2_trivial(2)
    q = Rep(g, 3, tuple(g.ad(i) for i in range(3)))
    assert rep_from_json(rep_to_json(q), g) == q


def test_module_map_complex_roundtrips():
    mods = corpus_modules()
    for name in ("grassmann2_mixed", "sl2_triv2_natural", "sl2_adjoint_free"):
        v = mods[name].module
        assert module_from_json(module_to_json(v)) == v
        l = L_of(v)
        assert complex_from_json(complex_to_json(l)) == l
    for e in corpus_morphisms().values():
        assert map_from_json(map_to_json(e.map)) == e.map


def test_inline_algebras_are_kept_by_content_and_name(tmp_path, monkeypatch):
    validated = []
    check = serialize.validate
    monkeypatch.setattr(serialize, "validate", lambda g: validated.append(g) or check(g))
    obj = algebra_to_json(SuperAlgebra(3, sl2_adjoint().bracket, 3, sl2_adjoint().action, name="kept"))
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    g = load_algebra(str(path))
    assert load_algebra(str(path)) is g and algebra_from_json(json.loads(path.read_text())) is g
    assert len(validated) == 1
    # a file that differs only in its name is another algebra object,
    # equal to the first
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps({**obj, "name": "other"}))
    h = load_algebra(str(renamed))
    assert h is not g and h == g and h.name == "other" and len(validated) == 2
    # a refused algebra is never kept: every load refuses it again
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim0": 1, "bracket": [[0, 0, 0, "1"]], "dim1": 0, "action": [[]]}))
    for n in (3, 4):
        with pytest.raises(FormatError, match="fails validation"):
            load_algebra(str(bad))
        assert len(validated) == n
    # an unchecked load builds its own object
    assert load_algebra(str(path), check=False) is not g


def test_map_loading_builds_each_distinct_module_once(monkeypatch):
    built = []
    build = serialize.module_from_json
    monkeypatch.setattr(serialize, "module_from_json", lambda obj: built.append(1) or build(obj))
    v = corpus_modules()["sl2_adjoint_natural"].module
    phi = map_from_json(map_to_json(identity_map(v)))
    assert phi.source is phi.target and phi == identity_map(v)
    assert len(built) == 1
    # two maps through one `seen` share their modules
    seen = {}
    f = map_from_json(map_to_json(identity_map(v)), seen)
    g = map_from_json(map_to_json(zero_map(v, v)), seen)
    assert f.source is f.target is g.source is g.target
    assert len(built) == 2
    # distinct modules are built apart
    h = map_from_json(map_to_json(corpus_morphisms()["grassmann2_mixed_to_trivial"].map), seen)
    assert h.source != h.target and len(built) == 4
    # true == 1 in Python, but a target with true for a dimension is refused
    obj = map_to_json(identity_map(corpus_modules()["grassmann1_trivial"].module))
    obj["target"]["dims"] = [True]
    with pytest.raises(FormatError, match="dims entry must be an integer"):
        map_from_json(obj)


def test_module_json_is_plain_data():
    v = corpus_modules()["grassmann2_free"].module
    # the schema survives a JSON text roundtrip unchanged
    j = module_to_json(v)
    assert json.loads(json.dumps(j)) == j
    assert set(j) == {"algebra", "lo", "hi", "dims", "rho0", "odd"}


def test_module_rejects_bad_window():
    v = corpus_modules()["grassmann2_free"].module
    j = module_to_json(v)
    j["dims"] = j["dims"][:-1]
    with pytest.raises(FormatError):
        module_from_json(j)


# ---------------------------------------------------------------------------
# structurally malformed files: replacing or deleting any one node of a
# module or map file gives a loaded object, FormatError (malformed) or
# ModuleError (well formed but invalid), never another exception

FUZZ_DOCS = [
    dict(module_to_json(corpus_modules()["sl2_triv1_mixed"].module),
         algebra=algebra_to_json(sl2_trivial(1))),
    module_to_json(corpus_modules()["grassmann2_mixed"].module),
    map_to_json(corpus_morphisms()["grassmann2_mixed_proj"].map),
]
DELETE = object()
FUZZ_VALUES = [None, 5, True, 1.5, "x", [], {}, [1], [[]], [[1, 2]], {"rows": 1},
               {"rows": 1, "cols": 1, "entries": [[0, 0]]}]


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, child in items:
        yield from _paths(child, path + (k,))


@given(st.sampled_from(range(len(FUZZ_DOCS))), st.data())
@settings(max_examples=150, deadline=None)
def test_one_malformed_node_gives_an_input_error(k, data):
    doc = json.loads(json.dumps(FUZZ_DOCS[k]))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = data.draw(st.sampled_from([DELETE] + FUZZ_VALUES))
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(value))
    load = map_from_json if "comps" in FUZZ_DOCS[k] else module_from_json
    try:
        load(doc)
    except (FormatError, ModuleError):
        pass
