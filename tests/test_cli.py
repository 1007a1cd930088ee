import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superstable.cli import main
from superstable.corpus import corpus_modules, corpus_morphisms
from superstable.gradedmod import ModuleError, Rep, zero_map
from superstable.serialize import dump, map_to_json, module_from_json, module_to_json, rep_to_json


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    mods = corpus_modules()
    paths = {}
    for name in (
        "grassmann2_free",
        "grassmann2_mixed",
        "grassmann1_trivial",
        "sl2_triv2_free",
        "sl2_triv2_mixed",
    ):
        p = d / f"{name}.json"
        dump(module_to_json(mods[name].module), str(p))
        paths[name] = str(p)
    mor = corpus_morphisms()
    idm = mor["grassmann1_trivial_id"].map
    paths["id_k"] = str(d / "id_k.json")
    dump(map_to_json(idm), paths["id_k"])
    paths["zero_k"] = str(d / "zero_k.json")
    dump(map_to_json(zero_map(idm.source, idm.target)), paths["zero_k"])
    proj = mor["grassmann2_mixed_proj"].map
    paths["proj"] = str(d / "proj.json")
    dump(map_to_json(proj), paths["proj"])
    paths["zero_m"] = str(d / "zero_m.json")
    dump(map_to_json(zero_map(proj.source, proj.target)), paths["zero_m"])
    from superstable.algebra import sl2_trivial

    st1 = sl2_trivial(1)
    paths["rep_k"] = str(d / "rep_k.json")
    dump(rep_to_json(Rep.trivial(st1, 1)), paths["rep_k"])
    paths["dir"] = str(d)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_builtin(capsys):
    code, out = run(capsys, "validate", "--algebra", "sl2_trivial(2)")
    assert code == 0 and "ok" in out


def test_validate_json_report_schema(capsys):
    code, out = run(capsys, "--format", "json", "validate", "--algebra", "grassmann(2)")
    rep = json.loads(out)
    assert rep["command"] == "validate"
    assert rep["exit_code"] == 0
    assert rep["report"]["ok"] is True


def test_rigid_roundtrip(capsys, files):
    code, out = run(capsys, "rigid", "roundtrip", "--module", files["grassmann2_free"])
    assert code == 0
    assert "V(L(V)) = V: exact" in out


def test_rigid_l_and_fiber(capsys, files, tmp_path):
    cpath = str(tmp_path / "c.json")
    code, _ = run(capsys, "rigid", "l", files["grassmann2_free"], "--out", cpath)
    assert code == 0 and os.path.exists(cpath)
    code, out = run(capsys, "rigid", "fiber", cpath, "--point", "1,1")
    assert code == 0 and "fiber cohomology" in out
    code, out = run(capsys, "rigid", "v", cpath)
    assert code == 0


def test_ds_and_variety(capsys, files):
    code, out = run(capsys, "ds", "--module", files["sl2_triv2_free"], "--point", "1,2")
    assert code == 0 and "ds_dim = 0" in out
    # proper variety: the free module has nonvanishing minors
    code, out = run(
        capsys, "--format", "json", "variety", "--module", files["sl2_triv2_free"],
        "--ideal",
    )
    rep = json.loads(out)
    assert rep["nvars"] == 2 and len(rep["generators"]) > 0
    # variety = everything: all minors vanish identically, empty ideal
    code, out = run(
        capsys, "--format", "json", "variety", "--module", files["grassmann2_mixed"],
        "--ideal",
    )
    rep = json.loads(out)
    assert rep["generators"] == []


def test_variety_sampling_deterministic(capsys, files):
    _, out1 = run(
        capsys, "--format", "json", "variety", "--module", files["grassmann2_mixed"],
        "--sample", "5", "--seed", "9",
    )
    _, out2 = run(
        capsys, "--format", "json", "variety", "--module", files["grassmann2_mixed"],
        "--sample", "5", "--seed", "9",
    )
    assert out1 == out2


def test_variety_sampling_matches_in_variety(capsys, tmp_path):
    from superstable.dsvariety import in_variety
    from superstable.rigid import OddPoint
    from superstable.serialize import scalar_from_str

    for name, e in corpus_modules().items():
        path = str(tmp_path / f"{name}.json")
        dump(module_to_json(e.module), path)
        code, out = run(
            capsys, "--format", "json", "variety", "--module", path,
            "--sample", "6", "--seed", "3",
        )
        assert code == 0
        rows = json.loads(out)["samples"]
        assert [r["index"] for r in rows] == list(range(6))
        for r in rows:
            x = OddPoint(tuple(scalar_from_str(c) for c in r["point"]))
            assert r["in_variety"] == in_variety(e.module, x), (name, r)


def test_ds_point_of_wrong_length_exit_1(capsys, files):
    code = main(["ds", "--module", files["grassmann2_free"], "--point", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "point dimension" in err, err
    assert "Traceback" not in err


def test_support_check(capsys, files):
    code, out = run(
        capsys, "support-check", "--module", files["sl2_triv2_mixed"], "--sample", "5"
    )
    assert code == 0 and "all consistent: True" in out


def test_decompose_and_projectivity(capsys, files):
    code, out = run(capsys, "decompose", "--module", files["grassmann2_mixed"])
    assert code == 0 and "reduced part: 1" in out
    code, out = run(
        capsys, "--format", "json", "is-projective", "--module", files["grassmann2_free"]
    )
    rep = json.loads(out)
    assert rep["projective"] is True and "section" in rep["certificates"]
    code, out = run(capsys, "is-reduced", "--module", files["grassmann1_trivial"])
    assert code == 0 and "reduced: yes" in out


def test_stable_eq_both_styles(capsys, files):
    code, out = run(capsys, "stable-eq", "--f", files["id_k"], "--g", files["zero_k"])
    assert code == 0 and "NOT stably equal" in out
    code, out = run(
        capsys, "stable-eq", "--map", files["proj"], "--map", files["zero_m"]
    )
    assert code == 0 and "NOT" not in out and "stably equal" in out


def test_stable_eq_validates_a_target_that_differs(capsys, files, tmp_path):
    # g's source is f's, but its target breaks an identity that f's keeps:
    # the modules the two maps share are built once, and the broken one
    # is still built, and refused, on its own
    with open(files["zero_m"]) as fh:
        obj = json.load(fh)
    m = obj["target"]["odd"][0][0]
    m[0][0] = "7" if m[0][0] == "0" else "0"
    with pytest.raises(ModuleError) as exc:
        module_from_json(obj["target"])
    path = str(tmp_path / "broken_target.json")
    dump(obj, path)
    assert main(["stable-eq", "--f", files["proj"], "--g", path]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_frobenius_cli(capsys, files):
    code, out = run(
        capsys, "frobenius-check", "--algebra", "sl2_trivial(1)", "--q", files["rep_k"]
    )
    assert code == 0 and "ok" in out


def test_cech_ext_ce_koszul_nonfullness(capsys, files):
    code, out = run(capsys, "cech", "-r", "2", "-d", "-4")
    assert code == 0 and "{0: 0, 1: 0, 2: 3}" in out
    code, out = run(capsys, "ext", "-i", "3", "-j", "0", "-r", "2")
    assert code == 0 and "l=2" in out
    code, out = run(capsys, "ce", "--algebra", "sl2_trivial(1)", "--module", files["rep_k"])
    assert code == 0 and "{0: 1, 1: 0, 2: 0, 3: 1}" in out
    code, out = run(
        capsys, "koszul", "--algebra", "grassmann(1)", "--module",
        files["grassmann1_trivial"], "--pmax", "4",
    )
    assert code == 0 and "{0: 1, 1: 1, 2: 1, 3: 1}" in out
    code, out = run(
        capsys, "nonfullness", "--algebra", "sl2_trivial(1)", "--v", files["rep_k"],
        "--w", files["rep_k"], "-i", "3", "-j", "0",
    )
    assert code == 0 and "obstruction dim: 1" in out


def test_corpus_listing(capsys):
    code, out = run(capsys, "--format", "json", "corpus")
    rep = json.loads(out)
    names = {e["name"] for e in rep["entries"]}
    assert "grassmann2_free" in names
    g2 = next(e for e in rep["entries"] if e["name"] == "grassmann2_free")
    assert g2["dims"] == [1, 2, 1]


def test_exit_code_bad_input(capsys):
    code = main(["module-info", "--module", "/definitely/not/here.json"])
    assert code == 2
    code = main(["ds", "--module", "/definitely/not/here.json", "--point", "1"])
    assert code == 2


def test_exit_code_unknown_flag(capsys):
    assert main(["cech", "-r"]) == 2


def test_builtin_algebra_bad_argument_exit_2(capsys):
    for spec, why in (
        ("grassmann(-1)", "not a non-negative integer"),
        ("grassmann(x)", "not a non-negative integer"),
        ("sl2_adjoint(2)", "takes no argument"),
        ("grassmann", "needs an argument"),
    ):
        assert main(["validate", "--algebra", spec]) == 2, spec
        err = capsys.readouterr().err
        assert why in err and "cannot read" not in err, err


def test_module_dims_must_be_integers(capsys, files, tmp_path):
    with open(files["grassmann2_mixed"]) as fh:
        obj = json.load(fh)
    for bad in ("1.5", True, 2.0, "two"):
        obj["dims"][0] = bad
        path = str(tmp_path / "bad.json")
        dump(obj, path)
        assert main(["module-info", "--module", path]) == 2, bad
        assert "dims entry must be an integer" in capsys.readouterr().err
    obj["dims"][0] = -1
    dump(obj, path)
    assert main(["module-info", "--module", path]) == 2
    assert "dims entry must be at least 0" in capsys.readouterr().err


def test_module_with_bad_builtin_reference_exit_2(capsys, files, tmp_path):
    with open(files["grassmann2_mixed"]) as fh:
        obj = json.load(fh)
    for ref in ("grassmann(-2)", "no_such_algebra"):
        obj["algebra"] = ref
        path = str(tmp_path / "bad.json")
        dump(obj, path)
        assert main(["module-info", "--module", path]) == 2, ref


def _malformed(files, tmp_path, edit):
    with open(files["grassmann2_mixed"]) as fh:
        obj = json.load(fh)
    edit(obj)
    path = str(tmp_path / "malformed.json")
    dump(obj, path)
    return path


def test_module_without_lo_exit_2(capsys, files, tmp_path):
    path = _malformed(files, tmp_path, lambda obj: obj.pop("lo"))
    assert main(["module-info", "--module", path]) == 2
    assert "missing the field 'lo'" in capsys.readouterr().err


def test_module_with_scalar_rho0_exit_2(capsys, files, tmp_path):
    path = _malformed(files, tmp_path, lambda obj: obj.update(rho0=5))
    assert main(["module-info", "--module", path]) == 2
    assert "rho0 must be an array" in capsys.readouterr().err


def test_sparse_entry_with_two_fields_exit_2(capsys, files, tmp_path):
    def edit(obj):
        m = obj["odd"][0][0]  # degree lo -> lo + 1, nested-array form
        obj["odd"][0][0] = {"rows": len(m), "cols": len(m[0]), "entries": [[0, 0]]}

    path = _malformed(files, tmp_path, edit)
    assert main(["module-info", "--module", path]) == 2
    assert "sparse matrix entry [row, column, value] must have 3 items" in capsys.readouterr().err


def test_sparse_entry_given_twice_exit_2(capsys, files, tmp_path):
    def edit(obj):
        m = obj["odd"][0][0]
        obj["odd"][0][0] = {"rows": len(m), "cols": len(m[0]),
                            "entries": [[0, 0, "1"], [0, 0, "0"]]}

    path = _malformed(files, tmp_path, edit)
    assert main(["module-info", "--module", path]) == 2
    err = capsys.readouterr().err
    assert "sparse matrix entry (0, 0) is given twice" in err and "Traceback" not in err


def test_matrix_of_another_shape_than_its_slot_exit_2(capsys, tmp_path):
    # only [] stands for a zero matrix of any size; an empty row or a
    # sparse 0 x 0 matrix in a 1 x 1 slot is malformed, not zero
    obj = module_to_json(corpus_modules()["sl2_triv1_free"].module)
    path = str(tmp_path / "m.json")
    for bad, shape in (([[]], (1, 0)), ({"rows": 0, "cols": 0}, (0, 0))):
        obj["rho0"][0][0] = bad
        dump(obj, path)
        assert main(["module-info", "--module", path]) == 2, bad
        err = capsys.readouterr().err
        assert f"matrix shape {shape}, expected (1, 1)" in err and "Traceback" not in err, err
    obj["rho0"][0][0] = []
    dump(obj, path)
    assert main(["module-info", "--module", path]) == 0


def test_bracket_entry_given_twice_exit_2(capsys, tmp_path):
    # the second triple would overwrite the first, and with it the
    # antisymmetry failure of [x, x] = x
    alg = {"dim0": 1, "dim1": 1, "bracket": [[0, 0, 0, "1"]], "action": [[["0"]]]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(alg))
    assert main(["validate", "--algebra", str(path)]) == 1
    capsys.readouterr()
    alg["bracket"].append([0, 0, 0, "0"])
    path.write_text(json.dumps(alg))
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"algebra": alg, "lo": 0, "hi": 0, "dims": [1],
                                  "rho0": [[[["0"]]]], "odd": [[[]]]}))
    for argv in (["validate", "--algebra", str(path)], ["module-info", "--module", str(module)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "bracket entry (0, 0, 0) is given twice" in err and "Traceback" not in err, err


def test_module_validation_failure_still_exit_1(capsys, files, tmp_path):
    def edit(obj):
        m = obj["odd"][0][0]
        m[0][0] = "7" if m[0][0] == "0" else "0"

    path = _malformed(files, tmp_path, edit)
    assert main(["module-info", "--module", path]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# complex files are validated by the module identities


def _complex_file(tmp_path, obj, name):
    path = str(tmp_path / name)
    dump(obj, path)
    return path


def _broken_complexes(tmp_path):
    """(file, a point of P(g1), expected message) for a complex whose
    composability fails and for one whose rho0 is not a representation."""
    from superstable.rigid import L_of
    from superstable.serialize import complex_to_json

    obj = complex_to_json(L_of(corpus_modules()["grassmann2_free"].module))
    m = obj["diff"][0][0]
    m[0][0] = "7" if m[0][0] == "0" else "0"
    broken = _complex_file(tmp_path, obj, "composability.json")
    # one degree of sl2_trivial(1), every basis element acting as 1:
    # [e, f] = h fails, and no identity of the differential involves rho0
    ident = [["1", "0"], ["0", "1"]]
    obj = {"algebra": "sl2_trivial(1)", "lo": 0, "hi": 0, "dims": [2],
           "rho0": [[ident, ident, ident]], "diff": [[[]]]}
    nonrep = _complex_file(tmp_path, obj, "nonrep.json")
    return [
        (broken, "1,1", "anticommutation fails"),
        (nonrep, "1", "even representation fails"),
    ]


@pytest.mark.parametrize("mode", ["fiber", "v"])
def test_rigid_refuses_invalid_complex_files(capsys, tmp_path, mode):
    for path, point, message in _broken_complexes(tmp_path):
        argv = ["rigid", mode, path] + (["--point", point] if mode == "fiber" else [])
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# one parser serves every call in the process


def test_parser_survives_a_bad_call(capsys):
    assert main(["cech", "-r"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "cech", "-r", "2", "-d", "-4")
    assert code == 0 and "{0: 0, 1: 0, 2: 3}" in out


def test_parser_reuse_keeps_formats_apart(capsys):
    code, out = run(capsys, "--format", "text", "cech", "-r", "1", "-d", "0")
    assert code == 0 and out.startswith("H^p(P^1, O(0))")
    code, out = run(capsys, "--format", "json", "cech", "-r", "1", "-d", "0")
    assert code == 0 and json.loads(out)["command"] == "cech"
    code, out = run(capsys, "cech", "-r", "1", "-d", "0", "--format", "json")
    assert json.loads(out)["command"] == "cech"
    code, again = run(capsys, "cech", "-r", "1", "-d", "0")
    assert again.startswith("H^p(P^1, O(0))")


def test_parser_reuse_does_not_leak_seed(capsys, files):
    sample = ["variety", "--module", files["grassmann2_mixed"], "--sample", "5"]
    _, default = run(capsys, "--format", "json", "--seed", "0", *sample)
    _, seeded = run(capsys, "--format", "json", "--seed", "9", *sample)
    assert seeded != default
    _, after = run(capsys, "--format", "json", *sample)
    assert after == default
    _, seeded_late = run(capsys, "--format", "json", *sample, "--seed", "9")
    assert seeded_late == seeded
    _, after = run(capsys, "--format", "json", *sample)
    assert after == default


def test_parser_not_built_at_import():
    code = (
        "import superstable, superstable.cli as c; "
        "print(c._parser.cache_info().currsize)"
    )
    import superstable

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superstable.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# builds of size 2^dim(g1) * dim over the limit are refused before they start


def _run_capped(argv):
    """The CLI in a child process limited to 20 s and 1 GB of address
    space, so a build that does start fails the test and spares the host."""
    import resource

    import superstable

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superstable.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "superstable.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap,
    )


def test_induce_over_the_size_limit_exit_1(tmp_path):
    q = str(tmp_path / "q.json")
    dump({"dim": 1, "mats": []}, q)
    out = _run_capped(["induce", "--algebra", "grassmann(40)", "--q", q])
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: the induced module has size 2^40 * 1, over the limit of")
    assert "Traceback" not in out.stderr


def test_stable_eq_over_the_size_limit_exit_1(tmp_path):
    from superstable.algebra import grassmann
    from superstable.gradedmod import identity_map, make_module
    from superstable.linalg import Matrix

    # dimension 1 in each degree 0..40, odd action zero: Ind(W) would have 2^40 * 41
    n = 40
    v = make_module(
        grassmann(n), 0, n, (1,) * (n + 1), ((),) * (n + 1),
        [tuple(Matrix.zero(1 if j < n else 0, 1) for _ in range(n)) for j in range(n + 1)],
    )
    path = str(tmp_path / "id.json")
    dump(map_to_json(identity_map(v)), path)
    out = _run_capped(["stable-eq", "--f", path, "--g", path])
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: the trace sum has size 2^40 * 41, over the limit of")
    assert "Traceback" not in out.stderr


def test_is_projective_answers_no_at_any_size_and_caps_only_the_section(tmp_path):
    from superstable.algebra import grassmann, sl2_trivial
    from superstable.gradedmod import direct_sum, induced_module, trivial_module

    # a no needs only the rank test: Ind(k^2) + k over grassmann(5), 2^5 * 65 > 1024
    ind = induced_module(Rep.trivial(grassmann(5), 2))
    path = str(tmp_path / "no.json")
    dump(module_to_json(direct_sum(ind, trivial_module(grassmann(5)))), path)
    out = _run_capped(["--format", "json", "is-projective", "--module", path])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["projective"] is False
    assert "certificates" not in json.loads(out.stdout)
    # a yes writes the section sigma in Ind(W), of size 2^6 * 128 here
    path = str(tmp_path / "yes.json")
    dump(module_to_json(induced_module(Rep.trivial(sl2_trivial(6), 2))), path)
    out = _run_capped(["is-projective", "--module", path])
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: the trace sum has size 2^6 * 128, over the limit of")
    assert "Traceback" not in out.stderr


def test_is_projective_decides_semisimplicity_once(capsys, tmp_path, monkeypatch):
    # the rank test and the section both need g0 semisimple: the algebra
    # read from the file decides it with one Killing form
    import superstable.algebra as algebra

    calls = []
    real = algebra.killing_form
    monkeypatch.setattr(algebra, "killing_form", lambda g: calls.append(g) or real(g))
    path = str(tmp_path / "m.json")
    dump(module_to_json(corpus_modules()["sl2_adjoint_natural"].module), path)
    assert main(["is-projective", "--module", path]) == 0
    assert "projective: yes" in capsys.readouterr().out
    assert len(calls) == 1


def test_files_are_utf8_in_any_locale(tmp_path):
    # an inline algebra with a non-ASCII name, read under the C locale with
    # every implicit locale encoding an error
    from superstable.algebra import grassmann
    from superstable.gradedmod import trivial_module
    from superstable.serialize import algebra_to_json

    import superstable

    obj = module_to_json(trivial_module(grassmann(1)))
    obj["algebra"] = dict(algebra_to_json(grassmann(1)), name="\u039b(k)")
    path = tmp_path / "named.json"
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superstable.__file__)),
               PYTHONUTF8="0", LC_ALL="C")
    out = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "superstable.cli", "--format", "json", "module-info", "--module", str(path)],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "algebra: \u039b(k) (dim0=0, dim1=1)" in json.loads(out.stdout)["lines"]


# ---------------------------------------------------------------------------
# input rules: no point of an empty P(g1), positive sample counts, and the
# koszul algebra must be the module's


def test_sampling_with_no_odd_part_exit_1(tmp_path):
    from superstable.algebra import grassmann
    from superstable.gradedmod import trivial_module

    path = str(tmp_path / "g0.json")
    dump(module_to_json(trivial_module(grassmann(0))), path)
    for argv in (["support-check", "--module", path], ["variety", "--module", path]):
        out = _run_capped(argv)
        assert out.returncode == 1, (argv, out.stderr)
        assert out.stderr.startswith("error: P(g1) is empty"), out.stderr
        assert "Traceback" not in out.stderr


def test_decompose_and_is_reduced_with_no_odd_part(capsys, tmp_path):
    # the empty odd word is the identity: V is induced from itself
    from superstable.algebra import grassmann
    from superstable.gradedmod import trivial_module

    path = str(tmp_path / "g0.json")
    dump(module_to_json(trivial_module(grassmann(0))), path)
    code, out = run(capsys, "decompose", "--module", path)
    assert code == 0 and "induced part: 1 (Q dim 1)" in out and "reduced part: 0" in out
    code, out = run(capsys, "is-reduced", "--module", path)
    assert code == 0 and "reduced: no" in out


@pytest.mark.parametrize("cmd", ["support-check", "variety"])
@pytest.mark.parametrize("count", ["-3", "0", "x"])
def test_sample_count_must_be_positive_exit_2(capsys, files, cmd, count):
    code = main([cmd, "--module", files["grassmann2_mixed"], "--sample", count])
    captured = capsys.readouterr()
    assert code == 2
    assert "must be a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("cmd", ["support-check", "variety"])
def test_sample_count_over_the_cap_exit_2_before_a_point_is_drawn(capsys, monkeypatch, files, cmd):
    from superstable import cli

    def refuse(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(cli, "random_points", refuse)
    argv = [cmd, "--module", files["grassmann2_mixed"], "--sample"]
    assert cli._parser().parse_args(argv + [str(cli.MAX_SAMPLE)]).sample == cli.MAX_SAMPLE
    assert main(argv + [str(cli.MAX_SAMPLE + 1)]) == 2
    captured = capsys.readouterr()
    assert f"at most {cli.MAX_SAMPLE} points can be sampled, got {cli.MAX_SAMPLE + 1}" in captured.err
    assert captured.out == ""


def test_koszul_refuses_another_algebra_exit_2(capsys, files):
    def koszul(algebra):
        return main(["koszul", "--algebra", algebra, "--module", files["grassmann2_free"]])

    assert koszul("grassmann(2)") == 0
    capsys.readouterr()
    assert koszul("sl2_adjoint") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: koszul: --algebra sl2_adjoint is not the algebra")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# inputs that used to end in a traceback or a blow-up: each is refused with
# its exit code and message, well inside the cap


def _refused(argv, code, message):
    import time

    t0 = time.monotonic()
    out = _run_capped(argv)
    assert out.returncode == code, (argv, out.stderr)
    assert out.stderr.startswith(message), out.stderr
    assert "Traceback" not in out.stderr
    assert time.monotonic() - t0 < 2


@pytest.mark.parametrize("cmd", [["module-info"], ["ds", "--point", "1"]])
def test_deeply_nested_json_exit_2(tmp_path, cmd):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    argv = [cmd[0], "--module", str(path), *cmd[1:]]
    _refused(argv, 2, f"input error: cannot read {path}: maximum recursion depth exceeded")


@pytest.mark.parametrize("cmd", ["module-info", "is-reduced", "decompose"])
def test_module_over_the_size_limit_exit_2(tmp_path, cmd):
    from superstable.gradedmod import MAX_EXTERIOR_SIZE

    def zero_module_file(dim):
        # 99 bytes at dim 30000: empty arrays stand for zero matrices of any size
        path = tmp_path / f"big{dim}.json"
        path.write_text('{"algebra": "grassmann(1)", "lo": 0, "hi": 0, "dims": [%d], '
                        '"rho0": [[]], "odd": [[[]]]}' % dim)
        return str(path)

    if cmd == "module-info":  # the limit itself loads; decompose on it takes seconds
        out = _run_capped([cmd, "--module", zero_module_file(MAX_EXTERIOR_SIZE)])
        assert out.returncode == 0 and "total dim: 1024" in out.stdout, out.stderr
    _refused([cmd, "--module", zero_module_file(30000)], 2,
             f"input error: the module has total dimension 30000, over the limit of {MAX_EXTERIOR_SIZE}")


def test_rep_over_the_size_limit_exit_2(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"dim": 30000, "mats": [[], [], []]}')
    _refused(["ce", "--algebra", "sl2_trivial(1)", "--module", str(path)], 2,
             "input error: dim must be in [0, 1024], got 30000")


def test_sparse_matrix_larger_than_its_slot_exit_2(tmp_path):
    # the header alone would allocate 10^9 empty rows
    path = tmp_path / "m.json"
    path.write_text('{"algebra": "grassmann(1)", "lo": 0, "hi": 0, "dims": [1], "rho0": [[]], '
                    '"odd": [[{"rows": 1000000000, "cols": 0}]]}')
    _refused(["module-info", "--module", str(path)], 2,
             "input error: matrix rows must be in [0, 0], got 1000000000")


@pytest.mark.parametrize("cmd", ["cech", "ext"])
def test_cech_at_and_over_the_size_limit(cmd):
    from superstable.cohomology import MAX_CECH_SIZE, cech_size

    # P^8: O(3) is the last twist under the limit; P^12 with O(2) once hung
    assert cech_size(8, 3) <= MAX_CECH_SIZE < cech_size(8, 4)
    args = {"cech": lambda d, r: ["-r", str(r), "-d", str(d)],
            "ext": lambda d, r: ["-i", "0", "-j", str(d), "-r", str(r)]}[cmd]
    if cmd == "cech":
        out = _run_capped(["cech", *args(3, 8)])
        assert out.returncode == 0 and "O(3)" in out.stdout, out.stderr
    for d, r in ((4, 8), (2, 12)):
        _refused([cmd, *args(d, r)], 1,
                 f"error: the Cech complex of O({d}) on P^{r} has size {cech_size(r, d)}, "
                 f"over the limit of {MAX_CECH_SIZE}")


def test_koszul_at_and_over_the_limits(tmp_path):
    from superstable.cohomology import MAX_KOSZUL_DEGREE, MAX_KOSZUL_ENTRIES, koszul_size

    mods = corpus_modules()
    paths = {}
    for name in ("sl2_adjoint_natural", "grassmann1_trivial"):
        paths[name] = str(tmp_path / f"{name}.json")
        dump(module_to_json(mods[name].module), paths[name])
    big = mods["sl2_adjoint_natural"].module
    assert koszul_size(big, 11) <= MAX_KOSZUL_ENTRIES < koszul_size(big, 12)

    def koszul(name, pmax):
        alg = mods[name].module.alg.name
        return ["koszul", "--algebra", alg, "--module", paths[name], "--pmax", str(pmax)]

    for argv in (koszul("sl2_adjoint_natural", 11), koszul("grassmann1_trivial", MAX_KOSZUL_DEGREE)):
        out = _run_capped(argv)
        assert out.returncode == 0 and out.stdout.startswith("H^p: {0: "), out.stderr
    for pmax in (12, 30):
        _refused(koszul("sl2_adjoint_natural", pmax), 1,
                 f"error: the Koszul complex up to p_max = {pmax} has {koszul_size(big, pmax)} "
                 f"differential entries, over the limit of {MAX_KOSZUL_ENTRIES}")
    _refused(koszul("grassmann1_trivial", MAX_KOSZUL_DEGREE + 1), 1,
             f"error: p_max must be in [1, {MAX_KOSZUL_DEGREE}]")


def test_variety_ideal_over_the_minor_cap_exit_1(tmp_path):
    from superstable.dsvariety import MAX_MINOR_DIM

    path = str(tmp_path / "adjoint_natural.json")
    dump(module_to_json(corpus_modules()["sl2_adjoint_natural"].module), path)
    _refused(["variety", "--module", path, "--ideal"], 1,
             f"error: total dimension 16 exceeds the minor-enumeration cap {MAX_MINOR_DIM}")
    # the cap is a constant: there is no flag to raise it
    assert main(["--max-minor-dim", "100", "variety", "--module", path, "--ideal"]) == 2


def test_algebra_at_and_over_the_size_limit(tmp_path):
    from superstable.algebra import MAX_ALGEBRA_ENTRIES

    def inline(dim0, dim1):
        path = tmp_path / f"alg_{dim0}_{dim1}.json"
        path.write_text(json.dumps({"dim0": dim0, "dim1": dim1, "action": [[]] * dim0}))
        return str(path)

    # dim0 = 8 holds 8^3 = 512 bracket entries, the limit itself
    assert MAX_ALGEBRA_ENTRIES == 8 ** 3
    out = _run_capped(["validate", "--algebra", inline(8, 0)])
    assert out.returncode == 0 and "jacobi: ok" in out.stdout, out.stderr
    for spec, entries in (("grassmann(40)", 0), ("sl2_trivial(12)", 459), ("sl2_natural_sum(6)", 459)):
        assert entries <= MAX_ALGEBRA_ENTRIES
        assert main(["validate", "--algebra", spec]) == 0, spec
    for spec, entries in (("sl2_trivial(13)", 534), ("sl2_trivial(30000)", 2_700_000_027),
                          ("sl2_natural_sum(7)", 615)):
        _refused(["validate", "--algebra", spec], 2,
                 f"input error: builtin algebra {spec} has {entries} bracket and action entries, "
                 f"over the limit of {MAX_ALGEBRA_ENTRIES}")
    for dim0, dim1, entries in ((9, 0, 729), (3000, 0, 27 * 10 ** 9), (1, 30000, 900_000_001)):
        _refused(["validate", "--algebra", inline(dim0, dim1)], 2,
                 f"input error: the algebra has {entries} bracket and action entries, "
                 f"over the limit of {MAX_ALGEBRA_ENTRIES}")
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"algebra": {"dim0": 1, "dim1": 30000, "action": [[]]}, "lo": 0,
                                  "hi": 0, "dims": [1], "rho0": [[[]]], "odd": [[]]}))
    _refused(["module-info", "--module", str(module)], 2,
             "input error: the algebra has 900000001 bracket and action entries")


def test_broken_jacobi_fails_validate_and_module_files(tmp_path, capsys):
    from test_algebra import BROKEN_JACOBI

    triples = [[i, j, k, str(x)] for i, per in enumerate(BROKEN_JACOBI)
               for j, row in enumerate(per) for k, x in enumerate(row) if x]
    alg = {"dim0": 3, "dim1": 0, "bracket": triples, "action": [[]] * 3}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(alg))
    code, out = run(capsys, "--format", "json", "validate", "--algebra", str(path))
    report = json.loads(out)["report"]
    assert code == 1 and report["antisymmetry"] and not report["jacobi"], report
    [(kind, pair)] = report["failures"]
    assert kind == "jacobi" and len(pair) == 2
    code, out = run(capsys, "validate", "--algebra", str(path))
    assert code == 1 and "  jacobi: FAIL" in out.splitlines()
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"algebra": alg, "lo": 0, "hi": 0, "dims": [1],
                                  "rho0": [[[[0]]] * 3], "odd": [[]]}))
    assert main(["module-info", "--module", str(module)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: algebra fails validation: [('jacobi', {tuple(pair)})]"), err


def test_ce_and_nonfullness_at_and_over_the_size_limit(tmp_path):
    from superstable.cohomology import MAX_CE_ENTRIES, ce_size

    # an abelian g0 of dim0 = 8, at the algebra limit, and zero representations
    alg = str(tmp_path / "abelian8.json")
    dump({"dim0": 8, "dim1": 0, "action": [[]] * 8}, alg)

    def zero_rep(dim):
        path = str(tmp_path / f"zero{dim}.json")
        dump({"dim": dim, "mats": [{"rows": dim, "cols": dim, "entries": []}] * 8}, path)
        return path

    assert ce_size(8, 18) <= MAX_CE_ENTRIES < ce_size(8, 19)
    out = _run_capped(["ce", "--algebra", alg, "--module", zero_rep(18)])
    assert out.returncode == 0 and out.stdout.startswith("H^p(g0, V): {0: 18, 1: 144, "), out.stderr

    def message(dim):
        return (f"error: the Chevalley-Eilenberg complex of a 8-dim g0 on a {dim}-dim V has "
                f"{ce_size(8, dim)} differential entries, over the limit of {MAX_CE_ENTRIES}")

    for dim in (19, 200):
        _refused(["ce", "--algebra", alg, "--module", zero_rep(dim)], 1, message(dim))
    # at i - j = dim g1 = 0 the coefficients are V* (x) W, here 4 * 5 = 20-dim
    _refused(["nonfullness", "--algebra", alg, "--v", zero_rep(4), "--w", zero_rep(5),
              "-i", "0", "-j", "0"], 1, message(20))


def test_ce_refuses_by_the_file_dim_before_a_matrix_is_built(tmp_path, capsys, monkeypatch):
    from superstable import serialize
    from superstable.cohomology import MAX_CE_ENTRIES, ce_size

    alg = str(tmp_path / "abelian8.json")
    dump({"dim0": 8, "dim1": 0, "action": [[]] * 8}, alg)
    rep = str(tmp_path / "zero1024.json")
    dump({"dim": 1024, "mats": [{"rows": 1024, "cols": 1024, "entries": []}] * 8}, rep)
    built, real = [], serialize.matrix_from_json

    def recorded(obj, rows=None, cols=None):
        built.append((rows, cols))
        return real(obj, rows, cols)

    # the algebra's own (empty) matrices are still read
    monkeypatch.setattr(serialize, "matrix_from_json", recorded)
    assert main(["ce", "--algebra", alg, "--module", rep]) == 1
    assert capsys.readouterr().err == (
        f"error: the Chevalley-Eilenberg complex of a 8-dim g0 on a 1024-dim V has "
        f"{ce_size(8, 1024)} differential entries, over the limit of {MAX_CE_ENTRIES}\n"
    )
    assert (1024, 1024) not in built


def _zero_module_file(tmp_path, dim):
    """A file of 99 bytes or so: the dim-dimensional zero module over
    grassmann(1) in degree 0."""
    path = tmp_path / f"zero{dim}.json"
    path.write_text('{"algebra": "grassmann(1)", "lo": 0, "hi": 0, "dims": [%d], '
                    '"rho0": [[]], "odd": [[[]]]}' % dim)
    return str(path)


def test_tensor_at_and_over_the_size_limit(tmp_path):
    from superstable.gradedmod import MAX_EXTERIOR_SIZE

    def zero_module_file(dim):
        return _zero_module_file(tmp_path, dim)

    out = _run_capped(["tensor", "--module", zero_module_file(32), "--other", zero_module_file(32)])
    assert out.returncode == 0 and out.stdout.startswith("tensor product: "), out.stderr
    assert json.loads(out.stdout[len("tensor product: "):])["dims"] == [MAX_EXTERIOR_SIZE]
    for a, b in ((32, 33), (MAX_EXTERIOR_SIZE, MAX_EXTERIOR_SIZE)):
        _refused(["tensor", "--module", zero_module_file(a), "--other", zero_module_file(b)], 1,
                 f"error: the tensor product has total dimension {a * b}, "
                 f"over the limit of {MAX_EXTERIOR_SIZE}")


def test_hom_at_and_over_the_size_limit(tmp_path):
    from superstable.gradedmod import MAX_EXTERIOR_SIZE

    # every map between zero modules in one degree is a g-map: 32 * 32 of them
    zero32 = _zero_module_file(tmp_path, 32)
    out = _run_capped(["hom", "--module", zero32, "--other", zero32])
    assert out.returncode == 0 and out.stdout == f"dim Hom(V, W) = {MAX_EXTERIOR_SIZE}\n", out.stderr
    for a, b in ((32, 33), (MAX_EXTERIOR_SIZE, MAX_EXTERIOR_SIZE)):
        _refused(["hom", "--module", _zero_module_file(tmp_path, a),
                  "--other", _zero_module_file(tmp_path, b)], 1,
                 f"error: Hom(V, W) has {a * b} unknowns, sum over j of dim V^j * dim W^j, "
                 f"over the limit of {MAX_EXTERIOR_SIZE}")


def test_nonfullness_refuses_by_the_file_dims_before_a_matrix_is_built(tmp_path, capsys, monkeypatch):
    from superstable import serialize
    from superstable.gradedmod import MAX_EXTERIOR_SIZE

    def zero_rep(dim):
        path = str(tmp_path / f"zero{dim}.json")
        dump({"dim": dim, "mats": [{"rows": dim, "cols": dim, "entries": []}] * 3}, path)
        return path

    # over sl2_trivial(1), at i - j = 1 the coefficients V* (x) S^0(g1) (x) W
    # are 64 * 32-dimensional, over the tensor limit
    v, w = zero_rep(64), zero_rep(32)
    built, real = [], serialize.matrix_from_json

    def recorded(obj, rows=None, cols=None):
        built.append((rows, cols))
        return real(obj, rows, cols)

    monkeypatch.setattr(serialize, "matrix_from_json", recorded)

    def nonfullness(i, j):
        return main(["nonfullness", "--algebra", "sl2_trivial(1)", "--v", v, "--w", w,
                     "-i", str(i), "-j", str(j)])

    assert nonfullness(1, 0) == 1
    assert capsys.readouterr().err == (
        f"error: the tensor product has total dimension 2048, over the limit of {MAX_EXTERIOR_SIZE}\n"
    )
    assert built == []
    # the space vanishes below i - j = dim g1 and above p = dim g0: no refusal
    for i in (0, 4):
        assert nonfullness(i, 0) == 0
        assert capsys.readouterr().out == "obstruction dim: 0 (vanishes)\n"


@pytest.mark.parametrize("cmd", [["support-check"], ["ds", "--point", "1,2"]])
def test_ds_cross_check_disagreement_exit_1(capsys, monkeypatch, files, cmd):
    # every report that gets written has consistent/ok true: a DS dimension
    # that disagrees with the fiber cohomology stops the command
    from superstable import dsvariety
    from superstable.rigid import CohomologyTable

    real = dsvariety.fiber_cohomology

    def off_by_one(f):
        table = real(f)
        return CohomologyTable.from_dict({**table.as_dict(), f.lo: table.dim(f.lo) + 1})

    monkeypatch.setattr(dsvariety, "fiber_cohomology", off_by_one)
    assert main([cmd[0], "--module", files["sl2_triv2_mixed"], *cmd[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DS dimension") and "disagrees" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# fuzz: a corpus module file with one field mutated never escapes as an
# exception, whatever the command


DEEP_NESTING = "[" * 200_000
HUGE_ZERO_MODULE = (
    '{"algebra": "grassmann(1)", "lo": 0, "hi": 0, "dims": [30000], "rho0": [[]], "odd": [[[]]]}'
)


@functools.lru_cache(maxsize=None)
def _small_module_files():
    return {name: (module_to_json(e.module), e.module.alg.dim1)
            for name, e in sorted(corpus_modules().items()) if e.module.total_dim <= 8}


def _matrices(obj):
    """The matrices of a module object, as (family, degree index, element index)."""
    return [(fam, k, i) for fam in ("rho0", "odd") for k, per in enumerate(obj[fam])
            for i in range(len(per))]


@st.composite
def mutated_module_files(draw):
    """(file text, dim g1): a small corpus module with one field mutated."""
    name = draw(st.sampled_from(sorted(_small_module_files())))
    obj, dim1 = _small_module_files()[name]
    obj = json.loads(json.dumps(obj))
    kind = draw(st.sampled_from(["delete", "type", "window", "entry", "row"]))
    if kind == "delete":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "type":
        key = draw(st.sampled_from(sorted(obj)))
        obj[key] = draw(st.sampled_from([None, True, 2.5, 7, "x", [], {}, [[1]]]).filter(
            lambda x: type(x) is not type(obj[key])))
    elif kind == "window":
        value = draw(st.sampled_from([-1, 0, 10**6]))
        key = draw(st.sampled_from(["dims", "lo", "hi"]))
        if key == "dims":
            obj["dims"][draw(st.integers(0, len(obj["dims"]) - 1))] = value
        else:
            obj[key] = value
    else:
        fam, k, i = draw(st.sampled_from(_matrices(obj)))
        m = obj[fam][k][i]
        if kind == "entry" and m and m[0]:
            r, c = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m[0]) - 1))
            m[r][c] = draw(st.sampled_from([0.5, "1/0", ["1"]]))
        elif m and draw(st.booleans()):
            del m[draw(st.integers(0, len(m) - 1))]
        else:
            m.append(["0"] * (len(m[0]) if m else 1))
    return json.dumps(obj), dim1


@given(mutated_module_files())
@example((DEEP_NESTING, 1))
@example((HUGE_ZERO_MODULE, 1))
@settings(max_examples=150, deadline=None)
def test_cli_survives_mutated_module_files(case):
    import contextlib
    import io
    import tempfile

    text, dim1 = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        with open(path, "w") as fh:
            fh.write(text)
        point = ",".join(["1"] * max(dim1, 1))
        for argv in (["module-info"], ["ds", "--point", point], ["is-reduced"], ["decompose"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], "--module", path, *argv[1:]])
            assert code in (0, 1, 2), (argv, code)


def test_unwritable_output_path_exit_2(capsys, files, tmp_path):
    # an output path the OS refuses is bad input, reported in one line
    # naming the path and the reason, with nothing reported as written
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept\n")
    module = files["grassmann2_free"]
    outs = {
        str(tmp_path / "adir"): "Is a directory",
        str(tmp_path / "missing" / "m.json"): "No such file or directory",
    }
    commands = [
        ["shift", "--module", module, "--by", "1"],
        ["tensor", "--module", module, "--other", module],
        ["dual", "--module", module],
        ["induce", "--algebra", "sl2_trivial(1)", "--q", files["rep_k"]],
        ["rigid", "l", module],
    ]
    for out, why in outs.items():
        for argv in commands:
            assert main(argv + ["--out", out]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"input error: cannot write {out}: {why}\n", argv
            assert captured.out == ""
    cpath = str(tmp_path / "c.json")
    assert main(["rigid", "l", module, "--out", cpath]) == 0
    capsys.readouterr()
    for out, why in outs.items():
        assert main(["rigid", "v", cpath, "--out", out]) == 2
        assert capsys.readouterr().err == f"input error: cannot write {out}: {why}\n"
    for target, why in (("afile", "File exists"), ("afile/sub", "Not a directory")):
        out = str(tmp_path / target)
        assert main(["corpus", "--write", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: cannot write {out}: {why}\n"
        assert captured.out == ""
    assert (tmp_path / "afile").read_text() == "kept\n"
    # missing directories of `corpus --write` are made, as before
    assert main(["corpus", "--write", str(tmp_path / "new" / "corpus")]) == 0
    assert "written to" in capsys.readouterr().out
    assert (tmp_path / "new" / "corpus" / "grassmann2_free.json").is_file()
