import json
import os
import subprocess
import sys

import pytest

from superstable.cli import main
from superstable.corpus import corpus_modules, corpus_morphisms
from superstable.gradedmod import Rep, zero_map
from superstable.serialize import dump, map_to_json, module_to_json, rep_to_json


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
    dump(rep_to_json(Rep.trivial(st1.even, 1)), paths["rep_k"])
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
