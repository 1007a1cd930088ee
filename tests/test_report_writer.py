"""The JSON reports of every subcommand: `json.dumps(report,
sort_keys=True)` on one line, and, with the files `serialize.dump`
writes, made of types JSON writes as they are (str, int, bool, None,
lists, tuples and dicts with string keys), so no float enters a report
or a file."""

import argparse
import json

import pytest

from superstable import cli
from superstable.corpus import corpus_modules, corpus_morphisms, corpus_reps, nonfullness_witness
from superstable.gradedmod import zero_map
from superstable.serialize import dump, map_to_json, module_to_json, rep_to_json


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("writer")

    def write(name, obj):
        path = str(d / f"{name}.json")
        dump(obj, path)
        return path

    mods = corpus_modules()
    paths = {name: write(name, module_to_json(mods[name].module))
             for name in ("grassmann2_free", "grassmann2_mixed", "sl2_triv2_mixed", "sl2_adjoint_natural")}
    f = corpus_morphisms()["sl2_triv1_mixed_proj"].map
    paths["f"] = write("f", map_to_json(f))
    paths["g"] = write("g", map_to_json(zero_map(f.source, f.target)))
    paths["q"] = write("q", rep_to_json(nonfullness_witness()["v"]))
    paths["rep_adjoint"] = write("rep_adjoint", rep_to_json(corpus_reps()["sl2_adjoint_natural"].rep))
    from test_algebra import BROKEN_JACOBI

    triples = [[i, j, k, str(x)] for i, per in enumerate(BROKEN_JACOBI)
               for j, row in enumerate(per) for k, x in enumerate(row) if x]
    paths["broken"] = write("broken", {"dim0": 3, "dim1": 0, "bracket": triples, "action": [[]] * 3})
    paths["complex"] = str(d / "complex.json")
    return paths


def held_types(obj) -> set:
    """The types of obj and of everything it holds; a dict key counts as
    (dict, its type)."""
    found = {type(obj)}
    if isinstance(obj, dict):
        for k, x in obj.items():
            found |= {(dict, type(k))} | held_types(x)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            found |= held_types(x)
    return found


WRITABLE = {str, int, bool, type(None), list, tuple, dict, (dict, str)}


def report_commands(p):
    """(subcommand, argv) of at least one call of every subcommand; the
    `rigid l` call writes the complex file the other `rigid` calls read."""
    mixed, free, adj = p["sl2_triv2_mixed"], p["grassmann2_free"], p["sl2_adjoint_natural"]
    return [
        ("validate", ["validate", "--algebra", "sl2_trivial(2)"]),
        ("validate", ["validate", "--algebra", p["broken"]]),
        ("module-info", ["module-info", "--module", mixed]),
        ("shift", ["shift", "--module", mixed, "--by", "-2"]),
        ("tensor", ["tensor", "--module", free, "--other", p["grassmann2_mixed"]]),
        ("dual", ["dual", "--module", mixed]),
        ("hom", ["hom", "--module", p["grassmann2_mixed"], "--other", p["grassmann2_mixed"]]),
        ("induce", ["induce", "--algebra", "sl2_adjoint", "--q", p["rep_adjoint"]]),
        ("rigid", ["rigid", "l", "--module", mixed, "--out", p["complex"]]),
        ("rigid", ["rigid", "l", "--module", mixed]),
        ("rigid", ["rigid", "v", "--module", p["complex"]]),
        ("rigid", ["rigid", "fiber", "--module", p["complex"], "--point", "1,2"]),
        ("rigid", ["rigid", "roundtrip", "--module", mixed]),
        ("ds", ["ds", "--module", mixed, "--point", "1,-1/2"]),
        ("variety", ["variety", "--module", mixed, "--sample", "5"]),
        ("variety", ["variety", "--module", mixed, "--ideal"]),
        ("support-check", ["support-check", "--module", mixed, "--sample", "4"]),
        ("decompose", ["decompose", "--module", adj]),
        ("is-projective", ["is-projective", "--module", adj]),
        ("is-projective", ["is-projective", "--module", mixed]),
        ("is-reduced", ["is-reduced", "--module", mixed]),
        ("stable-eq", ["stable-eq", "--f", p["f"], "--g", p["g"]]),
        ("frobenius-check", ["frobenius-check", "--algebra", "sl2_trivial(1)", "--q", p["q"]]),
        ("cech", ["cech", "-r", "2", "-d", "-5"]),
        ("ext", ["ext", "-i", "3", "-j", "0", "-r", "2"]),
        ("ce", ["ce", "--algebra", "sl2_trivial(1)", "--module", p["q"]]),
        ("koszul", ["koszul", "--algebra", "sl2_trivial(2)", "--module", mixed, "--pmax", "3"]),
        ("nonfullness", ["nonfullness", "--algebra", "sl2_trivial(1)", "--v", p["q"],
                         "--w", p["q"], "-i", "3", "-j", "0"]),
        ("corpus", ["corpus"]),
    ]


def test_every_subcommand_report_is_json_dumps_byte_for_byte(inputs, capsys, monkeypatch):
    reports = []
    emit = cli._emit

    def recording(report, lines, fmt):
        reports.append(report)
        emit(report, lines, fmt)

    monkeypatch.setattr(cli, "_emit", recording)
    cmds = report_commands(inputs)
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name for name, _ in cmds} == set(sub.choices)
    for _, argv in cmds:
        reports.clear()
        code = cli.main(["--format", "json", *argv])
        out = capsys.readouterr().out
        [report] = reports
        assert report["exit_code"] == code and "lines" not in report
        assert out == json.dumps(report, sort_keys=True) + "\n", argv
        assert out.count("\n") == 1, argv
    # the failing validate report holds its failures as tuples, which
    # json writes as lists
    cli.main(["--format", "json", "validate", "--algebra", inputs["broken"]])
    capsys.readouterr()
    [(kind, pair)] = reports[-1]["report"]["failures"]
    assert kind == "jacobi" and isinstance(pair, tuple)


def test_every_report_and_file_holds_only_writable_types(inputs, capsys, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, lines, fmt: reports.append(report))
    cmds = report_commands(inputs)
    for _, argv in cmds:
        cli.main(["--format", "json", *argv])
    capsys.readouterr()
    assert len(reports) == len(cmds)
    files = [module_to_json(e.module) for e in corpus_modules().values()]
    files += [map_to_json(e.map) for e in corpus_morphisms().values()]
    files += [rep_to_json(e.rep) for e in corpus_reps().values()]
    for obj in reports + files:
        assert held_types(obj) <= WRITABLE, held_types(obj) - WRITABLE
