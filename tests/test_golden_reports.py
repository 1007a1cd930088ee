"""One digest over the JSON reports of a fixed list of CLI commands on the
corpus: a change that alters any answer, certificate or report layout
changes the digest."""

import hashlib
import itertools

from superstable.cli import main
from superstable.corpus import corpus_modules, corpus_morphisms, corpus_reps
from superstable.gradedmod import zero_map
from superstable.serialize import dump, map_to_json, module_to_json, rep_to_json

# sha256 of the reports below, paths under the temporary directory
# written as "<tmp>"
GOLDEN_REPORTS_SHA256 = "0ff7fc91291ac0597d2b1b72e459b2c9a75d6be62a7221392de56b03cc72909c"


def golden_commands(tmp_path):
    """The argv of every command in the list, after writing its inputs."""

    def write(name, obj):
        path = str(tmp_path / f"{name}.json")
        dump(obj, path)
        return path

    mods = corpus_modules()
    files = {name: write(name, module_to_json(e.module)) for name, e in mods.items()}
    cmds = []
    for name, e in mods.items():
        f = files[name]
        cmds += [
            ["decompose", "--module", f],
            ["is-projective", "--module", f],
            ["is-reduced", "--module", f],
            ["koszul", "--algebra", e.module.alg.name, "--module", f, "--pmax", "3"],
            ["dual", "--module", f],
            ["rigid", "l", "--module", f],
            ["support-check", "--module", f, "--sample", "3", "--seed", "1"],
        ]
    for a, b in itertools.product(mods, repeat=2):
        if mods[a].module.alg == mods[b].module.alg:
            cmds += [[cmd, "--module", files[a], "--other", files[b]] for cmd in ("tensor", "hom")]
    for name, e in corpus_reps().items():
        q = write(f"rep_{name}", rep_to_json(e.rep))
        cmds += [
            ["ce", "--algebra", e.alg.name, "--module", q],
            ["frobenius-check", "--algebra", e.alg.name, "--q", q],
            ["induce", "--algebra", e.alg.name, "--q", q],
        ]
    for name, e in corpus_morphisms().items():
        f = write(f"map_{name}", map_to_json(e.map))
        z = write(f"zero_{name}", map_to_json(zero_map(e.map.source, e.map.target)))
        cmds.append(["stable-eq", "--f", f, "--g", z])
    return cmds


def _digest(cmds, tmp_path, capsys) -> str:
    digest = hashlib.sha256()
    for argv in cmds:
        code = main(["--format", "json", *argv])
        text = f"{' '.join(argv)}\n{code}\n{capsys.readouterr().out}"
        digest.update(text.replace(str(tmp_path), "<tmp>").encode())
    return digest.hexdigest()


def test_golden_reports(tmp_path, capsys):
    assert _digest(golden_commands(tmp_path), tmp_path, capsys) == GOLDEN_REPORTS_SHA256


# sha256 of the reports of `rigid_commands`, written the same way
GOLDEN_RIGID_SHA256 = "793af6c504fb80c2c41a3f8c41f540cdd8e4184c0c7112663c3983acf9e220b2"


def rigid_commands(tmp_path):
    """Per corpus module: `rigid l` written to a file, then `rigid v` and
    `rigid fiber` at two points on that file, and `rigid roundtrip`."""
    cmds = []
    for name, e in corpus_modules().items():
        f = str(tmp_path / f"{name}.json")
        dump(module_to_json(e.module), f)
        c = str(tmp_path / f"complex_{name}.json")
        n = e.module.alg.dim1
        cmds += [
            ["rigid", "l", "--module", f, "--out", c],
            ["rigid", "v", c],
            ["rigid", "fiber", c, "--point", ",".join(str(k + 1) for k in range(n))],
            ["rigid", "fiber", c, "--point", ",".join(["1"] + ["0"] * (n - 1))],
            ["rigid", "roundtrip", "--module", f],
        ]
    return cmds


def test_golden_rigid_reports(tmp_path, capsys):
    assert _digest(rigid_commands(tmp_path), tmp_path, capsys) == GOLDEN_RIGID_SHA256
