"""One digest over the JSON reports of a fixed list of CLI commands on the
corpus: a change that alters any answer, certificate or report layout
changes the digest.  `golden_digests.txt` also holds one digest per
command, a line "<list> <sha256> <command>", so a mismatch names the
first command whose report changed.
After a deliberate change of the reports, update the list's constant and
rewrite that file with `PYTHONPATH=src python tests/test_golden_reports.py`."""

import contextlib
import hashlib
import io
import itertools
import tempfile
from pathlib import Path

from superstable.cli import main
from superstable.corpus import corpus_modules, corpus_morphisms, corpus_reps
from superstable.gradedmod import zero_map
from superstable.serialize import dump, map_to_json, module_to_json, rep_to_json

# sha256 of the reports below, paths under the temporary directory
# written as "<tmp>"
GOLDEN_REPORTS_SHA256 = "78e82f3fd5a7f618026a5cf7d57714aba8c5b682299061c6ec5f4897fb398b57"


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


DIGESTS = Path(__file__).with_name("golden_digests.txt")


def _reports(cmds, tmp_path) -> list:
    """Per command, its argv, exit code and JSON report as one text, the
    temporary directory written as "<tmp>"."""
    texts = []
    for argv in cmds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", *argv])
        text = f"{' '.join(argv)}\n{code}\n{out.getvalue()}"
        texts.append(text.replace(str(tmp_path), "<tmp>"))
    return texts


def _per_command(texts) -> list:
    """(command, sha256 of its report text) per command."""
    return [(t.split("\n", 1)[0], hashlib.sha256(t.encode()).hexdigest()) for t in texts]


def _stored(name) -> list:
    """(command, sha256) per command of the list `name`, from DIGESTS."""
    lines = [line.split(" ", 2) for line in DIGESTS.read_text().splitlines()]
    return [(cmd, sha) for list_name, sha, cmd in lines if list_name == name]


def _check(name, cmds, tmp_path, total):
    texts = _reports(cmds, tmp_path)
    want = _stored(name)
    got = _per_command(texts)
    for (cmd, have), (stored, expected) in zip(got, want):
        assert cmd == stored, f"the command list changed, first at: {cmd}"
        assert have == expected, f"the first changed report is that of: {cmd}"
    assert len(got) == len(want), "the command list changed in length"
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == total


def test_golden_reports(tmp_path):
    _check("reports", golden_commands(tmp_path), tmp_path, GOLDEN_REPORTS_SHA256)


# sha256 of the reports of `rigid_commands`, written the same way
GOLDEN_RIGID_SHA256 = "3daf3e06ef4791c781a7db47af49f27f147c9aef72ec77df8fef320f675c5dc4"


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
            ["rigid", "v", "--module", c],
            ["rigid", "fiber", "--module", c, "--point", ",".join(str(k + 1) for k in range(n))],
            ["rigid", "fiber", "--module", c, "--point", ",".join(["1"] + ["0"] * (n - 1))],
            ["rigid", "roundtrip", "--module", f],
        ]
    return cmds


def test_golden_rigid_reports(tmp_path):
    _check("rigid", rigid_commands(tmp_path), tmp_path, GOLDEN_RIGID_SHA256)


# sha256 of the reports of `variety_commands`, written the same way
GOLDEN_VARIETY_SHA256 = "382109b1e9abb5c781e8201cd64a7013a584eded6cc3a7819af7bb27bf3ab583"


def variety_commands(tmp_path):
    """`variety --ideal` on every corpus module of total dimension at most
    12, the minor cap when the list was first written."""
    cmds = []
    for name, e in corpus_modules().items():
        if e.module.total_dim <= 12:
            f = str(tmp_path / f"{name}.json")
            dump(module_to_json(e.module), f)
            cmds.append(["variety", "--module", f, "--ideal"])
    return cmds


def test_golden_variety_reports(tmp_path):
    _check("variety", variety_commands(tmp_path), tmp_path, GOLDEN_VARIETY_SHA256)


if __name__ == "__main__":
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        lists = (("reports", golden_commands), ("rigid", rigid_commands), ("variety", variety_commands))
        for name, cmds in lists:
            lines += [f"{name} {sha} {cmd}\n" for cmd, sha in _per_command(_reports(cmds(Path(tmp)), tmp))]
    DIGESTS.write_text("".join(lines))
