"""The runtime is standard-library only: importing every `superstable`
submodule in a fresh interpreter loads no module from outside the
standard library.  Start-up stays light: neither `import superstable`
nor `import superstable.cli` loads `dataclasses` or `inspect` (with
`ast`, `dis` and `tokenize`, which `inspect` imports)."""

import json
import os
import subprocess
import sys

import superstable

HEAVY = ("dataclasses", "inspect")

CODE = """
import importlib, json, sys
HEAVY, heavy = %r, {}
import superstable
heavy["superstable"] = [m for m in HEAVY if m in sys.modules]
import superstable.cli
heavy["superstable.cli"] = [m for m in HEAVY if m in sys.modules]
# pkgutil imports inspect itself, so the modules are listed before it
import pkgutil
for info in pkgutil.iter_modules(superstable.__path__):
    importlib.import_module("superstable." + info.name)
print(json.dumps({"heavy": heavy, "loaded": sorted(sys.modules)}))
""" % (HEAVY,)


def test_every_submodule_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(superstable.__file__))
    # -S skips the .pth start-up hooks of site-packages, which load modules of
    # their own; the same directories stay importable through PYTHONPATH, so a
    # third-party import is loaded and named below rather than failing
    path = os.pathsep.join([src] + [p for p in sys.path if p and os.path.isdir(p)])
    out = subprocess.run(
        [sys.executable, "-S", "-c", CODE],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    result = json.loads(out.stdout)
    assert result["heavy"] == {"superstable": [], "superstable.cli": []}, result["heavy"]
    loaded = result["loaded"]
    assert "superstable.cli" in loaded and "superstable.cohomology" in loaded
    top = {name.split(".")[0] for name in loaded}
    outside = top - set(sys.stdlib_module_names) - {"superstable", "__main__"}
    assert not outside, sorted(outside)
