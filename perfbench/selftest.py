"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) runs one short untraced and one short
traced run and checks that the last line of stdout is the result object,
that every answer was correct, and that the metrics are exactly the
end-to-end (untraced) or per-layer (traced) ones BENCHMARK.json names, in
its units, with finite values.  Then copies BENCHMARK.json and this
directory alone into a scratch directory and checks that the benchmark
refuses to run there: non-zero exit, no result line.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 180


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )


def check_result(spec, workload, trace) -> list:
    p = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if p.returncode != 0:
        return [f"{where}: exit code {p.returncode}\n{p.stderr[-2000:]}"]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, expected {want[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{where}: {name} value {v!r}")
    return problems


def check_refuses_without_source() -> list:
    scratch = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        p = run(scratch, "--workload", "fiber-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(scratch)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        return ["without src/: expected a non-zero exit and no result"]
    return []


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    names = argv or [w["name"] for w in spec["workloads"]]
    problems = check_refuses_without_source()
    for w in names:
        for trace in (0, 1):
            found = check_result(spec, w, trace)
            print(f"{w} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
