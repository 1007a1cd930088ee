"""Closed-loop benchmark of superstable.

    python3 perfbench/run.py --workload fiber-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from `src/`.
One process, one thread, one client that sends the next query only when
the previous one has returned.  The run picks its inputs from `--seed`,
sets them up, then runs as many whole blocks of the workload's
`PASSES_PER_BLOCK` passes over its queries as fill `--seconds` of query
time; set-up is timed again between passes and reported as a median.  In
each block every query is timed by its fastest pass, and the latency
metrics are the median and 90th percentile of those times over the
workload's queries; each metric is the median over the blocks.  All
times are scaled to a nominal host speed (`HostSpeed`).  Every answer is
checked, untimed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json.  With `--trace 1` half
of `--seconds` runs untraced and half traced, the metrics are the
per-layer ones (not scaled), and the spans are written under
`perfbench/_out/`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import exact

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

SETUP_SAMPLES = 12
# the ROADMAP's four commands on its heaviest corpus module
ADJOINT_COMMANDS = {
    "cli decompose": "cli.adjoint_natural.decompose_s",
    "cli is-projective": "cli.adjoint_natural.is_projective_s",
    "cli support-check": "cli.adjoint_natural.support_check_s",
    "cli stable-eq": "cli.adjoint_natural.stable_eq_s",
}


class HostSpeed:
    """How fast the shared host runs, moment by moment.  Other load on it
    comes and goes over seconds to minutes and slows every computation on
    it together, by up to half and more, so one run can be a third slower
    than the next with no change in the code.  A fixed reference
    computation, the exact rank of a seeded 45 x 45 sparse integer matrix
    by `exact.sparse_rank` (stdlib Fractions and dicts, like the library's
    own kernels, and no `superstable` code), is timed between queries, at
    most every INTERVAL_S.  Each query's time is scaled by NOMINAL_S over
    the median reference time within WINDOW_S of the query, and set-up
    times by NOMINAL_S over the median of all reference times: they read
    as on a host on which the reference takes NOMINAL_S."""

    NOMINAL_S = 0.005
    INTERVAL_S = 0.1
    WINDOW_S = 0.5

    def __init__(self):
        rng = random.Random(0)
        self.rows = [{c: rng.randint(-3, 3) for c in range(45) if rng.random() < 0.1}
                     for _ in range(45)]
        self.ends = []     # when each sample ended, ascending
        self.samples = []  # seconds the reference took
        self.last = float("-inf")

    def sample(self):
        """Time the reference, unless it was timed less than INTERVAL_S ago."""
        if time.perf_counter() - self.last < self.INTERVAL_S:
            return
        gc.disable()  # so the size of the library's heap does not time in
        try:
            t0 = time.perf_counter()
            exact.sparse_rank(self.rows)
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.ends.append(self.last)
        self.samples.append(self.last - t0)

    def scale(self, start=None, end=None) -> float:
        """NOMINAL_S over the median reference time, within WINDOW_S of
        [start, end] if given.  Right after every query the reference is
        timed or was timed less than INTERVAL_S before, so the window is
        never empty."""
        if start is None:
            return self.NOMINAL_S / statistics.median(self.samples)
        lo = bisect.bisect_left(self.ends, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + self.WINDOW_S)
        return self.NOMINAL_S / statistics.median(self.samples[lo:hi])

    def normalize(self, passes):
        """Passes of (query, seconds, start) as (query, scaled seconds)."""
        return [[(q, t * self.scale(t0, t0 + t)) for q, t, t0 in p] for p in passes]


class Run:
    """Counts of attempted and failed queries, with the first failures."""

    def __init__(self, host):
        self.host = host
        self.attempted = 0
        self.failed = 0

    def execute(self, queries, tracer=None):
        """One pass; returns [(query, seconds, start)] in order."""
        clock = time.perf_counter
        timed = []
        for q in queries:
            if tracer is not None:
                tracer.query = self.attempted
                tracer.enabled = True
            self.attempted += 1
            err = None
            t0 = clock()
            try:
                ans = q.call()
            except Exception as exc:  # a failed query is counted, not fatal
                err = exc
            t1 = clock()
            if tracer is not None:
                tracer.enabled = False
            if err is None:
                try:
                    if not q.check(ans):
                        err = AssertionError("answer does not match the expectation")
                except Exception as exc:
                    err = exc
            if err is not None:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {q.kind} [{q.label}]: {err!r}", file=sys.stderr)
                    traceback.print_exception(err, file=sys.stderr, limit=-3)
            timed.append((q, t1 - t0, t0))
            self.host.sample()
        return timed


def measure(run, queries, seconds, per_block=1, tracer=None, after_pass=None):
    """Whole blocks of `per_block` passes, as many as fill `seconds` of
    query time at the speed of the first pass (at least one); returns the
    passes.  `after_pass(i, n)` runs, untimed, after pass i of n."""
    passes = []
    n = None
    while n is None or len(passes) < n:
        gc.collect()  # start every pass from the same heap, untimed
        passes.append(run.execute(queries, tracer))
        if n is None:
            first = sum(t for _, t, _ in passes[0])
            n = per_block * max(1, round(seconds / (first * per_block)))
        if after_pass is not None:
            after_pass(len(passes) - 1, n)
    return passes


def timed(fn):
    """(fn(), seconds it took)."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import superstable; print(time.perf_counter() - t)")


class SetupTimes:
    """Samples of set-up time: the inputs made from the chosen plan, the
    corpus builders alone (the part every workload shares), and `import
    superstable` in a fresh interpreter.  Other load on the host comes in
    episodes of seconds, longer than one set-up, so the samples are spread
    over the run: the first is the set-up the run uses, and SETUP_SAMPLES
    more are taken between passes.  Each metric is a median of samples."""

    def __init__(self, workload, plan):
        self.workload, self.plan = workload, plan
        self.build_s, self.corpus_s, self.import_s = [], [], []

    def sample(self):
        """One set-up; returns its queries, mix and workdir."""
        import superstable.corpus as corpus

        def build_corpus():
            corpus.corpus_modules()
            corpus.corpus_morphisms()

        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
        gc.collect()
        (queries, mix), t = timed(lambda: self.workload.queries(self.workload.build(self.plan, workdir)))
        self.build_s.append(t)
        self.corpus_s.append(timed(build_corpus)[1])
        p = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                           capture_output=True, text=True, timeout=60, check=True)
        self.import_s.append(float(p.stdout))
        return queries, mix, workdir

    def after_pass(self, i, n):
        """Take SETUP_SAMPLES samples in all, spread evenly over n passes."""
        for _ in range((i + 1) * SETUP_SAMPLES // n - i * SETUP_SAMPLES // n):
            shutil.rmtree(self.sample()[2])

    def setup_s(self) -> float:
        return statistics.median(self.import_s) + statistics.median(self.build_s)

    def corpus_build_s(self) -> float:
        return statistics.median(self.corpus_s)


def unscaled(passes):
    """Passes of (query, seconds, start) as (query, seconds)."""
    return [[(q, t) for q, t, _ in p] for p in passes]


def per_query_times(passes):
    """Each query's fastest time over the passes, in query order.  Other
    load on the host only ever adds time, and on a shared 2-CPU host it
    comes and goes within seconds; the fastest of several passes is the
    estimate of a query's cost that such load disturbs least."""
    return [min(t for _, t in runs) for runs in zip(*passes)]


def blocks(passes, per_block):
    """Consecutive blocks of `per_block` passes.  Each block gives one
    estimate from the same number of passes, so how many passes fit in
    the run, which grows as the code gets faster, does not bias it."""
    return [passes[i:i + per_block] for i in range(0, len(passes), per_block)]


def latency_metrics(block) -> dict:
    from workloads import ADJOINT

    lat = per_query_times(block)
    return {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        # seconds per pass spent on the queries about sl2_adjoint_natural
        "adjoint_natural_s": (sum(t for (q, _), t in zip(block[0], lat)
                                  if q.label.startswith(ADJOINT)), "s"),
    }


def end_to_end_metrics(passes, per_block) -> dict:
    """The median over the blocks of each block's latency metrics."""
    per_block_metrics = [latency_metrics(b) for b in blocks(passes, per_block)]
    return {
        name: (statistics.median(m[name][0] for m in per_block_metrics), unit)
        for name, (_, unit) in per_block_metrics[0].items()
    }


def adjoint_commands(timed) -> dict:
    """Seconds of each of the four CLI commands on sl2_adjoint_natural
    (0 on workloads that do not run them)."""
    from workloads import ADJOINT

    out = {name: (0.0, "s") for name in ADJOINT_COMMANDS.values()}
    for (q, _), t in timed:
        if q.label == ADJOINT and q.kind in ADJOINT_COMMANDS:
            out[ADJOINT_COMMANDS[q.kind]] = (t, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superstable", "__init__.py")):
        print(f"perfbench: no superstable package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    plan, picked = workload.select(args.seed)
    host = HostSpeed()
    setups = SetupTimes(workload, plan)
    queries, mix, workdir = setups.sample()
    mix.update(picked)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "queries_per_pass": len(queries), "mix": mix}))
    try:
        run = Run(host)
        if args.trace:
            metrics = traced_metrics(run, workload, queries, args, setups)
        else:
            passes = measure(run, queries, args.seconds, workload.PASSES_PER_BLOCK,
                             after_pass=setups.after_pass)
            metrics = end_to_end_metrics(host.normalize(passes), workload.PASSES_PER_BLOCK)
            metrics["setup_s"] = (setups.setup_s() * host.scale(), "s")
            raw = end_to_end_metrics(unscaled(passes), workload.PASSES_PER_BLOCK)
            raw["setup_s"] = (setups.setup_s(), "s")
            print(f"perfbench: host scale {host.scale():.4f}; unscaled "
                  f"{json.dumps({k: v for k, (v, _) in raw.items()})}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(run, workload, queries, args, setups) -> dict:
    import layers
    from tracing import Tracer

    # half the time untraced, half traced, each query timed by its fastest pass
    base = unscaled(measure(run, queries, args.seconds / 2, after_pass=setups.after_pass))
    workload.counts.clear()
    tracer, capture = Tracer(), layers.KernelCapture()
    missing = tracer.install(layers.targets(capture))
    if missing:
        print(f"perfbench: not traced, attribute missing: {missing}", file=sys.stderr)
    try:
        passes = unscaled(measure(run, queries, args.seconds / 2, tracer=tracer))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    overhead = sum(per_query_times(passes)) / sum(per_query_times(base)) - 1
    metrics, kernels = layers.layer_metrics(
        tracer, capture, passes, overhead, setups.corpus_build_s(), workload.counts, SRC)
    metrics.update(adjoint_commands(zip(base[0], per_query_times(base))))
    for k in kernels.values():
        k["sparse_rows"] = [{c: str(x) for c, x in r.items()} for r in k["sparse_rows"]]
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "passes": len(passes), "missing": missing, "kernels": kernels})
    print(f"perfbench: spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
