"""What the traced run wraps in each layer, and the per-layer metrics it
derives from the spans.  Every value is per pass over the workload's
queries unless its unit says otherwise."""

from __future__ import annotations

import os

from superstable import (
    algebra,
    cli,
    cohomology,
    dsvariety,
    gradedmod,
    linalg,
    projstable,
    rigid,
    serialize,
)

import exact
from tracing import Target

# span name of a pipeline entry point -> name of the kernel it feeds
ORIGINS = {
    "projstable.decompose": "decompose",
    "projstable.projective_certificate": "projective_certificate",
    "projstable.stable_equal_certificate": "stable_equal_certificate",
    "gradedmod.hom_graded": "hom_graded",
}

# (span name, metrics taken from its stats)
SPAN_METRICS = (
    ("linalg.solve", ("calls", "self_s")),
    ("linalg.assemble", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.matmul", ("calls", "self_s")),
    ("linalg.matrix_new", ("calls", "self_s")),
    ("gradedmod.make_module", ("calls", "self_s")),
    ("gradedmod.check_map", ("calls", "self_s")),
    ("gradedmod.induced_module", ("self_s",)),
    ("gradedmod.direct_sum", ("self_s",)),
    ("gradedmod.hom_graded", ("self_s",)),
    ("rigid.make_complex", ("calls", "self_s")),
    ("rigid.fiber", ("calls", "self_s")),
    ("rigid.fiber_cohomology", ("self_s",)),
    ("dsvariety.x_operator", ("self_s",)),
    ("dsvariety.ds_at", ("self_s",)),
    ("dsvariety.support_check", ("self_s",)),
    ("dsvariety.variety_ideal", ("self_s",)),
    ("projstable.top_operator", ("calls", "self_s")),
    ("projstable.decompose", ("self_s",)),
    ("projstable.lift", ("self_s",)),
    ("algebra.is_semisimple", ("calls", "self_s")),
    ("cohomology.cech", ("self_s",)),
    ("cohomology.ce", ("self_s",)),
    ("cohomology.koszul", ("self_s",)),
    ("cohomology.nonfullness", ("self_s",)),
    ("serialize.load", ("self_s",)),
    ("serialize.to_json", ("self_s",)),
    ("cli.main", ("self_s",)),
)
KERNEL_FIELDS = ("rows", "cols", "nnz", "max_entry_bits")


def targets(capture):
    """Every traced callable.  `capture(tracer, system)` sees each linear
    system handed to the solver."""
    M, LS = linalg.Matrix, linalg.LinearSystem

    def new_matrix(tracer, args):
        if len(args) >= 3:  # Matrix(rows, cols, data)
            tracer.count("linalg.entries_coerced", args[1] * args[2])

    def solve(tracer, args):
        capture(tracer, args[0])

    t = [
        Target("linalg.solve", LS, "solve", hook=solve),
        Target("linalg.solve", LS, "solution_basis", hook=solve),
        Target("linalg.assemble", LS, "add_constraint"),
        Target("linalg.rref", M, "rref"),
        Target("linalg.rank", M, "rank"),
        Target("linalg.matmul", M, "__mul__", span=False),
        Target("linalg.matrix_new", M, "__init__", span=False, hook=new_matrix),
        Target("algebra.is_semisimple", algebra, "is_semisimple"),
        Target("projstable.lift", projstable, "_lift_along_evaluation"),
        Target("cohomology.cech", cohomology, "cech_line_bundle"),
        Target("cohomology.ce", cohomology, "chevalley_eilenberg"),
        Target("cohomology.koszul", cohomology, "koszul_odd"),
        Target("cohomology.nonfullness", cohomology, "nonfullness_ext"),
        Target("serialize.to_json", serialize, "matrix_to_json", span=False),
        Target("cli.main", cli, "main"),
    ]
    for mod, attrs in (
        (gradedmod, ("make_module", "check_map", "induced_module", "direct_sum",
                     "hom_graded", "submodule")),
        (rigid, ("make_complex", "fiber", "fiber_cohomology", "L_of", "V_of")),
        (dsvariety, ("x_operator", "ds_at", "in_variety", "support_check", "variety_ideal")),
        (projstable, ("top_operator", "decompose", "projective_certificate",
                      "stable_equal_certificate", "frobenius_check")),
        (cohomology, ("ext_twisted",)),
    ):
        short = mod.__name__.rsplit(".", 1)[1]
        t += [Target(f"{short}.{a}", mod, a) for a in attrs]
    t += [Target("serialize.load", serialize, a)
          for a in ("load_algebra", "load_module", "load_complex", "load_map", "load_rep")]
    t += [Target("serialize.to_json", serialize, a)
          for a in ("module_to_json", "complex_to_json", "map_to_json", "polynomial_to_json")]
    return t


class KernelCapture:
    """Keeps, per pipeline, the largest linear system passed to the solver."""

    def __init__(self):
        self.best = {}  # kernel name -> (rows * cols, system)

    def __call__(self, tracer, system):
        size = len(system.rows) * system.size
        origin = next((ORIGINS[n] for n in tracer.open_names() if n in ORIGINS), "other")
        held = self.best.get(origin)
        if held is None or size > held[0]:
            self.best[origin] = (size, system)

    @staticmethod
    def describe(system) -> dict:
        rows = [dict((c, x) for c, x in enumerate(r) if x) for r in system.rows]
        values = [x for r in rows for x in r.values()] + [b for b in system.rhs if b]
        bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                    for x in values), default=0)
        return {
            "rows": len(rows),
            "cols": system.size,
            "nnz": sum(len(r) for r in rows),
            "max_entry_bits": bits,
            "sparse_rows": rows,
            "rhs": [str(b) for b in system.rhs],
        }

    def summary(self):
        """Per kernel: shape, nnz and entry size; plus the largest of all
        with its rank per row, the share of assembled rows that carry
        information."""
        out = {k: self.describe(s) for k, (_, s) in self.best.items()}
        largest = max(out.values(), key=lambda d: d["rows"] * d["cols"], default=None)
        if largest is not None and largest["rows"]:
            largest = dict(largest, rank=exact.sparse_rank(largest["sparse_rows"]))
        return out, largest


def src_lines(src_dir) -> int:
    total = 0
    for dirpath, _, files in os.walk(src_dir):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def layer_metrics(tracer, capture, passes, overhead, corpus_s, counts, src_dir) -> dict:
    n = len(passes)
    queries = sum(len(p) for p in passes)
    m = {}
    for name, fields in SPAN_METRICS:
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        if "calls" in fields:
            m[f"{name}.calls"] = (calls / n, "count/pass")
        if "self_s" in fields:
            m[f"{name}.self_s"] = (self_s / n, "s/pass")
    m["linalg.entries_coerced"] = (tracer.counts.get("linalg.entries_coerced", 0) / n, "count/pass")
    validations = sum(tracer.stats.get(k, (0, 0))[0]
                      for k in ("gradedmod.make_module", "gradedmod.check_map"))
    m["gradedmod.validations_per_query"] = (validations / queries, "count/query")

    kernels, largest = capture.summary()
    for origin in ORIGINS.values():
        k = kernels.get(origin, {})
        for f in KERNEL_FIELDS:
            m[f"kernel.{origin}.{f}"] = (k.get(f, 0), "count")
    for f in KERNEL_FIELDS:
        m[f"linalg.solve.{f}"] = ((largest or {}).get(f, 0), "count")
    rank_per_row = largest["rank"] / largest["rows"] if largest and largest["rows"] else 0
    m["linalg.solve.rank_per_row"] = (rank_per_row, "ratio")

    m["dsvariety.variety_ideal.generators"] = (
        counts.get("dsvariety.variety_ideal.generators", 0) / n, "count/pass")
    m["cli.report_bytes"] = (counts.get("cli.report_bytes", 0) / n, "bytes/pass")
    m["corpus.build_s"] = (corpus_s, "s")
    m["trace.overhead_pct"] = (overhead * 100, "%")
    m["trace.spans"] = (sum(s is not None for s in tracer.spans) / n, "count/pass")
    m["src.net_lines"] = (src_lines(src_dir), "lines")
    return m, kernels
