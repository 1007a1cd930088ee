"""The benchmark's three closed-loop workloads.

Each workload turns a seed into a fixed list of queries.  A query is one
call of a public `superstable` function (or of `cli.main`) plus an
untimed check of its answer against an expectation computed
independently, in `exact`, or taken from the corpus' own labels.
Functions are looked up on their module at call time, so the wrappers
that `tracing.Tracer` installs are the ones that run.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from superstable import cli, corpus, dsvariety, gradedmod, serialize

import exact

ADJOINT = "sl2_adjoint_natural"  # the ROADMAP's heaviest corpus module


class Query:
    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind, label, call, check):
        self.kind = kind      # public function or CLI command
        self.label = label    # which input
        self.call = call      # () -> answer; the timed part
        self.check = check    # answer -> bool; untimed


def _memo(fn):
    """Evaluate an expectation once, on first use, outside any timing."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _algebra_class(m) -> str:
    return f"g0={'sl2' if m.alg.dim0 else '0'},dim_g1={m.alg.dim1}"


def describe(modules) -> dict:
    """The input mix: algebra classes and the spread of total dimensions."""
    dims = sorted(m.total_dim for m in modules)
    return {
        "modules": len(dims),
        "by_class": dict(sorted(Counter(_algebra_class(m) for m in modules).items())),
        "by_algebra": dict(sorted(Counter(m.alg.name for m in modules).items())),
        "total_dim": {
            "min": dims[0],
            "median": statistics.median(dims),
            "max": dims[-1],
            "sum": sum(dims),
        },
    }


# (algebra, dims) signatures of the random modules, with how many of each
# a run takes.  The seed picks which modules fill them; fixing the
# signatures fixes the size of every system, so a pass costs about the
# same on every seed.  Each signature turns up in 3-7 of 100 draws.
SLOTS = (
    (("grassmann(2)", (1, 2, 1)), 1),
    (("grassmann(2)", (2, 4, 2)), 2),
    (("grassmann(3)", (1, 3, 3, 1)), 2),
    (("sl2_trivial(1)", (3, 3)), 1),
    (("sl2_trivial(2)", (2, 4, 2)), 2),
    (("sl2_adjoint", (1,)), 1),
    (("sl2_adjoint", (2,)), 1),
    (("sl2_adjoint", (3,)), 1),
)
SLOT_MAX_DIM = 8   # the max_dim of every draw
MAX_DRAWS = 3000


def select_slots(seed: int):
    """Draw `corpus.random_module(seed * 1000 + k, SLOT_MAX_DIM)` for
    k = 0, 1, ... until every slot is filled, each slot by its first
    draws.  Returns the chosen modules, in slot order, and the mix of all
    the modules drawn.  How many draws that takes, and how much building
    each chosen module costs, depend on the seed, so this runs once,
    before the timed set-up."""
    want = dict(SLOTS)
    found = {sig: [] for sig in want}
    drawn = []
    while any(len(found[sig]) < n for sig, n in want.items()):
        if len(drawn) == MAX_DRAWS:
            raise RuntimeError(f"seed {seed}: random module slots not filled")
        m = corpus.random_module(seed * 1000 + len(drawn), SLOT_MAX_DIM)
        drawn.append(m)
        sig = (m.alg.name, m.dims)
        if sig in want and len(found[sig]) < want[sig]:
            found[sig].append(m)
    mix = describe(drawn)
    mix["sl2_adjoint_dims"] = sorted(m.total_dim for m in drawn if m.alg.name == "sl2_adjoint")
    return [m for sig in want for m in found[sig]], mix


class Workload:
    """`select(seed)` picks the inputs, once and untimed, and returns them
    with their mix; `build(plan, workdir)` makes them (the timed set-up);
    `queries(built)` turns them into the queries of one pass.  Each
    subclass sets PASSES_PER_BLOCK, the passes whose fastest times make
    one estimate of the latency metrics."""

    def __init__(self):
        self.counts = Counter()  # filled by the checks, read by the traced run


# ---------------------------------------------------------------------------
# fiber-sweep: DS fibers and variety membership at seeded points


class FiberSweep(Workload):
    """Many small exact ranks and one complex rebuild per `ds_at`."""

    POINTS = 6
    PASSES_PER_BLOCK = 5

    def select(self, seed):
        rand, drawn = select_slots(seed)
        return (seed, rand), {"random_draws": drawn}

    def build(self, plan, workdir):
        seed, rand = plan
        mods = corpus.corpus_modules()
        entries = [(name, e.module, e.induced) for name, e in mods.items()]
        # the largest x_M of the sweep, 24 x 24, from two projective corpus modules
        big = gradedmod.direct_sum(mods[ADJOINT].module, mods["sl2_adjoint_free"].module)
        entries.append(("sl2_adjoint_free+natural", big, True))
        entries += [(f"random{k}", m, False) for k, m in enumerate(rand)]
        points = [
            dsvariety.random_points(v.alg.dim1, self.POINTS, seed * 1009 + k)
            for k, (_, v, _) in enumerate(entries)
        ]
        return entries, points

    def queries(self, built):
        entries, points = built
        qs = []
        for (name, v, induced), pts in zip(entries, points):
            dims = [_memo(lambda v=v, x=x: exact.ds_dim(v, x.coords)) for x in pts]

            def check_support(rep, v=v, pts=pts, dims=dims, induced=induced):
                return (
                    rep.ok
                    and len(rep.entries) == len(pts)
                    and all(e.ds_dim == d() for e, d in zip(rep.entries, dims))
                    and not (induced and any(d() for d in dims))
                )

            qs.append(Query("support_check", name,
                            lambda v=v, pts=pts: dsvariety.support_check(v, pts),
                            check_support))
            for k, (x, d) in enumerate(zip(pts, dims)):
                def check_ds(res, v=v, d=d, induced=induced):
                    return (
                        res.total_dim == v.total_dim
                        and res.ds_dim == d()
                        and res.rank_x == (v.total_dim - d()) // 2
                        and not (induced and d())
                    )

                qs.append(Query("ds_at", f"{name}@{k}",
                                lambda v=v, x=x: dsvariety.ds_at(v, x), check_ds))
                qs.append(Query("in_variety", f"{name}@{k}",
                                lambda v=v, x=x: dsvariety.in_variety(v, x),
                                lambda ans, d=d: ans == (d() > 0)))
        mix = describe([v for _, v, _ in entries])
        mix["points_per_module"] = self.POINTS
        return qs, mix


# ---------------------------------------------------------------------------
# cli-corpus: the command line on the JSON golden corpus


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


BUILTINS = ("grassmann(1)", "grassmann(2)", "grassmann(3)", "sl2_trivial(1)",
            "sl2_trivial(2)", "sl2_trivial(3)", "sl2_adjoint", "sl2_natural_sum(1)")


class CliCorpus(Workload):
    """`cli.main` in-process, JSON reports, boundary validation of files."""

    PASSES_PER_BLOCK = 3

    def select(self, seed):
        return seed, {}

    def build(self, seed, workdir):
        mods = corpus.corpus_modules()
        morphs = corpus.corpus_morphisms()
        reps = corpus.corpus_reps()
        files = {}
        for name, e in mods.items():
            files[name] = os.path.join(workdir, f"{name}.json")
            serialize.dump(serialize.module_to_json(e.module), files[name])
        v = mods[ADJOINT].module
        maps = {f"{ADJOINT}.id": gradedmod.identity_map(v),
                f"{ADJOINT}.zero": gradedmod.zero_map(v, v)}
        for name, e in morphs.items():
            maps[f"{name}.f"] = e.map
            maps[f"{name}.zero"] = gradedmod.zero_map(e.map.source, e.map.target)
        for key, phi in maps.items():
            files[key] = os.path.join(workdir, f"map_{key}.json")
            serialize.dump(serialize.map_to_json(phi), files[key])
        for name, r in reps.items():
            files[f"rep:{name}"] = os.path.join(workdir, f"rep_{name}.json")
            serialize.dump(serialize.rep_to_json(r.rep), files[f"rep:{name}"])
        witness = corpus.nonfullness_witness()
        files["rep:k"] = os.path.join(workdir, "rep_k.json")
        serialize.dump(serialize.rep_to_json(witness["v"]), files["rep:k"])
        # a decimal where the format wants an exact "p/q" scalar: exit code 2
        bad = serialize.module_to_json(mods["grassmann1_free"].module)
        bad["odd"][0][0][0][0] = "1.5"
        files["bad"] = os.path.join(workdir, "malformed.json")
        serialize.dump(bad, files["bad"])
        return mods, morphs, reps, files, random.Random(seed)

    def adjoint_queries(self, mods, files, seed):
        v = mods[ADJOINT].module
        n = v.alg.dim1
        return [
            self._q("decompose", ADJOINT, ["decompose", "--module", files[ADJOINT]],
                    lambda r: r["reduced_dim"] == 0 and r["induced_dim"] == v.total_dim
                    and r["q_dim"] * 2**n == v.total_dim),
            self._q("is-projective", ADJOINT, ["is-projective", "--module", files[ADJOINT]],
                    lambda r: r["projective"] is True
                    and self._lift_ok(r["certificates"]["section"], gradedmod.identity_map(v))),
            self._q("support-check", ADJOINT,
                    ["support-check", "--module", files[ADJOINT], "--sample", "25",
                     "--seed", str(seed)],
                    lambda r: r["ok"] is True and len(r["entries"]) == 25
                    and all(e["ds_dim"] == 0 and e["consistent"] for e in r["entries"])),
            self._q("stable-eq", ADJOINT,
                    ["stable-eq", "--f", files[f"{ADJOINT}.id"], "--g", files[f"{ADJOINT}.zero"]],
                    lambda r: r["stably_equal"] is True
                    and self._lift_ok(r["certificates"]["lift"], gradedmod.identity_map(v))),
        ]

    @staticmethod
    def _lift_ok(obj, f) -> bool:
        """A lift sigma: V -> Ind(W) of f: V -> W along the evaluation
        epimorphism ev, i.e. ev o sigma = f.  map_from_json rebuilds both
        modules and sigma through the validating constructors, so this runs
        check_map on it.  Ind(W) has dimension 2^(dim g1) dim W, and
        rank sigma >= rank f (so a section of ev, f = id, is injective);
        ranks by exact.sparse_rank, one degree at a time."""
        sigma = serialize.map_from_json(obj)
        v, w = f.source, f.target
        return (
            sigma.source == v
            and sigma.target.total_dim == 2**v.alg.dim1 * w.total_dim
            and exact.map_rank(sigma) >= exact.map_rank(f)
        )

    def _q(self, kind, label, argv, check, code=0):
        counts = self.counts

        def check_cli(ans):
            got, out = ans
            counts["cli.report_bytes"] += len(out.encode())
            if got != code:
                raise AssertionError(f"exit code {got}, expected {code}")
            if code != 0:
                return out == ""
            report = json.loads(out)
            return report["exit_code"] == code and check(report)

        return Query(f"cli {kind}", label, lambda: run_cli(["--format", "json", *argv]), check_cli)

    def queries(self, built):
        mods, morphs, reps, files, rng = built
        qs = self.adjoint_queries(mods, files, rng.randrange(10**6))
        qs += self._lifting_queries(mods, morphs, files)
        for spec in BUILTINS:
            qs.append(self._q("validate", spec, ["validate", "--algebra", spec],
                              lambda r: r["report"]["ok"] is True))
        for name, e in mods.items():
            qs.append(self._q("rigid roundtrip", name,
                              ["rigid", "roundtrip", "--module", files[name]],
                              lambda r: r["exact"] is True))
        for name, e in mods.items():
            v = e.module
            coords = tuple(rng.randint(-9, 9) for _ in range(v.alg.dim1 - 1)) + (rng.randint(1, 9),)
            d = _memo(lambda v=v, coords=coords: exact.ds_dim(v, coords))
            qs.append(self._q(
                "ds", name,
                ["ds", "--module", files[name], "--point=" + ",".join(map(str, coords))],
                lambda r, v=v, d=d: r["ds_dim"] == d() and r["total_dim"] == v.total_dim
                and sum(r["per_degree"].values()) == d(),
            ))
        for name, e in mods.items():
            v = e.module
            if v.total_dim > 8:
                continue
            pts = [tuple(rng.randint(-3, 3) for _ in range(v.alg.dim1)) for _ in range(4)]
            pts = [p for p in pts if any(p)] or [(1,) * v.alg.dim1]
            inside = _memo(lambda v=v, pts=pts: [exact.ds_dim(v, p) > 0 for p in pts])

            def check_ideal(r, pts=pts, inside=inside):
                gens = [serialize.polynomial_from_json(g, r["nvars"]) for g in r["generators"]]
                self.counts["dsvariety.variety_ideal.generators"] += len(gens)
                return [all(g.eval(p) == 0 for g in gens) for p in pts] == inside()

            qs.append(self._q("variety --ideal", name,
                              ["variety", "--module", files[name], "--ideal"], check_ideal))
        for _ in range(6):
            r, d = rng.randint(1, 3), rng.randint(-8, 8)
            want = exact.cech_closed_form(r, d)
            qs.append(self._q(
                "cech", f"P^{r},O({d})", ["cech", "-r", str(r), "-d", str(d)],
                lambda rep, want=want: {int(p): k for p, k in rep["cohomology"].items() if k} == want
                and rep["closed_form_agrees"] is True,
            ))
        for _ in range(6):
            i, j, r = rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 3)
            want = exact.cech_closed_form(r, j - i)
            qs.append(self._q(
                "ext", f"{i}->{j},P^{r}", ["ext", "-i", str(i), "-j", str(j), "-r", str(r)],
                lambda rep, want=want: {e["l"]: e["dim"] for e in rep["entries"]} == want,
            ))
        for name, cr in reps.items():
            want = self._ce_expected(cr)
            qs.append(self._q(
                "ce", name, ["ce", "--algebra", cr.alg.name, "--module", files[f"rep:{name}"]],
                lambda rep, want=want: {int(p): k for p, k in rep["cohomology"].items() if k} == want,
            ))
        for name, e in mods.items():
            v = e.module
            if v.total_dim > 8:
                continue
            want = _memo(lambda v=v: exact.koszul_dims(v, 4))
            qs.append(self._q(
                "koszul", name,
                ["koszul", "--algebra", v.alg.name, "--module", files[name], "--pmax", "4"],
                lambda rep, want=want: {int(p): k for p, k in rep["cohomology"].items()} == want(),
            ))
        for i, j in [(3, 0)] + [(rng.randint(-2, 6), rng.randint(-2, 2)) for _ in range(3)]:
            # g0 = sl2 acting trivially on g1 = k and on V = W = k: the space is
            # H^{i-j}(sl2, k), which is 1-dimensional exactly when i - j = 3
            qs.append(self._q(
                "nonfullness", f"i={i},j={j}",
                ["nonfullness", "--algebra", "sl2_trivial(1)", "--v", files["rep:k"],
                 "--w", files["rep:k"], "-i", str(i), "-j", str(j)],
                lambda rep, want=int(i - j == 3): rep["dim"] == want,
            ))
        qs += self._hom_queries(mods, files)
        for name, cr in reps.items():
            qs.append(self._q(
                "frobenius-check", name,
                ["frobenius-check", "--algebra", cr.alg.name, "--q", files[f"rep:{name}"]],
                lambda rep: rep["ok"] is True,
            ))
        qs.append(self._q("ds", "malformed", ["ds", "--module", files["bad"], "--point", "1"],
                          None, code=2))
        mix = describe([e.module for e in mods.values()])
        mix["commands"] = dict(sorted(Counter(q.kind for q in qs).items()))
        return qs, mix

    def _lifting_queries(self, mods, morphs, files):
        """`decompose` and `is-projective` on every other corpus module,
        against its `induced` and `reduced_dim` labels, and `stable-eq`
        of each corpus morphism against zero, against `stably_zero`."""
        qs = []
        for name, e in mods.items():
            if name == ADJOINT:
                continue
            v = e.module
            qs.append(self._q(
                "decompose", name, ["decompose", "--module", files[name]],
                lambda r, v=v, e=e: r["reduced_dim"] == e.reduced_dim
                and r["induced_dim"] == v.total_dim - e.reduced_dim
                and r["q_dim"] * 2**v.alg.dim1 == r["induced_dim"],
            ))
            qs.append(self._q(
                "is-projective", name, ["is-projective", "--module", files[name]],
                lambda r, v=v, e=e: r["projective"] is e.induced
                and (not e.induced
                     or self._lift_ok(r["certificates"]["section"], gradedmod.identity_map(v))),
            ))
        for name, e in morphs.items():
            qs.append(self._q(
                "stable-eq", name,
                ["stable-eq", "--f", files[f"{name}.f"], "--g", files[f"{name}.zero"]],
                lambda r, e=e: r["stably_equal"] is e.stably_zero
                and (not e.stably_zero or self._lift_ok(r["certificates"]["lift"], e.map)),
            ))
        return qs

    def _hom_queries(self, mods, files):
        """`hom` from each corpus module to the next one over the same algebra."""
        groups = {}
        for name, e in mods.items():
            groups.setdefault(e.module.alg.name, []).append((name, e.module))
        qs = []
        for group in groups.values():
            for k, (name, v) in enumerate(group):
                wname, w = group[(k + 1) % len(group)]
                dim = _memo(lambda v=v, w=w: exact.hom_dim(v, w))

                def check(rep, v=v, w=w, dim=dim):
                    # map_from_json runs check_map on every basis map
                    basis = [serialize.map_from_json(b) for b in rep["basis"]]
                    vecs = [
                        {(j, r, c): x for j, m in b.comps.items()
                         for r, row in enumerate(m.data) for c, x in enumerate(row) if x}
                        for b in basis
                    ]
                    cols = {key: i for i, key in enumerate(sorted({k for vec in vecs for k in vec}))}
                    return (
                        rep["dim"] == len(basis) == dim()
                        and all(b.source == v and b.target == w for b in basis)
                        and exact.sparse_rank([{cols[k]: x for k, x in vec.items()}
                                               for vec in vecs]) == len(basis)
                    )

                qs.append(self._q("hom", f"{name}->{wname}",
                                  ["hom", "--module", files[name], "--other", files[wname]],
                                  check))
        return qs

    @staticmethod
    def _ce_expected(cr) -> dict:
        """H^p(g0, Q): dim Q in degree 0 for g0 = 0; for g0 = sl2 the
        invariants times H(sl2, k) = (1, 0, 0, 1), and only the trivial
        summands of the shipped Q carry invariants."""
        q = cr.rep
        if cr.alg.dim0 == 0:
            return {0: q.dim} if q.dim else {}
        inv = q.dim if all(m.is_zero() for m in q.mats) else 0
        return {0: inv, 3: inv} if inv else {}


WORKLOADS = {"fiber-sweep": FiberSweep, "cli-corpus": CliCorpus}
