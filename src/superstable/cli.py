"""Command-line front end.

Every subcommand emits a report (text or JSON) whose numbers are exact
rationals rendered as "p/q", and positive answers carry certificate
matrices so they can be re-checked with the linear algebra layer alone.

Exit codes: 0 success, 1 validation/precondition failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus as corpus_mod
from .algebra import validate as validate_algebra
from .cohomology import (
    cech_closed_form,
    cech_line_bundle,
    check_ce_size,
    check_nonfullness_size,
    chevalley_eilenberg,
    ext_twisted,
    koszul_odd,
    nonfullness_ext,
)
from .dsvariety import (
    ds_at,
    random_points,
    support_check,
    variety_ideal,
)
from .gradedmod import (
    ModuleError,
    dual,
    hom_graded,
    induced_module,
    shift,
    tensor,
)
from .projstable import (
    decompose,
    frobenius_check,
    is_projective,
    is_reduced,
    projective_certificate,
    stable_equal_certificate,
)
from .rigid import L_of, OddPoint, V_of, fiber, fiber_cohomology
from .serialize import (
    FormatError,
    complex_to_json,
    dump,
    dumps,
    load_algebra,
    load_complex,
    load_map,
    load_module,
    load_rep,
    load_reps,
    map_to_json,
    matrix_to_json,
    module_to_json,
    polynomial_to_json,
    scalar_from_str,
    scalar_to_str,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BADINPUT = 2

# largest --sample of `variety` and `support-check`, measured: at 1000
# points on sl2_adjoint_natural, the heaviest corpus module, either command
# takes 1.4-2.1 s (2-CPU host)
MAX_SAMPLE = 1000


def _parse_point(text: str) -> OddPoint:
    try:
        return OddPoint(tuple(scalar_from_str(t.strip()) for t in text.split(",")))
    except ValueError as exc:
        raise FormatError(f"bad point {text!r}: {exc}") from exc


def _sample_count(text: str) -> int:
    """argparse type of a sample count: a positive integer, at most
    `MAX_SAMPLE`."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    if n > MAX_SAMPLE:
        raise argparse.ArgumentTypeError(f"at most {MAX_SAMPLE} points can be sampled, got {n}")
    return n


def _table_json(table):
    return {str(k): v for k, v in table.entries}


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(dumps(report, sort_keys=True))
        return
    for line in report.get("lines", []):
        print(line)


def _report(command: str, lines, **results):
    return {"command": command, "lines": list(lines), **results}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, report)


def _cmd_validate(args):
    g = load_algebra(args.algebra, check=False)
    rep = validate_algebra(g)
    lines = [f"algebra: {g.name or '<inline>'} (dim0={g.dim0}, dim1={g.dim1})"]
    for key in ("antisymmetry", "jacobi", "representation"):
        lines.append(f"  {key}: {'ok' if getattr(rep, key) else 'FAIL'}")
    code = EXIT_OK if rep.ok else EXIT_FAIL
    return code, _report("validate", lines, report=rep.as_dict())


def _cmd_module_info(args):
    v = load_module(args.module)
    lines = [
        f"algebra: {v.alg.name or '<inline>'} (dim0={v.alg.dim0}, dim1={v.alg.dim1})",
        f"window: [{v.lo}, {v.hi}]",
        f"dims: {list(v.dims)}",
        f"total dim: {v.total_dim}",
    ]
    return EXIT_OK, _report(
        "module-info",
        lines,
        lo=v.lo,
        hi=v.hi,
        dims=list(v.dims),
        total_dim=v.total_dim,
    )


def _unwritable(exc: OSError, path: str) -> FormatError:
    """An output path the OS refuses, reported as unreadable inputs are:
    as malformed input (exit 2), in one line naming the path."""
    return FormatError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _dump_or_show(args, obj_json, label):
    if getattr(args, "out", None):
        try:
            dump(obj_json, args.out)
        except OSError as exc:
            raise _unwritable(exc, args.out) from exc
        return [f"{label} written to {args.out}"]
    return [f"{label}: {json.dumps(obj_json)}"]


def _cmd_shift(args):
    v = shift(load_module(args.module), args.by)
    j = module_to_json(v)
    return EXIT_OK, _report("shift", _dump_or_show(args, j, "shifted module"), module=j)


def _cmd_tensor(args):
    v = tensor(load_module(args.module), load_module(args.other))
    j = module_to_json(v)
    return EXIT_OK, _report("tensor", _dump_or_show(args, j, "tensor product"), module=j)


def _cmd_dual(args):
    v = dual(load_module(args.module))
    j = module_to_json(v)
    return EXIT_OK, _report("dual", _dump_or_show(args, j, "dual module"), module=j)


def _cmd_hom(args):
    v = load_module(args.module)
    w = load_module(args.other)
    basis = hom_graded(v, w)
    lines = [f"dim Hom(V, W) = {len(basis)}"]
    return EXIT_OK, _report(
        "hom", lines, dim=len(basis), basis=[map_to_json(b) for b in basis]
    )


def _cmd_induce(args):
    g = load_algebra(args.algebra)
    v = induced_module(load_rep(args.q, g), base_degree=args.base)
    j = module_to_json(v)
    lines = [f"induced module dims: {list(v.dims)}"] + _dump_or_show(args, j, "module")
    return EXIT_OK, _report("induce", lines, module=j)


def _cmd_rigid(args):
    path = args.path or args.module
    if path is None:
        raise FormatError("rigid: provide a file (positional or --module)")
    if args.mode == "l":
        l = L_of(load_module(path))
        j = complex_to_json(l)
        return EXIT_OK, _report("rigid l", _dump_or_show(args, j, "complex"), complex=j)
    if args.mode == "v":
        v = V_of(load_complex(path))
        j = module_to_json(v)
        return EXIT_OK, _report("rigid v", _dump_or_show(args, j, "module"), module=j)
    if args.mode == "fiber":
        if args.point is None:
            raise FormatError("rigid fiber requires --point")
        l = load_complex(path)
        table = fiber_cohomology(fiber(l, _parse_point(args.point)))
        lines = [f"fiber cohomology: {dict(table.entries)}"]
        return EXIT_OK, _report("rigid fiber", lines, cohomology=_table_json(table))
    # roundtrip
    v = load_module(path)
    ok = V_of(L_of(v)) == v
    lines = [f"V(L(V)) = V: {'exact' if ok else 'MISMATCH'}"]
    return (EXIT_OK if ok else EXIT_FAIL), _report("rigid roundtrip", lines, exact=ok)


def _cmd_ds(args):
    v = load_module(args.module)
    res = ds_at(v, _parse_point(args.point))
    lines = [
        f"dim M = {res.total_dim}, rank x_M = {res.rank_x}, ds_dim = {res.ds_dim}",
        f"graded fiber: {dict(res.per_degree.entries)}",
    ]
    return EXIT_OK, _report(
        "ds",
        lines,
        total_dim=res.total_dim,
        rank=res.rank_x,
        ds_dim=res.ds_dim,
        per_degree=_table_json(res.per_degree),
    )


def _cmd_variety(args):
    v = load_module(args.module)
    if args.ideal:
        ideal = variety_ideal(v)
        lines = [f"ideal generators: {len(ideal.generators)}"]
        gens = [polynomial_to_json(p) for p in ideal.generators]
        return EXIT_OK, _report(
            "variety", lines, nvars=ideal.nvars, generators=gens
        )
    pts = random_points(v.alg.dim1, args.sample, args.seed)
    rows = [
        {
            "index": k,
            "point": [scalar_to_str(c) for c in e.point.coords],
            "in_variety": e.in_variety,
        }
        for k, e in enumerate(support_check(v, pts).entries)
    ]
    inside = sum(1 for r in rows if r["in_variety"])
    lines = [f"sampled {len(rows)} points; {inside} in the variety"]
    return EXIT_OK, _report("variety", lines, samples=rows)


def _cmd_support_check(args):
    v = load_module(args.module)
    pts = random_points(v.alg.dim1, args.sample, args.seed)
    rep = support_check(v, pts)
    lines = []
    for k, e in enumerate(rep.entries):
        lines.append(
            f"point {k}: fiber total {e.per_degree.total}, ds_dim {e.ds_dim}, "
            f"in variety {e.in_variety}, consistent {e.consistent}"
        )
    lines.append(f"all consistent: {rep.ok}")
    return EXIT_OK, _report(
        "support-check",
        lines,
        ok=rep.ok,
        entries=[
            {
                "index": k,
                "point": [scalar_to_str(c) for c in e.point.coords],
                "fiber_total": e.per_degree.total,
                "ds_dim": e.ds_dim,
                "in_variety": e.in_variety,
                "consistent": e.consistent,
            }
            for k, e in enumerate(rep.entries)
        ],
    )


def _cmd_decompose(args):
    v = load_module(args.module)
    dec = decompose(v)
    lines = [
        f"dim V = {v.total_dim}",
        f"induced part: {dec.induced_part.total_dim} (Q dim {dec.q_dim})",
        f"reduced part: {dec.reduced_part.total_dim}",
    ]
    return EXIT_OK, _report(
        "decompose",
        lines,
        total_dim=v.total_dim,
        q_dim=dec.q_dim,
        induced_dim=dec.induced_part.total_dim,
        reduced_dim=dec.reduced_part.total_dim,
        certificates={
            "projector": {
                str(j): matrix_to_json(dec.projector.comp_at(j)) for j in v.degrees()
            },
            "reduced_basis": {
                str(j): matrix_to_json(dec.reduced_embedding.comp_at(j))
                for j in v.degrees()
                if dec.reduced_part.dim_at(j)
            },
        },
    )


def _cmd_is_projective(args):
    v = load_module(args.module)
    ok = is_projective(v)
    lines = [f"projective: {'yes' if ok else 'no'}"]
    results = {"projective": ok}
    if ok:  # the rank test decides; the section, of size 2^n * dim V, certifies
        section = projective_certificate(v)
        if section is None:
            raise ModuleError("a projective module has no section; upstream invariant violated")
        results["certificates"] = {"section": map_to_json(section)}
    return EXIT_OK, _report("is-projective", lines, **results)


def _cmd_is_reduced(args):
    v = load_module(args.module)
    ok = is_reduced(v)
    lines = [f"reduced: {'yes' if ok else 'no'}"]
    return EXIT_OK, _report("is-reduced", lines, reduced=ok)


def _cmd_stable_eq(args):
    paths = [p for p in (args.f, args.g) if p] + (args.map or [])
    if len(paths) != 2:
        raise FormatError("stable-eq needs exactly two maps (--f/--g or --map twice)")
    seen = {}  # f and g usually share their modules: validate each once
    f = load_map(paths[0], seen)
    g = load_map(paths[1], seen)
    lift = stable_equal_certificate(f, g)
    equal = lift is not None
    lines = [f"result: {'stably equal' if equal else 'NOT stably equal'}"]
    results = {"stably_equal": equal}
    if equal:
        results["certificates"] = {"lift": map_to_json(lift)}
    return EXIT_OK, _report("stable-eq", lines, **results)


def _cmd_frobenius_check(args):
    g = load_algebra(args.algebra)
    ok = frobenius_check(load_rep(args.q, g))
    lines = [f"induced/coinduced comparison: {'ok' if ok else 'FAIL'}"]
    return (EXIT_OK if ok else EXIT_FAIL), _report("frobenius-check", lines, ok=ok)


def _cmd_cech(args):
    table = cech_line_bundle(args.r, args.d)
    closed = cech_closed_form(args.r, args.d)
    agree = table.as_dict() == closed.as_dict()
    lines = [f"H^p(P^{args.r}, O({args.d})): {dict(table.entries)}"]
    if not agree:
        lines.append("WARNING: disagrees with the closed form")
    return (EXIT_OK if agree else EXIT_FAIL), _report(
        "cech", lines, cohomology=_table_json(table), closed_form_agrees=agree
    )


def _cmd_ext(args):
    desc = ext_twisted(args.i, args.j, args.r)
    lines = [f"twists ({args.i} -> {args.j}) on P^{args.r}: total dim {desc.total_dim}"]
    for e in desc.entries:
        lines.append(
            f"  l={e.cohom_degree}: dim {e.dim}, sym degree {e.sym_degree}, "
            f"top twist {'present' if e.top_twist_present else 'absent'}"
        )
    lines.append(f"note: {desc.note}")
    return EXIT_OK, _report(
        "ext",
        lines,
        entries=[
            {
                "l": e.cohom_degree,
                "sym_degree": e.sym_degree,
                "top_twist_present": e.top_twist_present,
                "dim": e.dim,
            }
            for e in desc.entries
        ],
        warnings=[desc.note],
    )


def _cmd_ce(args):
    g = load_algebra(args.algebra)
    # refused by the file's dim, before its matrices are built
    q = load_rep(args.module, g, lambda dim: check_ce_size(g.dim0, dim))
    table = chevalley_eilenberg(q)
    lines = [f"H^p(g0, V): {dict(table.entries)}"]
    return EXIT_OK, _report("ce", lines, cohomology=_table_json(table))


def _cmd_koszul(args):
    g = load_algebra(args.algebra)
    v = load_module(args.module)
    if g != v.alg:
        raise FormatError(
            f"koszul: --algebra {args.algebra} is not the algebra of the module "
            f"({v.alg.name or 'inline'})"
        )
    table = koszul_odd(v, args.pmax)
    lines = [f"H^p: {dict(table.entries)}"]
    return EXIT_OK, _report("koszul", lines, cohomology=_table_json(table))


def _cmd_nonfullness(args):
    g = load_algebra(args.algebra)
    # refused by the files' dims, before their matrices are built
    v, w = load_reps((args.v, args.w), g, functools.partial(check_nonfullness_size, g, args.i, args.j))
    dim = nonfullness_ext(v, w, args.i, args.j)
    lines = [f"obstruction dim: {dim} ({'does not vanish' if dim else 'vanishes'})"]
    return EXIT_OK, _report("nonfullness", lines, dim=dim)


def _cmd_corpus(args):
    mods = corpus_mod.corpus_modules()
    lines = []
    entries = []
    for name, e in sorted(mods.items()):
        lines.append(
            f"{name}: dims {list(e.module.dims)}, total {e.module.total_dim}, "
            f"{'induced' if e.induced else 'general'}"
        )
        entries.append(
            {
                "name": name,
                "dims": list(e.module.dims),
                "total_dim": e.module.total_dim,
                "induced": e.induced,
            }
        )
    if args.write:
        import os

        try:
            os.makedirs(args.write, exist_ok=True)
            for name, e in mods.items():
                dump(module_to_json(e.module), os.path.join(args.write, f"{name}.json"))
        except OSError as exc:
            raise _unwritable(exc, args.write) from exc
        lines.append(f"written to {args.write}")
    return EXIT_OK, _report("corpus", lines, entries=entries)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superstable",
        description="exact computations with graded modules over Lie superalgebras",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--seed", type=int, default=0)
    # the same globals are accepted after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    p = add_parser("validate")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = add_parser("module-info")
    p.add_argument("--module", required=True)
    p.set_defaults(fn=_cmd_module_info)

    p = add_parser("shift")
    p.add_argument("--module", required=True)
    p.add_argument("--by", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_shift)

    p = add_parser("tensor")
    p.add_argument("--module", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tensor)

    p = add_parser("dual")
    p.add_argument("--module", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dual)

    p = add_parser("hom")
    p.add_argument("--module", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(fn=_cmd_hom)

    p = add_parser("induce")
    p.add_argument("--algebra", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_induce)

    p = add_parser("rigid")
    p.add_argument("mode", choices=("l", "v", "fiber", "roundtrip"))
    p.add_argument("path", nargs="?")
    p.add_argument("--module")
    p.add_argument("--point")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rigid)

    p = add_parser("ds")
    p.add_argument("--module", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=_cmd_ds)

    p = add_parser("variety")
    p.add_argument("--module", required=True)
    p.add_argument("--ideal", action="store_true")
    p.add_argument("--sample", type=_sample_count, default=20)
    p.set_defaults(fn=_cmd_variety)

    p = add_parser("support-check")
    p.add_argument("--module", required=True)
    p.add_argument("--sample", type=_sample_count, default=25)
    p.set_defaults(fn=_cmd_support_check)

    p = add_parser("decompose")
    p.add_argument("--module", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = add_parser("is-projective")
    p.add_argument("--module", required=True)
    p.set_defaults(fn=_cmd_is_projective)

    p = add_parser("is-reduced")
    p.add_argument("--module", required=True)
    p.set_defaults(fn=_cmd_is_reduced)

    p = add_parser("stable-eq")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--map", action="append")
    p.set_defaults(fn=_cmd_stable_eq)

    p = add_parser("frobenius-check")
    p.add_argument("--algebra", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=_cmd_frobenius_check)

    p = add_parser("cech")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(fn=_cmd_cech)

    p = add_parser("ext")
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(fn=_cmd_ext)

    p = add_parser("ce")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(fn=_cmd_ce)

    p = add_parser("koszul")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--pmax", type=int, default=6)
    p.set_defaults(fn=_cmd_koszul)

    p = add_parser("nonfullness")
    p.add_argument("--algebra", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.set_defaults(fn=_cmd_nonfullness)

    p = add_parser("corpus")
    p.add_argument("--write")
    p.set_defaults(fn=_cmd_corpus)

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later `main`
    call in the process (parsing keeps no state between calls)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_BADINPUT if exc.code not in (0, None) else 0
    try:
        code, report = args.fn(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BADINPUT
    except ValueError as exc:  # ModuleError and HypothesisError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report["exit_code"] = code
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
