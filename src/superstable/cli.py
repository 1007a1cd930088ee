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
import os
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


def _emit(report: dict, lines, fmt: str):
    """The answer once: the JSON report, or the text lines."""
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    for line in lines:
        print(line)


def _report(command: str, lines, **results):
    """(text lines, JSON report) of a command's answer."""
    return list(lines), {"command": command, **results}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, (text lines, report))


def _algebra_line(g):
    """(text line, report field) naming an algebra and its dimensions; the
    name is "" for an unnamed inline algebra."""
    return (f"algebra: {g.name or '<inline>'} (dim0={g.dim0}, dim1={g.dim1})",
            {"name": g.name, "dim0": g.dim0, "dim1": g.dim1})


def _cmd_validate(args):
    g = load_algebra(args.algebra, check=False)
    rep = validate_algebra(g)
    line, alg = _algebra_line(g)
    lines = [line]
    for key in ("antisymmetry", "jacobi", "representation"):
        lines.append(f"  {key}: {'ok' if rep[key] else 'FAIL'}")
    return EXIT_OK if rep["ok"] else EXIT_FAIL, _report("validate", lines, algebra=alg, report=rep)


def _cmd_module_info(args):
    v = load_module(args.module)
    line, alg = _algebra_line(v.alg)
    lines = [
        line,
        f"window: [{v.lo}, {v.hi}]",
        f"dims: {list(v.dims)}",
        f"total dim: {v.total_dim}",
    ]
    return EXIT_OK, _report(
        "module-info",
        lines,
        algebra=alg,
        lo=v.lo,
        hi=v.hi,
        dims=list(v.dims),
        total_dim=v.total_dim,
    )


def _unwritable(exc: OSError, path: str) -> FormatError:
    """An output path the OS refuses, reported as unreadable inputs are:
    as malformed input (exit 2), in one line naming the path."""
    return FormatError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _object_report(args, command, key, obj_json, label, lines=()):
    """The report of a command whose answer is one object, under `key`.
    Written to --out, if given, and the path reported as `written_to`;
    else shown in a text line, which a JSON report does not repeat."""
    lines, fields = list(lines), {key: obj_json}
    if args.out:
        try:
            dump(obj_json, args.out)
        except OSError as exc:
            raise _unwritable(exc, args.out) from exc
        lines.append(f"{label} written to {args.out}")
        fields["written_to"] = args.out
    elif args.format == "text":
        lines.append(f"{label}: {json.dumps(obj_json)}")
    return EXIT_OK, _report(command, lines, **fields)


def _cmd_shift(args):
    v = shift(load_module(args.module), args.by)
    return _object_report(args, "shift", "module", module_to_json(v), "shifted module")


def _cmd_tensor(args):
    v = tensor(load_module(args.module), load_module(args.other))
    return _object_report(args, "tensor", "module", module_to_json(v), "tensor product")


def _cmd_dual(args):
    v = dual(load_module(args.module))
    return _object_report(args, "dual", "module", module_to_json(v), "dual module")


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
    return _object_report(args, "induce", "module", module_to_json(v), "module",
                          [f"induced module dims: {list(v.dims)}"])


def _cmd_rigid_l(args):
    c = L_of(load_module(args.module))
    return _object_report(args, "rigid l", "complex", complex_to_json(c), "complex")


def _cmd_rigid_v(args):
    v = V_of(load_complex(args.module))
    return _object_report(args, "rigid v", "module", module_to_json(v), "module")


def _cmd_rigid_fiber(args):
    table = fiber_cohomology(fiber(load_complex(args.module), _parse_point(args.point)))
    lines = [f"fiber cohomology: {dict(table.entries)}"]
    return EXIT_OK, _report("rigid fiber", lines, cohomology=_table_json(table))


def _cmd_rigid_roundtrip(args):
    v = load_module(args.module)
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
    pts = random_points(v.alg.dim1, args.sample or 20, args.seed)
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
    rows = [
        {
            "index": k,
            "point": [scalar_to_str(c) for c in e.point.coords],
            "fiber_total": e.per_degree.total,
            "ds_dim": e.ds_dim,
            "in_variety": e.in_variety,
            "consistent": e.consistent,
        }
        for k, e in enumerate(rep.entries)
    ]
    lines = [f"point {r['index']}: fiber total {r['fiber_total']}, ds_dim {r['ds_dim']}, "
             f"in variety {r['in_variety']}, consistent {r['consistent']}" for r in rows]
    lines.append(f"all consistent: {rep.ok}")
    return EXIT_OK, _report("support-check", lines, ok=rep.ok, entries=rows)


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
    seen = {}  # f and g usually share their modules: validate each once
    f = load_map(args.f, seen)
    g = load_map(args.g, seen)
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
    entries = [
        {"name": name, "dims": list(e.module.dims), "total_dim": e.module.total_dim, "induced": e.induced}
        for name, e in sorted(mods.items())
    ]
    lines = [f"{r['name']}: dims {r['dims']}, total {r['total_dim']}, "
             f"{'induced' if r['induced'] else 'general'}" for r in entries]
    if not args.write:
        return EXIT_OK, _report("corpus", lines, entries=entries)
    try:
        os.makedirs(args.write, exist_ok=True)
        for name, e in mods.items():
            dump(module_to_json(e.module), os.path.join(args.write, f"{name}.json"))
    except OSError as exc:
        raise _unwritable(exc, args.write) from exc
    lines.append(f"written to {args.write}")
    return EXIT_OK, _report("corpus", lines, entries=entries, written_to=args.write)


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

    # one sub-command per mode, each taking only the options it reads
    # (dest names the mode in the parser's message when it is missing)
    modes = add_parser("rigid").add_subparsers(dest="mode", required=True)
    for mode, fn in (("l", _cmd_rigid_l), ("v", _cmd_rigid_v),
                     ("fiber", _cmd_rigid_fiber), ("roundtrip", _cmd_rigid_roundtrip)):
        p = modes.add_parser(mode, parents=[common])
        p.add_argument("--module", required=True)
        if mode in ("l", "v"):
            p.add_argument("--out")
        if mode == "fiber":
            p.add_argument("--point", required=True)
        p.set_defaults(fn=fn)

    p = add_parser("ds")
    p.add_argument("--module", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=_cmd_ds)

    p = add_parser("variety")
    p.add_argument("--module", required=True)
    one = p.add_mutually_exclusive_group()
    one.add_argument("--ideal", action="store_true")
    one.add_argument("--sample", type=_sample_count)  # 20 points if absent
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
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
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
        code, (lines, report) = args.fn(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BADINPUT
    except ValueError as exc:  # ModuleError and HypothesisError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report["exit_code"] = code
    _emit(report, lines, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
