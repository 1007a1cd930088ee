"""JSON (de)serialization for every on-disk object.

Scalars are strings "p/q" (or "p" when the denominator is 1); matrices
are nested arrays, with a sparse {rows, cols, entries} form also
accepted on input; the even bracket travels as sparse (i, j, k, value)
triples.  Algebra references inside module files may be a built-in name
like "sl2_trivial(2)" or an inline algebra object.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    SuperAlgebra,
    builtin_algebra,
    check_algebra_size,
    validate,
)
from .gradedmod import MAX_EXTERIOR_SIZE, GradedMap, GradedModule, Rep, make_map, make_module
from .linalg import Matrix, Polynomial


_ZERO = Fraction(0)


class FormatError(ValueError):
    """Malformed input file or JSON object."""


def scalar_to_str(x) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_from_str(s) -> Fraction:
    """An exact scalar from a string "p" or "p/q" or a JSON integer; floats
    and booleans are refused, as a float is already rounded.  The string
    "0", the most common entry, is the shared zero."""
    if s == "0":
        return _ZERO
    if isinstance(s, (bool, float)) or isinstance(s, str) and any(ch in s for ch in ".eE"):
        raise FormatError(f"bad scalar {s!r}: expected integer or p/q")
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad scalar {s!r}") from exc


def int_from_json(x, what: str, lo=None, hi=None) -> int:
    """An integer field: a JSON integer or a string of decimal digits.

    Booleans, floats and other strings are refused rather than coerced,
    as are values outside [lo, hi] when those bounds are given.
    """
    if isinstance(x, bool) or not (
        isinstance(x, int) or isinstance(x, str) and re.fullmatch(r"[-+]?\d+", x.strip())
    ):
        raise FormatError(f"{what} must be an integer, got {json.dumps(x)}")
    n = int(x)
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise FormatError(f"{what} must be {bounds}, got {n}")
    return n


def _obj(x, what: str) -> dict:
    """x, which must be a JSON object."""
    if not isinstance(x, dict):
        raise FormatError(f"{what} must be an object, got {json.dumps(x)[:40]}")
    return x


def _field(obj, key: str, what: str):
    """obj[key], where obj must be a JSON object holding key."""
    if key not in _obj(obj, what):
        raise FormatError(f"{what} is missing the field {key!r}")
    return obj[key]


def _array(x, what: str, length=None) -> list:
    """x, which must be a JSON array, of `length` items when given."""
    if not isinstance(x, list):
        raise FormatError(f"{what} must be an array, got {json.dumps(x)[:40]}")
    if length is not None and len(x) != length:
        raise FormatError(f"{what} must have {length} items, got {len(x)}")
    return x


def matrix_to_json(m: Matrix):
    return m.format_rows(scalar_to_str)


def matrix_from_json(obj, rows=None, cols=None) -> Matrix:
    # every entry is checked by scalar_from_str, which gives a Fraction:
    # from_nonzeros hands Fractions on as they are
    if obj == [] and rows is not None:
        # an empty array stands for a zero matrix of any size; any other
        # matrix has its slot's shape
        return Matrix.zero(rows, cols)
    if isinstance(obj, dict):
        # no larger than the expected shape, which bounds the allocation
        r = int_from_json(_field(obj, "rows", "sparse matrix"), "matrix rows", lo=0, hi=rows)
        c = int_from_json(_field(obj, "cols", "sparse matrix"), "matrix cols", lo=0, hi=cols)
        given = {}
        for entry in _array(obj.get("entries", []), "sparse matrix entries"):
            i, j, v = _array(entry, "sparse matrix entry [row, column, value]", 3)
            i = int_from_json(i, "matrix entry row", lo=0, hi=r - 1)
            j = int_from_json(j, "matrix entry column", lo=0, hi=c - 1)
            if (i, j) in given:
                raise FormatError(f"sparse matrix entry ({i}, {j}) is given twice")
            given[i, j] = scalar_from_str(v)
        m = Matrix.from_nonzeros(r, c, ((i, j, x) for (i, j), x in given.items()))
    else:
        if not isinstance(obj, list):
            raise FormatError("matrix must be a nested array or a sparse object")
        for row in obj:
            _array(row, "matrix row")
        r = len(obj)
        c = len(obj[0]) if r else 0
        if any(len(row) != c for row in obj):
            raise FormatError("ragged matrix rows")
        m = Matrix.from_nonzeros(r, c, [(i, j, x) for i, row in enumerate(obj) for j, s in enumerate(row)
                                        if (x := scalar_from_str(s))])
    if rows is not None and (m.rows, m.cols) != (rows, cols):
        raise FormatError(f"matrix shape {(m.rows, m.cols)}, expected {(rows, cols)}")
    return m


def polynomial_to_json(p: Polynomial):
    return [
        {"exponents": list(e), "coefficient": scalar_to_str(c)}
        for e, c in p.sorted_terms()
    ]


def polynomial_from_json(obj, nvars: int) -> Polynomial:
    terms = {}
    for t in _array(obj, "polynomial"):
        exps = _array(_field(t, "exponents", "polynomial term"), "exponents", nvars)
        e = tuple(int_from_json(x, "exponent", lo=0) for x in exps)
        c = scalar_from_str(_field(t, "coefficient", "polynomial term"))
        terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(nvars, terms)


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(g: SuperAlgebra):
    triples = []
    for i in range(g.dim0):
        for j in range(g.dim0):
            for k in range(g.dim0):
                v = g.bracket[i][j][k]
                if v != 0:
                    triples.append([i, j, k, scalar_to_str(v)])
    out = {
        "dim0": g.dim0,
        "bracket": triples,
        "dim1": g.dim1,
        "action": [matrix_to_json(a) for a in g.action],
    }
    if g.name:
        out["name"] = g.name
    return out


def algebra_from_json(obj, check: bool = True) -> SuperAlgebra:
    """The algebra of a file object: validated, unless `check` is false
    (for a caller that reports the validation itself).  Every validated
    load of one content and name returns the same object (`_validated`)."""
    if isinstance(obj, str):
        try:
            return builtin_algebra(obj)
        except (KeyError, ValueError) as exc:
            raise FormatError(exc.args[0]) from exc
    dim0 = int_from_json(_field(obj, "dim0", "algebra"), "dim0", lo=0)
    dim1 = int_from_json(_field(obj, "dim1", "algebra"), "dim1", lo=0)
    try:
        check_algebra_size(dim0, dim1, "the algebra")
    except ValueError as exc:
        raise FormatError(exc.args[0]) from exc
    c = [[[Fraction(0)] * dim0 for _ in range(dim0)] for _ in range(dim0)]
    given = set()
    for t in _array(obj.get("bracket", []), "bracket"):
        i, j, k, v = _array(t, "bracket entry [i, j, k, value]", 4)
        i, j, k = (int_from_json(x, "bracket index", lo=0, hi=dim0 - 1) for x in (i, j, k))
        if (i, j, k) in given:
            raise FormatError(f"bracket entry ({i}, {j}, {k}) is given twice")
        given.add((i, j, k))
        c[i][j][k] = scalar_from_str(v)
    action = tuple(
        matrix_from_json(a, dim1, dim1) for a in _array(obj.get("action", []), "action")
    )
    if len(action) != dim0:
        raise FormatError("need one odd-action matrix per even basis element")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise FormatError(f"algebra name must be a string, got {json.dumps(name)[:40]}")
    g = SuperAlgebra(dim0, c, dim1, action, name=name)
    return _validated(g, name) if check else g


# inline algebras kept, by their whole record with the name: each is
# validated, and its generating sets and semisimplicity found, once per
# process while it stays among these, as built-ins are
_INLINE_KEPT = 32


@lru_cache(maxsize=_INLINE_KEPT)
def _validated(g: SuperAlgebra, name: str) -> SuperAlgebra:
    """g, once it passes `validate`; the first such object of its content
    and name.  A refusal raises and so is never kept."""
    if not (rep := validate(g))["ok"]:
        raise FormatError(f"algebra fails validation: {rep['failures']}")
    return g


# ---------------------------------------------------------------------------
# g0-representations


def rep_to_json(q: Rep):
    return {"dim": q.dim, "mats": [matrix_to_json(m) for m in q.mats]}


def _rep_dim(obj) -> int:
    # bounded before any matrix is built, as a module's total dimension is
    return int_from_json(_field(obj, "dim", "representation"), "dim", lo=0, hi=MAX_EXTERIOR_SIZE)


def rep_from_json(obj, alg: SuperAlgebra) -> Rep:
    """A representation of alg's even part, validated: the one place a
    Rep is checked."""
    dim = _rep_dim(obj)
    mats = tuple(matrix_from_json(m, dim, dim) for m in _array(obj.get("mats", []), "mats"))
    if len(mats) != alg.dim0:
        raise FormatError("need one representation matrix per even basis element")
    q = Rep(alg, dim, mats)
    q.check()
    return q


# ---------------------------------------------------------------------------
# modules, maps, complexes


def _algebra_ref(g: SuperAlgebra):
    return g.name if g.name else algebra_to_json(g)


def _graded_to_json(x: GradedModule, key: str):
    """The file object of a module (key "odd") or a rigid complex (key
    "diff"), both graded modules; `_graded_from_json` reads both back."""
    return {
        "algebra": _algebra_ref(x.alg),
        "lo": x.lo,
        "hi": x.hi,
        "dims": list(x.dims),
        "rho0": [[matrix_to_json(m) for m in per] for per in x.rho0],
        key: [[matrix_to_json(m) for m in per] for per in x.odd],
    }


def module_to_json(v: GradedModule):
    return _graded_to_json(v, "odd")


def _graded_from_json(obj, key: str, what: str) -> GradedModule:
    """The validated module (key "odd") or rigid complex (key "diff") of
    a file object, as `_graded_to_json` writes them."""
    alg = algebra_from_json(_field(obj, "algebra", what))
    lo = int_from_json(_field(obj, "lo", what), "lo")
    hi = int_from_json(_field(obj, "hi", what), "hi")
    dims = [int_from_json(d, "dims entry", lo=0) for d in _array(_field(obj, "dims", what), "dims")]
    if len(dims) != hi - lo + 1:
        raise FormatError("dims length does not match the degree window")
    # an empty array stands for a zero matrix of any size, so a short file
    # can ask for a huge module: refuse it before any matrix is built
    if sum(dims) > MAX_EXTERIOR_SIZE:
        raise FormatError(f"the {what} has total dimension {sum(dims)}, over the limit of {MAX_EXTERIOR_SIZE}")
    rho0 = []
    for jx, per in enumerate(_array(_field(obj, "rho0", what), "rho0", len(dims))):
        d = dims[jx]
        rho0.append(tuple(matrix_from_json(m, d, d) for m in _array(per, "rho0 entry")))
        if len(rho0[-1]) != alg.dim0:
            raise FormatError("need one even matrix per even basis element")
    fam = []
    for jx, per in enumerate(_array(_field(obj, key, what), key, len(dims))):
        d = dims[jx]
        dnext = dims[jx + 1] if jx + 1 < len(dims) else 0
        fam.append(tuple(matrix_from_json(m, dnext, d) for m in _array(per, f"{key} entry")))
        if len(fam[-1]) != alg.dim1:
            raise FormatError(f"need one {key} matrix per odd basis element")
    return make_module(alg, lo, hi, dims, rho0, fam)


def module_from_json(obj) -> GradedModule:
    return _graded_from_json(obj, "odd", "module")


def complex_to_json(l: GradedModule):
    """A rigid complex (see `rigid`) under its file key "diff"."""
    return _graded_to_json(l, "diff")


def complex_from_json(obj) -> GradedModule:
    """A rigid complex, validated by the module identities (see `rigid`)."""
    return _graded_from_json(obj, "diff", "complex")


def _module_once(obj, seen: dict) -> GradedModule:
    """module_from_json(obj), built once per canonical JSON text in `seen`
    (text, unlike ==, tells true from 1)."""
    key = json.dumps(obj, sort_keys=True)
    if key not in seen:
        seen[key] = module_from_json(obj)
    return seen[key]


def map_to_json(phi: GradedMap):
    return {
        "source": module_to_json(phi.source),
        "target": module_to_json(phi.target),
        "comps": {
            str(j): matrix_to_json(phi.comp_at(j))
            for j in sorted(set(phi.source.degrees()) | set(phi.target.degrees()))
            if phi.source.dim_at(j) and phi.target.dim_at(j)
        },
    }


def map_from_json(obj, seen=None) -> GradedMap:
    """The checked map; its modules are built through `seen` (see
    `_module_once`), which callers may share between maps, so each
    distinct module object is validated once."""
    seen = {} if seen is None else seen
    src = _module_once(_field(obj, "source", "map"), seen)
    tgt = _module_once(_field(obj, "target", "map"), seen)
    comps = {}
    for j, m in _obj(obj.get("comps", {}), "map comps").items():
        j = int_from_json(j, "component degree")
        if j in comps:
            raise FormatError(f"map component of degree {j} is given twice")
        comps[j] = matrix_from_json(m, tgt.dim_at(j), src.dim_at(j))
    return make_map(src, tgt, comps)


# ---------------------------------------------------------------------------
# file helpers


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bad UTF-8; RecursionError deep nesting
        raise FormatError(f"cannot read {path}: {exc}") from exc


def load_algebra(ref: str, check: bool = True) -> SuperAlgebra:
    """Accept a built-in name like "grassmann(2)" or a JSON file path;
    `check` as in `algebra_from_json`."""
    try:
        return builtin_algebra(ref)
    except KeyError:
        pass
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return algebra_from_json(_read(ref), check)


def load_module(path: str) -> GradedModule:
    return module_from_json(_read(path))


def load_complex(path: str) -> GradedModule:
    return complex_from_json(_read(path))


def load_map(path: str, seen=None) -> GradedMap:
    return map_from_json(_read(path), seen)


def load_reps(paths, alg: SuperAlgebra, check_dims=None) -> list:
    """The representations in the files `paths`.  `check_dims`, when
    given, is called on their dims before any matrix is built, so a
    caller can refuse sizes it cannot use."""
    objs = [_read(p) for p in paths]
    if check_dims is not None:
        check_dims(*(_rep_dim(obj) for obj in objs))
    return [rep_from_json(obj, alg) for obj in objs]


def load_rep(path: str, alg: SuperAlgebra, check_dim=None) -> Rep:
    return load_reps([path], alg, check_dim)[0]


def dump(obj, path: str):
    """Write obj as one line of JSON, dict keys in their own order, plus a
    newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
