"""Lie superalgebras g = g0 + g1 with vanishing odd bracket.

The even part is given by structure constants, the odd part by the
g0-action matrices; the odd bracket [g1, g1] is always zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from .linalg import Matrix, echelon_with, scalar, vanishes
from .record import Record


class SuperAlgebra(Record, uncompared=("name",)):
    """g = g0 + g1 with [g1, g1] = 0.  The even part has basis
    x_1..x_dim0 with [x_i, x_j] = sum_k bracket[i][j][k] x_k; the odd
    part is the dim1-dimensional g0-module with [x_i, e_j] = sum_k
    action[i][k, j] e_k.  The name labels the algebra in files and
    reports and is not part of its identity."""

    dim0: int
    bracket: tuple  # bracket[i][j] is a tuple of dim0 Fractions
    dim1: int
    action: tuple   # one dim1 x dim1 Matrix per even basis index
    name: str = ""

    def __post_init__(self):
        c = tuple(tuple(tuple(scalar(x) for x in cij) for cij in ci) for ci in self.bracket)
        object.__setattr__(self, "bracket", c)
        object.__setattr__(self, "action", tuple(self.action))

    @cached_property
    def _semisimple(self) -> bool:
        # `is_semisimple`, derived and so no field: computed once per object
        return killing_form(self).rank() == self.dim0

    @cached_property
    def _symmetric_part(self) -> dict:
        # (i, j) with i >= j -> the nonzero (k, c_ij^k + c_ji^k): the part of
        # the bracket that antisymmetry would cancel, empty for a Lie algebra
        c = self.bracket
        out = {}
        for i in range(self.dim0):
            for j in range(i + 1):
                terms = tuple((k, x + y) for k, (x, y) in enumerate(zip(c[i][j], c[j][i])) if x + y)
                if terms:
                    out[i, j] = terms
        return out

    @cached_property
    def generators(self) -> tuple:
        """A Lie generating subset of the even basis: every index, less
        each one, in increasing order, that the rest still generate.
        (0, 2), e and f, for sl2 in the basis (e, h, f); every index for
        an abelian g0.  The x that a g-map commutes with form a
        subalgebra, so commuting with these x_i is commuting with g0."""
        return _irredundant(range(self.dim0), lambda idx: _generated_dim(self, idx) == self.dim0)

    @cached_property
    def g1_is_module(self) -> bool:
        """Whether g0 acts on g1 by a representation, as `validate` checks.
        The reduced identity sets below assume it, and are every index
        without it."""
        return representation_failure(self, [a.sparse_rows() for a in self.action], self.dim1) is None

    @cached_property
    def odd_generators(self) -> tuple:
        """Odd indices e whose basis vectors generate g1 as a g0-module:
        (0,) for `sl2_adjoint`.  A g-map's odd squares closed for these e,
        and its even squares closed, close every odd square."""
        ops = [a.transpose().sparse_rows() for a in self.action]
        return _module_generators(self, self.dim1, ops)

    @cached_property
    def square_generators(self) -> tuple:
        """Odd pairs e <= f whose monomials e.f generate the symmetric
        square S^2(g1) as a g0-module, x acting by x.(e.f) = (x.e).f +
        e.(x.f): ((0, 2),) for `sl2_adjoint`, as e.f has a part in each
        of the two summands.  Anticommutation on these pairs implies it
        on every pair, given every mixed identity (`gradedmod`)."""
        pairs = [(e, f) for e in range(self.dim1) for f in range(e, self.dim1)]
        at = {p: k for k, p in enumerate(pairs)}
        cols = [a.transpose().sparse_rows() for a in self.action]
        ops = []
        for col in cols:
            op = []
            for e, f in pairs:
                out = {}
                for k, x in col[e].items():
                    q = at[min(k, f), max(k, f)]
                    out[q] = out.get(q, 0) + x
                for k, x in col[f].items():
                    q = at[min(e, k), max(e, k)]
                    out[q] = out.get(q, 0) + x
                op.append({q: x for q, x in out.items() if x})
            ops.append(op)
        return tuple(pairs[k] for k in _module_generators(self, len(pairs), ops))

    def ad(self, i: int) -> Matrix:
        """Matrix of ad x_i: column j holds the coefficients of [x_i, x_j]."""
        return Matrix(
            self.dim0,
            self.dim0,
            [[self.bracket[i][j][k] for j in range(self.dim0)] for k in range(self.dim0)],
        )


def _closure_dims(n: int, seeds, grow) -> list:
    """For k = 1, 2, ..., the dimension of the smallest subspace of Q^n
    that holds the first k sparse vectors of `seeds`, {index: nonzero
    Fraction}, and is closed under `grow`.  Each vector tried is reduced
    into the echelon form of those kept (`linalg.echelon_with`), and kept
    when it raises the rank; grow(span), given the kept vectors with the
    new one last, then yields the vectors that one forms with them, each
    formed only when it is reached."""
    span, echelon, dims = [], [], []
    for s in seeds:
        todo = [iter((s,))]
        while todo and len(span) < n:
            w = next(todo[-1], None)
            if w is None:
                todo.pop()
                continue
            echelon = echelon_with(echelon, dict(w), n)
            if len(echelon) > len(span):
                span.append(w)
                todo.append(grow(span))
        dims.append(len(span))
    return dims


def _unit(k: int) -> dict:
    return {k: Fraction(1)}


def _irredundant(keep, generates) -> tuple:
    """`keep`, less each index, in increasing order, that the rest still
    generate: a generating set none of whose indices is redundant."""
    keep = list(keep)
    for i in list(keep):
        rest = [k for k in keep if k != i]
        if generates(rest):
            keep = rest
    return tuple(keep)


def _generated_dim(g: SuperAlgebra, idx) -> int:
    """Dimension of the subalgebra of g0 that the basis elements x_i, i in
    `idx`, generate: their span, closed under the bracket of each pair in
    one order, which suffices as every algebra here is a Lie algebra (a
    file's has passed `validate`)."""
    nz = [[[(k, z) for k, z in enumerate(cab) if z] for cab in ca] for ca in g.bracket]

    def bracket(u: dict, v: dict) -> dict:
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                for k, z in nz[a][b]:
                    out[k] = out.get(k, 0) + x * y * z
        return {k: z for k, z in out.items() if z}

    def grow(span):
        new = span[-1]
        for u in span[:-1]:
            yield bracket(u, new)

    return (_closure_dims(g.dim0, [_unit(i) for i in idx], grow) or [0])[-1]


# largest dimension of g1 or S^2(g1) closed under g0 to find a generating
# set; over it the set is every index.  The closure is exact, and in a
# dense action its vectors' entries grow with the dimension: measured in
# process on a 2-CPU host, an abelian g0 acting on g1 by seeded dense
# integer matrices takes at most 0.09 s at S^2 of dimension 28 (dim g1 =
# 7), 0.22 s at 36 and 1.2 s at 55; g1 itself, at most 22-dimensional
# under `MAX_ALGEBRA_ENTRIES`, takes at most 0.08 s
MAX_CLOSURE_DIM = 28


def _module_generators(g: SuperAlgebra, n: int, ops) -> tuple:
    """Basis indices of Q^n whose vectors generate it under the operators
    `ops` of the even basis (ops[i][k]: the image of basis vector k under
    x_i, sparse): each index that is outside the submodule generated by
    the ones before it, less each, in increasing order, that the rest
    still generate.  Every index when g0 acts by zero, when g0 does not
    act on g1 by a representation (`g1_is_module`), or when n is over
    `MAX_CLOSURE_DIM`."""
    if n > MAX_CLOSURE_DIM or not g.g1_is_module or not any(col for op in ops for col in op):
        return tuple(range(n))

    def grow(span):
        new = span[-1]
        for op in ops:
            out = {}
            for k, x in new.items():
                for l, y in op[k].items():
                    out[l] = out.get(l, 0) + x * y
            yield {l: y for l, y in out.items() if y}

    def dim(idx) -> int:
        return (_closure_dims(n, [_unit(k) for k in idx], grow) or [0])[-1]

    dims = _closure_dims(n, [_unit(k) for k in range(n)], grow)
    first = [k for k, d in enumerate(dims) if d > (dims[k - 1] if k else 0)]
    return _irredundant(first, lambda idx: dim(idx) == n)


def representation_failure(alg: SuperAlgebra, mats, dim: int):
    """First (i, j), in lexicographic order, at which [rho_i, rho_j] =
    sum_k c_ij^k rho_k fails, or None if the dim x dim matrices `mats`
    (as `Matrix.sparse_rows`) form a representation of the even part of
    `alg`, antisymmetric or not.

    The product identity is evaluated only for i < j.  At (i, j) with
    i >= j it is minus the one at (j, i), which came first and held,
    plus sum_k (c_ij^k + c_ji^k) rho_k (at i = j that sum is twice
    sum_k c_ii^k rho_k), so only that linear check runs there, and none
    where every coefficient is zero, as for a Lie algebra.
    """
    sym = alg._symmetric_part
    for i in range(alg.dim0):
        for j in range(alg.dim0):
            if i < j:
                terms = [(1, (mats[i], mats[j])), (-1, (mats[j], mats[i]))]
                terms += [(-c, (mats[k],)) for k, c in enumerate(alg.bracket[i][j]) if c]
            elif (i, j) in sym:
                terms = [(c, (mats[k],)) for k, c in sym[i, j]]
            else:
                continue
            if not vanishes(terms, dim):
                return (i, j)
    return None


def validate(g: SuperAlgebra) -> dict:
    """Check antisymmetry, Jacobi, and the g0-representation property on g1.

    Returns {"antisymmetry", "jacobi", "representation": whether each
    holds, "failures": (kind, (i, j)) for the first failing pair of even
    indices of each kind, "ok": whether all three hold}.  Given
    antisymmetry, the Jacobi identity says exactly that ad is a
    representation, [ad x_i, ad x_j] = ad [x_i, x_j], so a Jacobi
    failure is the first pair (i, j) where that fails.
    """
    c, n0 = g.bracket, g.dim0
    ads = [g.ad(i).sparse_rows() for i in range(n0)]
    found = {
        "antisymmetry": next(((i, j) for i in range(n0) for j in range(n0)
                              if any(x != -y for x, y in zip(c[i][j], c[j][i]))), None),
        "jacobi": representation_failure(g, ads, n0),
        "representation": representation_failure(g, [a.sparse_rows() for a in g.action], g.dim1),
    }
    failures = [(kind, bad) for kind, bad in found.items() if bad is not None]
    return {**{kind: bad is None for kind, bad in found.items()}, "failures": failures, "ok": not failures}


def killing_form(g: SuperAlgebra) -> Matrix:
    """K[i][j] = trace(ad x_i . ad x_j) on g0, exact."""
    n0 = g.dim0
    ads = [g.ad(i) for i in range(n0)]
    return Matrix(n0, n0, [[(ads[i] * ads[j]).trace() for j in range(n0)] for i in range(n0)])


def is_semisimple(g: SuperAlgebra) -> bool:
    """Cartan's criterion for g0 over the rationals: the Killing form has
    full rank; dim0 = 0 counts as semisimple.  Decided once per object."""
    return g._semisimple


# largest dim0^3 + dim0 * dim1^2, the entries of the bracket table and of
# the odd action matrices, of a built-in or inline algebra.  A dense
# bracket sets the limit: the Jacobi check multiplies dim0 (dim0 - 1) / 2
# pairs of ad matrices, each product dim0^3 work when they are dense.
# Measured in process on a 2-CPU host: sl4 with its sparse bracket
# (dim0 = 15) validates in under 48 ms, but sl3 in a dense rational
# basis (dim0 = 8, at the limit; a seeded integer unitriangular change
# of basis) takes 0.08 s, and sl4 likewise 2.5 s.  Its generating set,
# found on the first module or map check, takes 0.01-0.02 s more (0.8 s
# on the dense sl4).
MAX_ALGEBRA_ENTRIES = 512


def check_algebra_size(dim0: int, dim1: int, what: str):
    """Refuse `what` when its bracket table and odd action matrices would
    hold more than `MAX_ALGEBRA_ENTRIES` entries, before any is built."""
    entries = dim0 ** 3 + dim0 * dim1 ** 2
    if entries > MAX_ALGEBRA_ENTRIES:
        raise ValueError(
            f"{what} has {entries} bracket and action entries, over the limit of {MAX_ALGEBRA_ENTRIES}"
        )


# ---------------------------------------------------------------------------
# built-in algebras

# sl(2) in the basis (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h
_SL2_BRACKET = [
    # [e, *]:      e        h        f
    [[0, 0, 0], [-2, 0, 0], [0, 1, 0]],
    # [h, *]
    [[2, 0, 0], [0, 0, 0], [0, 0, -2]],
    # [f, *]
    [[0, -1, 0], [0, 0, 2], [0, 0, 0]],
]

SL2_NATURAL = [
    Matrix.from_rows([[0, 1], [0, 0]]),   # e
    Matrix.from_rows([[1, 0], [0, -1]]),  # h
    Matrix.from_rows([[0, 0], [1, 0]]),   # f
]


def grassmann(n: int) -> SuperAlgebra:
    """g0 = 0, g1 = k^n: the exterior-algebra baseline."""
    return SuperAlgebra(0, (), n, (), name=f"grassmann({n})")


def sl2_trivial(n: int) -> SuperAlgebra:
    """g0 = sl2 acting trivially on an n-dimensional odd part; sl2 itself
    at n = 0."""
    check_algebra_size(3, n, f"builtin algebra sl2_trivial({n})")
    return SuperAlgebra(3, _SL2_BRACKET, n, (Matrix.zero(n, n),) * 3, name=f"sl2_trivial({n})")


def sl2_adjoint() -> SuperAlgebra:
    """g0 = sl2 with g1 the adjoint representation."""
    ad = sl2_trivial(0).ad
    return SuperAlgebra(3, _SL2_BRACKET, 3, tuple(ad(i) for i in range(3)), name="sl2_adjoint")


def sl2_natural_sum(m: int) -> SuperAlgebra:
    """g0 = sl2 with g1 a direct sum of m copies of the natural module."""
    check_algebra_size(3, 2 * m, f"builtin algebra sl2_natural_sum({m})")
    acts = tuple(Matrix.block_diag([SL2_NATURAL[i]] * m) for i in range(3))
    return SuperAlgebra(3, _SL2_BRACKET, 2 * m, acts, name=f"sl2_natural_sum({m})")


BUILTIN_ALGEBRAS = {
    "grassmann": grassmann,
    "sl2_trivial": sl2_trivial,
    "sl2_adjoint": sl2_adjoint,
    "sl2_natural_sum": sl2_natural_sum,
}


_BUILTIN_SPEC = re.compile(r"\s*([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*")


# built-in algebras kept, by name and argument: each is built, and its
# semisimplicity decided, once per process while it stays among these
_BUILTINS_KEPT = 32


def builtin_algebra(spec: str) -> SuperAlgebra:
    """Parse names like "grassmann(2)", "sl2_adjoint".

    Raises KeyError when `spec` does not name a built-in, and ValueError
    when it does but the argument is missing, extra, not a non-negative
    integer, or too large (`check_algebra_size`).  Every spelling of one
    algebra returns the same object.
    """
    m = _BUILTIN_SPEC.fullmatch(spec)
    fn = BUILTIN_ALGEBRAS.get(m.group(1)) if m else None
    if fn is None:
        raise KeyError(f"unknown builtin algebra {spec.strip()!r}")
    name, arg = m.group(1), m.group(2)
    takes_arg = fn.__code__.co_argcount == 1
    if arg is None:
        if takes_arg:
            raise ValueError(f"builtin algebra {name} needs an argument, as in {name}(2)")
        return _built(name, None)
    if not takes_arg:
        raise ValueError(f"builtin algebra {name} takes no argument")
    if not re.fullmatch(r"\s*\d+\s*", arg):
        raise ValueError(f"builtin algebra {name}: argument {arg.strip()!r} is not a non-negative integer")
    return _built(name, int(arg))


@lru_cache(maxsize=_BUILTINS_KEPT)
def _built(name: str, arg) -> SuperAlgebra:
    """The built-in `name` at `arg` (None for none).  A refusal raises
    and so is never kept: it is made again on every call."""
    fn = BUILTIN_ALGEBRAS[name]
    return fn() if arg is None else fn(arg)
