"""Lie superalgebras g = g0 + g1 with vanishing odd bracket.

The even part is given by structure constants, the odd part by the
g0-action matrices; the odd bracket [g1, g1] is always zero.
"""

from __future__ import annotations

import re
from functools import cached_property

from .linalg import Matrix, scalar, vanishes
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

    def ad(self, i: int) -> Matrix:
        """Matrix of ad x_i: column j holds the coefficients of [x_i, x_j]."""
        return Matrix(
            self.dim0,
            self.dim0,
            [[self.bracket[i][j][k] for j in range(self.dim0)] for k in range(self.dim0)],
        )


class ValidationReport:
    """Which identities hold; `failures` lists (kind, (i, j)), the first
    failing pair of even indices of each kind."""

    def __init__(self):
        self.antisymmetry = self.jacobi = self.representation = True
        self.failures = []

    @property
    def ok(self) -> bool:
        return self.antisymmetry and self.jacobi and self.representation

    def as_dict(self):
        return {
            "antisymmetry": self.antisymmetry,
            "jacobi": self.jacobi,
            "representation": self.representation,
            "failures": self.failures,
            "ok": self.ok,
        }


def representation_failure(alg: SuperAlgebra, mats, dim: int):
    """First (i, j) at which [rho_i, rho_j] = sum_k c_ij^k rho_k fails,
    or None if the dim x dim matrices `mats` (as `Matrix.sparse_rows`)
    form a representation of the even part of `alg`."""
    for i in range(alg.dim0):
        for j in range(alg.dim0):
            terms = [(1, (mats[i], mats[j])), (-1, (mats[j], mats[i]))]
            terms += [(-c, (mats[k],)) for k, c in enumerate(alg.bracket[i][j]) if c]
            if not vanishes(terms, dim):
                return (i, j)
    return None


def validate(g: SuperAlgebra) -> ValidationReport:
    """Check antisymmetry, Jacobi, and the g0-representation property on g1.

    Failures are data in the report, the first offending index pair of
    each kind.  Given antisymmetry, the Jacobi identity says exactly that
    ad is a representation, [ad x_i, ad x_j] = ad [x_i, x_j], so a Jacobi
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
    rep = ValidationReport()
    for kind, bad in found.items():
        if bad is not None:
            setattr(rep, kind, False)
            rep.failures.append((kind, bad))
    return rep


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
# bracket sets the limit: the Jacobi check multiplies dim0^2 pairs of
# ad matrices, each product dim0^3 work when they are dense.  Measured
# in process on a 2-CPU host: sl4 with its sparse bracket (dim0 = 15)
# validates in 48 ms, but sl3 in a dense rational basis (dim0 = 8, at
# the limit) takes 0.6 s and sl4 likewise 17 s.
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


def builtin_algebra(spec: str) -> SuperAlgebra:
    """Parse names like "grassmann(2)", "sl2_adjoint".

    Raises KeyError when `spec` does not name a built-in, and ValueError
    when it does but the argument is missing, extra, not a non-negative
    integer, or too large (`check_algebra_size`).
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
        return fn()
    if not takes_arg:
        raise ValueError(f"builtin algebra {name} takes no argument")
    if not re.fullmatch(r"\s*\d+\s*", arg):
        raise ValueError(f"builtin algebra {name}: argument {arg.strip()!r} is not a non-negative integer")
    return fn(int(arg))
