"""Exact linear algebra over arbitrary-precision rationals.

Everything downstream (module validation, rank tests, lifting solvers)
is a client of this module.  All arithmetic uses ``fractions.Fraction``,
so no operation ever rounds.

`Matrix` stores its entries densely, and no other module reads that
storage: they go through `Matrix` operations.  Those touch only
nonzeros: `scale` (and so unary `-`), products, `place`, `place_kron`
and `kron` skip a zero entry without an arithmetic call, and `scale(1)`
is the matrix itself; a sum `+` still adds every entry.
Every elimination (rank, pivot_columns, nullspace, solve_matrix and the
`LinearSystem` solvers) runs one sparse Gauss-Jordan kernel,
`gauss_jordan`, over rows held as dicts {column: nonzero}.  It takes
pivot columns in increasing order, so what it returns is the unique
reduced row echelon form: particular solutions have every free variable
zero and kernel bases have one vector per free column, whatever the
pivot row choices were.  Sparse identity checks (`vanishes`) evaluate a
linear combination of products row by row without forming the dense
products.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def scalar(x) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact scalar from {x!r}")


class Matrix:
    """Immutable dense matrix of Fractions, row-major.  The constructor,
    for data from outside, coerces every entry (`scalar`) and checks the
    shape; operations on Matrices build their results with `_of`."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        data = [[scalar(x) for x in row] for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"shape mismatch: expected {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def _of(rows: int, cols: int, data) -> "Matrix":
        """A Matrix owning `data`, fresh rows (never another Matrix's) of
        this shape that hold only Fractions: nothing is coerced or checked."""
        m = object.__new__(Matrix)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(data) -> "Matrix":
        data = list(data)
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Matrix(rows, cols, data)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, [[_ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_nonzeros(rows: int, cols: int, entries) -> "Matrix":
        """The rows x cols matrix whose entry (i, j) is the sum of the x, coerced
        by `scalar`, over the (i, j, x) in `entries`; an index out of range is refused."""
        out = [[_ZERO] * cols for _ in range(rows)]
        for i, j, x in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            x, y = scalar(x), out[i][j]
            out[i][j] = y + x if y else x
        return Matrix._of(rows, cols, out)

    # -- basics ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def format_rows(self, fmt) -> list:
        """The rows read in place: "0" for a zero (the shared one told by identity), else fmt(x)."""
        return [["0" if x is _ZERO or not x else fmt(x) for x in row] for row in self.data]

    def nonzeros(self):
        """(i, j, x) for each nonzero entry x at (i, j), row by row."""
        return ((i, j, x) for i, row in enumerate(self.data) for j, x in enumerate(row) if x)

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols submatrix with its top left entry at (r0, c0)."""
        if min(r0, c0, rows, cols) < 0 or r0 + rows > self.rows or c0 + cols > self.cols:
            raise ValueError(f"block outside a {self.rows}x{self.cols} matrix")
        return Matrix._of(rows, cols, [row[c0 : c0 + cols] for row in self.data[r0 : r0 + rows]])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._of(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        """c times the matrix: the matrix itself for c = 1, which is safe as
        Matrices are immutable, and zero entries are left unmultiplied."""
        c = scalar(c)
        if c == 1:
            return self
        return Matrix._of(self.rows, self.cols, [[c * x if x else x for x in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        ot = other.data
        out = []
        for row in self.data:
            acc = [_ZERO] * other.cols
            for k, a in enumerate(row):
                if a == 0:
                    continue
                ok = ot[k]
                for j in range(other.cols):
                    if ok[j] != 0:
                        acc[j] += a * ok[j]
            out.append(acc)
        return Matrix._of(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, [list(col) for col in zip(*self.data)] if self.rows and self.cols else [[] for _ in range(self.cols)])

    @staticmethod
    def place(rows: int, cols: int, blocks) -> "Matrix":
        """The rows x cols matrix that is the sum, over (r0, c0, c, B) in
        `blocks`, of c * B placed with its top left entry at (r0, c0).  An
        entry of B is written into an empty slot, and added where blocks
        overlap."""
        out = [[_ZERO] * cols for _ in range(rows)]
        for r0, c0, c, b in blocks:
            for i, row in enumerate(b.data):
                orow = out[r0 + i]
                for j, x in enumerate(row):
                    if x:
                        if c != 1:
                            x = c * x
                        y = orow[c0 + j]
                        orow[c0 + j] = y + x if y else x
        return Matrix._of(rows, cols, out)

    @staticmethod
    def place_kron(rows: int, cols: int, blocks) -> "Matrix":
        """`place` for blocks c * (a kron I_n if a_first, else I_n kron a),
        given as (r0, c0, c, a, n, a_first) and written from the nonzeros
        of a: the Kronecker product (`kron`'s convention) is never formed."""
        out = [[_ZERO] * cols for _ in range(rows)]
        for r0, c0, c, a, n, a_first in blocks:
            # entry (i, j) of a lands at (r0 + i*s + k*dr, c0 + j*s + k*dc), k < n
            s, dr, dc = (n, 1, 1) if a_first else (1, a.rows, a.cols)
            for i, j, x in a.nonzeros():
                if c != 1:
                    x = c * x
                for k in range(n):
                    orow, col = out[r0 + i * s + k * dr], c0 + j * s + k * dc
                    y = orow[col]
                    orow[col] = y + x if y else x
        return Matrix._of(rows, cols, out)

    @staticmethod
    def block_diag(blocks) -> "Matrix":
        placed, r0, c0 = [], 0, 0
        for b in blocks:
            placed.append((r0, c0, 1, b))
            r0 += b.rows
            c0 += b.cols
        return Matrix.place(r0, c0, placed)

    # -- elimination (all through gauss_jordan) ------------------------

    def sparse_rows(self) -> list:
        """Rows as dicts {column: nonzero entry}."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.data]

    def pivot_columns(self) -> list:
        """The increasing pivot columns of the row echelon form: column c
        is one iff it is not in the span of the columns before it."""
        return gauss_jordan(self.sparse_rows(), self.cols, reduce=False)[0]

    def rank(self) -> int:
        """Rank over the rationals, computed exactly."""
        return len(self.pivot_columns())

    def nullspace(self) -> "Matrix":
        """Columns form a basis of the right kernel; cols - rank columns.

        Deterministic: for each free column the basis vector has that
        coordinate 1 and the other free coordinates 0.
        """
        vecs = _kernel_basis(*gauss_jordan(self.sparse_rows(), self.cols), self.cols)
        data = [list(r) for r in zip(*vecs)] if vecs else [[] for _ in range(self.cols)]
        return Matrix._of(self.cols, len(vecs), data)

    def solve_matrix(self, b: "Matrix"):
        """X with self*X = b (free variables zero), or None if inconsistent."""
        if b.rows != self.rows:
            raise ValueError("dimension mismatch in solve_matrix")
        rows = self.sparse_rows()
        for row, brow in zip(rows, b.data):
            for t, x in enumerate(brow):
                if x:
                    row[self.cols + t] = x
        xs = _solve(rows, self.cols, b.cols)
        if xs is None:
            return None
        if not xs:
            return Matrix._of(self.cols, 0, [[] for _ in range(self.cols)])
        return Matrix._of(self.cols, b.cols, [list(r) for r in zip(*xs)])

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)


def _dense(row: dict, n: int) -> list:
    out = [_ZERO] * n
    for j, x in row.items():
        out[j] = x
    return out


def gauss_jordan(rows, ncols: int, reduce: bool = True):
    """Sparse Gauss-Jordan elimination; the one exact elimination kernel.

    `rows` are dicts {column: nonzero Fraction} with columns below
    `ncols`; they are consumed.  Pivot columns are taken in increasing
    order, and for each one the shortest of the rows that lead there
    becomes the pivot row, which limits fill-in.  Returns
    (pivots, reduced): the increasing pivot columns and, for each, its
    row scaled to 1 there.  With `reduce` every other pivot column is
    cleared from every row too, so `reduced` is the nonzero part of the
    unique reduced row echelon form; without it the rows are only in
    echelon form, which is enough for the rank.
    """
    buckets = {}  # leading column -> rows that lead there
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapq.heapify(heap)
    pivots, reduced = [], []
    while heap:
        c = heapq.heappop(heap)
        group = buckets.pop(c)
        head = min(group, key=len)
        inv = 1 / head[c]
        p = head if inv == 1 else {j: x * inv for j, x in head.items()}
        for row in group:
            if row is head:
                continue
            _axpy(row, -row[c], p)
            if row:
                lead = min(row)
                if lead in buckets:
                    buckets[lead].append(row)
                else:
                    buckets[lead] = [row]
                    heapq.heappush(heap, lead)
        pivots.append(c)
        reduced.append(p)
    if reduce:
        where = {c: k for k, c in enumerate(pivots)}
        # later pivot rows are already reduced, so each subtraction only
        # adds entries in non-pivot columns
        for k in range(len(pivots) - 2, -1, -1):
            p = reduced[k]
            for j in [j for j in p if j in where and j != pivots[k]]:
                _axpy(p, -p[j], reduced[where[j]])
    return pivots, reduced


def echelon_with(echelon: list, row: dict, ncols: int) -> list:
    """Rows in echelon form that span those of `echelon`, rows in echelon
    form as `gauss_jordan` returns them, and the sparse `row`: one row
    more exactly when `row` is outside their span.  Every row given is
    consumed."""
    return gauss_jordan(echelon + [row], ncols, reduce=False)[1]


def _axpy(row: dict, f, p: dict):
    """row += f * p in place, dropping entries that cancel."""
    for j, x in p.items():
        y = row.get(j)
        if y is None:
            row[j] = f * x
        else:
            y += f * x
            if y:
                row[j] = y
            else:
                del row[j]


def _kernel_basis(pivots, reduced, ncols: int) -> list:
    """Kernel basis from a reduced row echelon form, one dense vector per
    free column: that coordinate 1, the other free coordinates 0."""
    pivot_set = set(pivots)
    vecs = {}
    for fc in range(ncols):
        if fc not in pivot_set:
            vecs[fc] = _dense({fc: _ONE}, ncols)
    for pc, row in zip(pivots, reduced):
        for j, x in row.items():
            if j != pc:
                vecs[j][pc] = -x
    return list(vecs.values())


def _solve(rows, ncols: int, nrhs: int):
    """Solutions, free variables zero, of the system whose augmented
    sparse rows carry right-hand side t in column ncols + t; one dense
    vector per right-hand side, or None if any of them is inconsistent."""
    pivots, reduced = gauss_jordan(rows, ncols + nrhs)
    if pivots and pivots[-1] >= ncols:
        return None
    xs = [[_ZERO] * ncols for _ in range(nrhs)]
    for pc, row in zip(pivots, reduced):
        for j, x in row.items():
            if j >= ncols:
                xs[j - ncols][pc] = x
    return xs


def vanishes(terms, nrows: int) -> bool:
    """True iff the sum of c * F_1 * ... * F_k over `terms`, pairs
    (c, (F_1, ..., F_k)) with each factor given by `Matrix.sparse_rows`,
    is the zero matrix; every product has `nrows` rows.

    Evaluated one row at a time as a sparse row vector pushed through
    the factors, stopping at the first nonzero row; the dense products
    are never formed.
    """
    for i in range(nrows):
        acc = {}
        for c, factors in terms:
            if not c:
                continue
            vec = {i: c}
            for f in factors[:-1]:
                nxt = {}
                for k, x in vec.items():
                    _axpy(nxt, x, f[k])
                vec = nxt
            last = factors[-1]
            for k, x in vec.items():
                _axpy(acc, x, last[k])
        if acc:
            return False
    return True


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with (i_a, i_b) lexicographic index convention."""
    blocks = [(i * b.rows, j * b.cols, x, b) for i, j, x in a.nonzeros()]
    return Matrix.place(a.rows * b.rows, a.cols * b.cols, blocks)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Multivariate polynomial: map exponent-vector -> nonzero Fraction.

    Term order for printing is graded lexicographic; semantics do not
    depend on it.  The constructor, for data from outside, coerces every
    exponent and coefficient and merges repeats; operations on
    Polynomials build their results with `_of`.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector of wrong length")
            c = scalar(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @staticmethod
    def _of(nvars: int, terms: dict) -> "Polynomial":
        """A Polynomial owning `terms`, a fresh dict from int tuples of
        length nvars to nonzero Fractions: nothing is coerced or checked."""
        p = object.__new__(Polynomial)
        p.nvars, p.terms = nvars, terms
        return p

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {tuple([0] * nvars): scalar(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return Polynomial(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_nvars(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different numbers of variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_nvars(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.pop(e, None)
            s = c if s is None else s + c
            if s:
                t[e] = s
        return Polynomial._of(self.nvars, t)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def scale(self, c) -> "Polynomial":
        c = scalar(c)
        if not c:
            return Polynomial._of(self.nvars, {})
        return Polynomial._of(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {e: -v for e, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_nvars(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e)
                t[e] = c1 * c2 if s is None else s + c1 * c2
        return Polynomial._of(self.nvars, {e: c for e, c in t.items() if c})

    def eval(self, point) -> Fraction:
        point = [scalar(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch in poly_eval")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def sorted_terms(self):
        # graded lexicographic: total degree first, then lex on exponents
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def monic(self) -> "Polynomial":
        """Scaled so the grlex-leading coefficient is 1 (canonical rep)."""
        if self.is_zero():
            return self
        lead = self.sorted_terms()[0][1]
        return self.scale(Fraction(1) / lead)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"t{i+1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# block linear systems


def _factor_lines(f, n: int, by_col: bool) -> list:
    """Nonzeros [(index, entry)] of each row (each column if `by_col`) of
    a constraint factor: a `Matrix`, or an int c standing for c * I_n."""
    if not isinstance(f, Matrix):
        c = scalar(f)
        return [[(i, c)] if c else [] for i in range(n)]
    d = f.data
    if by_col:
        return [[(l, d[l][j]) for l in range(f.rows) if d[l][j]] for j in range(f.cols)]
    return [[(k, x) for k, x in enumerate(row) if x] for row in d]


class LinearSystem:
    """Joint linear system over several unknown matrices, each named by
    any hashable value.

    Constraints have the form  sum_t A_t * X_{name_t} * B_t = C.  A factor
    A_t or B_t is a `Matrix` or an int c, which stands for c times the
    identity of the size that fits (X's row count for A_t, its column
    count for B_t), so `(1, "X", B)` and `(A, "X", -1)` need no identity
    or negated matrix.  Each constraint is assembled straight into sparse
    rows: row (i, j) holds A_t[i][k] * B_t[l][j] at the coordinate of
    X_{name_t}[k][l], i.e. the nonzeros of A_t kron B_t^T, without
    forming the dense Kronecker product.  A row is kept when some
    product is nonzero or its right-hand side is.  `solve` and
    `solution_basis` run the sparse kernel `gauss_jordan`, whose result is
    the unique reduced row echelon form, so the particular solution (free
    variables zero) and the kernel basis are deterministic.  `rows` gives
    the coefficient rows densely, built on access.
    """

    def __init__(self):
        self.shapes = {}  # name -> (rows, cols)
        self.offsets = {}
        self.size = 0
        self._rows = []  # sparse coefficient rows {column: nonzero}
        self.rhs = []

    @property
    def rows(self) -> list:
        """Dense coefficient rows, one list of `size` entries per row."""
        return [_dense(r, self.size) for r in self._rows]

    def add_unknown(self, name, rows: int, cols: int):
        if name in self.shapes:
            raise ValueError(f"duplicate unknown {name}")
        self.shapes[name] = (rows, cols)
        self.offsets[name] = self.size
        self.size += rows * cols

    def add_constraint(self, terms, rhs: Matrix):
        """terms: list of (A, name, B) meaning sum A*X_name*B = rhs; an int
        factor c is c times the identity."""
        nrows = rhs.rows * rhs.cols
        acc = [{} for _ in range(nrows)]
        touched = [False] * nrows
        for a, name, b in terms:
            r, c = self.shapes[name]
            a_shape = (a.rows, a.cols) if isinstance(a, Matrix) else (r, r)
            b_shape = (b.rows, b.cols) if isinstance(b, Matrix) else (c, c)
            if a_shape != (rhs.rows, r) or b_shape != (c, rhs.cols):
                raise ValueError("inconsistent constraint shapes")
            b_cols = _factor_lines(b, c, True)
            off = self.offsets[name]
            for i, a_row in enumerate(_factor_lines(a, r, False)):
                a_nz = [(off + k * c, x) for k, x in a_row]
                if not a_nz:
                    continue
                for j, b_col in enumerate(b_cols):
                    if not b_col:
                        continue
                    n = i * rhs.cols + j
                    row = acc[n]
                    touched[n] = True
                    for base, x in a_nz:
                        for l, y in b_col:
                            row[base + l] = row.get(base + l, 0) + x * y
        for n in range(nrows):
            b_n = rhs.data[n // rhs.cols][n % rhs.cols]
            if not touched[n] and b_n == 0:
                continue
            self._rows.append({k: x for k, x in acc[n].items() if x})
            self.rhs.append(b_n)

    def solve(self):
        """dict name -> Matrix, or None if infeasible."""
        rows = [dict(r) for r in self._rows]
        for row, b in zip(rows, self.rhs):
            if b:
                row[self.size] = b
        x = _solve(rows, self.size, 1)
        return None if x is None else self._unpack(x[0])

    def solution_basis(self):
        """Basis of the homogeneous solution space as a list of dicts."""
        if any(b != 0 for b in self.rhs):
            raise ValueError("solution_basis requires a homogeneous system")
        pivots, reduced = gauss_jordan([dict(r) for r in self._rows], self.size)
        return [self._unpack(v) for v in _kernel_basis(pivots, reduced, self.size)]

    def _unpack(self, vec):
        out = {}
        for name, (r, c) in self.shapes.items():
            off = self.offsets[name]
            out[name] = Matrix._of(r, c, [vec[off + i * c : off + (i + 1) * c] for i in range(r)])
        return out
