from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstable.linalg import LinearSystem, Matrix, Polynomial, gauss_jordan, kron

scalars = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def matrices(rows, cols):
    return st.lists(
        st.lists(scalars, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda d: Matrix(rows, cols, d))


def column(entries):
    entries = list(entries)
    return Matrix(len(entries), 1, [[x] for x in entries])


def col(m, j):
    return [row[j] for row in m.data]


def solve_vector(m, b):
    """x with m * x = b, as a list, by `solve_matrix` on a one-column
    right-hand side; None if inconsistent."""
    x = m.solve_matrix(column(b))
    return None if x is None else col(x, 0)


def rref(m):
    """(dense reduced row echelon form, zero rows last, pivots) of m by
    `gauss_jordan`."""
    pivots, reduced = gauss_jordan(m.sparse_rows(), m.cols)
    data = [[r.get(j, Fraction(0)) for j in range(m.cols)] for r in reduced]
    return data + [[Fraction(0)] * m.cols for _ in range(m.rows - len(reduced))], pivots


def test_basic_arithmetic():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a * b == Matrix.from_rows([[2, 1], [4, 3]])
    assert a + b - b == a
    assert a.scale(Fraction(1, 2)) == Matrix.from_rows([["1/2", 1], ["3/2", 2]])
    assert a.transpose().transpose() == a
    assert (a - a).is_zero()


def test_identity_and_det():
    a = Matrix.from_rows([[2, 1], [1, 1]])
    assert a * a.solve_matrix(Matrix.identity(2)) == Matrix.identity(2)
    s = Matrix.from_rows([[1, 2], [2, 4]])
    assert s.rank() == 1


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_nullity_and_kernel(r, c, data):
    m = data.draw(matrices(r, c))
    n = m.nullspace()
    assert m.rank() + n.cols == c
    assert (m * n).is_zero() if n.cols else True


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_solve_affine_consistency(r, c, data):
    m = data.draw(matrices(r, c))
    b = data.draw(st.lists(scalars, min_size=r, max_size=r))
    x = solve_vector(m, b)
    aug = Matrix.place(r, c + 1, [(0, 0, 1, m), (0, c, 1, column(b))])
    if x is None:
        assert aug.rank() > m.rank()
    else:
        assert aug.rank() == m.rank()
        assert m * column(x) == column(b)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_kron_mixed_product(data):
    a = data.draw(matrices(2, 2))
    b = data.draw(matrices(2, 3))
    c = data.draw(matrices(2, 2))
    d = data.draw(matrices(3, 2))
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_rref_pivots_and_reduction():
    m = Matrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    for k, p in enumerate(pivots):
        c = [row[p] for row in red]
        assert c[k] == 1 and all(x == 0 for i, x in enumerate(c) if i != k)


def test_solve_affine_free_variables_zero():
    # underdetermined: x0 + x1 = 1; the particular solution zeroes x1
    m = Matrix.from_rows([[1, 1]])
    assert solve_vector(m, [1]) == [Fraction(1), Fraction(0)]


def test_polynomial_arithmetic_and_eval():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    assert p.eval([3, 2]) == 5
    assert (p - q).is_zero()
    assert p.monic() == p  # leading coefficient already 1


def test_polynomial_monic_normalization():
    x = Polynomial.variable(1, 0)
    p = x.scale(Fraction(-3)) * x + x.scale(6)
    m = p.monic()
    lead = m.sorted_terms()[0][1]
    assert lead == 1
    assert m.scale(p.sorted_terms()[0][1]) == p


polynomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), scalars, max_size=5
).map(lambda t: Polynomial(2, t))


@given(polynomials, polynomials, scalars)
@settings(max_examples=200, deadline=None)
def test_polynomial_operations_match_the_checking_constructor(p, q, c):
    # the operations build their results unchecked: each must equal the
    # constructor's result from the same terms, with no zero coefficient
    def summed(*pairs):
        t = {}
        for e, x in pairs:
            t[e] = t.get(e, 0) + x
        return Polynomial(2, t)

    neg_q = [(e, -x) for e, x in q.terms.items()]
    product = [(tuple(a + b for a, b in zip(e, f)), x * y)
               for e, x in p.terms.items() for f, y in q.terms.items()]
    cases = [
        (p + q, summed(*p.terms.items(), *q.terms.items())),
        (p - q, summed(*p.terms.items(), *neg_q)),
        (p * q, summed(*product)),
        (p.scale(c), summed(*((e, c * x) for e, x in p.terms.items()))),
        (-q, summed(*neg_q)),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert all(type(x) is Fraction and x for x in got.terms.values())
    with pytest.raises(ValueError, match="different numbers of variables"):
        p * Polynomial(3)


def test_linear_system_matrix_unknowns():
    # solve A X = B for a 2x2 unknown X
    a = Matrix.from_rows([[1, 1], [0, 1]])
    b = Matrix.from_rows([[3, 5], [1, 2]])
    sys = LinearSystem()
    sys.add_unknown("x", 2, 2)
    sys.add_constraint([(a, "x", Matrix.identity(2))], b)
    sol = sys.solve()
    assert sol is not None and a * sol["x"] == b


def test_linear_system_infeasible():
    sys = LinearSystem()
    sys.add_unknown("x", 1, 1)
    z = Matrix.zero(1, 1)
    sys.add_constraint([(z, "x", z)], Matrix.from_rows([[1]]))
    assert sys.solve() is None


def test_linear_system_two_sided():
    # X B = A X as a homogeneous system has the identity among solutions
    a = Matrix.from_rows([[0, 1], [1, 0]])
    sys = LinearSystem()
    sys.add_unknown("x", 2, 2)
    sys.add_constraint(
        [(Matrix.identity(2), "x", a), (-a, "x", Matrix.identity(2))],
        Matrix.zero(2, 2),
    )
    basis = sys.solution_basis()
    assert len(basis) == 2  # commutant of a 2x2 involution


def test_no_floats_leak():
    with pytest.raises((TypeError, ValueError)):
        Matrix.from_rows([[0.5]])


# ---------------------------------------------------------------------------
# differential tests: the sparse kernel against the dense elimination it
# replaced, kept here as the oracle


def dense_rref(m):
    """Dense Gauss-Jordan with first-nonzero pivoting: (rows, pivots)."""
    rows, cols = m.rows, m.cols
    a = [[Fraction(0)] * cols for _ in range(rows)]
    for i, j, x in m.nonzeros():
        a[i][j] = x
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def dense_nullspace(m):
    red, pivots = dense_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = [[Fraction(0)] * len(free) for _ in range(m.cols)]
    for k, fc in enumerate(free):
        out[fc][k] = Fraction(1)
        for r, pc in enumerate(pivots):
            out[pc][k] = -red[r][fc]
    return Matrix(m.cols, len(free), out)


def dense_solve_affine(m, b):
    aug = Matrix(m.rows, m.cols + 1, [row + [x] for row, x in zip(m.data, b)])
    red, pivots = dense_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][m.cols]
    return x


def dense_assembly(sys_shapes, constraints):
    """Coefficient rows and right-hand sides through dense kron blocks."""
    offsets, size = {}, 0
    for name, (r, c) in sys_shapes:
        offsets[name] = size
        size += r * c
    rows, rhs = [], []
    for terms, b in constraints:
        blocks = [(offsets[name], kron(a, bb.transpose())) for a, name, bb in terms]
        for i in range(b.rows * b.cols):
            row = [Fraction(0)] * size
            nonzero = False
            for off, k in blocks:
                for j, x in enumerate(k.data[i]):
                    if x != 0:
                        row[off + j] += x
                        nonzero = True
            b_i = b.data[i // b.cols][i % b.cols]
            if nonzero or b_i != 0:
                rows.append(row)
                rhs.append(b_i)
    return size, rows, rhs


sparse_scalars = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), scalars)


def sparse_matrices(rows, cols):
    return st.lists(
        st.lists(sparse_scalars, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda d: Matrix(rows, cols, d))


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_matches_dense_rref(r, c, data):
    m = data.draw(sparse_matrices(r, c))
    red, pivots = rref(m)
    dred, dpivots = dense_rref(m)
    assert pivots == dpivots
    assert red == dred and len(red) == r
    assert m.rank() == len(dpivots)
    assert m.nullspace() == dense_nullspace(m)


@given(st.integers(0, 5), st.integers(0, 5), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_solve_affine_matches_dense(r, c, consistent, data):
    m = data.draw(sparse_matrices(r, c))
    if consistent:
        x0 = data.draw(st.lists(sparse_scalars, min_size=c, max_size=c))
        b = col(m * column(x0), 0) if c else [Fraction(0)] * r
    else:
        b = data.draw(st.lists(sparse_scalars, min_size=r, max_size=r))
    x = solve_vector(m, b)
    assert x == dense_solve_affine(m, b)
    if consistent:
        assert x is not None


def test_solve_affine_edge_shapes():
    assert solve_vector(Matrix(0, 3, []), []) == [0, 0, 0]
    assert solve_vector(Matrix(2, 0, [[], []]), [0, 0]) == []
    assert solve_vector(Matrix(2, 0, [[], []]), [0, 1]) is None
    assert solve_vector(Matrix.zero(2, 2), [1, 0]) is None
    assert Matrix(0, 0, []).nullspace() == Matrix(0, 0, [])
    assert rref(Matrix(2, 0, [[], []])) == ([[], []], [])


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_solve_matrix_matches_dense(r, c, k, consistent, data):
    m = data.draw(sparse_matrices(r, c))
    if consistent:
        b = m * data.draw(sparse_matrices(c, k))
    else:
        b = data.draw(sparse_matrices(r, k))
    cols = [dense_solve_affine(m, col(b, j)) for j in range(k)]
    expect = None if None in cols else Matrix(c, k, [list(row) for row in zip(*cols)] if k else [[] for _ in range(c)])
    assert m.solve_matrix(b) == expect


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_linear_system_matches_dense_assembly(data):
    dims = st.integers(1, 3)
    shapes = [(f"x{k}", (data.draw(dims), data.draw(dims))) for k in range(data.draw(st.integers(1, 2)))]
    homogeneous = data.draw(st.booleans())
    sys = LinearSystem()
    for name, (r, c) in shapes:
        sys.add_unknown(name, r, c)
    constraints = []
    for _ in range(data.draw(st.integers(1, 3))):
        p, q = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        terms = [
            (data.draw(sparse_matrices(p, r)), name, data.draw(sparse_matrices(c, q)))
            for name, (r, c) in shapes
            if data.draw(st.booleans())
        ]
        rhs = Matrix.zero(p, q) if homogeneous else data.draw(sparse_matrices(p, q))
        sys.add_constraint(terms, rhs)
        constraints.append((terms, rhs))
    size, rows, rhs = dense_assembly(shapes, constraints)
    assert (sys.size, sys.rows, sys.rhs) == (size, rows, rhs)
    a = Matrix(len(rows), size, rows)
    x = dense_solve_affine(a, rhs)
    sol = sys.solve()
    assert (sol is None) == (x is None)
    if sol is not None:
        assert [e for name, _ in shapes for row in sol[name].data for e in row] == x
    if homogeneous:
        ns = dense_nullspace(a)
        basis = sys.solution_basis()
        assert len(basis) == ns.cols
        for j, b in enumerate(basis):
            assert [e for name, _ in shapes for row in b[name].data for e in row] == col(ns, j)


def explicit_term(a, name, b, shape):
    """The same term with each int factor written as a matrix: c * B as
    (I, B scaled by c), c * A as (A scaled by c, I), c * I on both sides
    as a scaled identity."""
    r, c = shape
    if isinstance(a, int) and isinstance(b, int):
        return (Matrix.identity(r).scale(a), name, Matrix.identity(c).scale(b))
    if isinstance(a, int):
        return (Matrix.identity(r), name, b.scale(a))
    if isinstance(b, int):
        return (a.scale(b), name, Matrix.identity(c))
    return (a, name, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_linear_system_int_factors_match_explicit_matrices(data):
    dims = st.integers(1, 3)
    shapes = [(f"x{k}", (data.draw(dims), data.draw(dims))) for k in range(data.draw(st.integers(1, 2)))]
    homogeneous = data.draw(st.booleans())
    ints, mats = LinearSystem(), LinearSystem()
    for name, (r, c) in shapes:
        ints.add_unknown(name, r, c)
        mats.add_unknown(name, r, c)
    sizes = st.sampled_from(sorted({n for _, shape in shapes for n in shape} | {0, 2}))
    for _ in range(data.draw(st.integers(1, 3))):
        p, q = data.draw(sizes), data.draw(sizes)
        terms = []
        for name, (r, c) in shapes:
            if not data.draw(st.booleans()):
                continue
            coeff = st.integers(-2, 2)
            a = data.draw(coeff) if p == r and data.draw(st.booleans()) else data.draw(sparse_matrices(p, r))
            b = data.draw(coeff) if q == c and data.draw(st.booleans()) else data.draw(sparse_matrices(c, q))
            terms.append((a, name, b))
        rhs = Matrix.zero(p, q) if homogeneous else data.draw(sparse_matrices(p, q))
        ints.add_constraint(terms, rhs)
        mats.add_constraint([explicit_term(a, n, b, dict(shapes)[n]) for a, n, b in terms], rhs)
    assert (ints.size, ints.rows, ints.rhs) == (mats.size, mats.rows, mats.rhs)
    assert ints.solve() == mats.solve()
    if homogeneous:
        assert ints.solution_basis() == mats.solution_basis()


def test_linear_system_int_factor_shapes():
    sys = LinearSystem()
    sys.add_unknown("x", 2, 3)
    with pytest.raises(ValueError):
        sys.add_constraint([(1, "x", Matrix.identity(2))], Matrix.zero(2, 2))  # B must be 3 x q
    with pytest.raises(ValueError):
        sys.add_constraint([(1, "x", 1)], Matrix.zero(3, 3))  # 1 * X * 1 is 2 x 3
    with pytest.raises(TypeError):
        sys.add_constraint([(0.5, "x", 1)], Matrix.zero(2, 3))
    sys.add_constraint([(1, "x", -1)], Matrix.zero(2, 3))
    assert sys.rows == [[(-1 if i == j else 0) for j in range(6)] for i in range(6)]


# ---------------------------------------------------------------------------
# the public constructor coerces and checks; every operation on Matrices
# builds its result without either, so each must hand over Fractions only,
# in the shape it declares


def test_public_constructor_coerces_and_checks_the_shape():
    m = Matrix(2, 2, [[1, "1/2"], [Fraction(-3), "4"]])
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert m.data == [[1, Fraction(1, 2)], [-3, 4]]
    for rows, cols, data in ((2, 2, [[1, 2]]), (1, 2, [[1, 2, 3]]), (-1, 0, [])):
        with pytest.raises(ValueError):
            Matrix(rows, cols, data)


def place_oracle(rows, cols, blocks):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, c, b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] += c * b.data[i][j]
    return Matrix(rows, cols, out)


def assert_exact(m):
    assert all(type(x) is Fraction for row in m.data for x in row), m
    assert Matrix(m.rows, m.cols, m.data) == m


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_operations_hand_over_fractions_in_their_shape(r, c, k, data):
    a, b = data.draw(sparse_matrices(r, c)), data.draw(sparse_matrices(r, c))
    d, e = data.draw(sparse_matrices(c, k)), data.draw(sparse_matrices(r, k))
    x = data.draw(scalars)
    # overlapping blocks with coefficients 1, -1 and x
    blocks = [(0, 0, 1, a), (r, c, -1, d), (0, 0, x, b), (1, 0, -1, d)]
    placed = Matrix.place(r + c + 1, c + k, blocks)
    assert placed == place_oracle(r + c + 1, c + k, blocks)
    results = [
        Matrix.zero(r, c), Matrix.identity(r), a + b, a - b, -a, a.scale(x), a.scale(2),
        a * d, a.transpose(), placed, Matrix.block_diag([a, d, b]),
        kron(a, d), a.nullspace(),
    ]
    for rhs in (a * d, e):
        sol = a.solve_matrix(rhs)
        results += [sol] if sol is not None else []
    sys = LinearSystem()
    sys.add_unknown("x", c, k)
    sys.add_constraint([(a, "x", 1)], Matrix.zero(r, k))
    results += list(sys.solve().values()) + [m for s in sys.solution_basis() for m in s.values()]
    for m in results:
        assert_exact(m)


def entrywise(f, *ms):
    """Dense oracle: f applied entry by entry, every entry computed."""
    r, c = ms[0].rows, ms[0].cols
    return Matrix(r, c, [[f(*(m.data[i][j] for m in ms)) for j in range(c)] for i in range(r)])


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_zero_skipping_arithmetic_matches_dense_oracles(r, c, data):
    a, b = data.draw(sparse_matrices(r, c)), data.draw(sparse_matrices(r, c))
    zero = Matrix.zero(r, c)
    before = [(m, m.data, [row[:] for row in m.data]) for m in (a, b, zero)]
    for x in (0, 1, -1, data.draw(scalars)):
        assert a.scale(x) == entrywise(lambda y: x * y, a)
        assert_exact(a.scale(x))
    assert a.scale(1) is a
    for got, want in (
        (a + b, entrywise(lambda y, z: y + z, a, b)),
        (a - b, entrywise(lambda y, z: y - z, a, b)),
        (-a, entrywise(lambda y: -y, a)),
        (a + zero, a), (zero + a, a), (a - zero, a), (zero - a, -a), (a - a, zero),
    ):
        assert got == want
        assert_exact(got)
    # no operation changed an input: not its row lists, nor an entry
    for m, rows, copy in before:
        assert m.data is rows and m.data == copy


# ---------------------------------------------------------------------------
# the operations through which other modules read and build a Matrix,
# each against a dense oracle


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_nonzeros_and_block_match_dense_scans(r, c, data):
    a = data.draw(sparse_matrices(r, c))
    rows = a.data
    assert list(a.nonzeros()) == [(i, j, rows[i][j]) for i in range(r) for j in range(c) if rows[i][j]]
    seen = []
    assert a.format_rows(lambda x: seen.append(x) or repr(x)) == [
        [repr(x) if x else "0" for x in row] for row in rows]
    assert seen == [x for _, _, x in a.nonzeros()]  # zeros are never formatted
    r0, c0 = data.draw(st.integers(0, r)), data.draw(st.integers(0, c))
    h, w = data.draw(st.integers(0, r - r0)), data.draw(st.integers(0, c - c0))
    b = a.block(r0, c0, h, w)
    assert b == Matrix(h, w, [row[c0 : c0 + w] for row in rows[r0 : r0 + h]])
    assert_exact(b)
    assert not any(x is y for x in b.data for y in a.data)  # fresh rows
    for bad in ((r0, c0, r - r0 + 1, w), (r0, c0, h, c - c0 + 1), (-1, c0, h, w), (r0, -1, h, w)):
        with pytest.raises(ValueError):
            a.block(*bad)


def test_format_rows_writes_any_zero_as_0():
    # the shared zero by identity, a zero Fraction of its own by its value
    m = Matrix(2, 2, [[Fraction(0), 3], ["-1/2", 0]])
    assert m[0, 0] == 0 and m[0, 0] is not Matrix.zero(1, 1)[0, 0]
    assert m.format_rows(str) == [["0", "3"], ["-1/2", "0"]]
    assert Matrix.zero(2, 3).format_rows(str) == [["0"] * 3] * 2


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_from_nonzeros_matches_place_of_1x1_blocks(r, c, data):
    entries = []
    if r and c:
        entry = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1), sparse_scalars)
        entries = data.draw(st.lists(entry, max_size=8))
    entries += entries[:2]  # repeated positions add up
    m = Matrix.from_nonzeros(r, c, entries)
    assert m == Matrix.place(r, c, [(i, j, 1, Matrix(1, 1, [[x]])) for i, j, x in entries])
    assert_exact(m)
    for i, j in ((r, 0), (0, c), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            Matrix.from_nonzeros(r, c, [(i, j, 1)])
    # entries are coerced like the public constructor's
    assert Matrix.from_nonzeros(1, 2, [(0, 1, 1), (0, 1, "1/2")]) == Matrix(1, 2, [[0, "3/2"]])
    with pytest.raises(TypeError):
        Matrix.from_nonzeros(1, 1, [(0, 0, 0.5)])


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_pivot_columns_match_dense_rref(r, c, data):
    m = data.draw(sparse_matrices(r, c))
    assert m.pivot_columns() == dense_rref(m)[1]
    assert m.rank() == len(m.pivot_columns())


def kron_oracle(a, b):
    """Dense oracle: entry ((ia, ib), (ja, jb)) is a[ia][ja] * b[ib][jb]."""
    return Matrix(a.rows * b.rows, a.cols * b.cols, [
        [a.data[i // b.rows][j // b.cols] * b.data[i % b.rows][j % b.cols] for j in range(a.cols * b.cols)]
        for i in range(a.rows * b.rows)
    ])


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_place_kron_matches_kron_then_place(r, c, n, data):
    a, b = data.draw(sparse_matrices(r, c)), data.draw(sparse_matrices(c, r))
    x = data.draw(scalars)
    eye = Matrix.identity(n)
    assert kron(a, b) == kron_oracle(a, b)
    assert kron(a, eye) == kron_oracle(a, eye) and kron(eye, b) == kron_oracle(eye, b)
    # both kinds of block, overlapping, with coefficients 1, x and -1
    blocks = [(0, 0, 1, a, n, True), (0, 0, x, a, n, False), (1, 1, -1, b.transpose(), n, True)]
    rows, cols = r * n + 1, c * n + 1
    got = Matrix.place_kron(rows, cols, blocks)
    kron_blocks = [(r0, c0, k, kron(m, eye) if first else kron(eye, m)) for r0, c0, k, m, _, first in blocks]
    assert got == Matrix.place(rows, cols, kron_blocks) == place_oracle(rows, cols, kron_blocks)
    assert_exact(got)
