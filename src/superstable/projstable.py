"""Projectivity tests, the projective/reduced decomposition, and the
stable-category equality decision procedure.

Projectivity and stable equality are decided by linear feasibility:
whether the identity (resp. a difference of maps) lifts along the
canonical evaluation epimorphism from an induced module, which is
projective whenever the even part is semisimple or zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import is_semisimple
from .gradedmod import (
    GradedMap,
    GradedModule,
    ModuleError,
    Rep,
    graded_map_system,
    identity_map,
    induced_sum,
    make_map,
    make_module,
    submodule,
)
from .linalg import LinearSystem, Matrix, gauss_jordan


class HypothesisError(ValueError):
    """Raised when the semisimple-or-zero hypothesis on g0 fails."""


def _require_semisimple(v: GradedModule):
    if v.alg.dim0 and not is_semisimple(v.alg.even):
        raise HypothesisError("g0 must be semisimple (or zero) for this operation")


@dataclass(frozen=True)
class TopOddOperator:
    """Composite action of e_1 e_2 ... e_n, assembled degreewise."""

    module: GradedModule
    blocks: dict  # degree j -> matrix dims[j+n] x dims[j]

    def block_at(self, j: int) -> Matrix:
        n = self.module.alg.dim1
        m = self.blocks.get(j)
        if m is None:
            return Matrix.zero(self.module.dim_at(j + n), self.module.dim_at(j))
        return m

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def rank(self) -> int:
        return sum(m.rank() for m in self.blocks.values())

    def kernel_basis(self) -> dict:
        """Per-degree basis of K = ker E."""
        return {j: self.block_at(j).nullspace() for j in self.module.degrees()}


def top_operator(v: GradedModule) -> TopOddOperator:
    """E = a_{e_1} o a_{e_2} o ... o a_{e_n}; asserts ker E is a submodule."""
    n = v.alg.dim1
    if n == 0:
        raise ModuleError("top operator undefined for dim1 = 0 (empty product is the identity)")
    blocks = {}
    for j in v.degrees():
        m = Matrix.identity(v.dim_at(j))
        # rightmost factor acts first
        for e in range(n - 1, -1, -1):
            m = v.odd_at(j + (n - 1 - e), e) * m
        blocks[j] = m
    op = TopOddOperator(v, blocks)
    # closure of ker E under all actions
    kb = op.kernel_basis()
    for j in v.degrees():
        nb = kb[j]
        if nb.cols == 0:
            continue
        for i in range(v.alg.dim0):
            if not (op.block_at(j) * v.rho_at(j, i) * nb).is_zero():
                raise ModuleError("kernel of the top operator is not g0-stable")
        for e in range(v.alg.dim1):
            if not (op.block_at(j + 1) * v.odd_at(j, e) * nb).is_zero():
                raise ModuleError("kernel of the top operator is not g1-stable")
    return op


def is_reduced(v: GradedModule) -> bool:
    """True iff the top exterior power of g1 kills the module (E = 0)."""
    return top_operator(v).is_zero()


def _coordinate_complement(basis: Matrix) -> list:
    """Indices c, ascending, of the standard basis vectors e_c completing
    the span of `basis`: e_c is taken iff it is not in the span of
    `basis` and e_0..e_(c-1), so the indices are the pivot columns past
    `basis` of one elimination of [basis | I]."""
    k = basis.cols
    rows = basis.sparse_rows()
    for i, row in enumerate(rows):
        row[k + i] = Fraction(1)
    pivots, _ = gauss_jordan(rows, k + basis.rows, reduce=False)
    return [c - k for c in pivots if c >= k]


@dataclass(frozen=True)
class Decomposition:
    module: GradedModule
    k_basis: dict            # degree -> Matrix, basis of ker E
    q_basis: dict            # degree -> Matrix, g0-stable complement of K
    q_reps: dict             # degree -> Rep carried by the complement
    induced_part: GradedModule
    induced_embedding: GradedMap
    reduced_part: GradedModule
    reduced_embedding: GradedMap
    projector: GradedMap     # g-equivariant projection V -> induced_part

    @property
    def q_dim(self) -> int:
        return sum(b.cols for b in self.q_basis.values())


def _zero_module(v: GradedModule) -> GradedModule:
    ndeg = v.hi - v.lo + 1
    return make_module(
        v.alg,
        v.lo,
        v.hi,
        (0,) * ndeg,
        ((Matrix.zero(0, 0),) * v.alg.dim0,) * ndeg,
        ((Matrix.zero(0, 0),) * v.alg.dim1,) * ndeg,
    )


def _equivariant_complement(v: GradedModule, j: int, k_cols: Matrix):
    """g0-stable complement of a g0-stable subspace of V^j, by the linear
    section method: equivariance of a section of the quotient map is a
    linear constraint, solvable by Weyl's theorem (trivially when g0 = 0).

    Returns (basis matrix, Rep on the complement in that basis).
    """
    d = v.dim_at(j)
    k = k_cols.cols
    q = d - k
    if q == 0:
        return Matrix.zero(d, 0), Rep(v.alg.even, 0, tuple(Matrix.zero(0, 0) for _ in range(v.alg.dim0)))
    comp_idx = _coordinate_complement(k_cols)
    picks = [[1 if i == c else 0 for c in comp_idx] for i in range(d)]
    t = k_cols.hstack(Matrix(d, len(comp_idx), picks))
    tinv = t.solve_matrix(Matrix.identity(d))
    pi = Matrix(q, d, tinv.data[k:])  # quotient coordinates
    rho_q = []
    for i in range(v.alg.dim0):
        full = tinv * v.rho_at(j, i) * t
        rho_q.append(Matrix(q, q, [row[k:] for row in full.data[k:]]))
    sys = LinearSystem()
    sys.add_unknown("s", d, q)
    sys.add_constraint([(pi, "s", 1)], Matrix.identity(q))
    for i in range(v.alg.dim0):
        sys.add_constraint([(v.rho_at(j, i), "s", 1), (-1, "s", rho_q[i])], Matrix.zero(d, q))
    sol = sys.solve()
    if sol is None:
        raise ModuleError("no equivariant section found; upstream invariant violated")
    s = sol["s"]
    return s, Rep(v.alg.even, q, tuple(rho_q))


def _evaluation_map(v: GradedModule, gen_basis: dict, ind: GradedModule) -> GradedMap:
    """The map Lambda(g1) (x) Q -> V sending e_S (x) q to e_{s1}...e_{sl}.q.

    gen_basis: degree -> matrix of generator columns; `ind` must be the
    direct sum over ascending degrees of the induced modules on those
    generators, matching the induced-module basis order.
    """
    n = v.alg.dim1
    degs = [j for j in sorted(gen_basis) if gen_basis[j].cols]
    # per target degree, collect image columns in direct-sum order
    cols_by_deg = {j: [] for j in ind.degrees()}
    for j in degs:
        q = gen_basis[j]
        for size in range(n + 1):
            for s in combinations(range(n), size):
                for c in range(q.cols):
                    vec = q.col(c)
                    deg = j
                    for e in reversed(s):
                        vec_m = v.odd_at(deg, e) * Matrix.column(vec)
                        vec = vec_m.col(0)
                        deg += 1
                    cols_by_deg[j + size].append((j, vec))
    comps = {}
    for l in ind.degrees():
        entries = cols_by_deg.get(l, [])
        if not entries:
            continue
        # direct-sum component order is ascending source degree; within a
        # component the induced basis is already grouped by exterior degree
        entries.sort(key=lambda t: t[0])
        mat_cols = [vec for _, vec in entries]
        comps[l] = Matrix(
            v.dim_at(l), len(mat_cols), [list(r) for r in zip(*mat_cols)]
        ) if mat_cols else Matrix.zero(v.dim_at(l), 0)
    return make_map(ind, v, comps)


def _induced_on(v: GradedModule, reps: dict) -> GradedModule:
    """Direct sum over ascending degrees j of the induced modules on the
    nonzero reps[j], built by `induced_sum`: in each degree the summands
    come in ascending j, each in the (size, lex) subset basis of the
    exterior factor kron the basis of reps[j]; the zero module on v's
    window if every rep is zero."""
    live = {j: q for j, q in reps.items() if q.dim}
    return induced_sum(v.alg, live) if live else _zero_module(v)


def decompose(v: GradedModule) -> Decomposition:
    """Split V into an induced (projective) part and a reduced complement.

    K = ker(top operator); Q is a g0-equivariant complement of K found by
    a linear section solve; the induced part is the image of the
    evaluation map on Q; the reduced part is the kernel of a g-equivariant
    retraction found by a second linear solve.
    """
    _require_semisimple(v)
    op = top_operator(v)
    k_basis = op.kernel_basis()
    q_basis, q_reps = {}, {}
    for j in v.degrees():
        s, rep = _equivariant_complement(v, j, k_basis[j])
        q_basis[j] = s
        q_reps[j] = rep
    ind = _induced_on(v, q_reps)
    emb = _evaluation_map(v, q_basis, ind)
    if ind.total_dim and emb.total_matrix().rank() != ind.total_dim:
        raise ModuleError("evaluation map unexpectedly fails to be injective")
    # retraction r: V -> Ind with r o emb = id
    sys = graded_map_system(v, ind, name="r")
    for j in ind.degrees():
        if ind.dim_at(j) and v.dim_at(j):
            sys.add_constraint([(1, f"r{j}", emb.comp_at(j))], Matrix.identity(ind.dim_at(j)))
        elif ind.dim_at(j):
            raise ModuleError("induced part exceeds the module in some degree")
    sol = sys.solve()
    if sol is None:
        raise ModuleError("no equivariant retraction found; upstream invariant violated")
    r_comps = {
        j: sol[f"r{j}"] for j in v.degrees() if v.dim_at(j) and ind.dim_at(j)
    }
    projector = make_map(v, ind, r_comps)
    red_basis = {}
    for j in v.degrees():
        red_basis[j] = projector.comp_at(j).nullspace()
    reduced, red_emb = submodule(v, red_basis)
    if v.total_dim != ind.total_dim + reduced.total_dim:
        raise ModuleError("decomposition dimensions do not add up")
    if reduced.total_dim and not is_reduced(reduced):
        raise ModuleError("complement of the induced part is not reduced")
    return Decomposition(
        module=v,
        k_basis={j: k_basis[j] for j in v.degrees()},
        q_basis=q_basis,
        q_reps=q_reps,
        induced_part=ind,
        induced_embedding=emb,
        reduced_part=reduced,
        reduced_embedding=red_emb,
        projector=projector,
    )


def _lift_along_evaluation(target_map: GradedMap):
    """Find sigma with ev o sigma = target_map, for ev the canonical
    evaluation Ind(W as g0-module) ->> W.  Returns the lift or None."""
    w = target_map.target
    v = target_map.source
    reps = {j: w.rep_at(j) for j in w.degrees() if w.dim_at(j)}
    ind = _induced_on(w, reps)
    ev = _evaluation_map(w, {j: Matrix.identity(w.dim_at(j)) for j in reps}, ind)
    sys = graded_map_system(v, ind, name="s")
    for j in v.degrees():
        if not v.dim_at(j):
            continue
        if ind.dim_at(j):
            sys.add_constraint([(ev.comp_at(j), f"s{j}", 1)], target_map.comp_at(j))
        elif not target_map.comp_at(j).is_zero():
            return None
    sol = sys.solve()
    if sol is None:
        return None
    comps = {j: sol[f"s{j}"] for j in v.degrees() if v.dim_at(j) and ind.dim_at(j)}
    return make_map(v, ind, comps)


def is_projective(v: GradedModule) -> bool:
    """Section test: does the identity lift along Ind(V) ->> V?"""
    return projective_certificate(v) is not None


def stable_equal(f: GradedMap, g: GradedMap) -> bool:
    """True iff f - g factors through a projective module."""
    return stable_equal_certificate(f, g) is not None


def stable_equal_certificate(f: GradedMap, g: GradedMap):
    """The lift of f - g along the evaluation epimorphism, or None."""
    if f.source != g.source or f.target != g.target:
        raise ModuleError("stable comparison requires equal sources and targets")
    _require_semisimple(f.source)
    return _lift_along_evaluation(f - g)


def projective_certificate(v: GradedModule):
    """The section matrices witnessing projectivity, or None."""
    _require_semisimple(v)
    return _lift_along_evaluation(identity_map(v))


# ---------------------------------------------------------------------------
# the Frobenius-style isomorphism between induced and coinduced modules


def _perm_sign(a, b) -> int:
    """Sign of the concatenation (a, b) of two disjoint ascending tuples."""
    inv = sum(1 for x in a for y in b if x > y)
    return -1 if inv % 2 else 1


def frobenius_check(alg, q: Rep) -> bool:
    """Build the map into the coinduced space and its inverse via
    complementary monomials, and verify both composites are the identity."""
    n = alg.dim1
    if n < 1:
        raise ModuleError("frobenius check needs dim1 >= 1")
    q.check()
    subsets = []
    for size in range(n + 1):
        subsets.extend(combinations(range(n), size))
    index = {s: k for k, s in enumerate(subsets)}
    dim = len(subsets) * q.dim
    full = tuple(range(n))

    def comp(s):
        return tuple(x for x in full if x not in s)

    f_rows = [[Fraction(0)] * dim for _ in range(dim)]
    g_rows = [[Fraction(0)] * dim for _ in range(dim)]
    for s in subsets:
        sc = comp(s)
        # f sends e_S (x) q to eps(S^c, S) * (dual of lambda_{S^c}) (x) top (x) q
        sgn_f = _perm_sign(sc, s)
        # g sends the dual of lambda_S (x) top (x) q to eps(S, S^c) * e_{S^c} (x) q
        sgn_g = _perm_sign(s, sc)
        for c in range(q.dim):
            f_rows[index[sc] * q.dim + c][index[s] * q.dim + c] = Fraction(sgn_f)
            g_rows[index[sc] * q.dim + c][index[s] * q.dim + c] = Fraction(sgn_g)
    f, g = Matrix(dim, dim, f_rows), Matrix(dim, dim, g_rows)
    ident = Matrix.identity(dim)
    return f * g == ident and g * f == ident
