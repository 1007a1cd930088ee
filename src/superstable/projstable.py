"""Projectivity tests, the projective/reduced decomposition, and the
stable-category equality decision procedure.

Projectivity and stable equality are decided by Higman's trace
criterion: the identity (resp. a difference of maps) factors through a
projective exactly when it is the trace of a g0-map, a linear solve on
degree blocks.  The certificate is the lift along the canonical
evaluation epimorphism from an induced module (projective whenever the
even part is semisimple or zero), written in closed form from that
g0-map.  Every map here is solved for or written in closed form, and is
returned as it is: the solve imposes exactly the identities a check
would evaluate, and each closed form says why it is a g-map.  The tests
hold the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import is_semisimple
from .gradedmod import (
    GradedMap,
    GradedModule,
    ModuleError,
    Rep,
    check_exterior_size,
    concentrated,
    direct_sum,
    graded_map_system,
    identity_map,
    induced_blocks,
    induced_sum,
    merge_sign,
    restrict,
    shift,
    submodule,
    subsets,
    trivial_module,
)
from .linalg import Matrix, gauss_jordan, vanishes


class HypothesisError(ValueError):
    """Raised when the semisimple-or-zero hypothesis on g0 fails."""


def _require_semisimple(v: GradedModule):
    if v.alg.dim0 and not is_semisimple(v.alg.even):
        raise HypothesisError("g0 must be semisimple (or zero) for this operation")


def top_operator(v: GradedModule) -> GradedMap:
    """E = a_{e_1} o a_{e_2} o ... o a_{e_n}, the odd word of all of g1, as
    the graded map V -> shift(V, -n) with components E_j: V^j -> V^(j+n).

    E commutes with each a_e, as both composites are 0 by the odd
    anticommutation, and with each x in g0 up to the trace of g0 on g1:
    E rho(x) = rho(x) E - tr(A_x) E by the mixed brackets, and the trace
    is zero for semisimple g0.  So ker E is a submodule with nothing to
    check, by identities `make_module` has verified."""
    n = v.alg.dim1
    if n == 0:
        raise ModuleError("top operator undefined for dim1 = 0 (empty product is the identity)")
    word = _odd_words(v)
    return GradedMap(v, shift(v, -n), {j: word(j, tuple(range(n))) for j in v.degrees()})


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
        return Matrix.zero(d, 0), Rep.trivial(v.alg.even, 0)
    comp_idx = _coordinate_complement(k_cols)
    picks = [[1 if i == c else 0 for c in comp_idx] for i in range(d)]
    t = k_cols.hstack(Matrix(d, len(comp_idx), picks))
    tinv = t.solve_matrix(Matrix.identity(d))
    pi = Matrix(q, d, tinv.data[k:])  # quotient coordinates
    rho_q = []
    for i in range(v.alg.dim0):
        full = tinv * v.rho_at(j, i) * t
        rho_q.append(Matrix(q, q, [row[k:] for row in full.data[k:]]))
    rep_q = Rep(v.alg.even, q, tuple(rho_q))
    sys = graded_map_system(concentrated(v.alg, rep_q, j), concentrated(v.alg, v.rep_at(j), j))
    sys.add_constraint([(pi, j, 1)], Matrix.identity(q))
    sol = sys.solve()
    if sol is None:
        raise ModuleError("no equivariant section found; upstream invariant violated")
    return sol[j], rep_q


def _complement(n: int, s: tuple) -> tuple:
    """S^c, the ascending tuple of the x in range(n) not in S."""
    return tuple(x for x in range(n) if x not in s)


def _odd_words(m: GradedModule):
    """a_S on degree d, the composite a_{s1} o ... o a_{sl} (last index
    acting first) from m^d to m^(d+|S|), as a memoised function of (d, S)."""
    memo = {}

    def word(d: int, s: tuple) -> Matrix:
        key = (d, s)
        if key not in memo:
            if not s:
                memo[key] = Matrix.identity(m.dim_at(d))
            else:
                memo[key] = m.odd_at(d + len(s) - 1, s[0]) * word(d, s[1:])
        return memo[key]

    return word


def _evaluation_map(v: GradedModule, gen_basis: dict, ind: GradedModule) -> GradedMap:
    """The map Lambda(g1) (x) Q -> V sending e_S (x) q to e_{s1}...e_{sl}.q.

    gen_basis: degree -> matrix of generator columns; `ind` must be the
    induced sum on those generators (`_induced_on`), so its block (j, S)
    of `induced_blocks` maps by a_S times gen_basis[j].  It is a g-map
    when the columns span a g0-stable Q carrying ind's action: e_i maps
    e_S to e_i ^ e_S and so a_S to a_i a_S, and the mixed brackets give
    [x, a_S] = a_(x.e_S).
    """
    word = _odd_words(v)
    live = {j: b for j, b in gen_basis.items() if b.cols}
    comps = {}
    for l, blocks in induced_blocks(v.alg.dim1, live).items():
        cols = [c for j, s in blocks for c in (word(j, s) * live[j]).transpose().data]
        comps[l] = Matrix._of(v.dim_at(l), len(cols), [list(r) for r in zip(*cols)])
    return GradedMap(ind, v, comps)


def _induced_on(v: GradedModule, reps: dict) -> GradedModule:
    """Direct sum over ascending degrees j of the induced modules on the
    nonzero reps[j], built by `induced_sum`: in each degree the summands
    come in ascending j, each in the (size, lex) subset basis of the
    exterior factor kron the basis of reps[j]; the zero module on v's
    window if every rep is zero."""
    live = {j: q for j, q in reps.items() if q.dim}
    if live:
        return induced_sum(v.alg, live)
    return direct_sum(trivial_module(v.alg, v.lo, 0), trivial_module(v.alg, v.hi, 0))


def decompose(v: GradedModule) -> Decomposition:
    """Split V into an induced (projective) part and a reduced complement.

    K = ker(top operator); Q is a g0-equivariant complement of K found by
    a linear section solve; the induced part is the image of the
    evaluation map on Q; the reduced part is the kernel of a g-equivariant
    retraction found by a second linear solve, a solution of
    `graded_map_system` and so a g-map as it is.
    """
    _require_semisimple(v)
    op = top_operator(v)
    k_basis = {j: op.comp_at(j).nullspace() for j in v.degrees()}
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
    sys = graded_map_system(v, ind)
    for j in ind.degrees():
        if ind.dim_at(j) and v.dim_at(j):
            sys.add_constraint([(1, j, emb.comp_at(j))], Matrix.identity(ind.dim_at(j)))
        elif ind.dim_at(j):
            raise ModuleError("induced part exceeds the module in some degree")
    sol = sys.solve()
    if sol is None:
        raise ModuleError("no equivariant retraction found; upstream invariant violated")
    projector = GradedMap(v, ind, sol)
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
        k_basis=k_basis,
        q_basis=q_basis,
        q_reps=q_reps,
        induced_part=ind,
        induced_embedding=emb,
        reduced_part=reduced,
        reduced_embedding=red_emb,
        projector=projector,
    )


def _trace_preimage(h: GradedMap):
    """A g0-map tau of degree -n with Tr(tau) = h, or None.

    Tr(tau) = sum over S of eps(S, S^c) a^W_{S^c} tau a^V_S, with eps
    = `merge_sign(S, S^c)` and n = dim g1.  Lambda(g1) x U(g0) is a
    Frobenius extension of U(g0), so by Higman's criterion h: V -> W
    factors through a projective exactly when such a tau exists (g0
    semisimple or zero).  tau is a graded map restrict(V) -> W shifted by
    n, found by `graded_map_system` plus one trace constraint per degree;
    returns {j: tau_j: V^j -> W^(j-n)} over the degrees where both spaces
    are nonzero.  The solution is returned as it is: its constraints are
    the squares `check_map` evaluates and the trace sums themselves.
    """
    v, w = h.source, h.target
    n = v.alg.dim1
    check_exterior_size(n, max(v.total_dim, w.total_dim), "the trace sum")
    sys = graded_map_system(restrict(v), shift(restrict(w), n))
    a_v, a_w = _odd_words(v), _odd_words(w)
    for d in v.degrees():
        if not (v.dim_at(d) and w.dim_at(d)):
            continue
        terms = []
        for s in subsets(n):
            j, sc = d + len(s), _complement(n, s)
            if j in sys.shapes:
                terms.append((a_w(j - n, sc).scale(merge_sign(s, sc)), j, a_v(d, s)))
        sys.add_constraint(terms, h.comp_at(d))
    return sys.solve()


def _lift_along_evaluation(target_map: GradedMap):
    """sigma with ev o sigma = target_map, for ev the canonical evaluation
    Ind(W as g0-module) ->> W, or None.  From the trace preimage tau,
    sigma(x) = sum over S of eps(S, S^c) e_{S^c} (x) tau(a_S x), written
    straight into the induced basis: on V^d, the block (j, S^c) of
    `induced_blocks` is eps(S, S^c) tau a_S, with tau from degree j + n.
    sigma is a g-map because tau is a g0-map (the dual bases e_S and
    eps(S, S^c) e_{S^c} of the Frobenius extension), and ev o sigma =
    Tr(tau) = target_map by construction."""
    tau = _trace_preimage(target_map)
    if tau is None:
        return None
    v, w = target_map.source, target_map.target
    n = v.alg.dim1
    reps = {j: w.rep_at(j) for j in w.degrees() if w.dim_at(j)}
    ind = _induced_on(w, reps)
    a_v = _odd_words(v)
    comps = {}
    for d, blocks in induced_blocks(n, reps).items():
        if not v.dim_at(d):
            continue
        rows = []
        for j, sc in blocks:
            s = _complement(n, sc)
            if j + n in tau:
                rows += (tau[j + n] * a_v(d, s)).scale(merge_sign(s, sc)).data
            else:
                rows += [[0] * v.dim_at(d) for _ in range(w.dim_at(j))]
        comps[d] = Matrix(ind.dim_at(d), v.dim_at(d), rows)
    return GradedMap(v, ind, comps)


def is_projective(v: GradedModule) -> bool:
    """Higman's test: is the identity of V a trace?"""
    _require_semisimple(v)
    return _trace_preimage(identity_map(v)) is not None


def _difference(f: GradedMap, g: GradedMap) -> GradedMap:
    if f.source != g.source or f.target != g.target:
        raise ModuleError("stable comparison requires equal sources and targets")
    _require_semisimple(f.source)
    return f - g


def stable_equal(f: GradedMap, g: GradedMap) -> bool:
    """True iff f - g factors through a projective module (is a trace)."""
    return _trace_preimage(_difference(f, g)) is not None


def stable_equal_certificate(f: GradedMap, g: GradedMap):
    """The lift of f - g along the evaluation epimorphism, or None."""
    return _lift_along_evaluation(_difference(f, g))


def projective_certificate(v: GradedModule):
    """The section matrices witnessing projectivity, or None."""
    _require_semisimple(v)
    return _lift_along_evaluation(identity_map(v))


# ---------------------------------------------------------------------------
# the Frobenius-style isomorphism between induced and coinduced modules


def frobenius_check(alg, q: Rep) -> bool:
    """Build the map into the coinduced space and its inverse via
    complementary monomials, both signed permutations held as sparse
    rows, and verify both composites are the identity."""
    n = alg.dim1
    if n < 1:
        raise ModuleError("frobenius check needs dim1 >= 1")
    check_exterior_size(n, q.dim, "the Frobenius comparison")
    q.check()
    basis = subsets(n)
    index = {s: k for k, s in enumerate(basis)}
    dim = len(basis) * q.dim
    f_rows = [{} for _ in range(dim)]
    g_rows = [{} for _ in range(dim)]
    for s in basis:
        sc = _complement(n, s)
        # f sends e_S (x) q to eps(S^c, S) * (dual of lambda_{S^c}) (x) top (x) q
        sgn_f = Fraction(merge_sign(sc, s))
        # g sends the dual of lambda_S (x) top (x) q to eps(S, S^c) * e_{S^c} (x) q
        sgn_g = Fraction(merge_sign(s, sc))
        for c in range(q.dim):
            f_rows[index[sc] * q.dim + c][index[s] * q.dim + c] = sgn_f
            g_rows[index[sc] * q.dim + c][index[s] * q.dim + c] = sgn_g
    ident = [{i: Fraction(1)} for i in range(dim)]
    return all(
        vanishes([(1, (a, b)), (-1, (ident,))], dim)
        for a, b in ((f_rows, g_rows), (g_rows, f_rows))
    )
