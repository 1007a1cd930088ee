"""Projectivity tests, the projective/reduced decomposition, and the
stable-category equality decision procedure.

Projectivity is freeness over Lambda(g1), one rank of the top operator.
Stable equality is decided by Higman's trace criterion: a map factors
through a projective exactly when it is the trace of a g0-map, a linear
solve on degree blocks.  The certificate is the lift along the
canonical evaluation epimorphism from an induced module (projective
whenever the even part is semisimple or zero), written in closed form
from that g0-map.  The projector of the decomposition is the trace of
a g0-map pi too, written into the induced basis by the same writer
(`_write_trace`).  Every map here is solved for or written in closed
form, and is returned as it is: the solve imposes exactly the
identities a check would evaluate, and each closed form says why it is
a g-map.  The tests hold the checks; the one `check_map` here is
`frobenius_check`'s answer.
"""

from __future__ import annotations


from .algebra import is_semisimple
from .gradedmod import (
    GradedMap,
    GradedModule,
    ModuleError,
    Rep,
    check_exterior_size,
    check_map,
    concentrated,
    direct_sum,
    dual,
    graded_map_system,
    identity_map,
    induced_blocks,
    induced_module,
    induced_sum,
    merge_sign,
    restrict,
    shift,
    submodule,
    subsets,
    trivial_module,
)
from .linalg import Matrix
from .record import Record


class HypothesisError(ValueError):
    """Raised when the semisimple-or-zero hypothesis on g0 fails."""


def _require_semisimple(v: GradedModule):
    if v.alg.dim0 and not is_semisimple(v.alg):
        raise HypothesisError("g0 must be semisimple (or zero) for this operation")


def top_operator(v: GradedModule) -> GradedMap:
    """E = a_{e_1} o a_{e_2} o ... o a_{e_n}, the odd word of all of g1, as
    the graded map V -> shift(V, -n) with components E_j: V^j -> V^(j+n).

    E commutes with each a_e, as both composites are 0 by the odd
    anticommutation, and with each x in g0 up to the trace of g0 on g1:
    E rho(x) = rho(x) E - tr(A_x) E by the mixed brackets, and the trace
    is zero for semisimple g0.  So ker E is a submodule with nothing to
    check, by identities `make_module` has verified.  For n = 0 the word
    is empty and E is the identity."""
    n = v.alg.dim1
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
    d, k = basis.rows, basis.cols
    joined = Matrix.place(d, k + d, [(0, 0, 1, basis), (0, k, 1, Matrix.identity(d))])
    return [c - k for c in joined.pivot_columns() if c >= k]


class Decomposition(Record):
    q_basis: dict            # degree -> Matrix, g0-stable complement of ker E
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
        return Matrix.zero(d, 0), Rep.trivial(v.alg, 0)
    comp_idx = _coordinate_complement(k_cols)
    picks = Matrix.from_nonzeros(d, q, [(c, p, 1) for p, c in enumerate(comp_idx)])
    t = Matrix.place(d, d, [(0, 0, 1, k_cols), (0, k, 1, picks)])
    pi = t.solve_matrix(Matrix.identity(d)).block(k, 0, q, d)  # quotient coordinates
    rho_q = tuple(pi * v.rho_at(j, i) * picks for i in range(v.alg.dim0))
    rep_q = Rep(v.alg, q, rho_q)
    sys = graded_map_system(concentrated(rep_q, j), concentrated(v.rep_at(j), j))
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
        placed, c0 = [], 0
        for j, s in blocks:
            placed.append((0, c0, 1, word(j, s) * live[j]))
            c0 += live[j].cols
        comps[l] = Matrix.place(v.dim_at(l), c0, placed)
    return GradedMap(ind, v, comps)


def _induced_on(v: GradedModule, reps: dict) -> GradedModule:
    """Direct sum over ascending degrees j of the induced modules on the
    nonzero reps[j], built by `induced_sum`: in each degree the summands
    come in ascending j, each in the (size, lex) subset basis of the
    exterior factor kron the basis of reps[j]; the zero module on v's
    window if every rep is zero."""
    live = {j: q for j, q in reps.items() if q.dim}
    if live:
        return induced_sum(live)
    return direct_sum(trivial_module(v.alg, v.lo, 0), trivial_module(v.alg, v.hi, 0))


def decompose(v: GradedModule) -> Decomposition:
    """Split V into an induced (projective) part and a reduced complement.

    K = ker(top operator); Q is a g0-equivariant complement of K found by
    a linear section solve; the induced part is the image of the
    evaluation map emb on Q.  The projector r is the trace of a g0-map pi
    of degree -n, written like sigma (`_write_trace`): pi_j: V^(j+n) ->
    Q_j is one small solve, `graded_map_system` on two `concentrated`
    modules plus pi_j o emb = the projection onto the top block (j,
    {0..n-1}), a g0-map as g0 acts on Lambda^n(g1) by its trace on g1,
    zero for g0 semisimple.  So r o emb = id: on a generator q of Q_j the
    trace keeps only S = {0..n-1}, as pi kills every other block of emb's
    image, and gives 1 (x) pi(E q) = 1 (x) q; a g-map fixing Q is the
    identity.  So emb is injective, and ker r, the reduced part, has the
    dimension left over.
    """
    _require_semisimple(v)
    n, a_v = v.alg.dim1, _odd_words(v)
    full = tuple(range(n))
    qs = {j: _equivariant_complement(v, j, a_v(j, full).nullspace()) for j in v.degrees()}
    q_basis = {j: s for j, (s, _) in qs.items()}
    reps = {j: rep for j, (_, rep) in qs.items() if rep.dim}
    ind = _induced_on(v, reps)
    emb = _evaluation_map(v, q_basis, ind)
    blocks, pi = induced_blocks(n, reps), {}
    for j, q in reps.items():
        d = j + n
        off = sum(reps[i].dim for i, _ in blocks[d][: blocks[d].index((j, full))])
        top = Matrix.place(q.dim, ind.dim_at(d), [(0, off, 1, Matrix.identity(q.dim))])
        sys = graded_map_system(concentrated(v.rep_at(d), d), concentrated(q, d))
        sys.add_constraint([(1, d, emb.comp_at(d))], top)
        sol = sys.solve()
        if sol is None:
            raise ModuleError("no equivariant retraction found; upstream invariant violated")
        pi[d] = sol[d]
    projector = _write_trace(v, ind, reps, pi, a_v)
    reduced, red_emb = submodule(v, {j: projector.comp_at(j).nullspace() for j in v.degrees()})
    if reduced.total_dim and not is_reduced(reduced):
        raise ModuleError("complement of the induced part is not reduced")
    return Decomposition(
        q_basis=q_basis,
        induced_part=ind,
        induced_embedding=emb,
        reduced_part=reduced,
        reduced_embedding=red_emb,
        projector=projector,
    )


def _trace_preimage(h: GradedMap, a_v=None):
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
    a_v, if given, is V's `_odd_words`, whose words a caller reuses.
    """
    v, w = h.source, h.target
    n = v.alg.dim1
    check_exterior_size(n, max(v.total_dim, w.total_dim), "the trace sum")
    sys = graded_map_system(restrict(v), shift(restrict(w), n))
    a_v, a_w = a_v or _odd_words(v), _odd_words(w)
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


def _write_trace(v: GradedModule, ind: GradedModule, reps: dict, tau: dict, a_v) -> GradedMap:
    """Tr(tau) written into the induced basis: the map V -> ind, x -> sum
    over S of eps(S, S^c) e_{S^c} (x) tau(a_S x), for ind = `_induced_on`
    the nonzero Reps {j: Q_j} and tau {j + n: V^(j+n) -> Q_j}.  On V^d
    the block (j, S^c) of `induced_blocks` is eps(S, S^c) tau a_S.  It
    is a g-map when tau is a g0-map (the dual bases e_S and eps(S, S^c)
    e_{S^c} of the Frobenius extension), and evaluating it gives Tr(tau).
    a_v is V's `_odd_words`."""
    n = v.alg.dim1
    comps = {}
    for d, blocks in induced_blocks(n, reps).items():
        if not v.dim_at(d):
            continue
        placed, r0 = [], 0
        for j, sc in blocks:
            s = _complement(n, sc)
            if j + n in tau:
                placed.append((r0, 0, merge_sign(s, sc), tau[j + n] * a_v(d, s)))
            r0 += reps[j].dim
        comps[d] = Matrix.place(ind.dim_at(d), v.dim_at(d), placed)
    return GradedMap(v, ind, comps)


def _lift_along_evaluation(target_map: GradedMap):
    """sigma with ev o sigma = target_map, for ev the canonical evaluation
    Ind(W as g0-module) ->> W, or None: the trace of the trace preimage
    tau, written by `_write_trace`, so ev o sigma = Tr(tau) = target_map.
    The words a_S of V are formed once, for the trace sums and for sigma."""
    v, w = target_map.source, target_map.target
    a_v = _odd_words(v)
    tau = _trace_preimage(target_map, a_v)
    if tau is None:
        return None
    reps = {j: w.rep_at(j) for j in w.degrees() if w.dim_at(j)}
    return _write_trace(v, _induced_on(w, reps), reps, tau, a_v)


def is_projective(v: GradedModule) -> bool:
    """Is V free over Lambda(g1), that is 2^n * rank E = dim V for the top
    operator E and n = dim g1?  Lambda(g1) is local and self-injective:
    where E.m != 0, Lambda(g1).m is free and splits off, so each free
    summand adds 1 to rank E and E kills the rest.  A g0-stable
    complement Q of g1.V gives Lambda(g1) (x) Q = V, so free is induced.
    Q needs g0 semisimple (or zero): over an abelian g0 a free V need not
    be induced, and then its identity has no trace preimage.  No solve."""
    _require_semisimple(v)
    op = top_operator(v)
    return (1 << v.alg.dim1) * sum(op.comp_at(j).rank() for j in v.degrees()) == v.total_dim


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


def frobenius_check(q: Rep) -> bool:
    """Does Ind(Q) = Lambda(g1) (x) Q match Coind(Q), the dual of Ind(Q*)
    shifted by n = dim g1, through the signed permutation
    e_S (x) q_c -> (-1)^|S| eps(S^c, S) (e_{S^c} (x) q*_c)^*, eps =
    `merge_sign`?  The answer is `check_map` on that map.  It is the
    identity on Q, so for Q != 0 it commutes with g0 only if g0 acts
    trivially on Lambda^n(g1): a g0-action on g1 of nonzero trace gives
    False."""
    n = q.alg.dim1
    ind = induced_module(q)
    coind = shift(dual(induced_module(dual(concentrated(q, 0)).rep_at(0))), n)
    blocks, ident = induced_blocks(n, {0: q}), Matrix.identity(q.dim)
    comps = {}
    for l in range(n + 1):
        # degree l of Coind(Q) is dual to degree n - l of Ind(Q*)
        pos = {s: k for k, (_, s) in enumerate(blocks[n - l])}
        placed = []
        for k, (_, s) in enumerate(blocks[l]):
            sc = _complement(n, s)
            sign = merge_sign(sc, s) * (-1 if l % 2 else 1)
            placed.append((pos[sc] * q.dim, k * q.dim, sign, ident))
        comps[l] = Matrix.place(coind.dim_at(l), ind.dim_at(l), placed)
    try:
        check_map(GradedMap(ind, coind, comps))
    except ModuleError:
        return False
    return True
