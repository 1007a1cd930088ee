"""Named golden inputs: modules, morphisms, base representations, and a
seeded random-module generator.

Everything here is built as the library builds it, through the same
constructors and assembled constructions, so the corpus doubles as an
integration test of the whole construction layer.
"""

from __future__ import annotations

import random

from .algebra import (
    SL2_NATURAL,
    SuperAlgebra,
    grassmann,
    sl2_adjoint,
    sl2_trivial,
)
from .gradedmod import (
    GradedMap,
    GradedModule,
    Rep,
    direct_sum,
    dual,
    induced_module,
    shift,
    tensor,
    trivial_module,
    zero_map,
)
from .linalg import Matrix
from .record import Record


class CorpusModule(Record):
    name: str
    module: GradedModule
    induced: bool      # known projective by construction
    reduced_dim: int   # expected dimension of the reduced part


class CorpusMorphism(Record):
    name: str
    map: GradedMap
    stably_zero: bool


class CorpusRep(Record):
    name: str
    alg: SuperAlgebra
    rep: Rep


def _triv_rep(alg: SuperAlgebra, dim: int = 1) -> Rep:
    return Rep.trivial(alg, dim)


def _natural_rep(alg: SuperAlgebra) -> Rep:
    return Rep(alg, 2, tuple(SL2_NATURAL))


def _adjoint_rep(alg: SuperAlgebra) -> Rep:
    return Rep(alg, 3, tuple(alg.ad(i) for i in range(3)))


def _mixed(free: GradedModule, triv: GradedModule):
    """free + trivial, with the inclusion/projection maps of the summands.

    The maps are assembled unchecked: they are the block maps of a direct
    sum, whose actions are block-diagonal, so they commute with every
    action (a test runs `check_map` on them)."""
    m = direct_sum(free, triv)
    incl, proj_triv, proj_free = {}, {}, {}
    for j in m.degrees():
        df, dt = free.dim_at(j), triv.dim_at(j)
        if df:
            incl[j] = Matrix.place(df + dt, df, [(0, 0, 1, Matrix.identity(df))])
            proj_free[j] = Matrix.place(df, df + dt, [(0, 0, 1, Matrix.identity(df))])
        if dt:
            proj_triv[j] = Matrix.place(dt, df + dt, [(0, df, 1, Matrix.identity(dt))])
    return m, GradedMap(free, m, incl), GradedMap(m, free, proj_free), GradedMap(m, triv, proj_triv)


def corpus_modules() -> dict:
    g1, g2 = grassmann(1), grassmann(2)
    st1, st2, st3 = sl2_trivial(1), sl2_trivial(2), sl2_trivial(3)
    sa = sl2_adjoint()

    entries = []

    def add(name, module, induced, reduced_dim):
        entries.append(CorpusModule(name, module, induced, reduced_dim))

    add("grassmann1_free", induced_module(_triv_rep(g1)), True, 0)
    add("grassmann2_free", induced_module(_triv_rep(g2)), True, 0)
    add("grassmann2_free2", induced_module(_triv_rep(g2, 2), base_degree=-1), True, 0)
    add("grassmann1_trivial", trivial_module(g1), False, 1)
    add("grassmann2_trivial_deg2", trivial_module(g2, degree=2), False, 1)
    free2 = induced_module(_triv_rep(g2))
    add("grassmann2_mixed", _mixed(free2, trivial_module(g2))[0], False, 1)
    add("sl2_triv1_trivial", trivial_module(st1), False, 1)
    add("sl2_triv1_free", induced_module(_triv_rep(st1)), True, 0)
    st1_free = induced_module(_triv_rep(st1))
    add("sl2_triv1_mixed", _mixed(st1_free, trivial_module(st1))[0], False, 1)
    add("sl2_triv2_free", induced_module(_triv_rep(st2)), True, 0)
    add("sl2_triv2_natural", induced_module(_natural_rep(st2)), True, 0)
    st2_free = induced_module(_triv_rep(st2))
    add("sl2_triv2_mixed", _mixed(st2_free, trivial_module(st2, degree=1))[0], False, 1)
    add("sl2_triv3_free", induced_module(_triv_rep(st3)), True, 0)
    add("sl2_adjoint_trivial", trivial_module(sa), False, 1)
    add("sl2_adjoint_free", induced_module(_triv_rep(sa)), True, 0)
    add("sl2_adjoint_natural", induced_module(_natural_rep(sa), base_degree=-1), True, 0)
    return {e.name: e for e in entries}


def corpus_morphisms() -> dict:
    g1, g2 = grassmann(1), grassmann(2)
    st1, st2 = sl2_trivial(1), sl2_trivial(2)
    sa = sl2_adjoint()

    entries = []

    def add(name, m, stably_zero):
        entries.append(CorpusMorphism(name, m, stably_zero))

    # maps factored through an induced summand: stably zero
    free2 = induced_module(_triv_rep(g2))
    m2, incl2, projf2, projt2 = _mixed(free2, trivial_module(g2))
    add("grassmann2_mixed_proj", incl2.compose(projf2), True)

    st1_free = induced_module(_triv_rep(st1))
    m1, incl1, projf1, _ = _mixed(st1_free, trivial_module(st1))
    add("sl2_triv1_mixed_proj", incl1.compose(projf1), True)

    st2_free = induced_module(_triv_rep(st2))
    ms, incls, projfs, _ = _mixed(st2_free, trivial_module(st2, degree=1))
    add("sl2_triv2_mixed_proj", incls.compose(projfs), True)

    add("grassmann2_free_zero", zero_map(free2, free2), True)

    # maps with reduced targets carrying a nonzero fiber: not stably zero
    from .gradedmod import identity_map

    add("grassmann1_trivial_id", identity_map(trivial_module(g1)), False)
    add("sl2_triv1_trivial_id", identity_map(trivial_module(st1)), False)
    add("grassmann2_trivial_deg2_id", identity_map(trivial_module(g2, degree=2)), False)
    add("sl2_adjoint_trivial_id", identity_map(trivial_module(sa)), False)
    add("grassmann2_mixed_to_trivial", projt2, False)
    return {e.name: e for e in entries}


def corpus_reps() -> dict:
    """The base representations Q shipped for the induced/coinduced
    comparison check."""
    g2 = grassmann(2)
    st1, st2 = sl2_trivial(1), sl2_trivial(2)
    sa = sl2_adjoint()
    entries = [
        CorpusRep("grassmann2_q1", g2, _triv_rep(g2)),
        CorpusRep("grassmann2_q2", g2, _triv_rep(g2, 2)),
        CorpusRep("sl2_triv1_q1", st1, _triv_rep(st1)),
        CorpusRep("sl2_triv2_natural", st2, _natural_rep(st2)),
        CorpusRep("sl2_triv2_adjoint", st2, _adjoint_rep(st2)),
        CorpusRep("sl2_adjoint_natural", sa, _natural_rep(sa)),
    ]
    return {e.name: e for e in entries}


def nonfullness_witness() -> dict:
    """The obstruction-space configuration with a nonvanishing answer:
    g0 = sl2, one-dimensional trivial odd part, V = W = k, i - j = 3."""
    alg = sl2_trivial(1)
    return {
        "name": "sl2_triv1_nonfullness",
        "v": _triv_rep(alg),
        "w": _triv_rep(alg),
        "i": 3,
        "j": 0,
        "expected_dim": 1,
    }


# ---------------------------------------------------------------------------
# seeded random modules


def _random_rep(rng: random.Random, alg: SuperAlgebra) -> Rep:
    if alg.dim0 == 0:
        return _triv_rep(alg, rng.randint(1, 2))
    choice = rng.randrange(3)
    if choice == 0:
        return _triv_rep(alg, rng.randint(1, 2))
    if choice == 1:
        return _natural_rep(alg)
    return _adjoint_rep(alg)


def _random_piece(rng: random.Random, alg: SuperAlgebra) -> GradedModule:
    base = rng.randint(-2, 2)
    if rng.random() < 0.4:
        return trivial_module(alg, degree=base, dim=rng.randint(1, 3))
    m = induced_module(_random_rep(rng, alg), base_degree=base)
    if rng.random() < 0.3:
        m = dual(m)
    if rng.random() < 0.2:
        m = shift(m, rng.randint(-1, 1))
    return m


def random_module(seed: int, max_dim: int = 24) -> GradedModule:
    """A reproducible valid module: g0 in {0, sl2}, dim1 <= 3, total
    dimension <= max_dim (for max_dim >= 1), assembled from
    validity-preserving operations.  If the first piece and the fallback
    piece both exceed max_dim, it is the 1-dim trivial module."""
    rng = random.Random(seed)
    alg = rng.choice(
        [grassmann(1), grassmann(2), grassmann(3), sl2_trivial(1), sl2_trivial(2), sl2_adjoint()]
    )
    m = _random_piece(rng, alg)
    for _ in range(rng.randint(0, 2)):
        p = _random_piece(rng, alg)
        if rng.random() < 0.25 and m.total_dim * p.total_dim <= max_dim:
            m = tensor(m, p)
        elif m.total_dim + p.total_dim <= max_dim:
            m = direct_sum(m, p)
    if m.total_dim > max_dim:
        m = _random_piece(rng, alg)
    if m.total_dim > max_dim:
        m = trivial_module(alg)
    return m


def random_modules(count: int, seed: int, max_dim: int = 24):
    return [random_module(seed + k, max_dim) for k in range(count)]
