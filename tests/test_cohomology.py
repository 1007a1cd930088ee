from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from superstable.algebra import (
    SL2_NATURAL,
    SuperAlgebra,
    grassmann,
    sl2_trivial,
)
from superstable.cohomology import (
    MAX_CE_ENTRIES,
    _exponents,
    _multidegree_range,
    _ce_differential,
    ce_size,
    cech_closed_form,
    cech_line_bundle,
    chevalley_eilenberg,
    ext_twisted,
    koszul_odd,
    nonfullness_ext,
    sym_power,
)
from superstable.corpus import corpus_modules, corpus_reps, nonfullness_witness
from superstable.gradedmod import ModuleError, Rep, concentrated, dual, tensor
from superstable.linalg import Matrix, kron
from superstable.rigid import CohomologyTable


def test_cech_against_closed_form_full_sweep():
    for r in (1, 2, 3):
        for d in range(-8, 9):
            assert (
                cech_line_bundle(r, d).as_dict() == cech_closed_form(r, d).as_dict()
            ), (r, d)
            # a table is its entries: equal answers compare equal
            assert cech_line_bundle(r, d) == cech_closed_form(r, d), (r, d)


@lru_cache(maxsize=None)
def _piece_of_negative_set(r, neg):
    """The one-multidegree subcomplex with negative exponents at `neg`:
    every chart set of P^r scanned, those containing `neg` kept, and the
    incidence differentials ranked densely."""
    bases = {p: [s for s in combinations(range(r + 1), p + 1) if neg.issubset(s)] for p in range(r + 1)}
    ranks = {}
    for p in range(r):
        cols = {s: k for k, s in enumerate(bases[p])}
        data = [[Fraction(0)] * len(cols) for _ in bases[p + 1]]
        for ri, s in enumerate(bases[p + 1]):
            for k in range(len(s)):
                ci = cols.get(s[:k] + s[k + 1 :])
                if ci is not None:
                    data[ri][ci] = Fraction(-1 if k % 2 else 1)
        ranks[p] = Matrix(len(data), len(cols), data).rank()
    return CohomologyTable.of_complex({p: len(b) for p, b in bases.items()}, ranks)


def _cech_by_enumeration(r, d):
    """The reference: every multidegree of `_multidegree_range` adds the
    cohomology of its piece, found from its set of negative exponents."""
    lo, t = _multidegree_range(r, d)
    negs = Counter(frozenset(i for i, x in enumerate(e) if x + lo < 0) for e in _exponents(r + 1, t))
    totals = {p: 0 for p in range(r + 1)}
    for neg, count in negs.items():
        for p, v in _piece_of_negative_set(r, neg).entries:
            totals[p] += count * v
    return CohomologyTable.from_dict(totals)


def test_cech_equals_the_multidegree_enumeration():
    # the pieces of the r + 2 kinds, times the counted multidegrees of
    # each, against one piece per enumerated multidegree; a box of at most
    # 50 000 multidegrees keeps the enumeration to about 2 s
    checked = 0
    for r in range(1, 7):
        for d in range(-15, 16):
            lo, t = _multidegree_range(r, d)
            if comb(t + r, r) <= 50_000:
                assert cech_line_bundle(r, d) == _cech_by_enumeration(r, d), (r, d)
                checked += 1
    assert checked == 158


def test_cech_specific_values():
    assert cech_line_bundle(1, -2).as_dict() == {0: 0, 1: 1}
    assert cech_line_bundle(2, 3).dim(0) == comb(5, 2)
    assert cech_line_bundle(3, -7).dim(3) == comb(6, 3)
    assert cech_line_bundle(2, -2).as_dict() == {0: 0, 1: 0, 2: 0}


def test_cech_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cech_line_bundle(0, 1)


def test_ext_entries_only_bottom_and_top():
    for r in (1, 2, 3):
        for i in range(-4, 5):
            for j in range(-4, 5):
                desc = ext_twisted(i, j, r)
                for e in desc.entries:
                    assert e.cohom_degree in (0, r)
                    assert e.dim > 0


def test_ext_symmetric_degrees():
    d = ext_twisted(0, 3, 2)
    (bottom,) = d.entries
    assert bottom.cohom_degree == 0 and bottom.sym_degree == 3
    assert not bottom.top_twist_present
    d = ext_twisted(4, 0, 3)  # difference -4 = -(r+1): top contribution
    (top,) = d.entries
    assert top.cohom_degree == 3 and top.sym_degree == 0 and top.top_twist_present
    assert top.dim == 1


def test_ext_top_iff_condition():
    # a contribution in cohomological degree i-m-1 exists iff i-m = r+1
    for r in (1, 2, 3):
        for gap in range(1, 9):
            desc = ext_twisted(gap, 0, r)
            ent = desc.entry_at(gap - 1)
            assert (ent is not None and ent.dim > 0) == (gap == r + 1), (r, gap)


def test_ce_sl2_trivial_paper_values():
    table = chevalley_eilenberg(Rep.trivial(sl2_trivial(0), 1))
    assert table.as_dict() == {0: 1, 1: 0, 2: 0, 3: 1}


def test_ce_sl2_nontrivial_irreducibles_vanish():
    g0 = sl2_trivial(0)
    nat = Rep(g0, 2, tuple(SL2_NATURAL))
    assert chevalley_eilenberg(nat).total == 0
    adj = Rep(g0, 3, tuple(g0.ad(i) for i in range(3)))
    assert chevalley_eilenberg(adj).total == 0


def test_ce_size_counts_the_differential_slots():
    g0 = sl2_trivial(0)
    for rep in (Rep.trivial(g0, 1), Rep(g0, 2, tuple(SL2_NATURAL))):
        mats = [_ce_differential(rep, p) for p in range(g0.dim0)]
        assert ce_size(g0.dim0, rep.dim) == sum(m.rows * m.cols for m in mats)
    for dim0 in range(9):
        assert ce_size(dim0, 3) == sum(comb(dim0, p + 1) * comb(dim0, p) * 9 for p in range(dim0))
    # refused before a differential is built
    ab = SuperAlgebra(8, [[[0] * 8] * 8] * 8, 0, (Matrix.zero(0, 0),) * 8)
    big = Rep(ab, 19, (Matrix.zero(19, 19),) * 8)
    assert ce_size(8, 18) <= MAX_CE_ENTRIES < ce_size(8, 19)
    with pytest.raises(ValueError, match=f"has {ce_size(8, 19)} differential entries, over the limit"):
        chevalley_eilenberg(big)


def test_ce_abelian_one_dimensional():
    ab = SuperAlgebra(1, [[[0]]], 0, (Matrix.zero(0, 0),))
    t = chevalley_eilenberg(Rep(ab, 1, (Matrix.zero(1, 1),)))
    assert t.as_dict() == {0: 1, 1: 1}


def test_sym_power_dims_and_validity():
    g0 = sl2_trivial(0)
    nat = Rep(g0, 2, tuple(SL2_NATURAL))
    for m in range(5):
        s = sym_power(nat, m)
        s.check()
        assert s.dim == m + 1
    # S^2(natural) is the adjoint: same Casimir-free invariant count
    assert chevalley_eilenberg(sym_power(nat, 2)).total == 0


def test_koszul_trivial_line_all_ones():
    v = corpus_modules()["grassmann1_trivial"].module
    assert koszul_odd(v, 8).as_dict() == {p: 1 for p in range(8)}


def test_koszul_free_rank_one():
    v = corpus_modules()["grassmann1_free"].module
    table = koszul_odd(v, 8).as_dict()
    assert table[0] == 1
    assert all(table[p] == 0 for p in range(1, 8))
    v2 = corpus_modules()["grassmann2_free"].module
    table2 = koszul_odd(v2, 6).as_dict()
    assert table2[0] == 1 and all(table2[p] == 0 for p in range(1, 6))


def test_koszul_size_is_the_binomial_sum_until_it_passes_the_printed_bound():
    from superstable.cohomology import _PRINTED_SIZE, koszul_size

    mods = [corpus_modules()[name].module for name in ("grassmann1_trivial", "sl2_adjoint_natural")]
    mods.append(concentrated(Rep.trivial(grassmann(40), 1), 0))
    for v in mods:
        n = v.alg.dim1
        for p_max in range(1, 45):
            exact = sum(comb(p + n, p + 1) * comb(p + n - 1, p) for p in range(p_max)) * v.total_dim ** 2
            size = koszul_size(v, p_max)
            assert size == exact if exact <= _PRINTED_SIZE else size > _PRINTED_SIZE
    assert koszul_size(mods[-1], 44) > _PRINTED_SIZE


def test_nonfullness_witness_value():
    w = nonfullness_witness()
    assert (
        nonfullness_ext(w["v"], w["w"], w["i"], w["j"])
        == w["expected_dim"]
    )


def test_nonfullness_vanishing_cases():
    alg = sl2_trivial(1)
    k = Rep.trivial(alg, 1)
    # below the window: m < 0
    assert nonfullness_ext(k, k, 0, 0) == 0
    assert nonfullness_ext(k, k, 1, 0) == 0
    # p = 2: H^2(sl2, trivial coefficients) = 0
    assert nonfullness_ext(k, k, 2, 0) == 0
    # p beyond dim g0
    assert nonfullness_ext(k, k, 5, 0) == 0


# ---------------------------------------------------------------------------
# nonfullness_ext against the product of g0-representations it replaced,
# kept here as the oracle


def rep_dual(q):
    return Rep(q.alg, q.dim, tuple((-m).transpose() for m in q.mats))


def rep_tensor(a, b):
    mats = tuple(
        kron(x, Matrix.identity(b.dim)) + kron(Matrix.identity(a.dim), y)
        for x, y in zip(a.mats, b.mats)
    )
    return Rep(a.alg, a.dim * b.dim, mats)


def nonfullness_oracle(alg, v, w, i, j):
    n = alg.dim1
    m = i - j - n
    if m < 0 or m + 1 > alg.dim0:
        return 0
    coeff = rep_tensor(rep_tensor(rep_dual(v), sym_power(Rep(alg, n, alg.action), m)), w)
    return chevalley_eilenberg(coeff).dim(m + 1)


def _abelian_line():
    """g0 = k x, abelian, acting on a one-dimensional g1 by 1: its
    representations are not self-dual (x by 1 and by -1 differ), unlike
    those of sl2, so the dual changes the answer."""
    alg = SuperAlgebra(1, [[[0]]], 1, (Matrix.from_rows([[1]]),), name="abelian_line")
    reps = {
        f"x={c}": Rep(alg, 1, (Matrix.from_rows([[c]]),)) for c in (1, -1, 2)
    }
    reps["jordan"] = Rep(alg, 2, (Matrix.from_rows([[1, 1], [0, 1]]),))
    return alg, reps


def test_nonfullness_matches_rep_product_oracle():
    groups = {}
    for e in corpus_reps().values():
        groups.setdefault(e.alg, {})[e.name] = e.rep
    groups.update([_abelian_line()])
    nonzero = 0
    for alg, reps in groups.items():
        for v in reps.values():
            for w in reps.values():
                for i in range(-1, alg.dim1 + alg.dim0 + 2):
                    for j in (-1, 0, 1):
                        got = nonfullness_ext(v, w, i, j)
                        assert got == nonfullness_oracle(alg, v, w, i, j), (alg.name, i, j)
                        nonzero += got > 0
    assert nonzero


def test_nonfullness_ranks_the_two_differentials_at_p():
    # the full table of the same coefficient module, degree p = i - j - dim1 + 1
    nonzero = 0
    for e in corpus_reps().values():
        alg = e.alg
        for w in (e.rep, Rep.trivial(alg, 1)):
            for i in range(alg.dim1, alg.dim1 + alg.dim0 + 2):
                m = i - alg.dim1
                got = nonfullness_ext(e.rep, w, i, 0)
                if m + 1 > alg.dim0:
                    assert got == 0
                    continue
                sym = sym_power(Rep(alg, alg.dim1, alg.action), m)
                v0, s0, w0 = (concentrated(q, 0) for q in (e.rep, sym, w))
                coeff = tensor(tensor(dual(v0), s0), w0).rep_at(0)
                assert got == chevalley_eilenberg(coeff).dim(m + 1), (e.name, i)
                nonzero += got > 0
    assert nonzero
    # abelian dim0 = 8 on trivial V, W of dims 3 and 6: H^1 is all of
    # C^1 = 8 * 18, found from two differentials of the eight
    ab = SuperAlgebra(8, [[[0] * 8] * 8] * 8, 1, (Matrix.zero(1, 1),) * 8)
    assert nonfullness_ext(Rep.trivial(ab, 3), Rep.trivial(ab, 6), 1, 0) == 144


def test_nonfullness_refuses_reps_over_two_algebras():
    v, w = Rep.trivial(sl2_trivial(1), 1), Rep.trivial(sl2_trivial(2), 1)
    for i in (0, 3, 4):
        with pytest.raises(ModuleError, match="algebra mismatch"):
            nonfullness_ext(v, w, i, 0)
