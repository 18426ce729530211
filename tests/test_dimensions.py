"""Dimension values against brute-force tree enumeration, witness trees,
and the leaf-count recurrence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brute
from cotverify import dimensions, families, kernels
from cotverify.core import CostVector, NoWitness, VersionSpace, cot_instances

UNIT = CostVector(Fraction(1), Fraction(1), Fraction(0))


def test_known_values_indicator_4():
    vs = VersionSpace.full(families.indicator_class(4))
    assert dimensions.ldim(vs, witness=False).value == 2
    assert dimensions.sc_ldim(vs, 0, witness=False).value == 3
    assert dimensions.sc_ldim(vs, 1, witness=False).value == 2
    assert dimensions.sc_ldim(vs, 2, witness=False).value == 2


def test_known_values_singleton():
    for L in (2, 3, 4):
        vs = VersionSpace.full(families.singleton_bitstring_class(L))
        assert dimensions.ldim(vs, witness=False).value == L
        assert dimensions.sc_ldim(vs, 0, witness=False).value == L


def test_known_values_complement():
    # Rejections are only revealed at full traces, so identifying the
    # target costs one mistake per eliminated verifier.
    for n in (3, 4):
        vs = VersionSpace.full(families.complement_class(n, 2))
        assert dimensions.ldim(vs, witness=False).value == 1


def test_brute_force_equivalence_corpus(corpus):
    for name, vc in corpus.items():
        if len(vc) > 8 or len(vc.universe) > 12:
            continue
        vs = VersionSpace.full(vc)
        assert dimensions.ldim_value(vs) == brute.bf_ldim(vc), name
        for k in (0, 1, 2):
            assert dimensions.sc_value(vs, k) == brute.bf_sc_ldim(vc, k), name


def test_brute_force_equivalence_random():
    rng = random.Random(20260823)
    for trial in range(60):
        vc = brute.random_class(rng)
        vs = VersionSpace.full(vc)
        assert dimensions.ldim_value(vs) == brute.bf_ldim(vc), trial
        k = rng.choice([0, 1, 2])
        assert dimensions.sc_value(vs, k) == brute.bf_sc_ldim(vc, k), trial
        ws, wc = rng.choice([(1, 1), (2, 1), (3, 2)])
        costs = CostVector(Fraction(ws), Fraction(wc), Fraction(0))
        assert dimensions.wsc_value(vs, costs) == brute.bf_wsc_ldim(
            vc, ws, wc
        ), trial


def test_brute_force_equivalence_scl():
    rng = random.Random(7)
    for trial in range(40):
        vc = brute.random_full_trace_class(rng, max_h=6, L=2)
        vs = VersionSpace.full(vc)
        ws, wc, wl = rng.choice([(1, 1, 1), (2, 1, 1), (3, 2, 1)])
        costs = CostVector(Fraction(ws), Fraction(wc), Fraction(wl))
        assert dimensions.scl_value(vs, costs) == brute.bf_scl_ldim(
            vc, ws, wc, wl
        ), trial


def test_sc_decreasing_in_budget(corpus):
    # A larger straight-edge budget only helps the learner, never the
    # adversary: the guaranteed depth is nonincreasing in k.
    for name, vc in corpus.items():
        vs = VersionSpace.full(vc)
        values = [dimensions.sc_value(vs, k) for k in range(4)]
        assert values == sorted(values, reverse=True), name
        assert values[0] >= dimensions.ldim_value(vs) or values[0] == 0


def test_wsc_unit_costs_recover_ldim(corpus_class):
    vs = VersionSpace.full(corpus_class)
    unit = CostVector(Fraction(1), Fraction(1), Fraction(0))
    assert dimensions.wsc_value(vs, unit) == dimensions.ldim_value(vs)


def test_wsc_scale_invariance():
    vs = VersionSpace.full(families.indicator_class(4))
    base = dimensions.wsc_value(vs, CostVector(Fraction(2), Fraction(1)))
    scaled = dimensions.wsc_value(
        vs, CostVector(Fraction(2, 3), Fraction(1, 3))
    )
    assert scaled == base / 3


def test_witnesses_verify_and_certify(corpus):
    costs = CostVector(Fraction(2), Fraction(1), Fraction(0))
    scl_costs = CostVector(Fraction(1), Fraction(1), Fraction(1))
    for name, vc in corpus.items():
        vs = VersionSpace.full(vc)
        for kind, kwargs, value in [
            ("plain", {}, dimensions.ldim_value(vs)),
            ("SC", {"k": 1}, dimensions.sc_value(vs, 1)),
            ("WSC", {"costs": costs}, dimensions.wsc_value(vs, costs)),
            ("SCL", {"costs": scl_costs}, dimensions.scl_value(vs, scl_costs)),
        ]:
            if kind == "SCL" and not cot_instances(vc):
                continue
            if value == 0:
                with pytest.raises(NoWitness):
                    dimensions.extract_witness(vs, kind, **kwargs)
                continue
            tree = dimensions.extract_witness(vs, kind, **kwargs)
            assert dimensions.verify_shattered(tree, vs), (name, kind)
            assert dimensions.certified_value(tree) == value, (name, kind)


def test_sc_witness_at_zero_budget():
    vs = VersionSpace.full(families.indicator_class(4))
    tree = dimensions.extract_witness(vs, "SC", k=0)
    assert tree.budget == 0
    assert dimensions.verify_shattered(tree, vs)
    assert dimensions.certified_value(tree) == 3


def test_dim_results_report_backend():
    vs = VersionSpace.full(families.indicator_class(3))
    res = dimensions.ldim(vs)
    assert res.stats["backend"] == kernels.BACKEND == "pure"
    assert res.stats["nodes_expanded"] >= 1


def test_stats_report_node_counts():
    rng = random.Random(1)
    vc = brute.random_class(rng)
    eng = kernels.WscEngine(vc.yes_masks, 1, 1)
    eng.value(VersionSpace.full(vc).alive)
    nodes, hits = eng.stats()
    assert nodes >= 1 and hits >= 0
    assert len(eng.memo) == nodes


def test_query_stats_count_only_this_query():
    vs = VersionSpace.full(families.singleton_bitstring_class(5))
    first = dimensions.sc_ldim(vs, 1, witness=False).stats
    assert first["nodes_expanded"] >= 1
    # The witness extraction searches again; the next query must not
    # report that work, nor the first query's.
    dimensions.sc_ldim(vs, 1, witness=True)
    again = dimensions.sc_ldim(vs, 1, witness=False).stats
    assert again["nodes_expanded"] == 0
    assert again["memo_hits"] == 1


def _ids(alive):
    return [i for i in range(alive.bit_length()) if alive >> i & 1]


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 3),
       costs=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2), (5, 1), (0, 1),
                              (1, 0)]))
@settings(max_examples=60, deadline=None)
def test_pruned_kernels_match_brute_force(seed, k, costs):
    rng = random.Random(seed)
    vc = brute.random_class(rng)
    vs = VersionSpace.full(vc)
    ws, wc = costs
    assert dimensions.ldim_value(vs) == brute.bf_ldim(vc)
    assert dimensions.sc_value(vs, k) == brute.bf_sc_ldim(vc, k)
    gammas = CostVector(Fraction(ws), Fraction(wc), Fraction(0))
    assert dimensions.wsc_value(vs, gammas) == brute.bf_wsc_ldim(vc, ws, wc)
    tc = brute.random_full_trace_class(rng, max_h=6, L=2)
    assert dimensions.scl_value(
        VersionSpace.full(tc), CostVector(Fraction(3), Fraction(2), Fraction(1))
    ) == brute.bf_scl_ldim(tc, 3, 2, 1)


def test_memo_entries_are_exact_values():
    # Pruning may leave a split unsolved, but every version space it does
    # solve must hold its exact value, so later queries can reuse it.
    rng = random.Random(31337)
    for trial in range(12):
        vc = brute.random_class(rng)
        vs = VersionSpace.full(vc)
        for k in (0, 1, 2):
            dimensions.sc_value(vs, k)
        for (alive, k), v in dimensions._sc_engine(vc).memo.items():
            assert v == brute.bf_sc_ldim(vc, k, _ids(alive)), (trial, k)
        for ws, wc in ((1, 1), (3, 1), (2, 3), (0, 1)):
            costs = CostVector(Fraction(ws), Fraction(wc), Fraction(0))
            dimensions.wsc_value(vs, costs)
            for alive, v in dimensions._wsc_engine(vc, ws, wc).memo.items():
                assert v == brute.bf_wsc_ldim(vc, ws, wc, _ids(alive)), (
                    trial, ws, wc)
        dimensions.ldim_value(vs)
        for alive, v in dimensions._ldim_engine(vc).memo.items():
            assert v == brute.bf_ldim(vc, _ids(alive)), trial


def test_complement_32_is_solved_in_linear_nodes():
    # |H| = 32 and the values are n - 1 and 1: pruning must find them
    # without visiting the 2^32 subsets the unpruned game would.
    n = 32
    vs = VersionSpace.full(families.complement_class(n, 5))
    res0 = dimensions.sc_ldim(vs, 0, witness=False)
    res1 = dimensions.sc_ldim(vs, 1, witness=False)
    assert (res0.value, res1.value) == (n - 1, 1)
    assert res0.stats["nodes_expanded"] <= 2 * n
    assert res1.stats["nodes_expanded"] <= 2 * n


def test_sc_bound_is_least_leaf_count_inverse():
    def least_leaves(k, d):
        if d == 0:
            return 1
        if k == 0:
            return d + 1
        return least_leaves(k, d - 1) + least_leaves(k - 1, d - 1)

    for k in range(4):
        for size in range(1, 70):
            d = kernels.sc_bound(size, k)
            assert least_leaves(k, d) <= size < least_leaves(k, d + 1)


def test_wsc_bound_inverts_leaf_recurrence():
    for size in range(1, 70):
        assert kernels.wsc_bound(size, 1, 1) == size.bit_length() - 1
        for d in (2, 3, 5):
            assert kernels.wsc_bound(size, d, 1) == (
                dimensions.max_weight_for_leaves(size, d))
            # Scaling both costs scales the bound; swapping them changes
            # nothing, because L is symmetric in the two costs.
            assert kernels.wsc_bound(size, 3 * d, 3) == 3 * kernels.wsc_bound(size, d, 1)
            assert kernels.wsc_bound(size, 1, d) == kernels.wsc_bound(size, d, 1)
    assert kernels.wsc_bound(5, 0, 1) == kernels.wsc_bound(5, 1, 0) == float("inf")


def test_scl_handles_unanimous_instances():
    # A trace on which every verifier agrees offers the adversary no
    # branch; the game must skip it rather than recurse on itself.
    rng = random.Random(0)
    unit = CostVector(Fraction(1), Fraction(1), Fraction(1))
    for _ in range(20):
        vc = brute.random_full_trace_class(rng, max_h=4, L=2)
        vs = VersionSpace.full(vc)
        assert dimensions.scl_value(vs, unit) == brute.bf_scl_ldim(vc, 1, 1, 1)


def test_restricted_spaces_shrink_dimension():
    vc = families.singleton_bitstring_class(3)
    vs = VersionSpace.full(vc)
    sub = VersionSpace(vc, vs.alive & 0b00001111)
    assert dimensions.ldim_value(sub) <= dimensions.ldim_value(vs)
    assert dimensions.sc_value(sub, 1) <= dimensions.sc_value(vs, 1)


@given(w=st.integers(0, 40), d=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=80, deadline=None)
def test_min_leaf_recurrence_matches_unrolling(w, d):
    assert dimensions.min_leaf_recurrence(w, d) == brute.min_leaf_unrolled(w, d)


def test_min_leaf_known_values():
    # d = 1 doubles every step; d = 2 is the Fibonacci recurrence.
    assert [dimensions.min_leaf_recurrence(w, 1) for w in range(5)] == [
        1, 2, 4, 8, 16,
    ]
    assert [dimensions.min_leaf_recurrence(w, 2) for w in range(7)] == [
        1, 2, 3, 5, 8, 13, 21,
    ]


def test_max_weight_for_leaves_inverts_recurrence():
    for d in (1, 2, 4, 8):
        for n in (1, 2, 5, 13, 64):
            w = dimensions.max_weight_for_leaves(n, d)
            assert dimensions.min_leaf_recurrence(w, d) <= n
            assert dimensions.min_leaf_recurrence(w + 1, d) > n


def test_wsc_bounded_by_leaf_count_inversion():
    # A weight-w tree with costs (d, 1) has at least L(w) leaves, each
    # pinned to a distinct verifier, so wsc <= max{w : L(w) <= |H|}.
    rng = random.Random(99)
    for _ in range(30):
        vc = brute.random_class(rng, max_h=8)
        vs = VersionSpace.full(vc)
        for d in (2, 4):
            costs = CostVector(Fraction(d), Fraction(1), Fraction(0))
            assert dimensions.wsc_value(vs, costs) <= (
                dimensions.max_weight_for_leaves(len(vc), d)
            )
