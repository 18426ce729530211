"""Dimension values against brute-force tree enumeration, witness trees,
and the leaf-count recurrence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brute
from cotverify import dimensions, families, kernels, learners
from cotverify.core import (
    CostVector, InvalidCosts, NoWitness, VersionSpace, cot_instances)

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
        # Every edge drops a verifier, so no path spends a budget of len(vc)
        # and the game is the plain one.
        assert dimensions.sc_value(vs, len(vc)) == dimensions.ldim_value(vs), name


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


def test_sc_witness_refuses_a_negative_budget():
    """Each game is checked once, where it is described: every way into a
    refused game (value, query, witness, learner) raises the same error as
    its siblings, before any engine of the class holds a memo entry."""
    vc = families.singleton_bitstring_class(3)
    vs = VersionSpace.full(vc)
    unordered = CostVector(Fraction(1), Fraction(2), Fraction(0))
    refused = [
        [lambda: dimensions.extract_witness(vs, "SC", k=-1),
         lambda: dimensions.sc_value(vs, -1),
         lambda: dimensions.sc_ldim(vs, -1),
         lambda: learners.ScSoa(vc, -1)],
        [lambda: dimensions.extract_witness(vs, "SCL", costs=unordered),
         lambda: dimensions.scl_value(vs, unordered),
         lambda: dimensions.scl_ldim(vs, unordered),
         lambda: learners.SclSoa(vc, unordered)],
        [lambda: dimensions.extract_witness(vs, "SC"),
         lambda: dimensions.sc_value(vs, None),
         lambda: dimensions.sc_ldim(vs, None),
         lambda: learners.ScSoa(vc, None)],
        [lambda: dimensions.extract_witness(vs, "WSC"),
         lambda: dimensions.wsc_value(vs, None),
         lambda: dimensions.wsc_ldim(vs, None),
         lambda: learners.WscSoa(vc, None)],
        [lambda: dimensions.extract_witness(vs, "SCL"),
         lambda: dimensions.scl_value(vs, None),
         lambda: dimensions.scl_ldim(vs, None),
         lambda: learners.SclSoa(vc, None)],
    ]
    errors = []
    for siblings in refused:
        seen = set()
        for query in siblings:
            with pytest.raises((ValueError, InvalidCosts)) as e:
                query()
            seen.add((e.type, str(e.value)))
        assert len(seen) == 1, seen
        errors.append(seen.pop())
    assert errors == [
        (ValueError, "budget k must be >= 0"),
        (InvalidCosts, "need gamma_s >= gamma_c >= gamma_l, got 1, 2, 0"),
        (ValueError, "the SC game needs a budget k"),
        (ValueError, "the WSC game needs a cost vector"),
        (ValueError, "the SCL game needs a cost vector"),
    ]
    cached = dimensions._class_caches.get(vc, {}).values()
    assert all(e.memo == {} for e in cached if isinstance(e, kernels.Engine))


def test_dim_results_report_backend():
    vs = VersionSpace.full(families.indicator_class(3))
    res = dimensions.ldim(vs)
    assert res.stats["backend"] == kernels.BACKEND == "pure"
    assert res.stats["nodes_expanded"] >= 1


def test_stats_report_node_counts():
    rng = random.Random(1)
    vc = brute.random_class(rng)
    eng = kernels.ldim_engine(vc.yes_masks)
    eng.value(VersionSpace.full(vc).alive)
    nodes, hits = eng.stats()
    assert nodes >= 1 and hits >= 0
    assert len(eng.memo) == nodes


def test_query_stats_count_only_this_query():
    vs = VersionSpace.full(families.singleton_bitstring_class(5))
    first = dimensions.sc_ldim(vs, 1, witness=False).stats
    assert first["nodes_expanded"] >= 1
    # The witness extraction follows the recorded moves; the next query
    # must report neither that walk nor the first query's search.
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
        for (alive, k), v in dimensions._game(vc, "SC", 0).engine.memo.items():
            assert v == brute.bf_sc_ldim(vc, k, _ids(alive)), (trial, k)
        for ws, wc in ((1, 1), (3, 1), (2, 3), (0, 1)):
            costs = CostVector(Fraction(ws), Fraction(wc), Fraction(0))
            dimensions.wsc_value(vs, costs)
            memo = dimensions._game(vc, "WSC", costs=costs).engine.memo
            for (alive, k), v in memo.items():
                assert k == kernels.FREE_BUDGET
                assert v == brute.bf_wsc_ldim(vc, ws, wc, _ids(alive)), (
                    trial, ws, wc)
        dimensions.ldim_value(vs)
        for (alive, k), v in dimensions._game(vc, "plain").engine.memo.items():
            assert k == kernels.FREE_BUDGET
            assert v == brute.bf_ldim(vc, _ids(alive)), trial
    for trial in range(12):
        vc = brute.random_full_trace_class(rng, max_h=6, L=2)
        for ws, wc, wl in ((1, 1, 1), (3, 2, 1), (2, 1, 0)):
            costs = CostVector(Fraction(ws), Fraction(wc), Fraction(wl))
            dimensions.scl_value(VersionSpace.full(vc), costs)
            memo = dimensions._game(vc, "SCL", costs=costs).engine.memo
            for alive, v in memo.items():
                assert v == brute.bf_scl_ldim(vc, ws, wc, wl, _ids(alive)), (
                    trial, ws, wc, wl)


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

    sc_bound = kernels.prefix_bound(1, 1, 1)
    for k in range(4):
        for size in range(1, 70):
            d = sc_bound(size, k)
            assert least_leaves(k, d) <= size < least_leaves(k, d + 1)
    assert (sc_bound(4096, 40), sc_bound(4096, 3)) == (12, 18)


def test_wsc_bound_inverts_leaf_recurrence():
    def wsc_bound(size, ws, wc):
        return kernels.prefix_bound(ws, wc, 0)(size, kernels.FREE_BUDGET)

    for size in range(1, 70):
        assert wsc_bound(size, 1, 1) == size.bit_length() - 1
        for d in (2, 3, 5):
            w = wsc_bound(size, d, 1)
            assert dimensions.min_leaf_recurrence(w, d) <= size < (
                dimensions.min_leaf_recurrence(w + 1, d))
            # Scaling both costs scales the bound; swapping them changes
            # nothing, because L is symmetric in the two costs.
            assert wsc_bound(size, 3 * d, 3) == 3 * wsc_bound(size, d, 1)
            assert wsc_bound(size, 1, d) == wsc_bound(size, d, 1)
    assert wsc_bound(5, 0, 1) == wsc_bound(5, 1, 0) == float("inf")
    # A large coprime pair tabulates only the sums of its two weights.
    assert wsc_bound(4096, 10**6, 10**6 - 1) == 11999988
    assert wsc_bound(4096, 7, 3) == 54


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
