"""The kernels and walkers against the raw-list references in reference.py.

The engines scan each distinct yes-mask once and the SCL game hands its
children only the traces that split the node.  Neither may change a
value, a memo entry, a node count or a witness tree; SCL asks each label
group's child once per trace, so it may only hit its memo less often.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import reference as ref
from cotverify import dimensions, families, kernels
from cotverify.core import (
    CostVector,
    PrefixInstance,
    Problem,
    StepToken,
    VerifierClass,
    VersionSpace,
    cot_instances,
)

SIGMA = [StepToken(0, "0"), StepToken(1, "1")]
ONE = Fraction(1)


def free_budget_keys(memo):
    """A reference memo keyed by alive, keyed as the engines key the games
    that never spend their budget."""
    return {(alive, kernels.FREE_BUDGET): v for alive, v in memo.items()}


def pooled_class(rng, fail_token):
    """A class whose masks come from a pool of two to four, so repeated
    masks are common and interleaved; a few prefixes may be left out."""
    L = rng.choice([2, 3])
    n = rng.randint(2, 6)
    pool = [rng.randrange(1 << n) for _ in range(rng.randint(2, 4))]
    masks = [(PrefixInstance(0, steps), rng.choice(pool))
             for ell in range(1, L + 1)
             for steps in itertools.product((0, 1), repeat=ell)
             if ell == 1 or rng.random() > 0.1]
    vc = VerifierClass.from_masks(SIGMA, [Problem(0, "x")], L, masks, n)
    return families.with_fail_token(vc) if fail_token else vc


def _check_trees(vs, k, costs, scl_costs):
    vc = vs.vclass
    ws, wc, _ = dimensions.integer_costs(costs.gamma_s, costs.gamma_c)
    if dimensions.ldim_value(vs):
        assert dimensions.extract_witness(vs, "plain") == (
            ref.ref_extract_weighted(vs, "plain", 1, 1, ONE, ONE))
    if dimensions.sc_value(vs, k):
        assert dimensions.extract_witness(vs, "SC", k=k) == (
            ref.ref_extract_sc(vs, k, ONE))
    if dimensions.wsc_value(vs, costs):
        assert dimensions.extract_witness(vs, "WSC", costs=costs) == (
            ref.ref_extract_weighted(vs, "WSC", ws, wc,
                                     costs.gamma_s, costs.gamma_c))
    if cot_instances(vc) and dimensions.scl_value(vs, scl_costs):
        ws, wc, wl, _ = dimensions.integer_costs(
            scl_costs.gamma_s, scl_costs.gamma_c, scl_costs.gamma_l)
        assert dimensions.extract_witness(vs, "SCL", costs=scl_costs) == (
            ref.ref_extract_scl(vs, scl_costs, ws, wc, wl))


@given(seed=st.integers(0, 2**32 - 1), fail_token=st.booleans(),
       wsc=st.sampled_from([(2, 1), (1, 3), (3, 2), (0, 1), (2, 0)]),
       scl=st.sampled_from([(3, 2, 1), (1, 1, 1), (2, 1, 0), (2, 2, 1)]))
@settings(max_examples=80, deadline=None)
def test_kernels_match_raw_list_references(seed, fail_token, wsc, scl):
    rng = random.Random(seed)
    vc = pooled_class(rng, fail_token)
    full = VersionSpace.full(vc)
    # The full space, then a random subset: the second query starts from
    # a warm memo, as a learner's later rounds do.
    starts = [full.alive, rng.randrange(1, full.alive + 1)]
    masks = vc.yes_masks
    costs = CostVector(Fraction(wsc[0]), Fraction(wsc[1]), Fraction(0))
    scl_costs = CostVector(*map(Fraction, scl))

    memo, stats = {}, [0, 0]
    eng = dimensions._game(vc, "plain").engine
    for alive in starts:
        value = ref.ref_wsc(masks, alive, 1, 1, memo, stats)
        assert eng.value(alive) == value
        assert eng.memo == free_budget_keys(memo) and eng.stats() == tuple(stats)

    memo, stats = {}, [0, 0]
    eng = dimensions._game(vc, "SC", 0).engine
    for alive in starts:
        for k in (0, 1, 2):
            value = ref.ref_sc(masks, alive, k, memo, stats)
            assert eng.value(alive, k) == value
            assert eng.memo == memo and eng.stats() == tuple(stats)

    ws, wc = wsc
    memo, stats = {}, [0, 0]
    eng = dimensions._game(vc, "WSC", costs=costs).engine
    for alive in starts:
        value = ref.ref_wsc(masks, alive, ws, wc, memo, stats)
        assert eng.value(alive) == value
        assert eng.memo == free_budget_keys(memo) and eng.stats() == tuple(stats)

    if cot_instances(vc):
        ws, wc, wl = scl
        label_masks = ref.scl_label_masks(vc)
        memo, stats = {}, [0, 0]
        eng = dimensions._game(vc, "SCL", costs=scl_costs).engine
        for alive in starts:
            value = ref.ref_scl(label_masks, alive, ws, wc, wl, memo, stats)
            assert eng.value(alive) == value
            assert eng.memo == memo
            nodes, hits = eng.stats()
            assert nodes == stats[0] and hits <= stats[1]

    for alive in starts:
        _check_trees(VersionSpace(vc, alive), rng.choice([0, 1, 2]),
                     costs, scl_costs)


def test_prefix_bound_matches_the_reference_bounds():
    """The one recurrence gives the binomial SC bound and the weight-table
    WSC bound, on fresh tables asked in a random order."""
    rng = random.Random(7)
    sc = kernels.prefix_bound.__wrapped__(1, 1, 1)
    queries = [(size, k) for k in range(8) for size in range(1, 600)]
    rng.shuffle(queries)
    for size, k in queries:
        assert sc(size, k) == ref.sc_bound(size, k)
    for ws, wc in [(1, 1), (2, 1), (1, 3), (7, 3), (13, 8),
                   (10**6, 10**6 - 1), (0, 1), (2, 0)]:
        bound = kernels.prefix_bound.__wrapped__(ws, wc, 0)
        sizes = [*range(1, 600), 4096]
        rng.shuffle(sizes)
        for size in sizes:
            assert bound(size, kernels.FREE_BUDGET) == ref.wsc_bound(size, ws, wc)


def test_walkers_take_a_repeated_masks_first_instance():
    # Mask 0b110 appears at universe indices 0, 1 and 5, before and after
    # the first instance of 0b100 (index 3), and both split the root into
    # a leaf and a pair.  A walker that scanned the masks in order of last
    # appearance would start at index 3; one that kept each mask's last
    # instance would start at index 5.  Only first appearance matches the
    # full scan.
    steps = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    masks = [0b110, 0b110, 0b000, 0b100, 0b111, 0b110]
    vc = VerifierClass.from_masks(
        SIGMA, [Problem(0, "x")], 2,
        [(PrefixInstance(0, s), m) for s, m in zip(steps, masks)], 3)
    vs = VersionSpace.full(vc)
    assert dimensions.ldim_value(vs) == 1
    plain = dimensions.extract_witness(vs, "plain")
    assert plain == ref.ref_extract_weighted(vs, "plain", 1, 1, ONE, ONE)
    assert plain.nodes[0][0] is vc.universe[0]
    for k in (0, 1):
        assert dimensions.extract_witness(vs, "SC", k=k) == (
            ref.ref_extract_sc(vs, k, ONE))
    costs = CostVector(Fraction(2), Fraction(1), Fraction(0))
    assert dimensions.extract_witness(vs, "WSC", costs=costs) == (
        ref.ref_extract_weighted(vs, "WSC", 2, 1, costs.gamma_s, costs.gamma_c))
    # The distinct masks, each with its first instance, in that order.
    assert list(dimensions._distinct_masks(vc).items()) == [
        (0b110, vc.universe[0]), (0b000, vc.universe[2]),
        (0b100, vc.universe[3]), (0b111, vc.universe[4])]
