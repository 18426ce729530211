"""Domain-type behavior: instances, version spaces, mistake taxonomy."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brute
from cotverify import families
from cotverify.core import (
    ALL_CORRECT,
    NO,
    YES,
    CostVector,
    CotInstance,
    InvalidCosts,
    MistakeKind,
    Oracle,
    PrefixInstance,
    Problem,
    SchemaError,
    StepToken,
    Transcript,
    UnknownInstance,
    VerifierClass,
    VersionSpace,
    check_realizable,
    classify_mistake,
    classify_prefix_mistake,
    cot_instances,
    fault_at,
    is_fault,
    validate_fail_token,
)


def test_fault_labels_order():
    assert fault_at(1) < fault_at(2) < ALL_CORRECT
    assert is_fault(fault_at(3)) and not is_fault(ALL_CORRECT)
    with pytest.raises(ValueError):
        fault_at(0)


def test_prefix_instance_requires_step():
    with pytest.raises(ValueError):
        PrefixInstance(0, ())


def test_cot_instance_prefixes():
    z = CotInstance(0, (1, 0, 1))
    assert z.prefixes() == [
        PrefixInstance(0, (1,)),
        PrefixInstance(0, (1, 0)),
        PrefixInstance(0, (1, 0, 1)),
    ]


def test_universe_canonical_order_enforced():
    sigma = [StepToken(0, "0"), StepToken(1, "1")]
    good = families.singleton_bitstring_class(2)
    universe = list(good.universe)
    universe[0], universe[1] = universe[1], universe[0]
    with pytest.raises(SchemaError):
        VerifierClass(sigma, good.problems, 2, universe, good.yes_masks,
                      len(good))


def test_constructor_checks_the_yes_masks():
    good = families.singleton_bitstring_class(2)
    args = (good.sigma, good.problems, 2, good.universe)
    with pytest.raises(SchemaError):
        VerifierClass(*args, good.yes_masks[:-1], len(good))
    with pytest.raises(SchemaError):
        VerifierClass(*args, good.yes_masks, len(good) - 1)
    with pytest.raises(SchemaError):
        VerifierClass(*args, [-1] + good.yes_masks[1:], len(good))
    assert VerifierClass(*args, good.yes_masks, len(good)).equal_canonical(good)


def test_rows_view_agrees_with_accepts(corpus):
    for name, vc in corpus.items():
        assert len(vc.verifiers) == len(vc), name
        for h, v in enumerate(vc.verifiers):
            assert v.id == h
            assert v.rows == tuple(vc.accepts(h, z) for z in vc.universe), name
        assert vc.verifiers is vc.verifiers


def test_oracle_target_must_name_a_verifier():
    vc = families.singleton_bitstring_class(2)
    for target in (-1, len(vc)):
        with pytest.raises(ValueError):
            Oracle(vc, target)


def test_unknown_instance_raises():
    vc = families.singleton_bitstring_class(2)
    with pytest.raises(UnknownInstance):
        vc.index_of(PrefixInstance(1, (0,)))
    with pytest.raises(UnknownInstance):
        vc.cot_label_of(0, CotInstance(0, (0,)))


def test_cot_label_is_first_rejection():
    vc = families.singleton_bitstring_class(3)
    # Verifier 5 corresponds to bit pattern (1, 0, 1).
    assert vc.cot_label_of(5, CotInstance(0, (1, 0, 1))) == ALL_CORRECT
    assert vc.cot_label_of(5, CotInstance(0, (0, 0, 1))) == fault_at(1)
    assert vc.cot_label_of(5, CotInstance(0, (1, 1, 1))) == fault_at(2)
    assert vc.cot_label_of(5, CotInstance(0, (1, 0, 0))) == fault_at(3)


def test_version_space_restrict_chain():
    vc = families.singleton_bitstring_class(3)
    vs = VersionSpace.full(vc)
    assert vs.size == 8
    vs = vs.restrict(PrefixInstance(0, (1,)), YES)
    assert vs.size == 4
    vs = vs.restrict(PrefixInstance(0, (1, 0)), YES)
    assert vs.size == 2
    vs = vs.restrict_cot(CotInstance(0, (1, 0, 1)), ALL_CORRECT)
    assert vs.ids() == [5]


def test_restrict_cot_partitions_alive():
    vc = families.complement_class(4, 2)
    vs = VersionSpace.full(vc)
    z = cot_instances(vc)[0]
    total = 0
    for label in vs.cot_labels(z):
        total += vs.restrict_cot(z, label).size
    assert total == vs.size


def _labels_by_verifier(vc, z, ids):
    """{label: mask} from one cot_label_of call per verifier."""
    groups = {}
    for i in ids:
        label = vc.cot_label_of(i, z)
        groups[label] = groups.get(label, 0) | 1 << i
    return groups


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 3),
       fail_token=st.booleans())
@settings(max_examples=40, deadline=None)
def test_cot_partition_matches_cot_label_of(seed, L, fail_token):
    rng = random.Random(seed)
    vc = brute.random_full_trace_class(rng, max_h=6, L=L)
    if fail_token:
        vc = families.with_fail_token(vc)
    every_label = [fault_at(ell) for ell in range(1, L + 1)] + [ALL_CORRECT]
    for z in cot_instances(vc):
        groups = _labels_by_verifier(vc, z, range(len(vc)))
        assert vc.cot_partition(z) == tuple(sorted(groups.items()))
        vs = VersionSpace(vc, rng.getrandbits(len(vc)))
        alive_groups = _labels_by_verifier(vc, z, vs.ids())
        assert vs.cot_labels(z) == set(alive_groups)
        for label in every_label:
            assert vs.restrict_cot(z, label).alive == alive_groups.get(label, 0)
    z = cot_instances(vc)[0]
    for steps in (z.steps + (0,), z.steps[:-1]):
        with pytest.raises(UnknownInstance):
            vc.cot_partition(CotInstance(0, steps))


def test_oracle_labels_by_identity_and_by_value():
    """Once the prefix trie is built, the oracle finds the universe's own
    prefixes by identity; an equal but distinct prefix gets the same label
    by value, and a prefix outside the universe raises the same error as
    before."""
    vc = families.singleton_bitstring_class(3)
    oracle = Oracle(vc, 5)
    outside = PrefixInstance(0, (0, 2))
    with pytest.raises(UnknownInstance) as before:
        oracle.prefix_label(outside)
    by_value = [oracle.prefix_label(PrefixInstance(z.problem, z.steps))
                for z in vc.universe]
    vc.prefix_trie()
    for i, z in enumerate(vc.universe):
        copy = PrefixInstance(z.problem, z.steps)
        assert copy == z and copy is not z
        assert vc.index_of(z) == vc.index_of(copy) == i
        label = oracle.prefix_label(z)
        assert type(label) is bool
        assert label == oracle.prefix_label(copy) == by_value[i] == vc.accepts(5, z)
    with pytest.raises(UnknownInstance) as after:
        oracle.prefix_label(outside)
    assert str(after.value) == str(before.value) == (
        f"instance not in universe: {outside}")


def test_oracle_matches_tables():
    vc = families.indicator_class(3)
    oracle = Oracle(vc, 1)
    assert oracle.prefix_label(PrefixInstance(0, (0,))) is True
    assert oracle.prefix_label(PrefixInstance(0, (1,))) is False
    assert oracle.cot_label(CotInstance(0, (0, 1, 0))) == ALL_CORRECT
    assert oracle.prefix_correct(PrefixInstance(0, (0, 1)))
    assert not oracle.prefix_correct(PrefixInstance(0, (1, 1)))


@given(
    pred=st.sampled_from([1.0, 2.0, 3.0, ALL_CORRECT]),
    truth=st.sampled_from([1.0, 2.0, 3.0, ALL_CORRECT]),
)
def test_classify_mistake_modes_agree_on_direction(pred, truth):
    prefix_kind = classify_mistake(pred, truth, "prefix-level")
    seq_kind = classify_mistake(pred, truth, "sequence-level")
    if pred == truth:
        assert prefix_kind is MistakeKind.NONE is seq_kind
    elif pred == ALL_CORRECT:
        assert prefix_kind is MistakeKind.SOUNDNESS is seq_kind
    elif truth == ALL_CORRECT:
        assert prefix_kind is MistakeKind.COMPLETENESS is seq_kind
    else:
        assert seq_kind is MistakeKind.LOCATION
        assert prefix_kind in (MistakeKind.SOUNDNESS, MistakeKind.COMPLETENESS)


def test_classify_prefix_mistake():
    assert classify_prefix_mistake(YES, YES) is MistakeKind.NONE
    assert classify_prefix_mistake(YES, NO) is MistakeKind.SOUNDNESS
    assert classify_prefix_mistake(NO, YES) is MistakeKind.COMPLETENESS


def test_cost_vector_validation():
    with pytest.raises(InvalidCosts):
        CostVector(Fraction(-1), Fraction(1), Fraction(0))
    with pytest.raises(InvalidCosts):
        CostVector(Fraction(1), Fraction(2), Fraction(0)).require_ordered()
    c = CostVector(Fraction(3), Fraction(2), Fraction(1))
    c.require_ordered()
    assert c.of(MistakeKind.SOUNDNESS) == 3
    assert c.of(MistakeKind.NONE) == 0


def test_transcript_totals_consistent():
    costs = CostVector(Fraction(2), Fraction(1), Fraction(1, 2))
    t = Transcript()
    z = PrefixInstance(0, (0,))
    t.record(z, YES, NO, MistakeKind.SOUNDNESS, costs.gamma_s)
    t.record(z, NO, YES, MistakeKind.COMPLETENESS, costs.gamma_c)
    t.record(z, YES, YES, MistakeKind.NONE, Fraction(0))
    assert t.total_mistakes == 2
    assert t.total_cost == Fraction(3)
    assert t.totals_consistent(costs)


def test_check_realizable():
    vc = families.singleton_bitstring_class(2)
    labeled = [
        (PrefixInstance(0, (1,)), YES),
        (PrefixInstance(0, (1, 0)), YES),
    ]
    h = check_realizable(vc, labeled)
    assert h is not None and vc.accepts(h, PrefixInstance(0, (1,)))
    labeled.append((PrefixInstance(0, (1,)), NO))
    assert check_realizable(vc, labeled) is None


def test_cot_instances_need_all_prefixes():
    vc = families.complement_class(3, 2)
    traces = cot_instances(vc)
    assert len(traces) == 3
    assert all(len(z.steps) == vc.L for z in traces)


def test_validate_fail_token():
    vc = families.with_fail_token(families.singleton_bitstring_class(2))
    validate_fail_token(vc)
    assert vc.fail_token == 2
    assert math.log2(len(vc)) == 2
