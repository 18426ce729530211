"""Chain-of-thought/prefix adapters: mistake accounting and round trips."""

import itertools

import pytest

import exhaust
from cotverify import dimensions, families
from cotverify.core import (
    ALL_CORRECT,
    CotInstance,
    FailTokenRequired,
    MistakeKind,
    Oracle,
    PrefixInstance,
    VersionSpace,
    cot_instances,
)
from cotverify.learners import MajorityVote, ScSoa, SoundConservative, run_online
from cotverify.reductions import cot_from_prefix, prefix_from_cot


def test_cot_from_prefix_predicts_first_rejection():
    vc = families.singleton_bitstring_class(3)
    wrapped = cot_from_prefix(ScSoa(vc, 0))
    z = CotInstance(0, (0, 0, 0))
    pred = wrapped.predict(z)
    # A fresh budget-0 learner rejects every non-unanimous prefix.
    assert pred == 1.0


def test_cot_from_prefix_inherits_budgets():
    for vc, k in [
        (families.conjunction_class(2), 0),
        (families.conjunction_class(2), 1),
        (families.indicator_class(3), 1),
        (families.complement_class(3, 2), 2),
    ]:
        total, sound = exhaust.cot_reduction_worst(vc, k, 4)
        assert sound <= k
        assert total <= dimensions.sc_value(VersionSpace.full(vc), k)


def test_cot_from_prefix_updates_inner_once_per_mistake():
    vc = families.indicator_class(3)
    oracle = Oracle(vc, 0)
    inner = ScSoa(vc, 1)
    updates = []
    original = inner.update
    inner.update = lambda z, y, p: (updates.append((z, y)), original(z, y, p))
    wrapped = cot_from_prefix(inner)
    t = run_online(wrapped, oracle, cot_instances(vc))
    assert len(updates) == t.total_mistakes


def test_prefix_from_cot_requires_fail_token():
    vc = families.conjunction_class(2)
    with pytest.raises(FailTokenRequired):
        prefix_from_cot(SoundConservative(vc), vc)


def test_prefix_from_cot_protocol_runs_sound():
    vc = families.with_fail_token(families.conjunction_class(2))
    traces = [z for z in cot_instances(vc) if vc.fail_token not in z.steps]
    for target in range(len(vc)):
        oracle = Oracle(vc, target)
        for order in itertools.permutations(traces):
            learner = prefix_from_cot(SoundConservative(vc), vc)
            t = exhaust.run_protocol_prefixes(learner, oracle, order)
            assert t.soundness_mistakes == 0
            assert t.completeness_mistakes <= len(vc) - 1


def test_round_trip_composite_stays_sound():
    vc = families.with_fail_token(families.conjunction_class(2))
    traces = [z for z in cot_instances(vc) if vc.fail_token not in z.steps]
    for target in range(len(vc)):
        oracle = Oracle(vc, target)
        composite = cot_from_prefix(
            prefix_from_cot(SoundConservative(vc), vc)
        )
        t = run_online(composite, oracle, traces * 2)
        assert t.soundness_mistakes == 0
        assert t.completeness_mistakes <= len(vc) - 1


def test_prefix_from_cot_padding():
    vc = families.with_fail_token(families.conjunction_class(3))
    learner = prefix_from_cot(SoundConservative(vc), vc)
    padded = learner._padded(PrefixInstance(0, (1,)))
    assert padded.steps == (1, vc.fail_token, vc.fail_token)


def test_snapshot_composites_are_frozen():
    vc = families.with_fail_token(families.conjunction_class(2))
    oracle = Oracle(vc, 0)
    learner = prefix_from_cot(SoundConservative(vc), vc)
    frozen = learner.snapshot()
    z = PrefixInstance(0, (0,))
    before = frozen(z)
    learner.update(z, oracle.prefix_label(z), learner.predict(z))
    assert frozen(z) == before


def checked(cls, seen):
    """cls, whose update asserts that the pred it is given is its own
    prediction on the instance and records (pred, truth) in seen."""

    class Checked(cls):
        def update(self, z, truth, pred):
            assert pred == self.predict(z), (z, truth, pred)
            seen.append((pred, truth))
            super().update(z, truth, pred)

    return Checked


def test_cot_from_prefix_passes_the_inner_prediction():
    """A completeness mistake teaches the inner learner a prefix it
    rejected, a soundness mistake (also from an ALL_CORRECT prediction)
    one it accepted."""
    seen, outer = [], set()
    for vc in (families.indicator_class(3), families.complement_class(4, 2)):
        for target, k in itertools.product(range(len(vc)), (0, 1, 2)):
            learner = cot_from_prefix(checked(ScSoa, seen)(vc, k))
            t = run_online(learner, Oracle(vc, target), cot_instances(vc) * 2)
            outer |= {(r.kind, r.prediction == ALL_CORRECT) for r in t.rounds}
    assert {(MistakeKind.COMPLETENESS, False), (MistakeKind.SOUNDNESS, False),
            (MistakeKind.SOUNDNESS, True)} <= outer
    assert set(seen) == {(False, True), (True, False)}


def test_prefix_from_cot_passes_the_inner_prediction():
    """Each outer mistake kind teaches the inner learner a label other than
    its own prediction, including an ALL_CORRECT prediction at full
    length, and asks for that prediction once."""
    seen, outer = [], set()
    for base in (families.indicator_class(3), families.complement_class(4, 2)):
        vc = families.with_fail_token(base)
        traces = [z for z in cot_instances(vc) if vc.fail_token not in z.steps]
        for target, inner, order in itertools.product(
                range(len(vc)), (MajorityVote, SoundConservative),
                (traces, traces[::-1], traces[1::2] + traces[::2])):
            learner = prefix_from_cot(checked(inner, seen)(vc), vc)
            t = exhaust.run_protocol_prefixes(learner, Oracle(vc, target), order)
            outer |= {r.kind for r in t.rounds}
    assert {MistakeKind.SOUNDNESS, MistakeKind.COMPLETENESS} <= outer
    assert all(pred != truth for pred, truth in seen)
    assert any(pred == ALL_CORRECT for pred, _ in seen)
    assert any(truth == ALL_CORRECT for _, truth in seen)
