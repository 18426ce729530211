"""Learner mistake bounds, invariants, and the conservative wrapper."""

import itertools
import math
from fractions import Fraction

import pytest

import exhaust
from cotverify import dimensions, families, reductions
from cotverify.core import (
    ALL_CORRECT,
    CostVector,
    CotInstance,
    MistakeKind,
    Oracle,
    VersionSpace,
    cot_instances,
)
from cotverify.learners import (
    ConservativeWrapper,
    MajorityVote,
    RejectAll,
    RiverCrossingSound,
    ScSoa,
    SclSoa,
    SoundConservative,
    WscSoa,
    run_online,
)

UNIT = CostVector(Fraction(1), Fraction(1), Fraction(0))


def _all_trace_sequences(vclass, length):
    return itertools.product(cot_instances(vclass), repeat=length)


def test_majority_vote_halving_bound():
    for vc in (families.singleton_bitstring_class(3),
               families.indicator_class(4)):
        bound = math.log2(len(vc))
        for target in range(len(vc)):
            oracle = Oracle(vc, target)
            for seq in _all_trace_sequences(vc, 2):
                t = run_online(MajorityVote(vc), oracle, seq)
                assert t.total_mistakes <= bound


def test_sound_conservative_never_unsound():
    vc = families.complement_class(4, 2)
    for target in range(len(vc)):
        oracle = Oracle(vc, target)
        for seq in _all_trace_sequences(vc, 3):
            t = run_online(SoundConservative(vc), oracle, seq)
            assert t.soundness_mistakes == 0
            assert t.completeness_mistakes <= len(vc) - 1


def test_sc_soa_exhaustive_budget(small_corpus):
    for name, vc in small_corpus.items():
        vs = VersionSpace.full(vc)
        for k in (0, 1, 2):
            total, sound = exhaust.sc_soa_worst(vc, k, 4)
            assert sound <= k, (name, k)
            assert total <= dimensions.sc_value(vs, k), (name, k)


def test_sc_soa_single_run_matches_oracle():
    vc = families.indicator_class(3)
    oracle = Oracle(vc, 2)
    learner = ScSoa(vc, 1)
    seq = [z for z in vc.universe]
    t = run_online(learner, oracle, seq)
    assert t.soundness_mistakes <= 1
    assert all(r.kind is not MistakeKind.LOCATION for r in t.rounds)


def test_wsc_soa_cost_bounded_by_dimension(small_corpus):
    costs = CostVector(Fraction(2), Fraction(1), Fraction(0))
    for name, vc in small_corpus.items():
        bound = dimensions.wsc_value(VersionSpace.full(vc), costs)
        for target in range(len(vc)):
            learner = WscSoa(vc, costs)
            t = run_online(learner, Oracle(vc, target), list(vc.universe))
            assert t.total_cost <= bound, name


def test_wsc_soa_per_round_telescoping_small():
    vc = families.indicator_class(3)
    costs = CostVector(Fraction(3), Fraction(2), Fraction(0))
    assert exhaust.wsc_telescoping_violations(vc, costs) == []


def test_scl_soa_cost_bounded_by_dimension():
    costs = CostVector(Fraction(1), Fraction(1), Fraction(1))
    for vc in (families.conjunction_class(2),
               families.conjunction_class(3),
               families.indicator_class(3)):
        bound = dimensions.scl_value(VersionSpace.full(vc), costs)
        traces = cot_instances(vc)
        for target in range(len(vc)):
            for seq in itertools.product(traces, repeat=2):
                learner = SclSoa(vc, costs)
                t = run_online(learner, Oracle(vc, target), seq)
                assert t.total_cost <= bound


def test_reject_all_single_completeness_payment():
    costs = CostVector(Fraction(1), Fraction(1), Fraction(0))
    vc = families.conjunction_class(3)
    for target in range(len(vc)):
        oracle = Oracle(vc, target)
        learner = RejectAll(vc, costs)
        seq = list(cot_instances(vc)) * 2
        t = run_online(learner, oracle, seq)
        assert t.total_cost <= 1
        assert t.soundness_mistakes == 0


def test_river_learner_learns_hidden_edges():
    edges = families.river_edges()
    revealed = edges[:13]
    vc = families.river_crossing_class(revealed, 8)
    states = [tuple(int(c) for c in t.name) for t in vc.sigma]
    sol = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0),
           (0, 0, 1, 0), (1, 0, 1, 1), (0, 0, 1, 1), (1, 1, 1, 1)]
    trace = CotInstance(0, tuple(states.index(s) for s in sol))
    # Target: the verifier knowing every edge.
    hidden = sorted(set(edges) - set(revealed))
    target = next(
        i for i in range(len(vc))
        if vc.cot_label_of(i, trace) == ALL_CORRECT
    )
    oracle = Oracle(vc, target)
    learner = RiverCrossingSound(vc, revealed)
    mistakes = 0
    while learner.predict(trace) != ALL_CORRECT:
        pred = learner.predict(trace)
        truth = oracle.cot_label(trace)
        assert pred < truth or truth == ALL_CORRECT
        learner.update(trace, truth)
        mistakes += 1
        assert mistakes <= len(hidden) + 1
    assert learner.predict(trace) == ALL_CORRECT


def test_river_learner_reads_the_fail_token_as_a_fault():
    """On a fail-token river class the learner faults the first F step, so
    wrapped as a prefix learner it stays sound on every universe prefix,
    F-padded ones included, for every target, and pays at most one
    completeness mistake per hidden edge."""
    edges = families.river_edges()
    revealed = edges[:16]
    vc = families.with_fail_token(families.river_crossing_class(revealed, 4))
    F = vc.fail_token
    hidden = len(set(edges) - set(revealed))
    sequence = list(vc.universe)
    assert any(F in z.steps for z in sequence)
    for target in range(len(vc)):
        learner = reductions.prefix_from_cot(RiverCrossingSound(vc, revealed), vc)
        transcript = run_online(learner, Oracle(vc, target), sequence)
        assert len(transcript.rounds) == len(sequence)
        assert transcript.soundness_mistakes == 0
        assert transcript.completeness_mistakes <= hidden
    river = RiverCrossingSound(vc, revealed)
    start = next(t.id for t in vc.sigma if t.name == "0000")
    assert river.predict(CotInstance(0, (start, F, F, F))) == 2
    assert river.predict(CotInstance(0, (F,) * 4)) == 1


def test_conservative_wrapper_snapshot_discipline():
    vc = families.indicator_class(3)
    oracle = Oracle(vc, 1)
    wrapper = ConservativeWrapper(SoundConservative(vc))
    seq = list(cot_instances(vc)) * 2
    t = run_online(wrapper, oracle, seq)
    assert len(wrapper.snapshots) == 1 + t.total_mistakes
    # The final snapshot is a frozen predictor agreeing with the oracle
    # on everything seen.
    frozen = wrapper.snapshot()
    for z in cot_instances(vc):
        if oracle.cot_label(z) == ALL_CORRECT:
            assert frozen(z) == ALL_CORRECT


@pytest.mark.parametrize("make", [
    MajorityVote,
    SoundConservative,
    RejectAll,
    lambda vc: ScSoa(vc, 1),
    lambda vc: WscSoa(vc, CostVector(Fraction(2), Fraction(1), Fraction(0))),
    lambda vc: SclSoa(vc, CostVector(Fraction(3), Fraction(2), Fraction(1))),
], ids=["majority", "sound-conservative", "reject-all", "sc-soa", "wsc-soa",
        "scl-soa"])
def test_snapshots_are_frozen(make):
    vc = families.indicator_class(3)
    learner = make(vc)
    vs = learner.vs
    if learner.mode == "cot":
        z = next(z for z in cot_instances(vc) if len(vs.cot_labels(z)) > 1)
        truths = sorted(vs.cot_labels(z))
    else:
        z = next(z for z in vc.universe if 0 < vs.yes_mask(z) < vs.alive)
        truths = [False, True]
    frozen = learner.snapshot()
    before = frozen(z)
    truth = next(y for y in truths if y != before)
    learner.update(z, truth)
    assert learner.predict(z) == truth
    assert frozen(z) == before


def test_run_online_dispatches_on_instance_type():
    vc = families.singleton_bitstring_class(2)
    oracle = Oracle(vc, 0)
    t = run_online(ScSoa(vc, 1), oracle, list(vc.universe))
    assert t.totals_consistent(UNIT)
    t2 = run_online(MajorityVote(vc), oracle, cot_instances(vc))
    assert t2.totals_consistent(UNIT)
