"""Exhaustive sweeps over all realizable feedback sequences.

Learner predictions here depend only on the version space (plus any
scalar budget), so sweeping reachable states covers every realizable
sequence without enumerating them one by one: at each state the sweep
asks a learner set to that state.
"""

from fractions import Fraction
from functools import lru_cache

from cotverify import dimensions
from cotverify.core import (
    ALL_CORRECT,
    Transcript,
    VersionSpace,
    classify_mistake,
    cot_instances,
    fault_at,
)
from cotverify.learners import ScSoa, WscSoa


def sc_soa_at(vs, k):
    """An SC-SOA learner at version space vs with budget k left."""
    learner = ScSoa(vs.vclass, k)
    learner.vs = vs
    return learner


def sc_soa_worst(vclass, k0, horizon):
    """(max total, max soundness) mistakes of SC-SOA over every
    realizable prefix sequence of at most the given length."""
    masks = vclass.yes_masks
    universe = vclass.universe

    @lru_cache(maxsize=None)
    def go(alive, k, d):
        if d == 0:
            return 0, 0
        learner = sc_soa_at(VersionSpace(vclass, alive), k)
        best_t = best_s = 0
        for i, z in enumerate(universe):
            ym = masks[i] & alive
            pred = learner.predict(z)
            for truth in (True, False):
                nxt = ym if truth else alive & ~masks[i]
                if nxt == 0:
                    continue
                sound = 1 if pred and not truth else 0
                mistake = 1 if pred != truth else 0
                t, s = go(nxt, k - sound, d - 1)
                best_t = max(best_t, t + mistake)
                best_s = max(best_s, s + sound)
        return best_t, best_s

    return go(vclass.full_mask(), k0, horizon)


def wsc_telescoping_violations(vclass, costs):
    """Rounds violating loss <= WSC(before) - WSC(after), over every
    version space, instance, and consistent truth."""
    violations = []
    n = len(vclass)
    learner = WscSoa(vclass, costs)
    for alive in range(1, 1 << n):
        vs = learner.vs = VersionSpace(vclass, alive)
        before = dimensions.wsc_value(vs, costs)
        for z in vclass.universe:
            ym = vs.yes_mask(z)
            pred = learner.predict(z)
            for truth in (True, False):
                nxt = ym if truth else alive & ~vclass.yes_masks[
                    vclass.index_of(z)
                ]
                if nxt == 0:
                    continue
                if pred and not truth:
                    loss = costs.gamma_s
                elif truth and not pred:
                    loss = costs.gamma_c
                else:
                    loss = Fraction(0)
                after = dimensions.wsc_value(VersionSpace(vclass, nxt), costs)
                if loss > before - after:
                    violations.append((alive, z, truth, loss, before, after))
    return violations


def cot_reduction_worst(vclass, k0, horizon):
    """(max total, max soundness) of cot_from_prefix over SC-SOA, over
    every realizable trace sequence of at most the given length.

    Mirrors the wrapper's update rule: a completeness mistake feeds the
    faulted prefix back as YES, a soundness mistake feeds the true fault
    prefix back as NO (spending one unit of budget).
    """
    traces = cot_instances(vclass)

    @lru_cache(maxsize=None)
    def go(alive, k, d):
        if d == 0:
            return 0, 0
        vs = VersionSpace(vclass, alive)
        learner = sc_soa_at(vs, k)
        best_t = best_s = 0
        for z in traces:
            pred = ALL_CORRECT
            for ell in range(1, vclass.L + 1):
                if not learner.predict(z.prefix(ell)):
                    pred = fault_at(ell)
                    break
            for truth in vs.cot_labels(z):
                if pred == truth:
                    nalive, nk, sound, mistake = alive, k, 0, 0
                elif pred < truth:
                    nxt = vs.restrict(z.prefix(int(pred)), True)
                    nalive, nk, sound, mistake = nxt.alive, k, 0, 1
                else:
                    nxt = vs.restrict(z.prefix(int(truth)), False)
                    nalive, nk, sound, mistake = nxt.alive, k - 1, 1, 1
                assert nalive != 0
                t, s = go(nalive, nk, d - 1)
                best_t = max(best_t, t + mistake)
                best_s = max(best_s, s + sound)
        return best_t, best_s

    return go(vclass.full_mask(), k0, horizon)


def reject_all_max_cost(vclass, costs):
    """Worst-case total cost of the reject-while-disputed strategy over
    every realizable trace sequence of any length."""
    traces = cot_instances(vclass)

    @lru_cache(maxsize=None)
    def go(alive):
        vs = VersionSpace(vclass, alive)
        best = Fraction(0)
        for z in traces:
            labels = vs.cot_labels(z)
            pred = next(iter(labels)) if len(labels) == 1 else fault_at(1)
            for truth in labels:
                nxt = vs.restrict_cot(z, truth).alive
                kind = classify_mistake(pred, truth, "sequence-level")
                cost = costs.of(kind)
                if nxt == alive:
                    # Correct unanimous rounds are free self-loops.
                    assert cost == 0
                    continue
                best = max(best, cost + go(nxt))
        return best

    return go(vclass.full_mask())


def run_protocol_prefixes(learner, oracle, traces):
    """Present each trace's prefixes in order, stopping at the first
    true rejection, the way prefix feedback arrives in a proof attempt."""
    transcript = Transcript()
    for trace in traces:
        for ell in range(1, len(trace.steps) + 1):
            z = trace.prefix(ell)
            pred = learner.predict(z)
            truth = oracle.prefix_label(z)
            kind = classify_mistake(pred, truth, "prefix-level")
            transcript.record(z, pred, truth, kind, learner.costs.of(kind))
            learner.update(z, truth, pred)
            if not truth:
                break
    return transcript
