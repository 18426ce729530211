"""Online learners over finite verifier classes.

Every learner exposes the same step interface: ``predict(z)`` returns a
label, ``update(z, truth)`` folds in the revealed truth, ``snapshot()``
freezes the current state into a standalone predictor.  Chain-of-thought
learners consume CotInstances and emit fault labels; prefix learners
consume PrefixInstances and emit accept/reject verdicts.

All learners assume realizable runs: the oracle's target verifier stays
in the version space forever, and an empty version space is a harness
bug, not a recoverable condition.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import dimensions
from .core import (
    ALL_CORRECT,
    ClassMismatch,
    CostVector,
    CotInstance,
    EmptyVersionSpace,
    Label,
    Oracle,
    PrefixInstance,
    PrefixLabel,
    Transcript,
    VerifierClass,
    VersionSpace,
    classify_mistake,
    classify_prefix_mistake,
    fault_at,
)

_UNIT_COSTS = CostVector(Fraction(1), Fraction(1), Fraction(0))


class _SpaceLearner:
    """Base of the learners whose state is a version space plus immutable
    values, so that a shallow copy is a frozen snapshot."""

    def __init__(self, vclass: VerifierClass, costs: CostVector = _UNIT_COSTS):
        self.vs = VersionSpace.full(vclass)
        self.costs = costs

    def snapshot(self) -> Callable:
        return copy.copy(self).predict


class MajorityVote(_SpaceLearner):
    """Accept each step while a strict majority of alive verifiers does.

    Halving learner: every mistake removes at least half of the alive
    verifiers, so a realizable run has at most log2|H| mistakes.
    """

    mode = "cot"
    mistake_mode = "prefix-level"

    def predict(self, z: CotInstance) -> Label:
        alive, vclass = self.vs.alive, self.vs.vclass
        if alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        half = alive.bit_count() / 2
        masks = vclass.prefix_masks(z)
        for ell, yes in enumerate(masks, 1):
            if (yes & alive).bit_count() <= half:
                return ell
        vclass.read_past(z, masks)
        return ALL_CORRECT

    def update(self, z: CotInstance, truth: Label) -> None:
        if self.predict(z) != truth:
            self.vs = self.vs.restrict_cot(z, truth)


class SoundConservative(_SpaceLearner):
    """Accept a step only when every alive verifier does.

    Never makes a soundness mistake: the target is alive, so any step it
    would fault is faulted here no later.
    """

    mode = "cot"
    mistake_mode = "prefix-level"

    def predict(self, z: CotInstance) -> Label:
        alive, vclass = self.vs.alive, self.vs.vclass
        if alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        masks = vclass.prefix_masks(z)
        for ell, yes in enumerate(masks, 1):
            if yes & alive != alive:
                return ell
        vclass.read_past(z, masks)
        return ALL_CORRECT

    def update(self, z: CotInstance, truth: Label) -> None:
        if self.predict(z) != truth:
            self.vs = self.vs.restrict_cot(z, truth)


class RiverCrossingSound:
    """Sound learner for the river-crossing move graph.

    Accepts a trace prefix while every move lies in the revealed edges
    plus the accumulated learned set; each completeness mistake reveals
    one hidden edge, so total mistakes never exceed the hidden-edge count.
    The class's fail token, if it has one, is a step no move reaches: the
    first one in a trace is a fault, as every verifier of a fail-token
    class rejects it.
    """

    mode = "cot"
    mistake_mode = "prefix-level"

    def __init__(
        self,
        vclass: VerifierClass,
        revealed_edges: Sequence[tuple[tuple, tuple]],
        costs: CostVector = _UNIT_COSTS,
    ):
        self.vclass = vclass
        self.costs = costs
        try:
            # None for the fail token: no edge leads to it.
            self.states = [
                None if t.id == vclass.fail_token
                else tuple(int(c) for c in t.name) for t in vclass.sigma
            ]
            if any(s is not None and len(s) != 4 for s in self.states):
                raise ValueError
        except ValueError:
            raise ClassMismatch(
                "class tokens do not encode 4-bit bank states"
            ) from None
        from .families import RIVER_GOAL, RIVER_START

        self.start = RIVER_START
        self.goal = RIVER_GOAL
        self.revealed = frozenset(revealed_edges)
        self.learned: set[tuple[tuple, tuple]] = set()

    def _first_fault(self, z: CotInstance) -> Label:
        path = [self.states[s] for s in z.steps]
        allowed = self.revealed | self.learned
        if path[0] != self.start:
            return fault_at(1)
        for i in range(1, len(path)):
            if (path[i - 1], path[i]) not in allowed:
                return fault_at(i + 1)
        if len(path) == self.vclass.L and path[-1] != self.goal:
            return fault_at(len(path))
        return ALL_CORRECT

    def predict(self, z: CotInstance) -> Label:
        return self._first_fault(z)

    def update(self, z: CotInstance, truth: Label) -> None:
        pred = self._first_fault(z)
        if pred == truth or pred == ALL_CORRECT:
            return
        # Completeness mistake: the move we faulted is actually legal.
        if truth > pred:
            path = [self.states[s] for s in z.steps]
            ell = int(pred)
            if ell >= 2:
                self.learned.add((path[ell - 2], path[ell - 1]))

    def snapshot(self) -> Callable[[CotInstance], Label]:
        frozen = RiverCrossingSound(self.vclass, self.revealed, self.costs)
        frozen.learned = set(self.learned)
        return frozen.predict


class ScSoa(_SpaceLearner):
    """Budgeted standard optimal algorithm for prefix verification.

    Spends at most k soundness mistakes (accepting a bad step) and at
    most the k-budgeted dimension of the class in mistakes overall.
    """

    mode = "prefix"
    mistake_mode = "prefix-level"

    def __init__(self, vclass: VerifierClass, k: int, costs: CostVector = _UNIT_COSTS):
        if k < 0:
            raise ValueError("budget k must be >= 0")
        super().__init__(vclass, costs)
        self.k = k

    @staticmethod
    def _predict(vs: VersionSpace, k: int, z: PrefixInstance) -> PrefixLabel:
        if vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        ym = vs.yes_mask(z)
        if ym == vs.alive:
            return True
        if k == 0 or ym == 0:
            return False
        m_c = dimensions.sc_value(vs.restrict(z, True), k)
        m_s = dimensions.sc_value(vs.restrict(z, False), k - 1)
        return not (m_c <= m_s)

    def predict(self, z: PrefixInstance) -> PrefixLabel:
        return self._predict(self.vs, self.k, z)

    def update(self, z: PrefixInstance, truth: PrefixLabel) -> None:
        pred = self.predict(z)
        if pred and not truth:
            self.k -= 1
        self.vs = self.vs.restrict(z, truth)

    def snapshot(self) -> Callable[[PrefixInstance], PrefixLabel]:
        vs, k = self.vs, self.k
        return lambda z: ScSoa._predict(vs, k, z)


class WscSoa(_SpaceLearner):
    """Cost-weighted standard optimal algorithm for prefix verification.

    Guarantees cumulative cost at most the weighted dimension of the
    class, with rejects costing gamma_c and accepts costing gamma_s when
    wrong.
    """

    mode = "prefix"
    mistake_mode = "prefix-level"

    @staticmethod
    def _predict(vs: VersionSpace, costs: CostVector, z: PrefixInstance) -> PrefixLabel:
        if vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        ym = vs.yes_mask(z)
        if ym == vs.alive:
            return True
        if ym == 0:
            return False
        # Accept iff gamma_c + W(yes) > gamma_s + W(no), compared exactly
        # in units of 1/scale: every value is a multiple of it.
        ws, wc, scale = dimensions.integer_costs(costs.gamma_s, costs.gamma_c)
        m_c = dimensions.wsc_value(vs.restrict(z, True), costs)
        m_s = dimensions.wsc_value(vs.restrict(z, False), costs)
        return (wc + m_c.numerator * (scale // m_c.denominator)
                > ws + m_s.numerator * (scale // m_s.denominator))

    def predict(self, z: PrefixInstance) -> PrefixLabel:
        return self._predict(self.vs, self.costs, z)

    def update(self, z: PrefixInstance, truth: PrefixLabel) -> None:
        self.vs = self.vs.restrict(z, truth)

    def snapshot(self) -> Callable[[PrefixInstance], PrefixLabel]:
        vs, costs = self.vs, self.costs
        return lambda z: WscSoa._predict(vs, costs, z)


def _scl_loss(ws: int, wc: int, wl: int, pred: Label, truth: Label) -> int:
    """The loss of predicting pred against truth, given the costs ws, wc
    and wl of a soundness, completeness and location mistake."""
    if pred == truth:
        return 0
    if pred == ALL_CORRECT:
        return ws
    if truth == ALL_CORRECT:
        return wc
    return wl


class SclSoa(_SpaceLearner):
    """Sequence-level optimal algorithm over full reasoning traces.

    Predicts the fault label minimizing the worst-case loss plus the
    residual dimension of the matching restriction; ties go to the
    smallest label.
    """

    mode = "cot"
    mistake_mode = "sequence-level"

    def __init__(self, vclass: VerifierClass, costs: CostVector):
        costs.require_ordered()
        super().__init__(vclass, costs)

    @staticmethod
    def _predict(vs: VersionSpace, costs: CostVector, z: CotInstance) -> Label:
        if vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        labels = sorted(vs.cot_labels(z))
        if len(labels) == 1:
            return labels[0]
        # Losses and residual dimensions in units of 1/scale, exact: every
        # value is a multiple of it.
        ws, wc, wl, scale = dimensions.integer_costs(
            costs.gamma_s, costs.gamma_c, costs.gamma_l)
        residual = {}
        for y in labels:
            r = dimensions.scl_value(vs.restrict_cot(z, y), costs)
            residual[y] = r.numerator * (scale // r.denominator)
        best, best_worst = None, None
        for i in labels:
            worst = max(_scl_loss(ws, wc, wl, i, j) + residual[j] for j in labels)
            if best_worst is None or worst < best_worst:
                best, best_worst = i, worst
        return best

    def predict(self, z: CotInstance) -> Label:
        return self._predict(self.vs, self.costs, z)

    def update(self, z: CotInstance, truth: Label) -> None:
        self.vs = self.vs.restrict_cot(z, truth)

    def snapshot(self) -> Callable[[CotInstance], Label]:
        vs, costs = self.vs, self.costs
        return lambda z: SclSoa._predict(vs, costs, z)


class RejectAll(_SpaceLearner):
    """Reject every disputed trace as faulty from step one.

    With zero location cost this pays only for completeness mistakes,
    each of which restricts the version space to the verifiers calling
    the trace fully correct; once the alive set agrees it switches to
    the unanimous label.
    """

    mode = "cot"
    mistake_mode = "sequence-level"

    def predict(self, z: CotInstance) -> Label:
        if self.vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        labels = self.vs.cot_labels(z)
        if len(labels) == 1:
            return labels.pop()
        return fault_at(1)

    def update(self, z: CotInstance, truth: Label) -> None:
        self.vs = self.vs.restrict_cot(z, truth)


class ConservativeWrapper:
    """Update the inner learner only on mistake rounds.

    Keeps a snapshot of the hypothesis after every update, so the number
    of distinct hypotheses is at most one plus the mistake count.
    """

    def __init__(self, learner):
        self.learner = learner
        self.mode = learner.mode
        self.mistake_mode = learner.mistake_mode
        self.costs = learner.costs
        self.snapshots = [learner.snapshot()]

    def predict(self, z):
        return self.learner.predict(z)

    def update(self, z, truth) -> None:
        if self.learner.predict(z) != truth:
            self.learner.update(z, truth)
            self.snapshots.append(self.learner.snapshot())

    def snapshot(self):
        return self.snapshots[-1]


def run_online(
    learner,
    oracle: Oracle,
    sequence: Sequence,
    costs: Optional[CostVector] = None,
) -> Transcript:
    """Drive one online session and return the per-round transcript."""
    if costs is None:
        costs = getattr(learner, "costs", _UNIT_COSTS)
    transcript = Transcript()
    for z in sequence:
        pred = learner.predict(z)
        if isinstance(z, CotInstance):
            truth = oracle.cot_label(z)
            kind = classify_mistake(pred, truth, learner.mistake_mode)
        else:
            truth = oracle.prefix_label(z)
            kind = classify_prefix_mistake(pred, truth)
        transcript.record(z, pred, truth, kind, costs.of(kind))
        learner.update(z, truth)
    return transcript
