"""Online learners over finite verifier classes.

Every learner exposes the same step interface: ``predict(z)`` returns a
label, ``update(z, truth, pred)`` folds in the revealed truth given the
round's prediction ``pred``, ``snapshot()`` freezes the current state
into a standalone predictor.  Chain-of-thought learners consume
CotInstances and emit fault labels; prefix learners consume
PrefixInstances and emit accept/reject verdicts.

``update`` rebinds a learner's attributes to new values and never
mutates one in place, so a shallow copy (``Learner.frozen``) is a frozen
snapshot: later updates of the learner leave it unchanged.  The
reductions' copies also freeze the inner learner they update.  Every
driver of a game, ``run_online`` and the adversaries, records its rounds
through ``play_round``.

All learners assume realizable runs: the oracle's target verifier stays
in the version space forever, and an empty version space is a harness
bug, not a recoverable condition.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Callable, Sequence

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
    fault_at,
)

_UNIT_COSTS = CostVector(Fraction(1), Fraction(1), Fraction(0))


class Learner:
    """Base of every learner and reduction: update rebinds attributes and
    never mutates one in place, so a shallow copy is frozen."""

    def frozen(self):
        """A copy of this learner that its later updates leave unchanged."""
        return copy.copy(self)

    def snapshot(self) -> Callable:
        return self.frozen().predict


class _SpaceLearner(Learner):
    """Base of the learners whose state is a version space plus immutable
    values."""

    def __init__(self, vclass: VerifierClass, costs: CostVector = _UNIT_COSTS):
        self.vs = VersionSpace.full(vclass)
        self.costs = costs


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
        n = alive.bit_count()
        masks = vclass.prefix_masks(z)
        for ell, yes in enumerate(masks, 1):
            if 2 * (yes & alive).bit_count() <= n:
                return ell
        vclass.read_past(z, masks)
        return ALL_CORRECT

    def update(self, z: CotInstance, truth: Label, pred: Label) -> None:
        if pred != truth:
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

    def update(self, z: CotInstance, truth: Label, pred: Label) -> None:
        if pred != truth:
            self.vs = self.vs.restrict_cot(z, truth)


class RiverCrossingSound(Learner):
    """Sound learner for the river-crossing move graph.

    Accepts a trace prefix while every move lies in the allowed edges:
    the revealed ones plus those learned so far.  Each completeness
    mistake allows one hidden edge, so total mistakes never exceed the
    hidden-edge count.  The class's fail token, if it has one, is a step
    no move reaches: the first one in a trace is a fault, as every
    verifier of a fail-token class rejects it.
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
        self.allowed = frozenset(revealed_edges)

    def predict(self, z: CotInstance) -> Label:
        path = [self.states[s] for s in z.steps]
        if path[0] != self.start:
            return fault_at(1)
        for i in range(1, len(path)):
            if (path[i - 1], path[i]) not in self.allowed:
                return fault_at(i + 1)
        if len(path) == self.vclass.L and path[-1] != self.goal:
            return fault_at(len(path))
        return ALL_CORRECT

    def update(self, z: CotInstance, truth: Label, pred: Label) -> None:
        if pred == truth or pred == ALL_CORRECT:
            return
        # Completeness mistake: the move we faulted is actually legal.
        if truth > pred:
            path = [self.states[s] for s in z.steps]
            ell = int(pred)
            if ell >= 2:
                self.allowed = self.allowed | {(path[ell - 2], path[ell - 1])}


class ScSoa(_SpaceLearner):
    """Budgeted standard optimal algorithm for prefix verification.

    Spends at most k soundness mistakes (accepting a bad step) and at
    most the k-budgeted dimension of the class in mistakes overall.
    """

    mode = "prefix"
    mistake_mode = "prefix-level"

    def __init__(self, vclass: VerifierClass, k: int, costs: CostVector = _UNIT_COSTS):
        self._value = dimensions._game(vclass, "SC", k).engine.value
        super().__init__(vclass, costs)
        self.k = k

    def predict(self, z: PrefixInstance) -> PrefixLabel:
        alive, k = self.vs.alive, self.k
        if alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        ym = self.vs.yes_mask(z)
        if ym == alive:
            return True
        if k == 0 or ym == 0:
            return False
        return self._value(ym, k) > self._value(alive ^ ym, k - 1)

    def update(self, z: PrefixInstance, truth: PrefixLabel, pred: PrefixLabel) -> None:
        if pred and not truth:
            self.k -= 1
        self.vs = self.vs.restrict(z, truth)


class WscSoa(_SpaceLearner):
    """Cost-weighted standard optimal algorithm for prefix verification.

    Guarantees cumulative cost at most the weighted dimension of the
    class, with rejects costing gamma_c and accepts costing gamma_s when
    wrong.
    """

    mode = "prefix"
    mistake_mode = "prefix-level"

    def __init__(self, vclass: VerifierClass, costs: CostVector = _UNIT_COSTS):
        game = dimensions._game(vclass, "WSC", costs=costs)
        super().__init__(vclass, costs)
        self._ws, self._wc = game.weights
        self._value = game.engine.value

    def predict(self, z: PrefixInstance) -> PrefixLabel:
        alive = self.vs.alive
        if alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        ym = self.vs.yes_mask(z)
        if ym == alive:
            return True
        if ym == 0:
            return False
        # Accept iff gamma_c + W(yes) > gamma_s + W(no), compared exactly in
        # units of 1/scale, in which the costs and the engine's values are.
        return self._wc + self._value(ym) > self._ws + self._value(alive ^ ym)

    def update(self, z: PrefixInstance, truth: PrefixLabel, pred: PrefixLabel) -> None:
        self.vs = self.vs.restrict(z, truth)


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
        game = dimensions._game(vclass, "SCL", costs=costs)
        super().__init__(vclass, costs)
        self._weights = game.weights
        self._value = game.engine.value

    def predict(self, z: CotInstance) -> Label:
        alive = self.vs.alive
        if alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        # The alive part of each group of z's partition, in label order.
        groups = [(y, m & alive) for y, m in self.vs.vclass.cot_partition(z)
                  if m & alive]
        if len(groups) == 1:
            return groups[0][0]
        # Losses and residual dimensions in units of 1/scale, exact: every
        # value is a multiple of it.
        ws, wc, wl = self._weights
        residual = [(y, self._value(sub)) for y, sub in groups]
        best, best_worst = None, None
        for i, _ in residual:
            worst = max(_scl_loss(ws, wc, wl, i, j) + r for j, r in residual)
            if best_worst is None or worst < best_worst:
                best, best_worst = i, worst
        return best

    def update(self, z: CotInstance, truth: Label, pred: Label) -> None:
        self.vs = self.vs.restrict_cot(z, truth)


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

    def update(self, z: CotInstance, truth: Label, pred: Label) -> None:
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

    def update(self, z, truth, pred) -> None:
        if pred != truth:
            self.learner.update(z, truth, pred)
            self.snapshots.append(self.learner.snapshot())

    def snapshot(self):
        return self.snapshots[-1]


def play_round(transcript: Transcript, learner, z, pred, truth, mode: str) -> None:
    """Record one round of a game and fold its truth into the learner: the
    mistake of pred, the learner's prediction on z, against truth is
    classified in the given mode and priced at the learner's costs."""
    kind = classify_mistake(pred, truth, mode)
    transcript.record(z, pred, truth, kind, learner.costs.of(kind))
    learner.update(z, truth, pred)


def run_online(
    learner,
    oracle: Oracle,
    sequence: Sequence,
) -> Transcript:
    """Drive one online session and return the per-round transcript."""
    transcript = Transcript()
    for z in sequence:
        pred = learner.predict(z)
        if isinstance(z, CotInstance):
            truth, mode = oracle.cot_label(z), learner.mistake_mode
        else:
            truth, mode = oracle.prefix_label(z), "prefix-level"
        play_round(transcript, learner, z, pred, truth, mode)
    return transcript
