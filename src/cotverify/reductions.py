"""Constructive adapters between chain-of-thought and prefix verification.

``CotFromPrefix`` turns a prefix learner into a fault-location learner:
the predicted first fault is the shortest prefix the inner learner
rejects.  ``PrefixFromCot`` goes the other way by padding the queried
prefix to full length with a designated fail token that every verifier
rejects after a correct prefix.

Both wrappers update the inner learner only on mistake rounds, and both
preserve soundness/completeness mistake budgets: each outer mistake
coincides with exactly one inner mistake of the same kind.  The inner
update is given the inner prediction: ``CotFromPrefix`` reads it off the
round's prediction, ``PrefixFromCot`` asks for it on a mistake round.  A
wrapper's update rebinds nothing of its own but updates its inner
learner, so its frozen copy (``_Reduction.frozen``) holds a frozen copy
of the inner learner too; ``snapshot()`` is the frozen copy's
``predict``, as for every learner.
"""

from __future__ import annotations

import copy

from .core import (
    ALL_CORRECT,
    CotInstance,
    Label,
    PrefixInstance,
    PrefixLabel,
    VerifierClass,
    fault_at,
    validate_fail_token,
)
from .learners import Learner


class _Reduction(Learner):
    """A learner that updates an inner learner, held as ``inner``."""

    def frozen(self):
        twin = copy.copy(self)
        twin.inner = self.inner.frozen()
        return twin


class CotFromPrefix(_Reduction):
    """Fault-location learner built from a prefix accept/reject learner."""

    mode = "cot"
    mistake_mode = "prefix-level"

    def __init__(self, prefix_learner):
        self.inner = prefix_learner
        self.costs = prefix_learner.costs

    def predict(self, z: CotInstance) -> Label:
        for ell in range(1, len(z.steps) + 1):
            if not self.inner.predict(z.prefix(ell)):
                return fault_at(ell)
        return ALL_CORRECT

    def update(self, z: CotInstance, truth: Label, pred: Label) -> None:
        if pred == truth:
            return
        if pred < truth:
            # Completeness mistake: the step we faulted is actually fine.
            self.inner.update(z.prefix(int(pred)), True, False)
        else:
            # Soundness mistake: we accepted through the true fault.
            self.inner.update(z.prefix(int(truth)), False, True)


class PrefixFromCot(_Reduction):
    """Prefix accept/reject learner built from a fault-location learner.

    Requires the class to declare a fail token: padding any prefix with
    it yields a trace whose first fault, if the prefix itself is clean,
    sits exactly at the first padded position.

    Precondition: every strict prefix of a queried prefix is correct
    under the target, as in a proof attempt, which stops at its first
    rejected step.  An update reads the prefix's label as the padded
    trace's first fault (at the prefix's last step, or at the first
    padded position, or none at full length), which holds only then.
    A class may hold a verifier that accepts a prefix but rejects one of
    its strict prefixes: with ``conjunction --L 2 --fail-token``, target
    0 rejects ``(1,)`` but accepts ``(1, 0)``.  Fed both, the inner
    learner is taught a label that removes the target from its version
    space, and ``cotverify run --via-cot`` ends with ``error: no
    verifier consistent with history``.
    """

    mode = "prefix"
    mistake_mode = "prefix-level"

    def __init__(self, cot_learner, vclass: VerifierClass):
        validate_fail_token(vclass)
        self.inner = cot_learner
        self.vclass = vclass
        self.costs = cot_learner.costs

    def _padded(self, z: PrefixInstance) -> CotInstance:
        pad = (self.vclass.fail_token,) * (self.vclass.L - len(z.steps))
        return CotInstance(z.problem, z.steps + pad)

    def predict(self, z: PrefixInstance) -> PrefixLabel:
        return not self.inner.predict(self._padded(z)) <= len(z.steps)

    def update(self, z: PrefixInstance, truth: PrefixLabel, pred: PrefixLabel) -> None:
        if pred == truth:
            return
        ell = len(z.steps)
        padded = self._padded(z)
        if not truth:
            label = fault_at(ell)
        else:
            label = fault_at(ell + 1) if ell < self.vclass.L else ALL_CORRECT
        self.inner.update(padded, label, self.inner.predict(padded))


def cot_from_prefix(prefix_learner) -> CotFromPrefix:
    return CotFromPrefix(prefix_learner)


def prefix_from_cot(cot_learner, vclass: VerifierClass) -> PrefixFromCot:
    return PrefixFromCot(cot_learner, vclass)
