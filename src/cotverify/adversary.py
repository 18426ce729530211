"""Adaptive adversaries realizing the lower bounds against deterministic
learners.

The tree adversary walks any verified mistake tree, always revealing the
label that contradicts the learner, so the run's cost is at least the
tree's minimum path weight.  The two constructive adversaries force the
halving lower bound on the singleton-bitstring class and the
all-but-one completeness lower bound on the complement class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import families
from .core import (
    ALL_CORRECT,
    CotInstance,
    LearnerNotSound,
    Transcript,
    TreeNotShattered,
    VersionSpace,
    classify_mistake,
    classify_prefix_mistake,
    fault_at,
    is_fault,
)
from .dimensions import MistakeTree, TreeNode, verify_shattered


def _learner_space(learner) -> VersionSpace:
    vs = getattr(learner, "vs", None)
    if vs is not None:
        return vs
    return VersionSpace.full(learner.vclass)


def _min_path(node: Optional[TreeNode]) -> Fraction:
    if node is None:
        return Fraction(0)
    return min(e.weight + _min_path(e.child) for e in node.edges)


def play_tree_adversary(tree: MistakeTree, learner) -> Transcript:
    """Walk the tree against the learner, contradicting every prediction.

    The tree must be shattered by the learner's full class, so every
    revealed label stays consistent with some verifier.
    """
    space = _learner_space(learner)
    if not verify_shattered(tree, space):
        raise TreeNotShattered("tree is not shattered by the class")
    transcript = Transcript()
    node = tree.root
    while node is not None:
        pred = learner.predict(node.instance)
        contradicting = [e for e in node.edges if e.label != pred]
        # Descend toward the costlier guaranteed remainder.
        edge = max(contradicting, key=lambda e: e.weight + _min_path(e.child))
        truth = edge.label
        if tree.kind == "SCL":
            kind = classify_mistake(pred, truth, "sequence-level")
        elif isinstance(node.instance, CotInstance):
            kind = classify_mistake(pred, truth, "prefix-level")
        else:
            kind = classify_prefix_mistake(pred, truth)
        transcript.record(node.instance, pred, truth, kind,
                          learner.costs.of(kind))
        learner.update(node.instance, truth)
        node = edge.child
    return transcript


def prop31_adversary(L: int, learner) -> Transcript:
    """Force one mistake per two trace positions on the singleton class.

    Each round leaves the next two fault locations undetermined, then
    reveals whichever one the learner did not predict, committing at
    most two bits of the hidden string.  Yields at least floor(L/2)
    mistakes against any deterministic learner.
    """
    vclass = families.singleton_bitstring_class(L)
    space = VersionSpace.full(vclass)
    transcript = Transcript()
    committed: tuple[int, ...] = ()
    while len(committed) <= L - 2:
        steps = committed + (1,) * (L - len(committed))
        z = CotInstance(0, steps)
        pred = learner.predict(z)
        candidates = [fault_at(len(committed) + 1), fault_at(len(committed) + 2)]
        truth = candidates[1] if pred == candidates[0] else candidates[0]
        kind = classify_mistake(pred, truth, "prefix-level")
        transcript.record(z, pred, truth, kind, learner.costs.of(kind))
        learner.update(z, truth)
        j = int(truth)
        committed = steps[: j - 1] + (1 - steps[j - 1],)
        space = space.restrict_cot(z, truth)
        assert space.alive != 0, "revealed labels left no consistent target"
    return transcript


def prop32_adversary(n: int, learner, L: Optional[int] = None) -> Transcript:
    """Force n-1 completeness mistakes from any sound learner.

    Presents the n designated traces of the complement class in order,
    revealing each as fully correct while at least two targets remain,
    so the last trace can be the target's unique incorrect one.  A
    learner accepting a trace that some consistent target still rejects
    has broken the zero-soundness contract.
    """
    if L is None:
        L = max(1, (n - 1).bit_length())
    vclass = families.complement_class(n, L)
    space = VersionSpace.full(vclass)
    transcript = Transcript()
    designated = [
        CotInstance(0, tuple((i >> (L - 1 - j)) & 1 for j in range(L)))
        for i in range(n)
    ]
    for i, z in enumerate(designated):
        pred = learner.predict(z)
        rejectable = any(is_fault(y) for y in space.cot_labels(z))
        if pred == ALL_CORRECT and rejectable:
            raise LearnerNotSound(
                f"accepted trace {i} while a consistent target rejects it"
            )
        if i < n - 1:
            truth = ALL_CORRECT
        else:
            # Only verifier n-1 is left; it faults its own trace's last step.
            truth = fault_at(L)
        kind = classify_mistake(pred, truth, "prefix-level")
        transcript.record(z, pred, truth, kind, learner.costs.of(kind))
        learner.update(z, truth)
        space = space.restrict_cot(z, truth)
        assert space.alive != 0, "revealed labels left no consistent target"
    return transcript
