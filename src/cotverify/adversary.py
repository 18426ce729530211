"""Adaptive adversaries realizing the lower bounds against deterministic
learners.

The tree adversary walks any verified mistake tree, always revealing the
label that contradicts the learner, so the run's cost is at least the
tree's minimum path weight.  The two constructive adversaries force the
halving lower bound on the singleton-bitstring class and the
all-but-one completeness lower bound on the complement class.
"""

from __future__ import annotations

from typing import Optional

from . import families
from .core import (
    ALL_CORRECT,
    CotInstance,
    CotVerifyError,
    LearnerNotSound,
    Transcript,
    TreeNotShattered,
    VersionSpace,
    fault_at,
    is_fault,
)
from .dimensions import MistakeTree, _min_paths, verify_shattered
from .learners import play_round


def _learner_space(learner) -> VersionSpace:
    vs = getattr(learner, "vs", None)
    if vs is not None:
        return vs
    vclass = getattr(learner, "vclass", None)
    if vclass is None:  # a wrapper or reduction over another learner
        raise CotVerifyError(
            "the tree adversary plays a learner that holds its version space "
            f"or class; {type(learner).__name__} holds neither")
    return VersionSpace.full(vclass)


def play_tree_adversary(tree: MistakeTree, learner) -> Transcript:
    """Walk the tree against the learner, contradicting every prediction.

    The tree must be shattered by the learner's full class, so every
    revealed label stays consistent with some verifier.  A wrapper or
    reduction holds neither a version space nor a class and is refused
    with CotVerifyError.
    """
    space = _learner_space(learner)
    if not verify_shattered(tree, space):
        raise TreeNotShattered("tree is not shattered by the class")
    mode = "sequence-level" if tree.kind == "SCL" else "prefix-level"
    nodes = tree.nodes
    below = _min_paths(nodes)
    transcript = Transcript()
    i = 0 if nodes else None
    while i is not None:
        z, edges = nodes[i]
        pred = learner.predict(z)
        # Descend toward the costlier guaranteed remainder.
        label, _, _, i = max(
            (e for e in edges if e[0] != pred),
            key=lambda e: e[2] if e[3] is None else e[2] + below[e[3]])
        play_round(transcript, learner, z, pred, label, mode)
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
        play_round(transcript, learner, z, pred, truth, "prefix-level")
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
        play_round(transcript, learner, z, pred, truth, "prefix-level")
        space = space.restrict_cot(z, truth)
        assert space.alive != 0, "revealed labels left no consistent target"
    return transcript
