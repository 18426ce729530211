"""Adversaries: tree walks hit the dimension, constructions force the
halving and complement lower bounds."""

from fractions import Fraction

import pytest

import reference as ref
from cotverify import adversary, dimensions, families
from cotverify.core import (
    CostVector,
    CotVerifyError,
    LearnerNotSound,
    MalformedTree,
    TreeNotShattered,
    VersionSpace,
)
from cotverify.dimensions import MistakeTree
from cotverify.learners import (
    ConservativeWrapper,
    MajorityVote,
    RejectAll,
    ScSoa,
    SclSoa,
    SoundConservative,
    WscSoa,
)
from cotverify.reductions import CotFromPrefix


def test_tree_adversary_tight_vs_sc_soa():
    vc = families.indicator_class(4)
    vs = VersionSpace.full(vc)
    for k in (0, 1, 2):
        value = dimensions.sc_value(vs, k)
        tree = dimensions.extract_witness(vs, "SC", k=k)
        t = adversary.play_tree_adversary(tree, ScSoa(vc, k))
        assert t.total_mistakes == value
        assert t.soundness_mistakes <= k


def test_tree_adversary_tight_vs_wsc_soa():
    vc = families.singleton_bitstring_class(3)
    vs = VersionSpace.full(vc)
    costs = CostVector(Fraction(2), Fraction(1), Fraction(0))
    value = dimensions.wsc_value(vs, costs)
    tree = dimensions.extract_witness(vs, "WSC", costs=costs)
    t = adversary.play_tree_adversary(tree, WscSoa(vc, costs))
    assert t.total_cost == value


def test_tree_adversary_tight_vs_scl_soa():
    vc = families.conjunction_class(3)
    vs = VersionSpace.full(vc)
    costs = CostVector(Fraction(1), Fraction(1), Fraction(1))
    value = dimensions.scl_value(vs, costs)
    tree = dimensions.extract_witness(vs, "SCL", costs=costs)
    t = adversary.play_tree_adversary(tree, SclSoa(vc, costs))
    assert t.total_cost == value


def test_tree_adversary_rejects_foreign_tree():
    # A tree built for another class shares instances but not shattering.
    vc = families.indicator_class(3)
    other = families.singleton_bitstring_class(2)
    tree = dimensions.extract_witness(VersionSpace.full(other), "plain")
    with pytest.raises(TreeNotShattered):
        adversary.play_tree_adversary(tree, MajorityVote(vc))


def test_tree_adversary_forces_min_path_vs_any_learner():
    vc = families.singleton_bitstring_class(3)
    vs = VersionSpace.full(vc)
    tree = dimensions.extract_witness(vs, "plain")
    t = adversary.play_tree_adversary(tree, ScSoa(vc, 1))
    assert t.total_mistakes >= dimensions.ldim_value(vs)


def _reference_play(tree, learner):
    """The tree walk over the nested view with a recursive minimum path
    recomputed per edge: (instance, prediction, truth) per round."""

    def min_path(node):
        if node is None:
            return Fraction(0)
        return min(e.weight + min_path(e.child) for e in node.edges)

    rounds = []
    node = ref.nested(tree)
    while node is not None:
        pred = learner.predict(node.instance)
        edge = max((e for e in node.edges if e.label != pred),
                   key=lambda e: e.weight + min_path(e.child))
        rounds.append((node.instance, pred, edge.label))
        learner.update(node.instance, edge.label, pred)
        node = edge.child
    return rounds


@pytest.mark.parametrize("costs", [(3, 2, 1), (1, 1, 1), (2, 1, 0)])
def test_tree_adversary_takes_the_first_costliest_edge(corpus, costs):
    """On sequence-level witnesses, where a prediction can leave several
    contradicting edges, the adversary picks the same edge as the
    recursive reference: the first whose weight plus the minimum path
    weight below it is largest."""
    costs = CostVector(*map(Fraction, costs))
    choices = 0
    for vc in corpus.values():
        vs = VersionSpace.full(vc)
        if dimensions.scl_value(vs, costs) == 0:
            continue
        tree = dimensions.extract_witness(vs, "SCL", costs=costs)
        for make in (RejectAll, MajorityVote, SoundConservative,
                     lambda vc: SclSoa(vc, costs)):
            t = adversary.play_tree_adversary(tree, make(vc))
            reference = _reference_play(tree, make(vc))
            assert [(r.instance, r.prediction, r.truth)
                    for r in t.rounds] == reference
            node = ref.nested(tree)
            for _instance, pred, truth in reference:
                edge = next(e for e in node.edges if e.label == truth)
                choices += sum(e.label != pred for e in node.edges) > 1
                node = edge.child
    assert choices > 0


def test_tree_adversary_on_a_deep_path():
    """complement_class(n) has a path-shaped witness of depth n - 1.  The
    walk computes every subtree's minimum once, without recursion; a
    recursive minimum per edge at every step is quadratic here and needs
    two frames per level."""
    vc = families.complement_class(400, 9)
    vs = VersionSpace.full(vc)
    tree = dimensions.extract_witness(vs, "SC", k=0)
    t = adversary.play_tree_adversary(tree, ScSoa(vc, 0))
    assert t.total_mistakes == dimensions.sc_value(vs, 0) == 399


def test_prop31_floor_half_L():
    for L in (2, 4, 6):
        for make in (
            lambda vc: MajorityVote(vc),
            lambda vc: SoundConservative(vc),
        ):
            vc = families.singleton_bitstring_class(L)
            t = adversary.prop31_adversary(L, make(vc))
            assert t.total_mistakes >= L // 2


def test_prop31_transcript_realizable():
    vc = families.singleton_bitstring_class(4)
    t = adversary.prop31_adversary(4, MajorityVote(vc))
    vs = VersionSpace.full(vc)
    for r in t.rounds:
        vs = vs.restrict_cot(r.instance, r.truth)
    assert vs.alive != 0


def test_prop32_exact_completeness_vs_sound_learner():
    for n in range(2, 7):
        vc = families.complement_class(n, max(1, (n - 1).bit_length()))
        t = adversary.prop32_adversary(n, SoundConservative(vc))
        assert t.completeness_mistakes == n - 1
        assert t.soundness_mistakes == 0


def test_prop32_detects_unsound_learner():
    # Majority vote accepts traces that remaining targets still reject.
    n = 4
    vc = families.complement_class(n, 2)
    with pytest.raises(LearnerNotSound):
        adversary.prop32_adversary(n, MajorityVote(vc))


def test_malformed_tree_rejected():
    vc = families.indicator_class(3)
    z = vc.universe[0]
    node = (z, (
        (True, "c", Fraction(1), None),
        (True, "c", Fraction(1), None),
    ))
    with pytest.raises(MalformedTree):
        dimensions.verify_shattered(
            MistakeTree("plain", [node]), VersionSpace.full(vc)
        )


def test_tree_adversary_refuses_wrapped_learners():
    """A ConservativeWrapper or a CotFromPrefix holds neither a version
    space nor a class, so the tree adversary refuses it by name before
    any round, with CotVerifyError rather than AttributeError."""
    vc = families.singleton_bitstring_class(3)
    vs = VersionSpace.full(vc)
    sc_tree = dimensions.extract_witness(vs, "SC", k=1)
    scl_tree = dimensions.extract_witness(
        vs, "SCL", costs=CostVector(Fraction(1), Fraction(1), Fraction(0)))
    for tree, learner in [(sc_tree, ConservativeWrapper(ScSoa(vc, 1))),
                          (scl_tree, CotFromPrefix(ScSoa(vc, 1)))]:
        with pytest.raises(CotVerifyError,
                           match=f"{type(learner).__name__} holds neither") as err:
            adversary.play_tree_adversary(tree, learner)
        assert type(err.value) is CotVerifyError
