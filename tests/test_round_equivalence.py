"""An online round's cached reads against the code they replaced.

The oracle's chain-of-thought label and the majority and
sound-conservative learners read each trace's prefix yes-masks from one
per-trace cache (VerifierClass.prefix_masks); the weighted learners
decide in scaled integers.  The references below are the earlier
implementations as they were: prefix-by-prefix index lookups and
Fraction arithmetic.  Results, and the type and text of every exception,
must agree on random classes, including traces of the wrong length and
traces with a prefix outside the universe.

Every learner's update takes the round's prediction instead of asking
for it again, and the optimal learners read their engine's values
directly.  Under run_online and the tree adversary each learner, both
reductions and the conservative wrapper must play the rounds of their
RefRound* references (reference.py), which predict again in every
update, and end in the same state; and each round must call the outer
learner's predict exactly once.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    RefRoundConservativeWrapper,
    RefRoundCotFromPrefix,
    RefRoundMajorityVote,
    RefRoundPrefixFromCot,
    RefRoundRiverCrossingSound,
    RefRoundScSoa,
    RefRoundSclSoa,
    RefRoundSoundConservative,
    RefRoundWscSoa,
    class_from_table,
)
from cotverify import adversary, dimensions, families
from cotverify.core import (
    ALL_CORRECT,
    CostVector,
    CotInstance,
    EmptyVersionSpace,
    MistakeKind,
    NoWitness,
    Oracle,
    PrefixInstance,
    Problem,
    StepToken,
    UnknownInstance,
    VersionSpace,
    cot_instances,
    fault_at,
    validate_fail_token,
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
from cotverify.reductions import CotFromPrefix, PrefixFromCot


# -- references -----------------------------------------------------------

def ref_cot_label(oracle, z):
    return oracle.vclass.cot_label_of(oracle.target, z)


class RefMajorityVote(MajorityVote):
    def predict(self, z):
        if self.vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        half = self.vs.size / 2
        for ell in range(1, len(z.steps) + 1):
            accepters = self.vs.yes_mask(z.prefix(ell)).bit_count()
            if accepters <= half:
                return fault_at(ell)
        return ALL_CORRECT


class RefSoundConservative(SoundConservative):
    def predict(self, z):
        if self.vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        for ell in range(1, len(z.steps) + 1):
            if self.vs.yes_mask(z.prefix(ell)) != self.vs.alive:
                return fault_at(ell)
        return ALL_CORRECT


def ref_cost_of(costs, kind):
    return {
        MistakeKind.NONE: Fraction(0),
        MistakeKind.SOUNDNESS: costs.gamma_s,
        MistakeKind.COMPLETENESS: costs.gamma_c,
        MistakeKind.LOCATION: costs.gamma_l,
    }[kind]


def ref_wsc_predict(vs, costs, z):
    ym = vs.yes_mask(z)
    if ym == vs.alive:
        return True
    if ym == 0:
        return False
    m_c = costs.gamma_c + dimensions.wsc_value(vs.restrict(z, True), costs)
    m_s = costs.gamma_s + dimensions.wsc_value(vs.restrict(z, False), costs)
    return not (m_c <= m_s)


def ref_scl_loss(costs, pred, truth):
    if pred == truth:
        return Fraction(0)
    if pred == ALL_CORRECT:
        return costs.gamma_s
    if truth == ALL_CORRECT:
        return costs.gamma_c
    return costs.gamma_l


def ref_scl_predict(vs, costs, z):
    labels = sorted(vs.cot_labels(z))
    if len(labels) == 1:
        return labels[0]
    residual = {
        y: dimensions.scl_value(vs.restrict_cot(z, y), costs)
        for y in labels
    }
    best, best_worst = None, None
    for i in labels:
        worst = max(ref_scl_loss(costs, i, j) + residual[j] for j in labels)
        if best_worst is None or worst < best_worst:
            best, best_worst = i, worst
    return best


# -- helpers --------------------------------------------------------------

def outcome(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return ("ok", call())
    except Exception as e:  # compared, never swallowed
        return ("raised", type(e), str(e))


def random_class(rng, fail_token):
    """A class over tokens {0, 1} and one or two problems whose universe
    misses some prefixes at random."""
    L = rng.randint(1, 3)
    n_problems = rng.randint(1, 2)
    n = rng.randint(1, 6)
    table = {}
    for p in range(n_problems):
        for ell in range(1, L + 1):
            for steps in itertools.product((0, 1), repeat=ell):
                if rng.random() < 0.85:
                    table[PrefixInstance(p, steps)] = [
                        rng.random() < 0.6 for _ in range(n)]
    if not table:
        table[PrefixInstance(0, (0,))] = [True] * n
    vc = class_from_table(
        [StepToken(0, "0"), StepToken(1, "1")],
        [Problem(p, f"x{p}") for p in range(n_problems)], L, table)
    return families.with_fail_token(vc) if fail_token else vc


def random_traces(rng, vc, count):
    """Full traces of the class, traces one step short or long, traces
    through a prefix outside the universe (some with a token outside the
    alphabet or an unknown problem)."""
    traces = cot_instances(vc)[:count]
    tokens = range(len(vc.sigma) + 1)
    for _ in range(count):
        length = vc.L + rng.choice((-1, 0, 0, 1))
        problem = rng.choice((0, 0, 1, len(vc.problems), -1))
        steps = tuple(rng.choice(tokens) for _ in range(length))
        traces.append(CotInstance(problem, steps))
    for z in cot_instances(vc)[:2]:
        traces += [CotInstance(z.problem, z.steps + (0,)),
                   CotInstance(z.problem, z.steps[:-1])]
    rng.shuffle(traces)
    return traces


# -- tests ----------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), fail_token=st.booleans())
@settings(max_examples=150, deadline=None)
def test_cot_rounds_match_prefix_by_prefix_reference(seed, fail_token):
    rng = random.Random(seed)
    vc = random_class(rng, fail_token)
    labels = [fault_at(ell) for ell in range(1, vc.L + 1)] + [ALL_CORRECT]
    for z in random_traces(rng, vc, 8):
        target = rng.randrange(len(vc))
        oracle = Oracle(vc, target)
        assert outcome(lambda: oracle.cot_label(z)) == outcome(
            lambda: ref_cot_label(oracle, z))
        alive = rng.getrandbits(len(vc)) if rng.random() < 0.9 else 0
        for new, ref in ((MajorityVote, RefMajorityVote),
                         (SoundConservative, RefSoundConservative)):
            learner, reference = new(vc), ref(vc)
            learner.vs = reference.vs = VersionSpace(vc, alive)
            assert outcome(lambda: learner.predict(z)) == outcome(
                lambda: reference.predict(z))
            for truth in labels:
                learner.vs = reference.vs = VersionSpace(vc, alive)
                assert outcome(lambda: learner.update(
                    z, truth, learner.predict(z))) == outcome(
                    lambda: reference.update(z, truth, reference.predict(z)))
                assert learner.vs.alive == reference.vs.alive


def test_cot_label_reads_no_prefix_past_the_targets_first_rejection():
    # The target rejects step 1, so the oracle answers without reading
    # the missing second prefix, as cot_label_of does.
    table = {PrefixInstance(0, (0,)): [False, True],
             PrefixInstance(0, (1,)): [True, True]}
    vc = class_from_table([StepToken(0), StepToken(1)], [Problem(0)], 2,
                          table)
    z = CotInstance(0, (0, 1))
    assert Oracle(vc, 0).cot_label(z) == ref_cot_label(Oracle(vc, 0), z) == 1
    for target in (0, 1):
        oracle = Oracle(vc, target)
        assert outcome(lambda: oracle.cot_label(z)) == outcome(
            lambda: ref_cot_label(oracle, z))
    with pytest.raises(UnknownInstance):
        Oracle(vc, 1).cot_label(z)


@pytest.mark.parametrize("gammas", [(0, 0, 0), (1, 1, 0), (3, 2, 1),
                                    ("3/2", "1/3", "1/3"), ("1/3", 0, 0)])
def test_cost_vector_of_matches_the_dict(gammas):
    costs = CostVector(*map(Fraction, gammas))
    for kind in MistakeKind:
        assert costs.of(kind) == ref_cost_of(costs, kind)
    with pytest.raises(KeyError):
        costs.of("soundness")


_COSTS = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1),
                          Fraction(3, 2), Fraction(2), Fraction(3)])


@given(seed=st.integers(0, 2**32 - 1), gammas=st.tuples(_COSTS, _COSTS, _COSTS))
@settings(max_examples=60, deadline=None)
def test_weighted_decisions_match_fraction_reference(seed, gammas):
    rng = random.Random(seed)
    vc = random_class(rng, fail_token=False)
    gamma_s, gamma_c, gamma_l = sorted(gammas, reverse=True)
    wsc_costs = CostVector(gammas[0], gammas[1], gammas[2])
    scl_costs = CostVector(gamma_s, gamma_c, gamma_l)
    wsc, scl = WscSoa(vc, wsc_costs), SclSoa(vc, scl_costs)
    for _ in range(6):
        vs = wsc.vs = scl.vs = VersionSpace(vc, rng.getrandbits(len(vc)) or 1)
        for z in vc.universe:
            assert wsc.predict(z) == ref_wsc_predict(vs, wsc_costs, z)
        for z in cot_instances(vc):
            assert scl.predict(z) == ref_scl_predict(vs, scl_costs, z)


# -- one prediction per round ----------------------------------------------

def counting(cls):
    """cls, with every call of its predict counted in the class's calls[0]:
    the game's, and any its own methods make."""

    class Counting(cls):
        calls = [0]

        def predict(self, z):
            self.calls[0] += 1
            return super().predict(z)

    return Counting


def final_state(learner):
    """What a run leaves in a learner: its version space, budget and
    allowed moves, its wrapper's snapshot count, and its inner learner's."""
    inner = getattr(learner, "inner", None) or getattr(learner, "learner", None)
    vs = getattr(learner, "vs", None)
    return (None if vs is None else vs.alive, getattr(learner, "k", None),
            getattr(learner, "allowed", None),
            len(getattr(learner, "snapshots", ())),
            None if inner is None else final_state(inner))


def play(game, learner):
    """game(learner)'s rounds and the learner's final state, or the type
    and text of what it raised."""
    return outcome(lambda: ([(r.instance, r.prediction, r.truth, r.kind, r.cost)
                             for r in game(learner).rounds], final_state(learner)))


def check_rounds(make, make_ref, counted, games, vc):
    """make()'s learner against make_ref()'s under each game: the same
    rounds and final state and, on a run that ends, one call of each
    counted class's predict per round (the outer learner's, and a wrapped
    learner's)."""
    for game in games:
        if game is None:
            continue
        new, ref = make(), make_ref()
        for learner in (new, ref):
            # The tree adversary reads a learner's class when it holds no
            # version space.
            if not hasattr(learner, "vs") and not hasattr(learner, "vclass"):
                learner.vclass = vc
        for cls in counted:
            cls.calls[0] = 0
        got = play(game, new)
        assert got == play(game, ref), (new, game)
        if got[0] == "ok":
            assert [cls.calls[0] for cls in counted] == (
                [len(got[1][0])] * len(counted)), (new, game)


def tree_game(vc, kind, **params):
    """The tree adversary on the class's witness of the kind's game, or
    None when the game's value is 0."""
    try:
        tree = dimensions.extract_witness(VersionSpace.full(vc), kind, **params)
    except NoWitness:
        return None
    return lambda learner: adversary.play_tree_adversary(tree, learner)


def proof_attempts(rng, vc, oracle, count):
    """Prefixes of random fail-token-free traces, each trace up to its first
    rejected prefix, as a proof attempt presents them."""
    traces = [z for z in cot_instances(vc) if vc.fail_token not in z.steps]
    out = []
    while traces and len(out) < count:
        trace = rng.choice(traces)
        for ell in range(1, vc.L + 1):
            out.append(trace.prefix(ell))
            if not oracle.prefix_label(out[-1]):
                break
    return out[:count]


@given(seed=st.integers(0, 2**32 - 1), fail_token=st.booleans(),
       gammas=st.tuples(_COSTS, _COSTS, _COSTS))
@settings(max_examples=40, deadline=None)
def test_rounds_predict_once_and_match_the_predict_again_reference(
        seed, fail_token, gammas):
    rng = random.Random(seed)
    vc = random_class(rng, fail_token)
    k = rng.randint(0, 2)
    costs = CostVector(*sorted(gammas, reverse=True))
    oracle = Oracle(vc, rng.randrange(len(vc)))
    traces = cot_instances(vc)
    cot_rounds = [rng.choice(traces) for _ in range(12)] if traces else []
    prefix_rounds = [rng.choice(vc.universe) for _ in range(12)]

    def online(sequence):
        return lambda learner: run_online(learner, oracle, sequence)

    cot = (online(cot_rounds), tree_game(vc, "SCL", costs=costs))
    sc = (online(prefix_rounds), tree_game(vc, "SC", k=k))
    wsc = (online(prefix_rounds), tree_game(vc, "WSC", costs=costs))
    for new, ref, args in [
        (MajorityVote, RefRoundMajorityVote, ()),
        (SoundConservative, RefRoundSoundConservative, ()),
        (RejectAll, RejectAll, ()),
        (SclSoa, RefRoundSclSoa, (costs,)),
    ]:
        C = counting(new)
        check_rounds(lambda: C(vc, *args), lambda: ref(vc, *args), [C], cot, vc)
    C = counting(ScSoa)
    check_rounds(lambda: C(vc, k), lambda: RefRoundScSoa(vc, k), [C], sc, vc)
    C = counting(WscSoa)
    check_rounds(lambda: C(vc, costs), lambda: RefRoundWscSoa(vc, costs), [C],
                 wsc, vc)

    W, inner = counting(ConservativeWrapper), counting(ScSoa)
    check_rounds(lambda: W(inner(vc, k)),
                 lambda: RefRoundConservativeWrapper(RefRoundScSoa(vc, k)),
                 [W, inner], sc, vc)
    W, inner = counting(ConservativeWrapper), counting(MajorityVote)
    check_rounds(lambda: W(inner(vc)),
                 lambda: RefRoundConservativeWrapper(RefRoundMajorityVote(vc)),
                 [W, inner], cot, vc)
    C = counting(CotFromPrefix)
    check_rounds(lambda: C(ScSoa(vc, k)),
                 lambda: RefRoundCotFromPrefix(RefRoundScSoa(vc, k)), [C], cot, vc)
    # A class whose universe misses a prefix may fail the fail-token check.
    if fail_token and outcome(lambda: validate_fail_token(vc))[0] == "ok":
        attempts = online(proof_attempts(rng, vc, oracle, 12))
        for new, ref in [(MajorityVote, RefRoundMajorityVote),
                         (SoundConservative, RefRoundSoundConservative)]:
            C = counting(PrefixFromCot)
            check_rounds(lambda: C(new(vc), vc),
                         lambda: RefRoundPrefixFromCot(ref(vc), vc), [C],
                         (attempts, sc[1]), vc)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_river_rounds_predict_once_and_match_the_predict_again_reference(seed):
    rng = random.Random(seed)
    edges = families.river_edges()
    revealed = rng.sample(edges, rng.randint(15, 17))
    vc = families.river_crossing_class(revealed, rng.randint(3, 5))
    oracle = Oracle(vc, rng.randrange(len(vc)))
    sequence = [rng.choice(cot_instances(vc)) for _ in range(12)]
    games = (lambda learner: run_online(learner, oracle, sequence),
             tree_game(vc, "SCL", costs=CostVector(Fraction(2), Fraction(1),
                                                   Fraction(1))))
    C = counting(RiverCrossingSound)
    check_rounds(lambda: C(vc, revealed),
                 lambda: RefRoundRiverCrossingSound(vc, revealed), [C], games, vc)
