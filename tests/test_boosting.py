"""Prover boosting: exact sampling, goodness verification, training
dynamics, S2 early elimination, the indexed walkers and the snapshot
cache, and one full pipeline run."""

import collections
import copy
import gc
import itertools
import json
import math
import pickle
import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import scenario
from cotverify import boosting, cli, dimensions
from cotverify.core import (
    CotInstance,
    NoHypothesisQualified,
    Oracle,
    PrefixInstance,
    Problem,
    StepToken,
    UnknownInstance,
    VerifierClass,
    VersionSpace,
)
from cotverify.learners import ConservativeWrapper, ScSoa


@pytest.fixture(scope="module")
def setup():
    vc = scenario.build_class()
    return {
        "vclass": vc,
        "oracle": Oracle(vc, scenario.TARGET),
        "prover_set": scenario.build_prover_set(),
        "D": scenario.build_distribution(),
        "params": scenario.build_params(),
    }


def test_scenario_shape(setup):
    vc = setup["vclass"]
    assert len(vc) == 8
    assert vc.L == 4
    assert len(vc.problems) == 16
    assert setup["prover_set"].k == 2


def test_prover_tables_validated():
    for dist in (
        {0: Fraction(1, 2)},
        {0: Fraction(1, 2), 1: Fraction(2, 3)},
        {},
    ):
        with pytest.raises(ValueError, match="do not sum to 1"):
            boosting.Prover({(0, ()): {0: Fraction(1)}, (1, ()): dist})
    for dist in (
        {0: Fraction(3, 2), 1: Fraction(-1, 2)},
        {0: Fraction(-1, 3), 1: Fraction(1, 3), 2: Fraction(1)},
    ):
        with pytest.raises(ValueError, match="negative weight"):
            boosting.Prover({(0, ()): dist})


def _sample_categorical(weights: dict, rng: random.Random):
    """Reference draw: the per-draw lcm and Fraction products that the
    compiled sampler replaces."""
    denom = math.lcm(*(w.denominator for w in weights.values()))
    r = rng.randrange(denom)
    acc = 0
    for outcome in sorted(weights):
        acc += int(weights[outcome] * denom)
        if r < acc:
            return outcome
    raise AssertionError("categorical weights do not sum to 1")


@st.composite
def _fraction_tables(draw):
    """A prover table of a few keys, each a random distribution over up to
    six tokens with some zero weights."""
    table = {}
    for key in range(draw(st.integers(1, 4))):
        tokens = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6,
                               unique=True))
        raw = [draw(st.integers(0, 12)) for _ in tokens]
        if not any(raw):
            raw[0] = 1
        dens = [draw(st.integers(1, 7)) for _ in tokens]
        weights = [Fraction(r, d) for r, d in zip(raw, dens)]
        total = sum(weights)
        table[(key, ())] = {t: w / total for t, w in zip(tokens, weights)}
    return table


@given(table=_fraction_tables(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_compiled_sampler_draws_equal_reference(table, seed):
    prover = boosting.Prover(table)
    compiled, reference = random.Random(seed), random.Random(seed)
    keys = sorted(table)
    for i in range(200):
        problem, steps = keys[i % len(keys)]
        assert prover.sample(problem, steps, compiled) == _sample_categorical(
            table[(problem, steps)], reference)
    assert compiled.getstate() == reference.getstate()


@st.composite
def _exact_distributions(draw):
    """{token: weight} over some of the tokens 0..7, the weights k/denom
    for a denominator of 1, a power of two, 3**50 or a random one, with
    zero weights."""
    denom = draw(st.sampled_from([1, 2, 8, 2**64, 3**50])
                 | st.integers(1, 10**6))
    tokens = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8,
                           unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, denom),
                                min_size=len(tokens) - 1,
                                max_size=len(tokens) - 1)))
    bounds = [0, *cuts, denom]
    return {t: Fraction(b - a, denom)
            for t, a, b in zip(tokens, bounds, bounds[1:])}


def _one_step_class(tokens):
    """One problem, L = 1, a universe of the given one-step prefixes and a
    single verifier that rejects all of them."""
    sigma = [StepToken(t) for t in range(8)]
    return VerifierClass.build(sigma, [Problem(0)], 1, {
        PrefixInstance(0, (t,)): [False] for t in tokens})


_THIRDS = {0: Fraction(1, 3**50), 1: Fraction(0), 5: 1 - Fraction(1, 3**50)}


@given(dists=st.lists(_exact_distributions(), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(dists=[{3: Fraction(1)}], seed=0)
@example(dists=[{0: Fraction(1, 2), 6: Fraction(0), 7: Fraction(1, 2)},
                {2: Fraction(3, 2**64), 4: 1 - Fraction(3, 2**64)}], seed=1)
@example(dists=[_THIRDS, {5: Fraction(1)}], seed=2)
@settings(max_examples=60, deadline=None)
def test_walkers_draw_what_randrange_draws(dists, seed):
    """The walkers' inlined draws give the randrange reference's
    candidates and leave the generator where the reference leaves it:
    _walk on a universe holding only the tokens 0..3, so some candidates
    are outside it, and process_example on one holding every token."""
    provers = boosting.ProverSet(
        tuple(boosting.Prover({(0, ()): d}) for d in dists), Fraction(1))
    # A tiny epsilon' makes the timeout budget about 23 rounds.
    params = boosting.BoostParams(epsilon=Fraction(1, 5),
                                  epsilon_prime=Fraction(1, 10**10),
                                  delta=Fraction(1, 5))
    budget = boosting.timeout_budget(provers.alpha, provers.k, 1,
                                     params.epsilon_prime)
    assert budget >= 23
    expected, ref = [], random.Random(seed)
    for _ in range(budget):
        expected += [_sample_categorical(d, ref) for d in dists]

    rng = random.Random(seed)
    outcome, rejected = boosting._walk(
        0, provers, params, lambda z: False, _one_step_class(range(4)), rng)
    assert not outcome.is_proof
    assert [z.steps[0] for z in rejected] == expected
    assert rng.getstate() == ref.getstate()

    full = _one_step_class(range(8))
    seen = []

    class Recorder:
        def predict(self, z):
            seen.append(z)
            return False

    rng = random.Random(seed)
    result, calls = boosting.process_example(
        0, provers, params, Recorder(), Oracle(full, 0), rng)
    assert (result, calls) == (boosting.ProcessResult.TIMEOUT, len(expected))
    assert [z.steps[0] for z in seen] == expected
    assert all(z is full.universe[z.steps[0]] for z in seen)
    assert rng.getstate() == ref.getstate()


def test_draw_tables_are_cached_per_class_and_not_pickled(setup):
    """A prover set keeps one draw-table cache per class, dropped with the
    class; a pickled or copied set is equal and starts with none."""
    prover_set = scenario.build_prover_set()
    vc = scenario.build_class()
    boosting.weak_to_strong(0, prover_set, setup["params"], lambda z: True,
                            vc, random.Random(0))
    assert prover_set.draw_tables(vc) is prover_set.draw_tables(vc)
    assert prover_set.draw_tables(vc)
    for twin in (pickle.loads(pickle.dumps(prover_set)),
                 copy.deepcopy(prover_set)):
        assert twin == prover_set
        assert len(twin._tables) == 0
    del vc
    gc.collect()
    assert len(prover_set._tables) == 0


def test_a_missing_distribution_fails_on_its_turn(setup):
    """A prover without a distribution after a prefix raises KeyError
    when it is first asked to draw there, not before."""
    provers = boosting.ProverSet((
        boosting.Prover({(0, ()): {3: Fraction(1)}}),
        boosting.Prover({(1, ()): {3: Fraction(1)}}),
    ), Fraction(1, 2))
    vc = _one_step_class(range(4))
    outcome = boosting.weak_to_strong(0, provers, setup["params"],
                                      lambda z: True, vc, random.Random(0))
    assert outcome == boosting.ProofOutcome(CotInstance(0, (3,)))
    with pytest.raises(KeyError):
        boosting.weak_to_strong(0, provers, setup["params"], lambda z: False,
                                vc, random.Random(0))

    class Rejecting:
        def predict(self, z):
            return False

    with pytest.raises(KeyError):
        boosting.process_example(0, provers, setup["params"], Rejecting(),
                                 Oracle(vc, 0), random.Random(0))


def test_exact_categorical_sampler_frequencies():
    weights = {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}
    prover = boosting.Prover({(0, ()): weights})
    rng = random.Random(3)
    counts = {0: 0, 1: 0, 2: 0}
    n = 4000
    for _ in range(n):
        counts[prover.sample(0, (), rng)] += 1
    for outcome, w in weights.items():
        assert abs(counts[outcome] / n - float(w)) < 0.05


def test_alpha_goodness_exact(setup):
    good = boosting.alpha_goodness(setup["prover_set"], setup["oracle"])
    assert good == frozenset(range(scenario.N_GOOD))
    gamma = boosting.gamma_of(good, setup["D"])
    assert gamma == Fraction(3, 4)


def test_timeout_budget_and_cap(setup):
    ps, params = setup["prover_set"], setup["params"]
    budget = boosting.timeout_budget(ps.alpha, ps.k, 4, params.epsilon_prime)
    assert budget == 11
    assert boosting.oracle_call_cap(params, ps, 4) == 4 * 2 * 11 + 4


def test_sample_sizes(setup):
    params = setup["params"]
    assert boosting.s1_size(params, 0, 3) == 139
    assert boosting.s2_size(params, 0, 3) == 1300


def test_derived_epsilons(setup):
    eps_s, eps_c = boosting.derived_epsilons(setup["params"], 0, 3)
    assert eps_s == 0
    assert eps_c == Fraction(1, 5)


def test_process_example_stops_at_first_disagreement(setup):
    rng = random.Random(11)
    learner = ConservativeWrapper(ScSoa(setup["vclass"], 0))
    result, calls = boosting.process_example(
        0, setup["prover_set"], setup["params"], learner, setup["oracle"], rng
    )
    # Untrained budget-0 learner rejects the first correct candidate.
    assert result is boosting.ProcessResult.MADE_MISTAKE
    assert calls <= boosting.oracle_call_cap(
        setup["params"], setup["prover_set"], 4
    )
    assert len(learner.snapshots) == 2


def test_process_example_timeout_on_bad_problem(setup):
    rng = random.Random(5)
    # A fully trained verifier: only the target stays alive.
    vc = setup["vclass"]
    learner = ScSoa(vc, 0)
    learner.vs = VersionSpace(vc, 1 << scenario.TARGET)
    result, _calls = boosting.process_example(
        scenario.N_PROBLEMS - 1, setup["prover_set"], setup["params"],
        learner, setup["oracle"], rng,
    )
    assert result is boosting.ProcessResult.TIMEOUT


def test_weak_to_strong_with_perfect_verifier(setup):
    oracle = setup["oracle"]
    h = oracle.prefix_label
    rng = random.Random(23)
    outcome = boosting.weak_to_strong(
        0, setup["prover_set"], setup["params"], h, setup["vclass"], rng
    )
    assert outcome.is_proof
    assert all(
        oracle.prefix_label(outcome.trace.prefix(ell))
        for ell in range(1, 5)
    )


def test_build_and_evaluate_pipeline(setup):
    vc = setup["vclass"]
    k = 0
    m_c = dimensions.sc_value(VersionSpace.full(vc), k)
    assert m_c == 3
    rng = random.Random("pipeline:build")
    vhp = boosting.build_vhp(
        setup["prover_set"], setup["D"], setup["params"],
        ScSoa(vc, k), setup["oracle"], (k, m_c), rng,
    )
    assert vhp.report["s1_size"] == 139
    assert vhp.report["s2_size"] == 1300
    assert vhp.report["snapshots"] <= 1 + m_c

    rates = boosting.evaluate_vhp(
        vhp, setup["D"], 200, setup["oracle"], random.Random("pipeline:eval")
    )
    assert rates["incorrect_proof"] == 0
    assert rates["abstain"] + rates["correct_proof"] + rates[
        "incorrect_proof"
    ] == 1
    # Bad problems alone keep the abstain rate near 1/4; the bound from
    # the goodness gap plus the error split is 1/2.
    assert rates["abstain"] <= Fraction(1, 2)


# -- S2 early elimination ---------------------------------------------------

# build_vhp's report for Random("pipeline:build") before S2 early
# elimination, when one generator drove training and every snapshot was
# tested on every S2 problem.
UNSTOPPED_REPORT = (
    '{"complete_errors": [957, 957, 0], "oracle_call_cap_per_example": 92, '
    '"s1_size": 139, "s2_size": 1300, "selected": 2, "snapshots": 3, '
    '"sound_errors": [0, 0, 0], "test_oracle_calls": 38575, '
    '"train_oracle_calls": 2646}'
)


def _limits(params, m_s, m_c, n2):
    total = m_s + m_c
    return tuple(
        math.floor(Fraction(3, 4) * params.epsilon * Fraction(m, total) * n2)
        for m in (m_s, m_c)
    )


def _build(setup, seed, oracle=None, learner=None):
    return boosting.build_vhp(
        setup["prover_set"], setup["D"], setup["params"],
        learner or ScSoa(setup["vclass"], 0), oracle or setup["oracle"],
        (0, 3), random.Random(seed),
    )


def test_compiled_sampler_keeps_every_draw(setup):
    """Run the pipeline without early elimination, one generator for
    everything, through the compiled samplers: every draw and so the whole
    report equal those of the per-draw Fraction sampler."""
    ps, params, oracle = setup["prover_set"], setup["params"], setup["oracle"]
    rng = random.Random("pipeline:build")
    problem_dist = boosting._compile(setup["D"], "D")
    learner = ConservativeWrapper(ScSoa(setup["vclass"], 0))
    n1, n2 = boosting.s1_size(params, 0, 3), boosting.s2_size(params, 0, 3)
    train_calls = 0
    for _ in range(n1):
        x = boosting._draw(problem_dist, rng)
        _result, calls = boosting.process_example(
            x, ps, params, learner, oracle, rng)
        train_calls += calls
    produced = learner.snapshots[1:]
    errors = {kind: [0] * len(produced) for kind in boosting.TestResult}
    test_calls = 0
    for _ in range(n2):
        x = boosting._draw(problem_dist, rng)
        for i, h in enumerate(produced):
            result, calls = boosting.test_hypothesis(
                x, ps, params, h, oracle, rng)
            test_calls += calls
            errors[result][i] += 1
    sound = errors[boosting.TestResult.SOUNDNESS_MISTAKE]
    complete = errors[boosting.TestResult.COMPLETENESS_MISTAKE]
    limits = _limits(params, 0, 3, n2)
    report = {
        "s1_size": n1,
        "s2_size": n2,
        "snapshots": len(produced),
        "selected": next(i for i in range(len(produced))
                         if sound[i] <= limits[0] and complete[i] <= limits[1]),
        "train_oracle_calls": train_calls,
        "test_oracle_calls": test_calls,
        "oracle_call_cap_per_example": boosting.oracle_call_cap(
            params, ps, setup["vclass"].L),
        "sound_errors": sound,
        "complete_errors": complete,
    }
    assert json.dumps(report, sort_keys=True) == UNSTOPPED_REPORT
    # Training is untouched by early elimination.
    built = _build(setup, "pipeline:build").report
    parent = json.loads(UNSTOPPED_REPORT)
    for key in ("s1_size", "s2_size", "snapshots", "selected",
                "train_oracle_calls", "oracle_call_cap_per_example"):
        assert built[key] == parent[key], key


@pytest.mark.parametrize("seed", ["pipeline:build", "0:build", "3:build"])
def test_eliminated_snapshots_passed_a_limit_and_are_never_selected(setup, seed):
    report = _build(setup, seed).report
    n2 = report["s2_size"]
    sound_limit, complete_limit = _limits(setup["params"], 0, 3, n2)
    selected = report["selected"]
    assert report["tested"][selected] == n2
    assert report["sound_errors"][selected] <= sound_limit
    assert report["complete_errors"][selected] <= complete_limit
    stopped = [i for i, t in enumerate(report["tested"]) if t < n2]
    assert stopped, "the scenario's early snapshots should be eliminated"
    for i in stopped:
        assert i != selected
        # Testing stops at the first error past a limit.
        assert (report["sound_errors"][i] == sound_limit + 1
                or report["complete_errors"][i] == complete_limit + 1)
    assert sum(report["train_outcomes"].values()) == report["s1_size"]
    assert set(report["train_outcomes"]) == {
        "full-proof", "timeout", "made-mistake"}


class _CountingOracle:
    def __init__(self, oracle):
        self.oracle = oracle
        self.vclass = oracle.vclass
        self.calls = 0

    def prefix_label(self, z):
        self.calls += 1
        return self.oracle.prefix_label(z)


def test_counting_oracle_and_outcomes_match_the_report(setup, monkeypatch):
    oracle = _CountingOracle(setup["oracle"])
    outcomes = []
    original = boosting.process_example

    def recording(*args):
        result = original(*args)
        outcomes.append(result[0].value)
        return result

    monkeypatch.setattr(boosting, "process_example", recording)
    report = _build(setup, "count:build", oracle=oracle).report
    assert oracle.calls == (report["train_oracle_calls"]
                            + report["test_oracle_calls"])
    assert report["train_outcomes"] == {
        kind: outcomes.count(kind)
        for kind in ("full-proof", "timeout", "made-mistake")}


class _FixedSnapshot:
    """Predicts every training label right, so it never updates; its only
    snapshot gives one verdict on every step."""

    mode = "prefix"
    mistake_mode = "prefix-level"
    costs = None

    def __init__(self, oracle, verdict):
        self.oracle = oracle
        self.verdict = verdict

    def predict(self, z):
        return self.oracle.prefix_label(z)

    def update(self, z, truth):
        raise AssertionError("never wrong, never updated")

    def snapshot(self):
        return lambda z: self.verdict


def _lax(oracle, m):
    """The target's verdict, but also accepting the wrong second step 1 on
    problems divisible by m: whether a test ends in a soundness error
    depends on the steps drawn."""
    return lambda z: oracle.prefix_label(z) or (
        len(z.steps) == 2 and z.steps[-1] == 1 and z.problem % m == 0)


@pytest.mark.parametrize("cut_snapshot", [0, 1])
@pytest.mark.parametrize("cut", [0, 1, 50])
def test_snapshot_results_do_not_depend_on_the_others(
        setup, monkeypatch, cut_snapshot, cut):
    """Remove one snapshot from S2 (cut 0) or make it stop early: every
    other snapshot's S2 results stay those of the full run."""
    oracle = setup["oracle"]

    def build():
        learner = ConservativeWrapper(_FixedSnapshot(oracle, False))
        learner.snapshots += [_lax(oracle, 2), _lax(oracle, 3),
                              oracle.prefix_label]
        return boosting.build_vhp(
            setup["prover_set"], setup["D"], setup["params"], learner,
            oracle, (2, 2), random.Random("paired:build")).report

    full = build()
    # The lax snapshots stop at draw-dependent points.
    assert full["tested"][0] < full["s2_size"]
    assert full["tested"][1] < full["s2_size"]
    assert full["selected"] == 2
    original = boosting._test_snapshot
    seen = []

    def cutting(h, problems, *rest):
        seen.append(h)
        if len(seen) == cut_snapshot + 1:
            problems = problems[:cut]
        return original(h, problems, *rest)

    monkeypatch.setattr(boosting, "_test_snapshot", cutting)
    report = build()
    assert report["tested"][cut_snapshot] == cut
    for i in range(full["snapshots"]):
        if i != cut_snapshot:
            for key in ("sound_errors", "complete_errors", "tested"):
                assert report[key][i] == full[key][i], (key, i)


@pytest.mark.parametrize("verdict", [False, True])
def test_no_snapshot_qualifies_when_all_are_eliminated(
        setup, monkeypatch, verdict):
    """A snapshot rejecting every step abstains after rejecting correct
    steps (completeness errors); one accepting every step returns wrong
    proofs (soundness errors).  Either is eliminated at its first error
    past the limit, and then nothing qualifies."""
    results = []
    original = boosting._test_snapshot

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(boosting, "_test_snapshot", recording)
    with pytest.raises(NoHypothesisQualified):
        _build(setup, "fixed:build",
               learner=_FixedSnapshot(setup["oracle"], verdict))
    n2 = boosting.s2_size(setup["params"], 0, 3)
    sound_limit, complete_limit = _limits(setup["params"], 0, 3, n2)
    [(sound, complete, tested, _calls)] = results
    assert tested < n2
    if verdict:
        assert sound == sound_limit + 1 and complete <= complete_limit
    else:
        assert sound == 0 and complete == complete_limit + 1


# -- the indexed walkers and the snapshot cache -----------------------------


def _reference_walk(x, prover_set, params, h, vclass, rng):
    """weak_to_strong on PrefixInstance objects, a new prefix per
    candidate; returns the outcome and every rejected candidate."""
    budget = boosting.timeout_budget(
        prover_set.alpha, prover_set.k, vclass.L, params.epsilon_prime)
    rejected = []
    steps = ()
    for _ell in range(vclass.L):
        advanced = False
        for _attempt in range(budget):
            for prover in prover_set.provers:
                z = PrefixInstance(x, steps + (prover.sample(x, steps, rng),))
                if h(z):
                    steps = z.steps
                    advanced = True
                    break
                rejected.append(z)
            if advanced:
                break
        if not advanced:
            return boosting.I_DONT_KNOW, rejected
    return boosting.ProofOutcome(CotInstance(x, steps)), rejected


def _reference_test(x, prover_set, params, h, oracle, rng):
    """test_hypothesis on the reference walk."""
    outcome, rejected = _reference_walk(
        x, prover_set, params, h, oracle.vclass, rng)
    calls = 0
    if outcome.is_proof:
        for z in outcome.trace.prefixes():
            calls += 1
            if not oracle.prefix_label(z):
                return boosting.TestResult.SOUNDNESS_MISTAKE, calls
    else:
        for z in rejected:
            calls += 1
            if oracle.prefix_label(z):
                return boosting.TestResult.COMPLETENESS_MISTAKE, calls
    return boosting.TestResult.CORRECT, calls


def _reference_process(x, prover_set, params, learner, oracle, rng):
    """process_example on PrefixInstance objects."""
    budget = boosting.timeout_budget(
        prover_set.alpha, prover_set.k, oracle.vclass.L, params.epsilon_prime)
    calls = 0
    steps = ()
    for _ell in range(oracle.vclass.L):
        accepted = None
        for _attempt in range(budget):
            for prover in prover_set.provers:
                z = PrefixInstance(x, steps + (prover.sample(x, steps, rng),))
                v, y = learner.predict(z), oracle.prefix_label(z)
                calls += 1
                if v != y:
                    learner.update(z, y)
                    return boosting.ProcessResult.MADE_MISTAKE, calls
                if v and accepted is None:
                    accepted = z
            if accepted is not None:
                break
        if accepted is None:
            return boosting.ProcessResult.TIMEOUT, calls
        steps = accepted.steps
    for z in CotInstance(x, steps).prefixes():
        calls += 1
        if not oracle.prefix_label(z):
            learner.update(z, False)
            return boosting.ProcessResult.MADE_MISTAKE, calls
    return boosting.ProcessResult.FULL_PROOF, calls


def _random_prover_set(seed):
    """Two provers over tokens {0, 1} on every scenario prefix, with
    random rational weights (some zero)."""
    rnd = random.Random(seed)
    provers = []
    for _ in range(2):
        table = {}
        for p in range(scenario.N_PROBLEMS):
            for ell in range(scenario.L):
                for steps in itertools.product((0, 1), repeat=ell):
                    a, b = rnd.randint(0, 3), rnd.randint(0, 3)
                    if a + b == 0:
                        a = 1
                    table[(p, steps)] = {0: Fraction(a, a + b),
                                         1: Fraction(b, a + b)}
        provers.append(boosting.Prover(table))
    return boosting.ProverSet(tuple(provers), Fraction(1, 2))


@pytest.mark.parametrize("kind", ["cached-snapshot", "snapshot", "oracle"])
@given(tables=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       x=st.integers(0, scenario.N_PROBLEMS - 1),
       alive=st.integers(0, 255), k=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_indexed_walkers_equal_the_prefix_walkers(
        setup, kind, tables, seed, x, alive, k):
    """The indexed weak_to_strong, test_hypothesis and process_example give
    the reference walkers' outcomes, rejections, oracle calls, learner
    state and generator state, and hand out the universe's own prefixes."""
    vc, oracle, params = setup["vclass"], setup["oracle"], setup["params"]
    prover_set = _random_prover_set(tables)

    def learner():
        learner = ScSoa(vc, k)
        learner.vs = VersionSpace(vc, alive | 1 << scenario.TARGET)
        return learner

    h = oracle.prefix_label if kind == "oracle" else learner().snapshot()
    indexed = boosting.CachedVerdict(h, vc) if kind == "cached-snapshot" else h
    rng, ref_rng = random.Random(seed), random.Random(seed)
    outcome, rejected = boosting._walk(x, prover_set, params, indexed, vc, rng)
    assert (outcome, rejected) == _reference_walk(
        x, prover_set, params, h, vc, ref_rng)
    assert all(z is vc.universe[vc.index_of(z)] for z in rejected)
    assert boosting.weak_to_strong(
        x, prover_set, params, indexed, vc, rng) == _reference_walk(
        x, prover_set, params, h, vc, ref_rng)[0]
    assert boosting.test_hypothesis(
        x, prover_set, params, indexed, oracle, rng) == _reference_test(
        x, prover_set, params, h, oracle, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    trained, ref_trained = learner(), learner()
    assert boosting.process_example(
        x, prover_set, params, trained, oracle, rng) == _reference_process(
        x, prover_set, params, ref_trained, oracle, ref_rng)
    assert (trained.vs.alive, trained.k) == (ref_trained.vs.alive,
                                             ref_trained.k)
    assert rng.getstate() == ref_rng.getstate()


class _CountingVerdict:
    """A verdict that counts its calls per prefix."""

    def __init__(self, verdict):
        self.verdict = verdict
        self.calls = collections.Counter()

    def __call__(self, z):
        self.calls[z] += 1
        return self.verdict(z)


def test_cached_verdicts_ask_each_prefix_once(setup, monkeypatch):
    """build_vhp wraps every snapshot in a CachedVerdict, which asks the
    snapshot at most once per universe prefix through S2 testing and the
    boosted prover, however often the walks meet the prefix."""
    oracle, vc = setup["oracle"], setup["vclass"]
    counters = [_CountingVerdict(_lax(oracle, 2)),
                _CountingVerdict(_lax(oracle, 3)),
                _CountingVerdict(oracle.prefix_label)]
    learner = ConservativeWrapper(_FixedSnapshot(oracle, False))
    learner.snapshots += counters
    candidates = [0]
    original = boosting._walk

    def counting_walk(*args):
        # Every rejection and every step of a proof was a candidate: a
        # lower bound on the candidates drawn, which abstentions exceed.
        outcome, rejected = original(*args)
        candidates[0] += len(rejected)
        if outcome.is_proof:
            candidates[0] += len(outcome.trace.steps)
        return outcome, rejected

    monkeypatch.setattr(boosting, "_walk", counting_walk)
    vhp = boosting.build_vhp(
        setup["prover_set"], setup["D"], setup["params"], learner, oracle,
        (2, 2), random.Random("cache:build"))
    assert isinstance(vhp.verifier, boosting.CachedVerdict)
    assert vhp.verifier.snapshot is counters[vhp.report["selected"]]
    boosting.evaluate_vhp(vhp, setup["D"], 200, oracle,
                          random.Random("cache:eval"))
    asked = sum(sum(c.calls.values()) for c in counters)
    for c in counters:
        assert max(c.calls.values()) == 1
        assert all(z in vc for z in c.calls)
    assert asked <= 3 * len(vc.universe) < candidates[0]


def test_off_universe_prefixes(setup):
    """A candidate outside the universe is a new PrefixInstance: a frozen
    ScSoa snapshot, cached or not, raises UnknownInstance on it, and a
    verdict that accepts it walks on exactly as the reference walker."""
    vc, oracle, params = setup["vclass"], setup["oracle"], setup["params"]
    table = {(0, (2,) + (0,) * ell): {0: Fraction(1)} for ell in range(3)}
    table[(0, ())] = {2: Fraction(1)}
    stray = boosting.ProverSet((boosting.Prover(table),), Fraction(1, 2))
    snapshot = ScSoa(vc, 0).snapshot()
    for h in (snapshot, boosting.CachedVerdict(snapshot, vc)):
        with pytest.raises(UnknownInstance):
            boosting.weak_to_strong(0, stray, params, h, vc, random.Random(1))
        with pytest.raises(UnknownInstance):
            boosting.test_hypothesis(0, stray, params, h, oracle,
                                     random.Random(1))

    # A universe missing (0, (1,)): its child (0, (1, 1)) has no trie
    # entry, and a walk through (1,) hands the verdict new prefixes.
    sigma = [StepToken(0), StepToken(1)]
    gappy = VerifierClass.build(sigma, [Problem(0)], 2, {
        PrefixInstance(0, (0,)): [True],
        PrefixInstance(0, (0, 1)): [True],
        PrefixInstance(0, (1, 1)): [True],
    })
    assert gappy._trie is None
    assert gappy.prefix_trie() == {(-1, 0): 0, (0, 1): 1}
    ones = boosting.ProverSet((boosting.Prover({
        (0, ()): {1: Fraction(1)}, (0, (1,)): {1: Fraction(1)}}),),
        Fraction(1, 2))
    seen = []

    def accept_all(z):
        seen.append(z)
        return True

    outcome = boosting.weak_to_strong(0, ones, params, accept_all, gappy,
                                      random.Random(2))
    assert outcome == boosting.ProofOutcome(CotInstance(0, (1, 1)))
    assert seen == [PrefixInstance(0, (1,)), PrefixInstance(0, (1, 1))]
    assert seen[1] is not gappy.universe[2]


def test_off_trie_walks_draw_from_their_own_steps(setup):
    """Once a walk has left the trie, each step draws from the prover's
    distribution after the walk's own steps, as the reference walker
    does."""
    vc, params = setup["vclass"], setup["params"]
    half = Fraction(1, 2)
    stray = boosting.ProverSet((boosting.Prover({
        (0, ()): {2: Fraction(1)},
        (0, (2,)): {0: half, 1: half},
        (0, (2, 0)): {1: Fraction(1)},
        (0, (2, 1)): {0: Fraction(1)},
        (0, (2, 0, 1)): {0: Fraction(1)},
        (0, (2, 1, 0)): {1: Fraction(1)},
    }),), Fraction(1, 2))
    traces = set()
    for seed in range(8):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        outcome = boosting.weak_to_strong(0, stray, params, lambda z: True,
                                          vc, rng)
        assert outcome == _reference_walk(0, stray, params, lambda z: True,
                                          vc, ref_rng)[0]
        traces.add(outcome.trace.steps)
    assert traces == {(2, 0, 1, 0), (2, 1, 0, 1)}


def test_cli_parser_is_built_once(tmp_path, capsys):
    """The parser is cached per process; a failing call does not spoil the
    next one."""
    path = scenario.write_scenario_files(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["boost", "--scenario", path, "--seed", "x"]) == 2
    assert cli.main(["boost", "--scenario", path, "--verify-alpha"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == "3/4"
    assert cli.main(["boost"]) == 2
    assert cli.main(["boost", "--scenario", path, "--verify-alpha"]) == 0


# -- the float steps --------------------------------------------------------


def _ceil(value: Decimal) -> int:
    return int(value.to_integral_value(rounding=ROUND_CEILING))


def _dec(q) -> Decimal:
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


EPSILONS = [Fraction(1, 100), Fraction(1, 20), Fraction(1, 7), Fraction(1, 5),
            Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]


def test_float_ceilings_match_50_digit_decimal():
    """timeout_budget, s1_size and s2_size equal the 50-digit decimal
    ceilings on a grid of parameters, where the float logarithms they once
    took were also exact."""
    with localcontext() as ctx:
        ctx.prec = 50
        for alpha, k, L, eps_prime in itertools.product(
                [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
                 Fraction(2, 3), Fraction(1)],
                [1, 2, 3, 5], [1, 2, 4, 7, 16], EPSILONS):
            exact = max(1, _ceil((_dec(k * L) / _dec(eps_prime)).ln()
                                 / _dec(alpha)))
            assert boosting.timeout_budget(alpha, k, L, eps_prime) == exact, (
                alpha, k, L, eps_prime)
        for eps, delta, m_s, m_c, c in itertools.product(
                EPSILONS, EPSILONS, [0, 1, 2, 5], [0, 1, 3, 8], [1, 32]):
            if m_s + m_c < 1:
                continue
            params = boosting.BoostParams(eps, Fraction(1, 20), delta, c)
            total = m_s + m_c
            s1 = _ceil(8 * (_dec(Fraction(total) / eps)
                            + (2 / _dec(delta)).ln()))
            s2 = _ceil(c / _dec(eps) * _dec(Fraction(total, min(m_s, m_c) + 1))
                       * (total / _dec(delta)).ln())
            assert boosting.s1_size(params, m_s, m_c) == s1, (eps, delta, m_s, m_c)
            assert boosting.s2_size(params, m_s, m_c) == s2, (eps, delta, m_s, m_c, c)


def _convergents(x: Fraction):
    """The continued-fraction convergents of x, in order."""
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = math.floor(x)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        yield Fraction(h1, k1)
        if x == a:
            return
        x = 1 / (x - a)


def test_exact_ceiling_where_the_float_one_is_off_by_one():
    """alpha a convergent of ln 2 from below makes (1/alpha) ln 2 exceed 1
    by less than a double can see: the float formula timeout_budget once
    used says 1, and the exact one says 2, as 100-digit decimals do."""
    with localcontext() as ctx:
        ctx.prec = 100
        ln2 = Decimal(2).ln()
    below = (c for c in _convergents(Fraction(ln2)) if 0 < c < Fraction(ln2))

    def by_float(alpha):
        return max(1, math.ceil(math.log(2.0) / float(alpha)))

    alpha = next(c for c in below if by_float(c) == 1)
    assert alpha.denominator > 2**20
    with localcontext() as ctx:
        ctx.prec = 100
        exact = max(1, _ceil(ln2 / _dec(alpha)))
    assert exact == 2
    assert boosting.timeout_budget(alpha, 1, 1, Fraction(1, 2)) == exact
    assert boosting.ceil_log(0, 1 / alpha, 2) == exact
    assert boosting.ceil_log(5, 1 / alpha, 2) == exact + 5
    # ln 1 = 0 and a zero coefficient are decided exactly.
    assert boosting.ceil_log(Fraction(7, 2), 3, 1) == 4
    assert boosting.ceil_log(Fraction(-7, 2), 0, 5) == -3
