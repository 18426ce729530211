"""Prover boosting: exact sampling, goodness verification, training
dynamics, S2 early elimination, and one full pipeline run."""

import itertools
import json
import math
import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scenario
from cotverify import boosting, dimensions
from cotverify.core import NoHypothesisQualified, Oracle, VersionSpace
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


# -- the float steps --------------------------------------------------------


def _ceil(value: Decimal) -> int:
    return int(value.to_integral_value(rounding=ROUND_CEILING))


def _dec(q) -> Decimal:
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


EPSILONS = [Fraction(1, 100), Fraction(1, 20), Fraction(1, 7), Fraction(1, 5),
            Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]


def test_float_ceilings_match_50_digit_decimal():
    """timeout_budget, s1_size and s2_size take float logarithms; on a grid
    of parameters no float rounding moves one of their ceilings."""
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
