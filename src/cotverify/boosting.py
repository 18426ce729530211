"""Verifier-assisted prover boosting.

Takes a set of weak stochastic provers and an online verifier learner
and produces a boosted prover: sample candidate next steps, keep the
first one the learned verifier accepts, and abstain ("I don't know") on
timeout.  Training draws one problem batch to generate conservative
hypothesis snapshots and a second batch to test and select among them.

Provers are table-driven categorical samplers with exact rational
weights; alpha-goodness is verified by exhaustive table scan rather than
assumed.  All randomness flows through explicitly passed generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .core import (
    CotInstance,
    NoHypothesisQualified,
    Oracle,
    PrefixInstance,
    VerifierClass,
)
from .learners import ConservativeWrapper

Verdict = Callable[[PrefixInstance], bool]


def _sample_categorical(weights: dict, rng: random.Random):
    """Exact draw from {outcome: Fraction} weights summing to 1."""
    denom = math.lcm(*(w.denominator for w in weights.values()))
    r = rng.randrange(denom)
    acc = 0
    for outcome in sorted(weights):
        acc += int(weights[outcome] * denom)
        if r < acc:
            return outcome
    raise AssertionError("categorical weights do not sum to 1")


@dataclass(frozen=True)
class Prover:
    """Stochastic next-step generator over exact categorical tables.

    table maps (problem id, steps-so-far) to {token id: weight}; weights
    are rationals summing to 1.
    """

    table: dict
    name: str = ""

    def __post_init__(self):
        for key, dist in self.table.items():
            if sum(dist.values()) != 1:
                raise ValueError(f"weights at {key} do not sum to 1")
            if any(w < 0 for w in dist.values()):
                raise ValueError(f"negative weight at {key}")

    def distribution(self, problem: int, steps: tuple) -> dict:
        return self.table[(problem, tuple(steps))]

    def sample(self, problem: int, steps: tuple, rng: random.Random) -> int:
        return _sample_categorical(self.distribution(problem, steps), rng)


@dataclass(frozen=True)
class ProverSet:
    provers: tuple
    alpha: Fraction

    def __post_init__(self):
        if len(self.provers) < 1:
            raise ValueError("need at least one prover")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")

    @property
    def k(self) -> int:
        return len(self.provers)


@dataclass(frozen=True)
class BoostParams:
    epsilon: Fraction
    epsilon_prime: Fraction
    delta: Fraction
    s2_constant: int = 32

    def __post_init__(self):
        for name in ("epsilon", "epsilon_prime", "delta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.s2_constant < 1:
            raise ValueError("s2_constant must be >= 1")


@dataclass(frozen=True)
class ProofOutcome:
    """Either a full-length proof trace or an abstention."""

    trace: Optional[CotInstance]

    @property
    def is_proof(self) -> bool:
        return self.trace is not None


I_DONT_KNOW = ProofOutcome(None)


class ProcessResult(Enum):
    MADE_MISTAKE = "made-mistake"
    TIMEOUT = "timeout"
    FULL_PROOF = "full-proof"


class TestResult(Enum):
    SOUNDNESS_MISTAKE = "soundness-mistake"
    COMPLETENESS_MISTAKE = "completeness-mistake"
    CORRECT = "correct"


def timeout_budget(alpha, k: int, L: int, epsilon_prime) -> int:
    """ceil((1/alpha) ln(kL/epsilon')), clamped to at least 1."""
    raw = math.log(float(Fraction(k * L) / Fraction(epsilon_prime)))
    return max(1, math.ceil(raw / float(alpha)))


def oracle_call_cap(params: BoostParams, prover_set: ProverSet, L: int) -> int:
    """Worst-case labeling-oracle calls while handling one example."""
    budget = timeout_budget(
        prover_set.alpha, prover_set.k, L, params.epsilon_prime
    )
    return L * prover_set.k * budget + L


def alpha_goodness(
    prover_set: ProverSet, oracle: Oracle
) -> frozenset:
    """Problems on which the prover set is verifiably alpha-good.

    Exhaustive scan: from every reachable correct prefix (reachable via
    positive prover mass on correct steps), some prover must put mass at
    least alpha on correct next steps.
    """
    vclass = oracle.vclass
    good = set()
    for p in vclass.problems:
        ok = True
        frontier = [()]
        seen = set()
        while frontier and ok:
            steps = frontier.pop()
            if steps in seen or len(steps) >= vclass.L:
                continue
            seen.add(steps)
            best = Fraction(0)
            correct_next = set()
            for prover in prover_set.provers:
                try:
                    dist = prover.distribution(p.id, steps)
                except KeyError:
                    continue
                mass = Fraction(0)
                for tok, w in dist.items():
                    if w == 0:
                        continue
                    z = PrefixInstance(p.id, steps + (tok,))
                    if z in vclass and oracle.prefix_label(z):
                        mass += w
                        correct_next.add(tok)
                best = max(best, mass)
            if best < prover_set.alpha:
                ok = False
                break
            for tok in correct_next:
                frontier.append(steps + (tok,))
        if ok:
            good.add(p.id)
    return frozenset(good)


def gamma_of(good_problems: frozenset, D: dict) -> Fraction:
    return sum(
        (w for p, w in D.items() if p in good_problems), Fraction(0)
    )


class _Recorder:
    """Wrap a verdict function, remembering every rejected prefix."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        self.rejections: list[PrefixInstance] = []

    def __call__(self, z: PrefixInstance) -> bool:
        v = self.verdict(z)
        if not v:
            self.rejections.append(z)
        return v


def weak_to_strong(
    x: int,
    prover_set: ProverSet,
    params: BoostParams,
    h: Verdict,
    vclass: VerifierClass,
    rng: random.Random,
) -> ProofOutcome:
    """Assemble a proof step by step, keeping h-approved candidates.

    At each step, sample one candidate from every prover, take the first
    accepted one, and retry up to the timeout budget; any step that
    exhausts its budget aborts the whole attempt.
    """
    budget = timeout_budget(
        prover_set.alpha, prover_set.k, vclass.L, params.epsilon_prime
    )
    steps: tuple = ()
    for _ell in range(vclass.L):
        advanced = False
        for _attempt in range(budget):
            for prover in prover_set.provers:
                tok = prover.sample(x, steps, rng)
                z = PrefixInstance(x, steps + (tok,))
                if h(z):
                    steps = z.steps
                    advanced = True
                    break
            if advanced:
                break
        if not advanced:
            return I_DONT_KNOW
    return ProofOutcome(CotInstance(x, steps))


def process_example(
    x: int,
    prover_set: ProverSet,
    params: BoostParams,
    learner,
    oracle: Oracle,
    rng: random.Random,
) -> tuple[ProcessResult, int]:
    """One training pass: sample steps, cross-check learner vs oracle.

    The first learner/oracle disagreement triggers exactly one learner
    update and ends the example.  Returns the outcome and the number of
    labeling-oracle calls made.
    """
    vclass = oracle.vclass
    budget = timeout_budget(
        prover_set.alpha, prover_set.k, vclass.L, params.epsilon_prime
    )
    calls = 0
    steps: tuple = ()
    for _ell in range(vclass.L):
        advanced = False
        for _attempt in range(budget):
            accepted = None
            for prover in prover_set.provers:
                tok = prover.sample(x, steps, rng)
                z = PrefixInstance(x, steps + (tok,))
                v = learner.predict(z)
                y = oracle.prefix_label(z)
                calls += 1
                if v != y:
                    learner.update(z, y)
                    return ProcessResult.MADE_MISTAKE, calls
                if v and accepted is None:
                    accepted = z
            if accepted is not None:
                steps = accepted.steps
                advanced = True
                break
        if not advanced:
            return ProcessResult.TIMEOUT, calls
    # Proof found; re-check the whole trace for soundness slips.
    for ell in range(1, vclass.L + 1):
        z = PrefixInstance(x, steps[:ell])
        y = oracle.prefix_label(z)
        calls += 1
        if not y:
            learner.update(z, False)
            return ProcessResult.MADE_MISTAKE, calls
    return ProcessResult.FULL_PROOF, calls


def test_hypothesis(
    x: int,
    prover_set: ProverSet,
    params: BoostParams,
    h: Verdict,
    oracle: Oracle,
    rng: random.Random,
) -> tuple[TestResult, int]:
    """Dry-run the frozen hypothesis at test time and grade it.

    A returned proof with any oracle-rejected prefix is a soundness
    mistake; an abstention after rejecting any truly correct prefix is a
    completeness mistake.
    """
    recorder = _Recorder(h)
    outcome = weak_to_strong(x, prover_set, params, recorder, oracle.vclass, rng)
    calls = 0
    if outcome.is_proof:
        for ell in range(1, oracle.vclass.L + 1):
            calls += 1
            if not oracle.prefix_label(outcome.trace.prefix(ell)):
                return TestResult.SOUNDNESS_MISTAKE, calls
    else:
        for z in recorder.rejections:
            calls += 1
            if oracle.prefix_label(z):
                return TestResult.COMPLETENESS_MISTAKE, calls
    return TestResult.CORRECT, calls


@dataclass
class BoostedProver:
    """Frozen verifier plus prover set; generates proofs or abstains."""

    verifier: Verdict
    prover_set: ProverSet
    params: BoostParams
    vclass: VerifierClass
    report: dict = field(default_factory=dict)

    def generate(self, x: int, rng: random.Random) -> ProofOutcome:
        return weak_to_strong(
            x, self.prover_set, self.params, self.verifier, self.vclass, rng
        )


def s1_size(params: BoostParams, m_s: int, m_c: int) -> int:
    return math.ceil(
        8 * (float(Fraction(m_c + m_s) / params.epsilon)
             + math.log(float(2 / params.delta)))
    )


def s2_size(params: BoostParams, m_s: int, m_c: int) -> int:
    total = m_s + m_c
    return math.ceil(
        params.s2_constant
        * float(1 / params.epsilon)
        * (total / (min(m_s, m_c) + 1))
        * math.log(total / float(params.delta))
    )


def build_vhp(
    prover_set: ProverSet,
    D: dict,
    params: BoostParams,
    learner,
    oracle: Oracle,
    mistake_bounds: tuple[int, int],
    rng: random.Random,
) -> BoostedProver:
    """Train, test, and select a hypothesis verifier; package the prover.

    mistake_bounds = (M_s, M_c) are the learner's declared soundness and
    completeness budgets; M_s + M_c must be at least 1.  Raises
    NoHypothesisQualified when no snapshot meets both empirical error
    thresholds.
    """
    m_s, m_c = mistake_bounds
    if m_s + m_c < 1:
        raise ValueError("need M_s + M_c >= 1")
    if not isinstance(learner, ConservativeWrapper):
        learner = ConservativeWrapper(learner)
    vclass = oracle.vclass
    cap = oracle_call_cap(params, prover_set, vclass.L)

    n1 = s1_size(params, m_s, m_c)
    train_calls = 0
    for _ in range(n1):
        x = _sample_categorical(D, rng)
        _result, calls = process_example(
            x, prover_set, params, learner, oracle, rng
        )
        assert calls <= cap, "oracle budget exceeded while training"
        train_calls += calls

    produced = learner.snapshots[1:]
    if not produced:
        produced = [learner.snapshots[0]]
    assert len(learner.snapshots) - 1 <= m_s + m_c, "too many snapshots"

    n2 = s2_size(params, m_s, m_c)
    sound_errs = [0] * len(produced)
    complete_errs = [0] * len(produced)
    test_calls = 0
    for _ in range(n2):
        x = _sample_categorical(D, rng)
        for i, h in enumerate(produced):
            result, calls = test_hypothesis(
                x, prover_set, params, h, oracle, rng
            )
            assert calls <= cap, "oracle budget exceeded while testing"
            test_calls += calls
            if result is TestResult.SOUNDNESS_MISTAKE:
                sound_errs[i] += 1
            elif result is TestResult.COMPLETENESS_MISTAKE:
                complete_errs[i] += 1

    total = m_s + m_c
    sound_cap = Fraction(3, 4) * params.epsilon * Fraction(m_s, total)
    complete_cap = Fraction(3, 4) * params.epsilon * Fraction(m_c, total)
    selected = None
    for i in range(len(produced)):
        if (Fraction(sound_errs[i], n2) <= sound_cap
                and Fraction(complete_errs[i], n2) <= complete_cap):
            selected = i
            break
    if selected is None:
        raise NoHypothesisQualified(
            f"none of {len(produced)} hypotheses met the error thresholds"
        )

    report = {
        "s1_size": n1,
        "s2_size": n2,
        "snapshots": len(produced),
        "selected": selected,
        "train_oracle_calls": train_calls,
        "test_oracle_calls": test_calls,
        "oracle_call_cap_per_example": cap,
        "sound_errors": sound_errs,
        "complete_errors": complete_errs,
    }
    return BoostedProver(produced[selected], prover_set, params, vclass, report)


def evaluate_vhp(
    vhp: BoostedProver,
    D: dict,
    n_trials: int,
    oracle: Oracle,
    rng: random.Random,
) -> dict:
    """Empirical abstain/incorrect/correct rates as exact fractions."""
    abstain = incorrect = correct = 0
    for _ in range(n_trials):
        x = _sample_categorical(D, rng)
        outcome = vhp.generate(x, rng)
        if not outcome.is_proof:
            abstain += 1
            continue
        good = all(
            oracle.prefix_label(outcome.trace.prefix(ell))
            for ell in range(1, vhp.vclass.L + 1)
        )
        if good:
            correct += 1
        else:
            incorrect += 1
    return {
        "abstain": Fraction(abstain, n_trials),
        "incorrect_proof": Fraction(incorrect, n_trials),
        "correct_proof": Fraction(correct, n_trials),
    }


def derived_epsilons(params: BoostParams, m_s: int, m_c: int) -> tuple[Fraction, Fraction]:
    """(epsilon_s, epsilon_c) split of epsilon by the mistake budgets."""
    total = m_s + m_c
    return (
        params.epsilon * Fraction(m_s, total),
        params.epsilon * Fraction(m_c, total),
    )
