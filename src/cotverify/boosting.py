"""Verifier-assisted prover boosting.

Takes a set of weak stochastic provers and an online verifier learner
and produces a boosted prover: sample candidate next steps, keep the
first one the learned verifier accepts, and abstain ("I don't know") on
timeout.  Training draws one problem batch to generate conservative
hypothesis snapshots and a second batch to test and select among them.

Provers are table-driven categorical samplers with exact rational
weights, compiled to integer thresholds so that a draw is one uniform
integer below the common denominator and one bisection; alpha-goodness
is verified by exhaustive table scan rather than assumed.  All
randomness flows through explicitly passed generators.

The walkers advance a node of the class's prefix trie
(``VerifierClass.prefix_trie``) rather than building a prefix per
candidate.  At each node they draw from tables that the prover set
builds once per class and node (``ProverSet.draw_tables``): a draw is a
``getrandbits`` rejection loop, exactly as ``Random.randrange`` makes
it, and one bisection straight to the candidate's universe index.
Verdicts, learners and the labeling oracle see the universe's own
``PrefixInstance``.  A prefix outside the universe is built afresh, and
the tables after it are keyed by its steps.  ``build_vhp`` wraps
every frozen snapshot in a ``CachedVerdict`` that asks the snapshot once
per universe index, so S2 testing and the boosted prover pay for each
distinct prefix once.
"""

from __future__ import annotations

import functools
import math
import random
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
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


def _compile(weights: dict, where) -> tuple[int, int, list, list]:
    """Compile {outcome: rational} weights for exact drawing.

    Returns (denom, bits, cumulative integer thresholds, sorted outcomes):
    outcome i is drawn for r in [thresholds[i-1], thresholds[i]) with r
    uniform on range(denom), and bits = denom.bit_length() is the width
    of the words that r is drawn from.  Raises ValueError, naming where,
    unless every weight is nonnegative and they sum to 1.
    """
    denom = math.lcm(*[w.denominator for w in weights.values()])
    outcomes = []
    thresholds = []
    acc = 0
    for outcome, w in sorted(weights.items()):
        numerator = w.numerator * (denom // w.denominator)
        if numerator < 0:
            raise ValueError(f"negative weight at {where}")
        acc += numerator
        outcomes.append(outcome)
        thresholds.append(acc)
    if acc != denom:
        raise ValueError(f"weights at {where} do not sum to 1")
    return denom, denom.bit_length(), thresholds, outcomes


def _draw(compiled: tuple[int, int, list, list], rng: random.Random):
    """One exact draw from a compiled distribution.

    r is drawn as Random.randrange(denom) draws it, by rejection from
    bits-wide getrandbits words, so the draw and the generator's state
    afterwards are those of randrange.
    """
    denom, bits, thresholds, outcomes = compiled
    getrandbits = rng.getrandbits
    r = getrandbits(bits)
    while r >= denom:
        r = getrandbits(bits)
    return outcomes[bisect_right(thresholds, r)]


@dataclass(frozen=True)
class Prover:
    """Stochastic next-step generator over exact categorical tables.

    table maps (problem id, steps-so-far) to {token id: weight}; weights
    are rationals summing to 1.  Compiling the table validates it.
    """

    table: dict
    name: str = ""
    _compiled: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_compiled", {
            key: _compile(dist, key) for key, dist in self.table.items()
        })

    def distribution(self, problem: int, steps: tuple) -> dict:
        return self.table[(problem, tuple(steps))]

    def sample(self, problem: int, steps: tuple, rng: random.Random) -> int:
        return _draw(self._compiled[(problem, tuple(steps))], rng)


@dataclass(frozen=True)
class ProverSet:
    provers: tuple
    alpha: Fraction
    _tables: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

    def __post_init__(self):
        if len(self.provers) < 1:
            raise ValueError("need at least one prover")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")

    @property
    def k(self) -> int:
        return len(self.provers)

    def __reduce__(self):
        # Pickle and copy without the draw tables, which hold weak
        # references; a copy builds its own on first use.
        return ProverSet, (self.provers, self.alpha)

    def draw_tables(self, vclass: VerifierClass) -> "_DrawTables":
        """The provers' draw tables on vclass, kept as long as vclass
        lives."""
        tables = self._tables.get(vclass)
        if tables is None:
            tables = self._tables[vclass] = _DrawTables(self.provers, vclass)
        return tables


class _DrawTables(dict):
    """A prover set's draw tables on one class, built on first use.

    Keyed by the node of the prefix in the class's prefix trie, or by
    (problem, steps) for a prefix off the trie.  The value holds, per
    prover, its distribution for the next step compiled as by _compile
    over (universe index of the extended prefix, None outside the trie;
    token) pairs, or None if the prover has no distribution there.  Holds
    no reference to the class, which keys it in ProverSet._tables.
    """

    def __init__(self, provers: tuple, vclass: VerifierClass):
        super().__init__()
        self.provers = provers
        self.universe, self.child = vclass.universe, vclass.prefix_trie()

    def __missing__(self, key):
        if isinstance(key, tuple):
            node, (x, steps) = None, key
        elif key < 0:
            node, x, steps = key, -1 - key, ()
        else:
            node, z = key, self.universe[key]
            x, steps = z.problem, z.steps
        draws = []
        for prover in self.provers:
            compiled = prover._compiled.get((x, steps))
            if compiled is not None:
                denom, bits, thresholds, tokens = compiled
                compiled = (denom, bits, thresholds,
                            [(self.child.get((node, tok)), tok)
                             for tok in tokens])
            draws.append(compiled)
        draws = self[key] = tuple(draws)
        return draws


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


def _ln_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Rationals strictly around ln n for an integer n >= 1, at the current
    decimal precision: the neighbours of the correctly rounded ln n, or 0
    and 0 for ln 1, which is exact."""
    if n == 1:
        return Fraction(0), Fraction(0)
    v = Decimal(n).ln()
    return Fraction(v.next_minus()), Fraction(v.next_plus())


@functools.lru_cache(maxsize=256)
def ceil_log(r, s, q) -> int:
    """ceil(r + s ln q), exactly, for rationals r, s and q > 0.

    ln q is irrational for every rational q other than 1, so r + s ln q
    is an integer only when s = 0 or q = 1, and those are decided
    exactly.  Otherwise ln q = ln(numerator) - ln(denominator) is bounded
    through _ln_bounds, and the precision doubles until both ends of the
    interval for r + s ln q have the same ceiling.
    """
    r, s, q = Fraction(r), Fraction(s), Fraction(q)
    if q <= 0:
        raise ValueError("ln of a nonpositive number")
    if s == 0 or q == 1:
        return math.ceil(r)
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            num_low, num_high = _ln_bounds(q.numerator)
            den_low, den_high = _ln_bounds(q.denominator)
        ends = sorted((r + s * (num_low - den_high),
                       r + s * (num_high - den_low)))
        # r + s ln q lies strictly between the ends.
        if math.floor(ends[0]) == math.floor(ends[1]):
            return math.floor(ends[0]) + 1
        prec *= 2


@functools.lru_cache(maxsize=128)
def timeout_budget(alpha, k: int, L: int, epsilon_prime) -> int:
    """ceil((1/alpha) ln(kL/epsilon')), exactly, clamped to at least 1."""
    return max(1, ceil_log(0, 1 / Fraction(alpha),
                           Fraction(k * L) / Fraction(epsilon_prime)))


def _budget(prover_set: ProverSet, params: BoostParams, L: int) -> int:
    return timeout_budget(prover_set.alpha, prover_set.k, L, params.epsilon_prime)


def oracle_call_cap(params: BoostParams, prover_set: ProverSet, L: int) -> int:
    """Worst-case labeling-oracle calls while handling one example."""
    return L * prover_set.k * _budget(prover_set, params, L) + L


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


class CachedVerdict:
    """A frozen snapshot's verdicts, cached per universe index.

    Exact because ``snapshot()`` promises a frozen predictor: its verdict
    on a prefix never changes, so ``at(i)`` asks the snapshot once per
    distinct universe index and then reads the list.  Called on a
    PrefixInstance it asks the snapshot directly; the walkers do that
    only for prefixes outside the universe.  Never wrap a live learner.
    """

    def __init__(self, snapshot: Verdict, vclass: VerifierClass):
        self.snapshot = snapshot
        self.universe = vclass.universe
        self.verdicts: list[Optional[bool]] = [None] * len(self.universe)

    def __call__(self, z: PrefixInstance) -> bool:
        return self.snapshot(z)

    def at(self, i: int) -> bool:
        v = self.verdicts[i]
        if v is None:
            v = self.verdicts[i] = self.snapshot(self.universe[i])
        return v


def _prefixes(vclass: VerifierClass, trace: CotInstance):
    """The prefixes of trace, shortest first: the universe's own objects,
    and new PrefixInstances once the trace leaves the prefix trie."""
    child, universe = vclass.prefix_trie(), vclass.universe
    node = -1 - trace.problem
    for ell, tok in enumerate(trace.steps, 1):
        node = child.get((node, tok))
        yield trace.prefix(ell) if node is None else universe[node]


def _walk(
    x: int,
    prover_set: ProverSet,
    params: BoostParams,
    h: Verdict,
    vclass: VerifierClass,
    rng: random.Random,
) -> tuple[ProofOutcome, list[PrefixInstance]]:
    """weak_to_strong, also returning every rejected candidate in order,
    repeats included."""
    budget = _budget(prover_set, params, vclass.L)
    tables, universe = prover_set.draw_tables(vclass), vclass.universe
    getrandbits = rng.getrandbits
    if isinstance(h, CachedVerdict):
        verdict_at = h.at
    else:
        def verdict_at(i):
            return h(universe[i])
    rejected = []
    node, steps = -1 - x, ()
    for _ell in range(vclass.L):
        draws = tables[(x, steps) if node is None else node]
        advanced = False
        for _attempt in range(budget):
            for d in draws:
                if d is None:
                    raise KeyError((x, steps))
                # _draw, inlined.
                denom, bits, thresholds, outcomes = d
                r = getrandbits(bits)
                while r >= denom:
                    r = getrandbits(bits)
                i, tok = outcomes[bisect_right(thresholds, r)]
                if i is None:
                    z = PrefixInstance(x, steps + (tok,))
                    accepted = h(z)
                else:
                    z = universe[i]
                    accepted = verdict_at(i)
                if accepted:
                    node, steps = i, z.steps
                    advanced = True
                    break
                rejected.append(z)
            if advanced:
                break
        if not advanced:
            return I_DONT_KNOW, rejected
    return ProofOutcome(CotInstance(x, steps)), rejected


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
    exhausts its budget aborts the whole attempt.  h sees the universe's
    own PrefixInstance for every candidate in the universe.
    """
    return _walk(x, prover_set, params, h, vclass, rng)[0]


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
    budget = _budget(prover_set, params, vclass.L)
    tables, universe = prover_set.draw_tables(vclass), vclass.universe
    calls = 0
    node, steps = -1 - x, ()
    path = []
    for _ell in range(vclass.L):
        draws = tables[(x, steps) if node is None else node]
        accepted = None
        for _attempt in range(budget):
            for d in draws:
                if d is None:
                    raise KeyError((x, steps))
                i, tok = _draw(d, rng)
                z = PrefixInstance(x, steps + (tok,)) if i is None else universe[i]
                v = learner.predict(z)
                y = oracle.prefix_label(z)
                calls += 1
                if v != y:
                    learner.update(z, y)
                    return ProcessResult.MADE_MISTAKE, calls
                if v and accepted is None:
                    accepted, next_node = z, i
            if accepted is not None:
                break
        if accepted is None:
            return ProcessResult.TIMEOUT, calls
        path.append(accepted)
        node, steps = next_node, accepted.steps
    # Proof found; re-check the whole trace for soundness slips.
    for z in path:
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
    completeness mistake.  The oracle is asked about the rejected
    candidates in order, repeats included.
    """
    outcome, rejected = _walk(x, prover_set, params, h, oracle.vclass, rng)
    calls = 0
    if outcome.is_proof:
        for z in _prefixes(oracle.vclass, outcome.trace):
            calls += 1
            if not oracle.prefix_label(z):
                return TestResult.SOUNDNESS_MISTAKE, calls
    else:
        for z in rejected:
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
    """|S1| = ceil(8 ((M_s + M_c)/epsilon + ln(2/delta))), exactly."""
    return ceil_log(8 * Fraction(m_s + m_c) / params.epsilon, 8,
                    2 / Fraction(params.delta))


def s2_size(params: BoostParams, m_s: int, m_c: int) -> int:
    """|S2| = ceil(C (1/epsilon) (M/(min(M_s, M_c) + 1)) ln(M/delta)),
    exactly."""
    total = m_s + m_c
    return ceil_log(
        0,
        params.s2_constant / Fraction(params.epsilon)
        * Fraction(total, min(m_s, m_c) + 1),
        total / Fraction(params.delta),
    )


def _test_snapshot(
    h: Verdict,
    problems: list,
    prover_set: ProverSet,
    params: BoostParams,
    oracle: Oracle,
    rng: random.Random,
    limits: tuple[int, int],
    cap: int,
) -> tuple[int, int, int, int]:
    """Test one snapshot on the S2 problems until it passes an error limit.

    Returns (soundness errors, completeness errors, problems tested,
    oracle calls).  Once either error count exceeds its limit the
    snapshot cannot qualify, so the remaining problems are skipped.
    """
    sound_limit, complete_limit = limits
    sound = complete = tested = total_calls = 0
    for x in problems:
        result, calls = test_hypothesis(x, prover_set, params, h, oracle, rng)
        assert calls <= cap, "oracle budget exceeded while testing"
        total_calls += calls
        tested += 1
        if result is TestResult.SOUNDNESS_MISTAKE:
            sound += 1
            if sound > sound_limit:
                break
        elif result is TestResult.COMPLETENESS_MISTAKE:
            complete += 1
            if complete > complete_limit:
                break
    return sound, complete, tested, total_calls


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
    completeness budgets; M_s + M_c must be at least 1.  The first
    snapshot whose soundness and completeness error rates on S2 stay
    within 3/4 epsilon M_s/M and 3/4 epsilon M_c/M is selected.  Every
    snapshot is tested on the same S2 problems, each with its own
    generator seeded from rng after training, and a snapshot's testing
    stops once it can no longer qualify.  Every snapshot is wrapped in a
    CachedVerdict, and the selected one goes into the BoostedProver
    wrapped.  Raises NoHypothesisQualified when no snapshot qualifies.
    """
    m_s, m_c = mistake_bounds
    if m_s + m_c < 1:
        raise ValueError("need M_s + M_c >= 1")
    if not isinstance(learner, ConservativeWrapper):
        learner = ConservativeWrapper(learner)
    vclass = oracle.vclass
    cap = oracle_call_cap(params, prover_set, vclass.L)
    problem_dist = _compile(D, "D")

    n1 = s1_size(params, m_s, m_c)
    train_calls = 0
    outcomes = {result.value: 0 for result in ProcessResult}
    for _ in range(n1):
        x = _draw(problem_dist, rng)
        result, calls = process_example(
            x, prover_set, params, learner, oracle, rng
        )
        assert calls <= cap, "oracle budget exceeded while training"
        train_calls += calls
        outcomes[result.value] += 1

    produced = [CachedVerdict(h, vclass)
                for h in learner.snapshots[1:] or learner.snapshots[:1]]
    assert len(learner.snapshots) - 1 <= m_s + m_c, "too many snapshots"

    n2 = s2_size(params, m_s, m_c)
    # Error counts a snapshot may reach and still qualify.
    limits = tuple(
        math.floor(Fraction(3, 4) * eps * n2)
        for eps in derived_epsilons(params, m_s, m_c)
    )
    streams = [random.Random(rng.getrandbits(64)) for _ in produced]
    problems = [_draw(problem_dist, rng) for _ in range(n2)]
    sound_errs, complete_errs, tested, test_calls = map(list, zip(*(
        _test_snapshot(h, problems, prover_set, params, oracle, stream,
                       limits, cap)
        for h, stream in zip(produced, streams)
    )))
    selected = next(
        (i for i in range(len(produced))
         if sound_errs[i] <= limits[0] and complete_errs[i] <= limits[1]),
        None,
    )
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
        "test_oracle_calls": sum(test_calls),
        "oracle_call_cap_per_example": cap,
        "sound_errors": sound_errs,
        "complete_errors": complete_errs,
        "tested": tested,
        "train_outcomes": outcomes,
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
    problem_dist = _compile(D, "D")
    abstain = incorrect = correct = 0
    for _ in range(n_trials):
        x = _draw(problem_dist, rng)
        outcome = vhp.generate(x, rng)
        if not outcome.is_proof:
            abstain += 1
            continue
        good = all(
            oracle.prefix_label(z)
            for z in _prefixes(vhp.vclass, outcome.trace)
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
