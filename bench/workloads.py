"""The benchmark's workloads: dim, online and boost.

Each workload is a closed loop with one caller: an op starts when the
previous one ends.  A workload is set up once (and may be set up again from
scratch), then yields rounds of ops; every round holds the same ops, so a
run always attempts whole rounds.  An op is (label, run, check): run() is
the timed call into the program, check(output) runs afterwards, untimed,
and returns the problems it found in the output.

Every input comes from the seed; the program only sees the generated
inputs (class files, targets, sequences, random streams).
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import checks
import boost_scenario as scenario
from cotverify import (adversary, boosting, cli, dimensions, families,
                       learners, reductions)
from cotverify.core import CostVector, Oracle, VersionSpace, cot_instances


class OpFailed(Exception):
    """The program returned an error for an op."""


def class_doc(vclass, perm=None) -> dict:
    """A class file's JSON, with verifier j taking the rows of verifier perm[j]."""
    order = perm if perm is not None else range(len(vclass))
    doc = {
        "sigma": [t.name or str(t.id) for t in vclass.sigma],
        "problems": [p.name or str(p.id) for p in vclass.problems],
        "L": vclass.L,
        "universe": [[z.problem, list(z.steps)] for z in vclass.universe],
        "verifiers": [
            {"id": j, "rows": [int(b) for b in vclass.verifiers[i].rows]}
            for j, i in enumerate(order)
        ],
    }
    if vclass.fail_token is not None:
        doc["fail_token"] = vclass.fail_token
    return doc


def _label(label):
    """The benchmark's ALL_CORRECT marker as the program's label value."""
    return math.inf if label == checks.ALL_CORRECT else label


# -- dim -----------------------------------------------------------------

# Class name -> (builder, family parameters the relation checks use).
DIM_CLASSES = {
    "singleton5": (lambda: families.singleton_bitstring_class(5), {"singleton_L": 5}),
    "singleton6": (lambda: families.singleton_bitstring_class(6), {"singleton_L": 6}),
    "singleton7": (lambda: families.singleton_bitstring_class(7), {"singleton_L": 7}),
    "indicator10": (lambda: families.indicator_class(10), {}),
    "complement16": (lambda: families.complement_class(16, 5), {"complement_n": 16}),
    "complement17": (lambda: families.complement_class(17, 5), {"complement_n": 17}),
    "complement18": (lambda: families.complement_class(18, 5), {"complement_n": 18}),
    "river14": (lambda: families.river_crossing_class(families.river_edges()[:14], 8), {}),
    "failtoken4": (lambda: families.with_fail_token(
        families.singleton_bitstring_class(4)), {}),
}

# (class, kind, k, (gamma_s, gamma_c, gamma_l)).  The first nine are the
# games of benchmarks/bench_kernels.py, so its figures continue here.
DIM_SUITE = [
    ("singleton5", "ldim", 0, None),
    ("singleton5", "sc", 2, None),
    ("singleton5", "wsc", 0, (3, 1, 0)),
    ("singleton5", "scl", 0, (3, 2, 1)),
    ("singleton6", "ldim", 0, None),
    ("singleton6", "sc", 2, None),
    ("singleton6", "wsc", 0, (3, 1, 0)),
    ("singleton6", "scl", 0, (3, 2, 1)),
    ("indicator10", "sc", 1, None),
    ("indicator10", "ldim", 0, None),
    ("complement16", "sc", 0, None),
    ("complement17", "sc", 0, None),
    ("complement18", "sc", 0, None),
    ("complement16", "sc", 1, None),
    ("singleton7", "ldim", 0, None),
    ("singleton7", "scl", 0, (3, 2, 1)),
    ("river14", "ldim", 0, None),
    ("river14", "sc", 1, None),
    ("failtoken4", "ldim", 0, None),
    ("failtoken4", "scl", 0, (3, 2, 1)),
]


class Dim:
    """Cold exact solves with a certificate: `cotverify dim --witness`.

    Set-up writes one class file per class, with the verifiers in a seeded
    order (which leaves every value and the search's work unchanged).
    Each op loads its class afresh, so it starts with empty memos.
    """

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.paths: dict[str, str] = {}
        self.tables: dict[str, checks.Tables] = {}
        self.problems: list[str] = []
        self._values: dict[str, dict] = {}

    def setup(self):
        rng = random.Random(f"{self.seed}:dim")
        for name, (build, _) in DIM_CLASSES.items():
            vclass = build()
            perm = list(range(len(vclass)))
            rng.shuffle(perm)
            doc = class_doc(vclass, perm)
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            self.paths[name] = path
            self.tables[name] = checks.Tables(doc)

    def round(self, r: int):
        suite = list(DIM_SUITE)
        random.Random(f"{self.seed}:dim:{r}").shuffle(suite)
        self._values = {}
        return [self._op(*entry) for entry in suite]

    def _op(self, name, kind, k, gammas):
        out = os.path.join(self.workdir, "report.json")
        argv = ["dim", "--class", self.paths[name], "--kind", kind,
                "--k", str(k), "--witness", "--out", out]
        costs = None
        if gammas is not None:
            costs = tuple(Fraction(g) for g in gammas)
            argv += ["--gamma-s", str(gammas[0]), "--gamma-c", str(gammas[1]),
                     "--gamma-l", str(gammas[2])]

        def run():
            code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"cotverify {' '.join(argv)} exited {code}")
            return out

        def check(path):
            with open(path) as f:
                report = json.load(f)
            value = Fraction(report["value"])
            found = checks.witness_problems(
                report.get("witness"), self.tables[name], kind, value, k, costs)
            if report.get("witness_verified") is not True:
                found.append("the program did not verify its witness")
            cls = self._values.setdefault(name, {"sc": {}})
            if kind == "ldim":
                cls["ldim"] = value
            elif kind == "sc":
                cls["sc"][k] = value
            return [f"{name} {kind} k={k}: {p}" for p in found]

        label = f"{name}.{kind}" + (f".k{k}" if kind == "sc" else "")
        return (label, run, check)

    def round_problems(self):
        found = []
        for name, values in self._values.items():
            cls = dict(values, n=len(self.tables[name]), **DIM_CLASSES[name][1])
            found += [f"{name}: {p}" for p in checks.dim_relation_problems(cls)]
        return found

    def run_problems(self):
        return []


# -- online --------------------------------------------------------------

ROUNDS_PER_SESSION = 64
C31 = CostVector(Fraction(3), Fraction(1), Fraction(0))
C321 = CostVector(Fraction(3), Fraction(2), Fraction(1))

ONLINE_CLASSES = {
    "singleton6": lambda: families.singleton_bitstring_class(6),
    "singleton7": lambda: families.singleton_bitstring_class(7),
    "indicator8": lambda: families.indicator_class(8),
    "complement12": lambda: families.complement_class(12, 4),
    "failtoken3": lambda: families.with_fail_token(families.singleton_bitstring_class(3)),
}

# (session, class, feedback): "prefix" sessions see prefixes of the
# universe, "cot" sessions full traces, "duel" sessions a tree adversary.
# "protocol" sessions see the prefixes of fail-token-free traces in order,
# up to the first step the target rejects, as in a proof attempt; the
# fail-token reduction is only sound on such prefixes.
SESSIONS = [
    ("sc-soa-k1", "singleton7", "prefix"),
    ("sc-soa-k0", "complement12", "prefix"),
    ("wsc-soa", "singleton6", "prefix"),
    ("scl-soa", "singleton6", "cot"),
    ("majority", "singleton7", "cot"),
    ("sound-conservative", "indicator8", "cot"),
    ("reject-all", "complement12", "cot"),
    ("cot-from-prefix-sc-soa-k1", "indicator8", "cot"),
    ("prefix-from-cot-sound-conservative", "failtoken3", "protocol"),
    ("duel-sc-soa-k1", "singleton6", "duel"),
    ("duel-wsc-soa", "indicator8", "duel"),
]


def restrict_closure(vclass) -> list[int]:
    """Every version space reachable from the full class by restrictions."""
    full = vclass.full_mask()
    seen, stack = {full}, [full]
    while stack:
        alive = stack.pop()
        for m in vclass.yes_masks:
            for sub in (alive & m, alive & ~m):
                if sub and sub != alive and sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
    return sorted(seen)


class Online:
    """Online sessions of 64 seeded rounds against a seeded target.

    Set-up solves every game a session asks about on every reachable
    version space, so the sessions read warm memos and never search.
    """

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.problems: list[str] = []

    def setup(self):
        self.classes = {n: build() for n, build in ONLINE_CLASSES.items()}
        self.tables = {n: checks.Tables(class_doc(vc)) for n, vc in self.classes.items()}
        self.traces = {n: cot_instances(vc) for n, vc in self.classes.items()}
        full = {n: VersionSpace.full(vc) for n, vc in self.classes.items()}
        self.sc = {}
        for name, k in (("singleton7", 1), ("complement12", 0),
                        ("indicator8", 1), ("singleton6", 1)):
            vclass = self.classes[name]
            for alive in restrict_closure(vclass):
                for kk in range(k + 1):
                    dimensions.sc_value(VersionSpace(vclass, alive), kk)
            self.sc[name] = dimensions.sc_value(full[name], k)
        self.wsc = {n: dimensions.wsc_value(full[n], C31)
                    for n in ("singleton6", "indicator8")}
        self.scl = dimensions.scl_value(full["singleton6"], C321)
        sc_tree = dimensions.extract_witness(full["singleton6"], "SC", k=1)
        wsc_tree = dimensions.extract_witness(full["indicator8"], "WSC", costs=C31)

        c = self.classes
        s6, s7, i8, c12, f3 = (c[n] for n in ONLINE_CLASSES)
        # Session -> (learner factory, bounds its transcript must meet).
        self.plans = {
            "sc-soa-k1": (lambda: learners.ScSoa(s7, 1),
                          {"max_sound": 1, "max_total": self.sc["singleton7"]}),
            "sc-soa-k0": (lambda: learners.ScSoa(c12, 0),
                          {"max_sound": 0, "max_total": self.sc["complement12"]}),
            "wsc-soa": (lambda: learners.WscSoa(s6, C31),
                        {"max_cost": self.wsc["singleton6"]}),
            "scl-soa": (lambda: learners.SclSoa(s6, C321), {"max_cost": self.scl}),
            "majority": (lambda: learners.MajorityVote(s7),
                         {"max_total": len(s7).bit_length() - 1}),
            "sound-conservative": (lambda: learners.SoundConservative(i8),
                                   {"max_sound": 0}),
            "reject-all": (lambda: learners.RejectAll(c12),
                           {"max_sound": 0, "max_complete": len(c12) - 1}),
            "cot-from-prefix-sc-soa-k1": (
                lambda: reductions.cot_from_prefix(learners.ScSoa(i8, 1)),
                {"max_sound": 1, "max_total": self.sc["indicator8"]}),
            "prefix-from-cot-sound-conservative": (
                lambda: reductions.prefix_from_cot(learners.SoundConservative(f3), f3),
                {"max_sound": 0}),
            "duel-sc-soa-k1": (
                lambda: adversary.play_tree_adversary(sc_tree, learners.ScSoa(s6, 1)),
                {"exact_total": self.sc["singleton6"]}),
            "duel-wsc-soa": (
                lambda: adversary.play_tree_adversary(wsc_tree, learners.WscSoa(i8, C31)),
                {"exact_cost": self.wsc["indicator8"]}),
        }

    def round(self, r: int):
        return [self._session(name, cls, feedback,
                              random.Random(f"{self.seed}:online:{r}:{i}"))
                for i, (name, cls, feedback) in enumerate(SESSIONS)]

    def _session(self, name, cls, feedback, rng):
        make, bounds = self.plans[name]
        if feedback == "duel":
            return (name, make, lambda t: self._check(name, t, None, bounds))
        vclass = self.classes[cls]
        tables = self.tables[cls]
        target = rng.randrange(len(vclass))
        if feedback == "prefix":
            sequence = [rng.choice(vclass.universe) for _ in range(ROUNDS_PER_SESSION)]
            truths = [tables.accepts(target, z.problem, z.steps) for z in sequence]
        elif feedback == "protocol":
            traces = [z for z in self.traces[cls] if vclass.fail_token not in z.steps]
            sequence, truths = [], []
            while len(sequence) < ROUNDS_PER_SESSION:
                trace = rng.choice(traces)
                for ell in range(1, vclass.L + 1):
                    z = trace.prefix(ell)
                    sequence.append(z)
                    truths.append(tables.accepts(target, z.problem, z.steps))
                    if not truths[-1]:
                        break
            del sequence[ROUNDS_PER_SESSION:], truths[ROUNDS_PER_SESSION:]
        else:
            traces = self.traces[cls]
            sequence = [rng.choice(traces) for _ in range(ROUNDS_PER_SESSION)]
            truths = [_label(tables.first_fault(target, z.problem, z.steps))
                      for z in sequence]

        def run():
            return learners.run_online(make(), Oracle(vclass, target), sequence)

        return (name, run, lambda t: self._check(name, t, truths, bounds))

    def _check(self, name, transcript, truths, bounds):
        rounds = [(r.prediction, r.truth, r.kind.value, r.cost)
                  for r in transcript.rounds]
        return [f"{name}: {p}" for p in checks.session_problems(rounds, truths, bounds)]

    def round_problems(self):
        return []

    def run_problems(self):
        return []


# -- boost ---------------------------------------------------------------


class _CountingOracle:
    """The labeling oracle, counting every prefix_label call."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.vclass = oracle.vclass
        self.target = oracle.target
        self.calls = 0

    def prefix_label(self, z):
        self.calls += 1
        return self.oracle.prefix_label(z)


class Boost:
    """One build_vhp plus evaluate_vhp (200 trials) per op, on the
    benchmark's own copy of the acceptance criterion-11 scenario."""

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self._abstain: list[Fraction] = []

    def setup(self):
        self.vclass = scenario.build_class()
        self.oracle = Oracle(self.vclass, scenario.TARGET)
        self.prover_set = scenario.build_prover_set()
        self.D = scenario.build_distribution()
        self.params = scenario.build_params()
        good = boosting.alpha_goodness(self.prover_set, self.oracle)
        gamma = boosting.gamma_of(good, self.D)
        self.m_s = 0
        self.m_c = dimensions.sc_value(VersionSpace.full(self.vclass), self.m_s)
        own_gamma = Fraction(scenario.N_GOOD, scenario.N_PROBLEMS)
        if good != frozenset(range(scenario.N_GOOD)) or gamma != own_gamma:
            self.problems.append(f"goodness: {sorted(good)}, gamma {gamma}")
        if gamma != Fraction(3, 4) or (self.m_s, self.m_c) != (0, 3):
            self.problems.append(f"gamma {gamma}, (M_s, M_c) = ({self.m_s}, {self.m_c})")
        eps, delta = scenario.EPSILON, scenario.DELTA
        self.sizes = (checks.s1_size(self.m_s, self.m_c, eps, delta),
                      checks.s2_size(self.m_s, self.m_c, eps, delta))
        if self.sizes != (139, 1300):
            self.problems.append(f"S1/S2 sizes {self.sizes} from the formulas")
        self.threshold = checks.abstain_threshold(
            own_gamma, self.m_s, self.m_c, eps, scenario.EPSILON_PRIME,
            scenario.TRIALS)

    def round(self, r: int):
        i = self.seed * 1_000_000 + r

        def run():
            oracle = _CountingOracle(self.oracle)
            vhp = boosting.build_vhp(
                self.prover_set, self.D, self.params,
                learners.ScSoa(self.vclass, self.m_s), oracle,
                (self.m_s, self.m_c), random.Random(f"{i}:build"))
            proofs, abstained = [], [0]
            generate = vhp.generate

            def recording(x, rng):
                outcome = generate(x, rng)
                if outcome.is_proof:
                    proofs.append(outcome.trace.steps)
                else:
                    abstained[0] += 1
                return outcome

            vhp.generate = recording
            rates = boosting.evaluate_vhp(vhp, self.D, scenario.TRIALS, self.oracle,
                                          random.Random(f"{i}:eval"))
            return vhp.report, rates, proofs, abstained[0], oracle.calls

        def check(output):
            report, rates, proofs, abstained, calls = output
            self._abstain.append(rates["abstain"])
            return [f"boost {i}: {p}" for p in checks.boost_op_problems(
                report, rates, proofs, abstained, calls, scenario.TARGET_BITS,
                scenario.L, scenario.TRIALS, self.sizes)]

        return [("boost", run, check)]

    def round_problems(self):
        return []

    def run_problems(self):
        within = sum(1 for a in self._abstain if float(a) <= self.threshold)
        need = (1 - scenario.DELTA) * len(self._abstain)
        if within < need:
            return [f"abstain rate within bound + 3se on {within} of "
                    f"{len(self._abstain)} runs, need {float(need)}"]
        return []


WORKLOADS = {"dim": Dim, "online": Online, "boost": Boost}
