"""Shared boosting scenario used by the pipeline and CLI tests.

A product class over 16 problems with L = 4: steps 1..3 each carry two
mini-verifiers (last token equals 0 or 1) and step 4 a single
always-accept one, so |H| = 8.  The hidden target is the bit pattern
(1, 0, 1).  Two weak provers split the work on the first 12 problems:
"early" puts half its mass on the correct token at steps 1-2, "late"
at step 3, giving verified 1/2-goodness on exactly 3/4 of the uniform
problem distribution.  On the last 4 problems both provers put all
their first-step mass on the wrong token.
"""

import itertools
import json
from fractions import Fraction

from cotverify import boosting, families
from cotverify.core import Problem, StepToken

N_PROBLEMS = 16
N_GOOD = 12
L = 4
TARGET_BITS = (1, 0, 1)
TARGET = TARGET_BITS[0] * 4 + TARGET_BITS[1] * 2 + TARGET_BITS[2]
ALPHA = Fraction(1, 2)

HALF = {0: Fraction(1, 2), 1: Fraction(1, 2)}


def class_parts():
    """The alphabet, the problems and the per-step mini-classes."""
    sigma = [StepToken(0, "0"), StepToken(1, "1")]
    problems = [Problem(i, f"x{i}") for i in range(N_PROBLEMS)]
    minis = [
        [lambda p, s, b=b: s[-1] == b for b in (0, 1)],
        [lambda p, s, b=b: s[-1] == b for b in (0, 1)],
        [lambda p, s, b=b: s[-1] == b for b in (0, 1)],
        [lambda p, s: True],
    ]
    return sigma, problems, minis


def build_class():
    return families.product_class(*class_parts())


def _point(tok):
    return {tok: Fraction(1)}


def _prover_table(name):
    table = {}
    for p in range(N_PROBLEMS):
        good = p < N_GOOD
        for ell in range(L):
            for steps in itertools.product((0, 1), repeat=ell):
                step = ell + 1
                if step == 4:
                    dist = _point(0)
                elif not good:
                    dist = _point(1 - TARGET_BITS[0]) if step == 1 else dict(HALF)
                elif name == "early":
                    dist = dict(HALF) if step <= 2 else _point(1 - TARGET_BITS[2])
                else:
                    dist = dict(HALF) if step == 3 else _point(
                        1 - TARGET_BITS[step - 1]
                    )
                table[(p, steps)] = dist
    return table


def build_prover_set():
    return boosting.ProverSet(
        (
            boosting.Prover(_prover_table("early"), "early"),
            boosting.Prover(_prover_table("late"), "late"),
        ),
        ALPHA,
    )


def build_distribution():
    return {p: Fraction(1, N_PROBLEMS) for p in range(N_PROBLEMS)}


def build_params():
    return boosting.BoostParams(
        epsilon=Fraction(1, 5),
        epsilon_prime=Fraction(1, 20),
        delta=Fraction(1, 5),
    )


def write_scenario_files(dirpath):
    """Write the class and scenario JSON files; return the scenario path."""
    class_path = str(dirpath / "boost_class.json")
    families.save_class(build_class(), class_path)
    frac = lambda f: f"{f.numerator}/{f.denominator}"
    doc = {
        "class": class_path,
        "target": TARGET,
        "k": 0,
        "alpha": frac(ALPHA),
        "provers": [
            {
                "name": name,
                "table": [
                    [p, list(steps), {str(t): frac(w) for t, w in dist.items()}]
                    for (p, steps), dist in _prover_table(name).items()
                ],
            }
            for name in ("early", "late")
        ],
        "D": {str(p): frac(w) for p, w in build_distribution().items()},
        "epsilon": "1/5",
        "epsilon_prime": "1/20",
        "delta": "1/5",
    }
    scenario_path = dirpath / "boost_scenario.json"
    with open(scenario_path, "w") as f:
        json.dump(doc, f)
    return str(scenario_path)
