"""The benchmark's own copy of the boosting scenario of acceptance criterion 11.

Kept here rather than imported from the test suite, so that an edit to the
tests cannot move the benchmark's figures.

A product class over 16 problems with L = 4: steps 1-3 each carry two
mini-verifiers (the step's token is 0, or it is 1) and step 4 a single
always-accepting one, so |H| = 8.  The target is the bit pattern (1, 0, 1).
Two weak provers share the work on the first 12 problems: "early" puts half
its mass on the correct token at steps 1-2, "late" at step 3, which makes
the prover set 1/2-good on exactly 12 of the 16 uniformly drawn problems.
On the last 4 problems both provers open with the wrong token.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from cotverify import boosting, families
from cotverify.core import Problem, StepToken

N_PROBLEMS = 16
N_GOOD = 12
L = 4
TARGET_BITS = (1, 0, 1)
TARGET = TARGET_BITS[0] * 4 + TARGET_BITS[1] * 2 + TARGET_BITS[2]
ALPHA = Fraction(1, 2)
EPSILON = Fraction(1, 5)
EPSILON_PRIME = Fraction(1, 20)
DELTA = Fraction(1, 5)
TRIALS = 200

_HALF = {0: Fraction(1, 2), 1: Fraction(1, 2)}


def build_class():
    def step_is(b):
        return lambda p, s: s[-1] == b

    minis = [[step_is(0), step_is(1)] for _ in TARGET_BITS]
    minis.append([lambda p, s: True])
    sigma = [StepToken(0, "0"), StepToken(1, "1")]
    problems = [Problem(i, f"x{i}") for i in range(N_PROBLEMS)]
    return families.product_class(sigma, problems, minis)


def _prover_table(name):
    table = {}
    for p in range(N_PROBLEMS):
        for ell in range(L):
            step = ell + 1
            if step == L:
                dist = {0: Fraction(1)}
            elif p >= N_GOOD:
                dist = ({1 - TARGET_BITS[0]: Fraction(1)} if step == 1
                        else dict(_HALF))
            elif name == "early":
                dist = (dict(_HALF) if step <= 2
                        else {1 - TARGET_BITS[2]: Fraction(1)})
            else:
                dist = (dict(_HALF) if step == 3
                        else {1 - TARGET_BITS[step - 1]: Fraction(1)})
            for steps in itertools.product((0, 1), repeat=ell):
                table[(p, steps)] = dict(dist)
    return table


def build_prover_set():
    return boosting.ProverSet(
        tuple(boosting.Prover(_prover_table(n), n) for n in ("early", "late")),
        ALPHA,
    )


def build_distribution():
    return {p: Fraction(1, N_PROBLEMS) for p in range(N_PROBLEMS)}


def build_params():
    return boosting.BoostParams(EPSILON, EPSILON_PRIME, DELTA)
