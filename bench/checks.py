"""Checks on the program's outputs, computed independently of the program.

Every check returns a list of problems, empty when the output is correct.
The checks re-derive what they need from raw truth tables (rows of 0/1 per
verifier over an enumerated universe of prefixes) or test a property the
method must have; none compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

ALL_CORRECT = "inf"  # the report's label for a trace with no faulty step


class Tables:
    """Truth tables of one verifier class, read from its JSON class file."""

    def __init__(self, doc: dict):
        self.L = int(doc["L"])
        self.index = {
            (int(p), tuple(steps)): i for i, (p, steps) in enumerate(doc["universe"])
        }
        by_id = {int(v["id"]): v["rows"] for v in doc["verifiers"]}
        self.rows = [by_id[i] for i in range(len(by_id))]

    def __len__(self):
        return len(self.rows)

    def accepts(self, h: int, problem: int, steps: tuple) -> bool:
        return bool(self.rows[h][self.index[(problem, steps)]])

    def first_fault(self, h: int, problem: int, steps: tuple):
        """The first step of a full trace that verifier h rejects, or ALL_CORRECT."""
        for ell in range(1, len(steps) + 1):
            if not self.accepts(h, problem, steps[:ell]):
                return ell
        return ALL_CORRECT


def _edge_weights(kind: str, costs) -> dict:
    if kind in ("ldim", "sc"):
        return {"s": Fraction(1), "c": Fraction(1)}
    gamma_s, gamma_c, gamma_l = costs
    return {"s": gamma_s, "c": gamma_c, "l": gamma_l}


def witness_problems(tree, tables: Tables, kind: str, value: Fraction,
                     k: int = 0, costs=None) -> list[str]:
    """Re-walk a reported witness tree against the truth tables.

    tree is the report's "witness" JSON.  Every root-to-leaf path must be
    consistent with some verifier, and the minimum path weight must equal
    the reported value.  For kind "sc" a path that spends more than k
    straight edges is unconstrained and left out of the minimum.
    """
    problems: list[str] = []
    weights = _edge_weights(kind, costs)
    sequence_level = kind == "scl"

    def keep(alive, edge, problem, steps):
        label = edge.get("label")
        if sequence_level:
            if len(steps) != tables.L or any(
                    (problem, steps[:ell]) not in tables.index
                    for ell in range(1, len(steps) + 1)):
                problems.append(f"trace {problem}:{steps} is not a full trace")
                return frozenset()
            return frozenset(h for h in alive
                             if tables.first_fault(h, problem, steps) == label)
        if (problem, steps) not in tables.index:
            problems.append(f"instance {problem}:{steps} not in the universe")
            return frozenset()
        return frozenset(h for h in alive
                         if tables.accepts(h, problem, steps) is label)

    def well_formed(edges) -> bool:
        if len(edges) != 2:
            return False
        kinds = sorted(e.get("kind") for e in edges)
        labels = {e.get("kind"): e.get("label") for e in edges}
        if not sequence_level:
            return kinds == ["c", "s"] and labels["c"] is True and labels["s"] is False
        if kinds == ["l", "l"]:
            a, b = (e.get("label") for e in edges)
            return isinstance(a, int) and isinstance(b, int) and a != b
        return (kinds == ["c", "s"] and labels["c"] == ALL_CORRECT
                and isinstance(labels["s"], int))

    def walk(node, alive, budget):
        """Minimum admissible path weight below node, None if there is none."""
        if not alive:
            return None
        if node is None:
            return Fraction(0)
        problem, steps = node["instance"]
        steps = tuple(steps)
        edges = node["edges"]
        if not well_formed(edges):
            problems.append(f"malformed node at {problem}:{steps}")
            return None
        best = None
        for e in edges:
            w = Fraction(e["weight"])
            if w != weights[e["kind"]]:
                problems.append(f"edge {e['kind']} at {problem}:{steps} weighs {w}")
            sub = keep(alive, e, problem, steps)
            if not sub:
                problems.append(f"path through {problem}:{steps} "
                                f"label {e['label']} has no consistent verifier")
                continue
            child_budget = budget
            if kind == "sc" and e["kind"] == "s":
                child_budget = budget - 1
            below = walk(e["child"], sub, child_budget)
            if child_budget < 0 or below is None:
                continue
            if best is None or w + below < best:
                best = w + below
        return best

    if tree is None:
        return ["no witness reported for a positive value"]
    certified = walk(tree, frozenset(range(len(tables))), k)
    if certified != value:
        problems.append(f"witness certifies {certified}, report says {value}")
    return problems


def dim_relation_problems(cls: dict) -> list[str]:
    """Relations between the values of one class's queries.

    cls has "n" (verifier count), optional "singleton_L" / "complement_n"
    (the family's parameter) and the values found: "ldim" and
    "sc" ({k: value}).
    """
    problems = []
    ldim = cls.get("ldim")
    sc = cls.get("sc", {})
    if ldim is not None:
        log_bound = cls["n"].bit_length() - 1
        if ldim > log_bound:
            problems.append(f"ldim {ldim} > floor(log2 |H|) = {log_bound}")
        if cls.get("singleton_L") is not None and ldim != cls["singleton_L"]:
            problems.append(f"singleton({cls['singleton_L']}) has ldim {ldim}")
        for k, v in sc.items():
            if ldim > v:
                problems.append(f"ldim {ldim} > SC_{k} = {v}")
    if cls.get("complement_n") is not None and 0 in sc:
        if sc[0] != cls["complement_n"] - 1:
            problems.append(f"complement({cls['complement_n']}) has SC_0 = {sc[0]}")
    ks = sorted(sc)
    for a, b in zip(ks, ks[1:]):
        if sc[b] > sc[a]:
            problems.append(f"SC_{b} = {sc[b]} > SC_{a} = {sc[a]}")
    return problems


def session_problems(rounds, truths, bounds: dict) -> list[str]:
    """Check one online session's transcript.

    rounds: (prediction, truth, kind, cost) per round, as the program
    recorded them.  truths: the labels the benchmark derived from the
    target's truth table, or None for an adversary that picks its labels.
    bounds may hold "max_sound", "max_total", "max_cost", "exact_cost",
    "exact_total" and "max_complete".
    """
    problems = []
    if truths is not None:
        got = [r[1] for r in rounds]
        bad = [i for i, (a, b) in enumerate(zip(got, truths)) if a != b]
        if len(got) != len(truths):
            problems.append(f"{len(got)} rounds recorded, {len(truths)} played")
        elif bad:
            problems.append(f"round {bad[0]}: truth {got[bad[0]]} but the target "
                            f"says {truths[bad[0]]}")
    sound = sum(1 for r in rounds if r[2] == "soundness")
    complete = sum(1 for r in rounds if r[2] == "completeness")
    total = sum(1 for r in rounds if r[2] != "none")
    cost = sum((r[3] for r in rounds), Fraction(0))
    if any(r[2] == "none" and r[0] != r[1] for r in rounds):
        problems.append("a wrong prediction was recorded as no mistake")
    limits = [
        ("max_sound", sound, "soundness mistakes", lambda a, b: a <= b),
        ("max_complete", complete, "completeness mistakes", lambda a, b: a <= b),
        ("max_total", total, "mistakes", lambda a, b: a <= b),
        ("max_cost", cost, "cost", lambda a, b: a <= b),
        ("exact_total", total, "mistakes", lambda a, b: a == b),
        ("exact_cost", cost, "cost", lambda a, b: a == b),
    ]
    for key, got, what, ok in limits:
        if key in bounds and not ok(got, bounds[key]):
            problems.append(f"{what} {got} against {key} {bounds[key]}")
    return problems


def s1_size(m_s: int, m_c: int, epsilon: Fraction, delta: Fraction) -> int:
    """|S1| = ceil(8 ((M_s + M_c) / epsilon + ln(2 / delta)))."""
    return math.ceil(8 * ((m_s + m_c) / epsilon + math.log(2 / delta)))


def s2_size(m_s: int, m_c: int, epsilon: Fraction, delta: Fraction,
            constant: int = 32) -> int:
    """|S2| = ceil(C (1/epsilon) (M / (min(M_s, M_c) + 1)) ln(M / delta))."""
    total = m_s + m_c
    return math.ceil(constant * (1 / epsilon) * (total / (min(m_s, m_c) + 1))
                     * math.log(total / delta))


def abstain_threshold(gamma: Fraction, m_s: int, m_c: int, epsilon: Fraction,
                      epsilon_prime: Fraction, trials: int) -> float:
    """Abstain-rate bound (1 - gamma) + eps_c + eps_s + eps' plus 3 standard errors."""
    total = m_s + m_c
    bound = (1 - gamma) + epsilon * Fraction(m_c, total) \
        + epsilon * Fraction(m_s, total) + epsilon_prime
    return float(bound) + 3 * math.sqrt(float(bound) * (1 - float(bound)) / trials)


def boost_op_problems(report: dict, rates: dict, proofs: list, abstained: int,
                      oracle_calls: int, target_bits: tuple, L: int, trials: int,
                      sizes: tuple) -> list[str]:
    """Check one build_vhp + evaluate_vhp run.

    proofs are the step tuples of every proof the boosted prover returned;
    each must have L steps and is checked against the target's bit pattern,
    not against the oracle.
    """
    problems = []
    if (report["s1_size"], report["s2_size"]) != sizes:
        problems.append(f"S1/S2 sizes {report['s1_size']}/{report['s2_size']}, "
                        f"expected {sizes[0]}/{sizes[1]}")
    wrong = [p for p in proofs
             if len(p) != L or tuple(p[:len(target_bits)]) != target_bits]
    if wrong:
        problems.append(f"{len(wrong)} returned proofs break the target pattern, "
                        f"e.g. {wrong[0]}")
    if len(proofs) + abstained != trials:
        problems.append(f"{len(proofs)} proofs + {abstained} abstentions "
                        f"!= {trials} trials")
    expected = {
        "abstain": Fraction(abstained, trials),
        "incorrect_proof": Fraction(len(wrong), trials),
        "correct_proof": Fraction(len(proofs) - len(wrong), trials),
    }
    if rates != expected:
        problems.append(f"rates {rates} disagree with the returned proofs {expected}")
    counted = report["train_oracle_calls"] + report["test_oracle_calls"]
    if oracle_calls != counted:
        problems.append(f"{oracle_calls} labeling-oracle calls made, "
                        f"report says {counted}")
    return problems
