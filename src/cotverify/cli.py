"""Command-line entry point.

Subcommands: ``families`` (generate a class file), ``dim`` (exact
dimensions with optional witness), ``run`` (online session transcript),
``duel`` (adversary vs learner with a bound verdict), ``boost``
(prover-boosting pipeline).  All reports are canonical JSON: sorted
keys, rationals as "p/q" strings, never floats.  Exit codes: 0 success,
2 validation/usage error, 3 bound-violation verdict.

Randomness flows from a single 64-bit --seed; independent streams are
derived as Random(f"{seed}:{stream-name}").
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import adversary, boosting, dimensions, families, learners, reductions
from .core import (
    ALL_CORRECT,
    CapExceeded,
    ClassMismatch,
    CostVector,
    CotInstance,
    CotVerifyError,
    Oracle,
    PrefixInstance,
    Transcript,
    VersionSpace,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VIOLATION = 3


def frac_str(x) -> str:
    """An int or a Fraction as "p/q"; both carry the two parts."""
    return f"{x.numerator}/{x.denominator}"


# Rationals as text: an integer, "p/q" or a decimal such as "0.25", with
# no exponent, so a short string cannot name a huge number.
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def rational_text(s: str) -> Fraction:
    """s as an exact rational in the grammar above; ValueError otherwise,
    a zero denominator included."""
    if _RATIONAL_TEXT.fullmatch(s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational: {s!r}")


def parse_frac(s: str) -> Fraction:
    try:
        return rational_text(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def label_json(label):
    if isinstance(label, bool):
        return label
    if label == ALL_CORRECT:
        return "inf"
    return int(label)


def instance_json(z):
    return [z.problem, list(z.steps)]


def transcript_json(t: Transcript) -> dict:
    return {
        "rounds": [
            {
                "instance": instance_json(r.instance),
                "prediction": label_json(r.prediction),
                "truth": label_json(r.truth),
                "kind": r.kind.value,
                "cost": frac_str(r.cost),
            }
            for r in t.rounds
        ],
        "soundness_mistakes": t.soundness_mistakes,
        "completeness_mistakes": t.completeness_mistakes,
        "location_mistakes": t.location_mistakes,
        "total_mistakes": t.total_mistakes,
        "total_cost": frac_str(t.total_cost),
    }


def tree_json(tree) -> Optional[dict]:
    """The tree as nested JSON objects, null for a tree without nodes:
    one backward loop builds each node's object after its children's."""
    nodes = tree.nodes
    done = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        z, edges = nodes[i]
        done[i] = {
            "instance": instance_json(z),
            "edges": [{"label": label_json(label), "kind": kind,
                       "weight": frac_str(w), "child": None if c is None else done[c]}
                      for label, kind, w, c in edges],
        }
    return done[0] if done else None


def tree_dot(tree) -> str:
    """The tree in Graphviz DOT: nodes and bare leaves numbered in
    pre-order, each edge's line after its child's subtree."""
    nodes = tree.nodes
    lines = ["digraph mistake_tree {"]
    # The next item on top: an edge's line, or a node index (None for a
    # bare leaf) with its parent's DOT number and the edge into it.
    todo = [(0 if nodes else None, None, None)]
    number = 0
    while todo:
        item = todo.pop()
        if type(item) is str:
            lines.append(item)
            continue
        i, parent, edge = item
        if i is None:
            lines.append(f'  n{number} [shape=point, label=""];')
        else:
            z, edges = nodes[i]
            lines.append(f'  n{number} [label="{z.problem}:{"".join(map(str, z.steps))}"];')
        if edge is not None:
            label, kind, w, _ = edge
            style = "dashed" if kind == "c" else "solid"
            todo.append(f'  n{parent} -> n{number} [label="{label_json(label)} '
                        f'({frac_str(w)})", style={style}];')
        if i is not None:
            todo.extend([(e[3], number, e) for e in reversed(edges)])
        number += 1
    lines.append("}")
    return "\n".join(lines)


_END = object()


def canonical_json(value) -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), written
    with an explicit stack, so nesting depth is not bound by the
    recursion limit, and without the generators of json's pure-Python
    encoder, which json.dumps falls back to whenever indent is given.

    Handles str, int, bool, None, and lists and str-keyed dicts of them;
    anything else raises TypeError.
    """
    chunks = []
    # One entry per open list or dict: [its items left, whether it is a
    # dict, its id, the text before its next item, its closing text].
    stack = []
    open_ids = set()
    while True:
        if isinstance(value, str):
            chunks.append(encode_basestring_ascii(value))
        elif value is None:
            chunks.append("null")
        elif value is True:
            chunks.append("true")
        elif value is False:
            chunks.append("false")
        elif isinstance(value, int):
            chunks.append(int.__repr__(value))
        elif isinstance(value, (list, dict)):
            is_dict = isinstance(value, dict)
            if not value:
                chunks.append("{}" if is_dict else "[]")
            elif id(value) in open_ids:
                raise ValueError("Circular reference detected")
            else:
                if is_dict:
                    for key in value:
                        if not isinstance(key, str):
                            raise TypeError(
                                f"keys must be str, not {type(key).__name__}")
                    items = iter(sorted(value.items()))
                else:
                    items = iter(value)
                open_ids.add(id(value))
                outer = "\n" + "  " * len(stack)
                chunks.append("{" if is_dict else "[")
                stack.append([items, is_dict, id(value), outer + "  ",
                              outer + ("}" if is_dict else "]")])
        else:
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        # Move to the next value, closing every container that has ended.
        while stack:
            top = stack[-1]
            item = next(top[0], _END)
            if item is _END:
                chunks.append(top[4])
                open_ids.discard(top[2])
                stack.pop()
                continue
            before = top[3]
            if before[0] == "\n":
                top[3] = "," + before
            if top[1]:
                chunks.append(before + encode_basestring_ascii(item[0]) + ": ")
                value = item[1]
            else:
                chunks.append(before)
                value = item
            break
        else:
            return "".join(chunks)


def emit(report: dict, out: Optional[str]) -> None:
    # print writes the newline after the text, so the report is never
    # copied to append it.
    text = canonical_json(report)
    if out:
        with open(out, "w") as f:
            print(text, file=f)
    else:
        print(text)


def _costs(args) -> CostVector:
    gamma_l = Fraction(0) if args.gamma_l is None else args.gamma_l
    return CostVector(args.gamma_s, args.gamma_c, gamma_l)


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-s", type=parse_frac, default=Fraction(1))
    p.add_argument("--gamma-c", type=parse_frac, default=Fraction(1))
    # None until given: scl-soa reads an unset gamma_l by its own default.
    p.add_argument("--gamma-l", type=parse_frac, default=None)


def _revealed_edges(count: int) -> list:
    """The river graph's first count edges; a count past either end is refused."""
    edges = families.river_edges()
    if not 0 <= count <= len(edges):
        raise CotVerifyError(f"--revealed must be in 0..{len(edges)}, got {count}")
    return edges[:count]


def cmd_families(args) -> int:
    if args.family == "singleton":
        vc = families.singleton_bitstring_class(args.L)
    elif args.family == "conjunction":
        vc = families.conjunction_class(args.L)
    elif args.family == "indicator":
        vc = families.indicator_class(args.n)
    elif args.family == "complement":
        vc = families.complement_class(args.n, args.L)
    elif args.family == "river":
        vc = families.river_crossing_class(_revealed_edges(args.revealed), args.L)
    else:
        raise CotVerifyError(f"unknown family: {args.family}")
    if args.fail_token:
        vc = families.with_fail_token(vc)
    families.save_class(vc, args.out)
    emit(
        {
            "family": args.family,
            "verifiers": len(vc),
            "universe": len(vc.universe),
            "L": vc.L,
            "out": args.out,
        },
        None,
    )
    return EXIT_OK


def cmd_dim(args) -> int:
    vc = families.load_class(args.class_file)
    vs = VersionSpace.full(vc)
    costs = _costs(args)
    query, *game = {"ldim": (dimensions.ldim,), "sc": (dimensions.sc_ldim, args.k),
                    "wsc": (dimensions.wsc_ldim, costs),
                    "scl": (dimensions.scl_ldim, costs)}[args.kind]
    res = query(vs, *game, witness=args.witness)
    report = {
        "kind": args.kind,
        "value": frac_str(res.value),
        "stats": res.stats,
    }
    if res.witness is not None:
        report["witness"] = tree_json(res.witness)
        report["witness_dot"] = tree_dot(res.witness)
        report["witness_verified"] = (
            dimensions.verify_shattered(res.witness, vs)
            and dimensions.certified_value(res.witness) == res.value)
    emit(report, args.out)
    return EXIT_OK


def _make_learner(name: str, vc, args):
    costs = _costs(args)
    if name == "majority":
        return learners.MajorityVote(vc, costs)
    if name == "sound-conservative":
        return learners.SoundConservative(vc, costs)
    if name == "reject-all":
        return learners.RejectAll(vc, costs)
    if name == "river":
        return learners.RiverCrossingSound(
            vc, _revealed_edges(args.revealed), costs)
    if name == "sc-soa":
        return learners.ScSoa(vc, args.k, costs)
    if name == "wsc-soa":
        return learners.WscSoa(vc, costs)
    if name == "scl-soa":
        # An unset gamma_l at unit s and c costs means 1, not 0.
        if args.gamma_l is None and costs.gamma_c == costs.gamma_s == 1:
            costs = CostVector(Fraction(1), Fraction(1), Fraction(1))
        return learners.SclSoa(vc, costs)
    raise CotVerifyError(f"unknown learner: {name}")


def _load_sequence(path: str, vc, mode: str):
    """Read a sequence file: each entry a full trace of the class (mode
    "cot") or a prefix of at most L steps (mode "prefix"), of the class's
    problems and tokens."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise CotVerifyError("sequence file must hold a JSON list")
    cls = CotInstance if mode == "cot" else PrefixInstance
    lengths = range(vc.L, vc.L + 1) if mode == "cot" else range(1, vc.L + 1)
    problems, tokens = range(len(vc.problems)), range(len(vc.sigma))
    out = []
    for entry in doc:
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) is int and isinstance(entry[1], list)
                and all(type(s) is int for s in entry[1])):
            raise CotVerifyError(
                f"sequence entry must be [problem, [steps...]] of integers, "
                f"got {json.dumps(entry)}"
            )
        problem, steps = entry
        if problem not in problems or len(steps) not in lengths or not all(
                s in tokens for s in steps):
            what = "a full trace" if mode == "cot" else "a prefix"
            raise CotVerifyError(
                f"sequence entry {json.dumps(entry)} is not {what} of the "
                f"class: {len(vc.problems)} problems, {len(vc.sigma)} tokens, "
                f"L={vc.L}")
        out.append(cls(problem, tuple(steps)))
    return out


def cmd_run(args) -> int:
    vc = families.load_class(args.class_file)
    if not 0 <= args.target < len(vc):
        raise CotVerifyError(
            f"--target must be in 0..{len(vc) - 1}, got {args.target}"
        )
    learner = _make_learner(args.learner, vc, args)
    if args.via_prefix and args.via_cot:
        raise CotVerifyError("--via-prefix and --via-cot exclude each other")
    if args.via_prefix:
        if learner.mode != "prefix":
            raise CotVerifyError(
                f"--via-prefix wraps a prefix learner; {args.learner} "
                "already locates faults in full traces")
        learner = reductions.cot_from_prefix(learner)
    elif args.via_cot:
        if learner.mode != "cot":
            raise CotVerifyError(
                f"--via-cot wraps a chain-of-thought learner; {args.learner} "
                "is a prefix learner")
        learner = reductions.prefix_from_cot(learner, vc)
    oracle = Oracle(vc, args.target)
    sequence = _load_sequence(args.sequence, vc, learner.mode)
    transcript = learners.run_online(learner, oracle, sequence)
    report = {
        "learner": args.learner,
        "target": args.target,
        "transcript": transcript_json(transcript),
    }
    emit(report, args.out)
    return EXIT_OK


def _require_family(vc, build, adversary: str, family: str) -> None:
    """The prop31 and prop32 adversaries play on their own family; require
    the class file to be that family, up to the order of its verifiers."""
    try:
        ref = build()
    except CapExceeded as e:
        raise ClassMismatch(
            f"the {adversary} adversary plays on {family}, "
            f"which these parameters cannot build: {e}") from None
    same = (
        (vc.L, vc.fail_token, vc.universe) == (ref.L, ref.fail_token, ref.universe)
        and sorted(vc.row_bits()) == sorted(ref.row_bits())
    )
    if not same:
        raise ClassMismatch(
            f"the {adversary} adversary plays on {family}; "
            "the class file is a different class")


def cmd_duel(args) -> int:
    if args.adversary == "tree" and args.learner not in (
            "sc-soa", "wsc-soa", "scl-soa"):
        raise CotVerifyError(
            "the tree adversary only plays sc-soa, wsc-soa or scl-soa, "
            f"not {args.learner}"
        )
    vc = families.load_class(args.class_file)
    learner = _make_learner(args.learner, vc, args)
    if args.adversary != "tree" and learner.mode != "cot":
        raise CotVerifyError(
            f"the {args.adversary} adversary plays full traces; "
            f"{args.learner} is a prefix learner"
        )
    vs = VersionSpace.full(vc)
    verdict = "bound-met"
    if args.adversary == "tree":
        kind, value, game = {
            "sc-soa": ("SC", dimensions.sc_value, {"k": args.k}),
            "wsc-soa": ("WSC", dimensions.wsc_value, {"costs": learner.costs}),
            "scl-soa": ("SCL", dimensions.scl_value, {"costs": learner.costs}),
        }[args.learner]
        tree = dimensions.extract_witness(vs, kind, **game)
        bound = value(vs, **game)
        transcript = adversary.play_tree_adversary(tree, learner)
        # The SC dimension counts mistakes; WSC's and SCL's are costs.
        achieved = (Fraction(transcript.total_mistakes) if kind == "SC"
                    else transcript.total_cost)
        if achieved == bound:
            verdict = "tight"
        elif achieved > bound:
            verdict = "bound-violated"
    elif args.adversary == "prop31":
        _require_family(
            vc, lambda: families.singleton_bitstring_class(vc.L), "prop31",
            f"the singleton class (--family singleton --L {vc.L})")
        transcript = adversary.prop31_adversary(vc.L, learner)
        bound = Fraction(vc.L // 2)
        achieved = Fraction(transcript.total_mistakes)
        if achieved < bound:
            verdict = "bound-violated"
    else:
        n = len(vc)
        _require_family(
            vc, lambda: families.complement_class(n, vc.L), "prop32",
            f"the complement class (--family complement --n {n} --L {vc.L})")
        transcript = adversary.prop32_adversary(n, learner, vc.L)
        bound = Fraction(n - 1)
        achieved = Fraction(transcript.completeness_mistakes)
        if achieved < bound:
            verdict = "bound-violated"
    report = {
        "adversary": args.adversary,
        "learner": args.learner,
        "bound": frac_str(bound),
        "achieved": frac_str(achieved),
        "verdict": verdict,
        "transcript": transcript_json(transcript),
    }
    emit(report, args.out)
    return EXIT_VIOLATION if verdict == "bound-violated" else EXIT_OK


# Scenario numbers: integers are JSON integers (not bools), integer keys
# of JSON objects their canonical decimal text, and rationals a JSON
# integer or a string in rational_text's grammar.
_INT_TEXT = re.compile(r"0|-?[1-9][0-9]*")


def _load_scenario(path: str):
    """Read a boosting scenario file strictly: a missing field or a value
    of the wrong type raises CotVerifyError; nothing is coerced."""

    def fail(what: str) -> CotVerifyError:
        return CotVerifyError(f"{path}: {what}")

    def integer(value, what: str) -> int:
        if type(value) is not int:
            raise fail(f"{what} must be an integer")
        return value

    def integer_key(key: str, what: str) -> int:
        if not _INT_TEXT.fullmatch(key):
            raise fail(f"{what} must be an integer, got {key!r}")
        return int(key)

    def rational(value, what: str) -> Fraction:
        if type(value) is int:
            return Fraction(value)
        if type(value) is str:
            try:
                return rational_text(value)
            except ValueError:
                pass
        raise fail(f'{what} must be an integer or a rational string like "1/2"')

    with open(path) as f:
        doc = json.load(f)
    if type(doc) is not dict:
        raise fail("a scenario file holds one JSON object")
    for key in ("class", "target", "alpha", "provers", "D", "epsilon",
                "epsilon_prime", "delta"):
        if key not in doc:
            raise fail(f"missing field {key!r}")
    if type(doc["class"]) is not str:
        raise fail("class must be a file name")
    vc = families.load_class(doc["class"])
    target = integer(doc["target"], "target")
    k = integer(doc.get("k", 0), "k")
    if k < 0:
        raise fail(f"k must be >= 0, got {k}")
    if type(doc["D"]) is not dict:
        raise fail("D must be an object")
    problems, tokens = range(len(vc.problems)), range(len(vc.sigma))

    def member(value: int, ids: range, what: str) -> int:
        if value not in ids:
            raise fail(f"{what} {value} is outside the class's 0..{len(ids) - 1}")
        return value

    D = {member(integer_key(p, "a D problem"), problems, "D problem"):
         rational(w, "a D weight") for p, w in doc["D"].items()}
    if any(w < 0 for w in D.values()):
        raise fail("D weights must be nonnegative")
    if sum(D.values()) != 1:
        raise CotVerifyError("problem distribution does not sum to 1")
    if type(doc["provers"]) is not list:
        raise fail("provers must be a list")
    provers = []
    for pd in doc["provers"]:
        if not (type(pd) is dict and type(pd.get("table")) is list
                and type(pd.get("name", "")) is str):
            raise fail('a prover must be an object {"name": "...", "table": [...]}')
        table = {}
        for row in pd["table"]:
            if not (type(row) is list and len(row) == 3
                    and type(row[1]) is list and type(row[2]) is dict):
                raise fail("a prover table row must be "
                           "[problem, [step, ...], {token: weight}]")
            p, steps, dist = row
            key = (member(integer(p, "a prover-table problem"), problems,
                          "prover-table problem"),
                   tuple(member(integer(s, "a prover-table step"), tokens,
                                "prover-table step") for s in steps))
            if key in table:
                raise fail(f"repeated prover-table row for {row[:2]}")
            table[key] = {member(integer_key(tok, "a prover-table token"),
                                 tokens, "prover-table token"):
                          rational(w, "a prover-table weight")
                          for tok, w in dist.items()}
        provers.append(boosting.Prover(table, pd.get("name", "")))
    prover_set = boosting.ProverSet(tuple(provers),
                                    rational(doc["alpha"], "alpha"))
    params = boosting.BoostParams(
        *(rational(doc[key], key) for key in ("epsilon", "epsilon_prime", "delta")),
        integer(doc.get("s2_constant", 32), "s2_constant"),
    )
    return vc, prover_set, D, params, target, k


def within_3se(rate: Fraction, bound: Fraction, n: int) -> bool:
    """rate <= bound + 3 sqrt(bound (1 - bound) / n), decided exactly: a
    rate at or below the bound is within it, even a bound above 1, which
    has no standard error."""
    excess = rate - bound
    return excess <= 0 or n * excess**2 <= 9 * bound * (1 - bound)


def cmd_boost(args) -> int:
    vc, prover_set, D, params, target, k = _load_scenario(args.scenario)
    oracle = Oracle(vc, target)
    good = boosting.alpha_goodness(prover_set, oracle)
    gamma = boosting.gamma_of(good, D)
    if args.verify_alpha:
        emit(
            {
                "good_problems": sorted(good),
                "gamma": frac_str(gamma),
                "alpha": frac_str(prover_set.alpha),
            },
            args.out,
        )
        return EXIT_OK
    if args.trials < 1:
        raise CotVerifyError(f"--trials must be at least 1, got {args.trials}")
    vs = VersionSpace.full(vc)
    m_s, m_c = k, dimensions.sc_value(vs, k)
    learner = learners.ScSoa(vc, k)
    rng = random.Random(f"{args.seed}:build")
    vhp = boosting.build_vhp(
        prover_set, D, params, learner, oracle, (m_s, m_c), rng
    )
    eval_rng = random.Random(f"{args.seed}:eval")
    rates = boosting.evaluate_vhp(vhp, D, args.trials, oracle, eval_rng)
    eps_s, eps_c = boosting.derived_epsilons(params, m_s, m_c)
    abstain_bound = (1 - gamma) + eps_c + eps_s + params.epsilon_prime
    report = {
        "seed": args.seed,
        "gamma": frac_str(gamma),
        "mistake_bounds": {"M_s": m_s, "M_c": m_c},
        "build": vhp.report,
        "rates": {name: frac_str(v) for name, v in rates.items()},
        "abstain_bound": frac_str(abstain_bound),
        "bounds_hold": {
            "incorrect_zero": rates["incorrect_proof"] == 0,
            "abstain_within_3se": within_3se(
                rates["abstain"], abstain_bound, args.trials),
        },
    }
    emit(report, args.out)
    if m_s == 0 and rates["incorrect_proof"] != 0:
        return EXIT_VIOLATION
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cotverify",
        description="Online chain-of-thought verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="generate a verifier class file")
    p.add_argument("--family", required=True,
                   choices=["singleton", "complement", "indicator",
                            "conjunction", "river"])
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--revealed", type=int, default=16,
                   help="revealed edge count for the river family")
    p.add_argument("--fail-token", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("dim", help="compute an exact dimension")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--kind", required=True,
                   choices=["ldim", "sc", "wsc", "scl"])
    p.add_argument("--k", type=int, default=0)
    _add_cost_flags(p)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dim)

    learner_names = ["majority", "sound-conservative", "river", "sc-soa",
                     "wsc-soa", "scl-soa", "reject-all"]

    p = sub.add_parser("run", help="run a learner over a sequence file")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--learner", required=True, choices=learner_names)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--sequence", required=True,
                   help="JSON list of [problem, [steps...]]")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--revealed", type=int, default=16)
    _add_cost_flags(p)
    p.add_argument("--via-prefix", action="store_true",
                   help="wrap a prefix learner as a fault locator")
    p.add_argument("--via-cot", action="store_true",
                   help="wrap a fault locator as a prefix learner")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("duel", help="adversary vs learner with verdict")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--learner", required=True, choices=learner_names)
    p.add_argument("--adversary", required=True,
                   choices=["tree", "prop31", "prop32"])
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--revealed", type=int, default=16)
    _add_cost_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_duel)

    p = sub.add_parser("boost", help="prover-boosting pipeline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--verify-alpha", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_boost)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CotVerifyError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:
        print("error: search too deep: the game tree exceeds Python's "
              f"recursion limit ({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
