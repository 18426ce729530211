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
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from . import adversary, boosting, dimensions, families, learners, reductions
from .core import (
    ALL_CORRECT,
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
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}")


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


def tree_json(node) -> Optional[dict]:
    if node is None:
        return None
    return {
        "instance": instance_json(node.instance),
        "edges": [
            {
                "label": label_json(e.label),
                "kind": e.kind,
                "weight": frac_str(e.weight),
                "child": tree_json(e.child),
            }
            for e in node.edges
        ],
    }


def tree_dot(tree) -> str:
    lines = ["digraph mistake_tree {"]
    counter = [0]

    def walk(node) -> int:
        idx = counter[0]
        counter[0] += 1
        if node is None:
            lines.append(f'  n{idx} [shape=point, label=""];')
            return idx
        name = f"{node.instance.problem}:{''.join(map(str, node.instance.steps))}"
        lines.append(f'  n{idx} [label="{name}"];')
        for e in node.edges:
            child = walk(e.child)
            style = "dashed" if e.kind == "c" else "solid"
            lines.append(
                f'  n{idx} -> n{child} '
                f'[label="{label_json(e.label)} ({frac_str(e.weight)})", '
                f'style={style}];'
            )
        return idx

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines)


def emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _costs(args) -> CostVector:
    return CostVector(args.gamma_s, args.gamma_c, args.gamma_l)


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-s", type=parse_frac, default=Fraction(1))
    p.add_argument("--gamma-c", type=parse_frac, default=Fraction(1))
    p.add_argument("--gamma-l", type=parse_frac, default=Fraction(0))


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
        revealed = families.river_edges()[: args.revealed]
        vc = families.river_crossing_class(revealed, args.L)
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
    if args.kind == "ldim":
        res = dimensions.ldim(vs, witness=args.witness)
    elif args.kind == "sc":
        res = dimensions.sc_ldim(vs, args.k, witness=args.witness)
    elif args.kind == "wsc":
        res = dimensions.wsc_ldim(vs, costs, witness=args.witness)
    else:
        res = dimensions.scl_ldim(vs, costs, witness=args.witness)
    report = {
        "kind": args.kind,
        "value": frac_str(res.value),
        "stats": res.stats,
    }
    if res.witness is not None:
        report["witness"] = tree_json(res.witness.root)
        report["witness_dot"] = tree_dot(res.witness)
        report["witness_verified"] = dimensions.verify_shattered(res.witness, vs)
    emit(report, args.out)
    return EXIT_OK


def _make_learner(name: str, vc, args):
    costs = _costs(args)
    if name == "majority":
        return learners.MajorityVote(vc)
    if name == "sound-conservative":
        return learners.SoundConservative(vc)
    if name == "reject-all":
        return learners.RejectAll(vc)
    if name == "river":
        return learners.RiverCrossingSound(
            vc, families.river_edges()[: args.revealed]
        )
    if name == "sc-soa":
        return learners.ScSoa(vc, args.k)
    if name == "wsc-soa":
        return learners.WscSoa(vc, costs)
    if name == "scl-soa":
        if costs.gamma_l == 0 and costs.gamma_c == costs.gamma_s == 1:
            costs = CostVector(Fraction(1), Fraction(1), Fraction(1))
        return learners.SclSoa(vc, costs)
    raise CotVerifyError(f"unknown learner: {name}")


def _load_sequence(path: str, mode: str):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise CotVerifyError("sequence file must hold a JSON list")
    cls = CotInstance if mode == "cot" else PrefixInstance
    out = []
    for entry in doc:
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) is int and isinstance(entry[1], list)
                and all(type(s) is int for s in entry[1])):
            raise CotVerifyError(
                f"sequence entry must be [problem, [steps...]] of integers, "
                f"got {json.dumps(entry)}"
            )
        out.append(cls(entry[0], tuple(entry[1])))
    return out


def cmd_run(args) -> int:
    vc = families.load_class(args.class_file)
    if not 0 <= args.target < len(vc):
        raise CotVerifyError(
            f"--target must be in 0..{len(vc) - 1}, got {args.target}"
        )
    learner = _make_learner(args.learner, vc, args)
    if args.via_prefix:
        learner = reductions.cot_from_prefix(learner)
    elif args.via_cot:
        learner = reductions.prefix_from_cot(learner, vc)
    oracle = Oracle(vc, args.target)
    sequence = _load_sequence(args.sequence, learner.mode)
    transcript = learners.run_online(learner, oracle, sequence)
    report = {
        "learner": args.learner,
        "target": args.target,
        "transcript": transcript_json(transcript),
    }
    emit(report, args.out)
    return EXIT_OK


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
    costs = _costs(args)
    verdict = "bound-met"
    if args.adversary == "tree":
        if args.learner == "sc-soa":
            tree = dimensions.extract_witness(vs, "SC", k=args.k)
            bound = Fraction(dimensions.sc_value(vs, args.k))
            transcript = adversary.play_tree_adversary(tree, learner)
            achieved = Fraction(transcript.total_mistakes)
        elif args.learner == "wsc-soa":
            tree = dimensions.extract_witness(vs, "WSC", costs=costs)
            bound = dimensions.wsc_value(vs, costs)
            transcript = adversary.play_tree_adversary(tree, learner)
            achieved = transcript.total_cost
        else:
            tree = dimensions.extract_witness(vs, "SCL", costs=learner.costs)
            bound = dimensions.scl_value(vs, learner.costs)
            transcript = adversary.play_tree_adversary(tree, learner)
            achieved = transcript.total_cost
        if achieved == bound:
            verdict = "tight"
        elif achieved > bound:
            verdict = "bound-violated"
    elif args.adversary == "prop31":
        transcript = adversary.prop31_adversary(vc.L, learner)
        bound = Fraction(vc.L // 2)
        achieved = Fraction(transcript.total_mistakes)
        if achieved < bound:
            verdict = "bound-violated"
    else:
        n = len(vc)
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


def _load_scenario(path: str):
    with open(path) as f:
        doc = json.load(f)
    vc = families.load_class(doc["class"])
    provers = []
    for pd in doc["provers"]:
        table = {
            (int(p), tuple(int(s) for s in steps)): {
                int(tok): Fraction(w) for tok, w in dist.items()
            }
            for p, steps, dist in pd["table"]
        }
        provers.append(boosting.Prover(table, pd.get("name", "")))
    prover_set = boosting.ProverSet(
        tuple(provers), Fraction(doc["alpha"])
    )
    D = {int(p): Fraction(w) for p, w in doc["D"].items()}
    if sum(D.values()) != 1:
        raise CotVerifyError("problem distribution does not sum to 1")
    params = boosting.BoostParams(
        Fraction(doc["epsilon"]),
        Fraction(doc["epsilon_prime"]),
        Fraction(doc["delta"]),
        int(doc.get("s2_constant", 32)),
    )
    return vc, prover_set, D, params, int(doc["target"]), int(doc.get("k", 0))


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
    se = math.sqrt(float(abstain_bound) * (1 - float(abstain_bound)) / args.trials)
    report = {
        "seed": args.seed,
        "gamma": frac_str(gamma),
        "mistake_bounds": {"M_s": m_s, "M_c": m_c},
        "build": vhp.report,
        "rates": {name: frac_str(v) for name, v in rates.items()},
        "abstain_bound": frac_str(abstain_bound),
        "bounds_hold": {
            "incorrect_zero": rates["incorrect_proof"] == 0,
            "abstain_within_3se": float(rates["abstain"])
            <= float(abstain_bound) + 3 * se,
        },
    }
    emit(report, args.out)
    if m_s == 0 and rates["incorrect_proof"] != 0:
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
