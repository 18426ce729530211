"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/tests -q

They run every workload for one short round with all checks on, compare
the smallest dim queries with the brute-force oracles of tests/brute.py,
and feed each output check a corrupted result to show it is not vacuous.
"""

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
sys.path.append(str(ROOT / "tests"))

import brute  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _per_layer_names():
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"] for m in json.load(f)["per_layer"]}


def _end_to_end_names():
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"] for m in json.load(f)["end_to_end"]}


# -- short mode ------------------------------------------------------------


@pytest.mark.parametrize("name", ["dim", "online", "boost"])
def test_one_round_untraced(name, tmp_path):
    result = run.run_workload(name, 3, 0.0, None, str(tmp_path))
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _end_to_end_names()
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["dim", "online", "boost"])
def test_one_round_traced(name, tmp_path):
    trace_path = tmp_path / "trace.json"
    result = run.run_workload(name, 3, 0.0, trace_path, str(tmp_path))
    assert result["correct"]
    assert set(result["metrics"]) == _per_layer_names()
    with open(trace_path) as f:
        trace = json.load(f)
    names = trace["names"]
    layers = {names[s[1]].split(".")[0] for s in trace["spans"]}
    expected = {"dim": {"cli", "families", "kernels", "dimensions"},
                "online": {"learners", "reductions", "adversary", "core"},
                "boost": {"boosting", "learners"}}[name]
    assert expected <= layers
    # Every span's parent is an earlier-opened span of the same op.
    ids = {s[0]: s for s in trace["spans"]}
    for span in trace["spans"]:
        if span[4] != -1 and span[4] in ids:
            parent = ids[span[4]]
            assert parent[5] == span[5]
            assert parent[2] <= span[2] and span[3] <= parent[3]


def test_tracer_restores_the_program():
    import cotverify
    from cotverify import dimensions
    from cotverify.core import VersionSpace

    before = (dimensions.sc_value, VersionSpace.restrict)
    tracer = tracing.Tracer()
    tracer.install(cotverify)
    assert dimensions.sc_value is not before[0]
    tracer.uninstall()
    assert (dimensions.sc_value, VersionSpace.restrict) == before


def test_s2_wasted_counts_tests_after_the_cap():
    params = workloads.scenario.build_params()
    # Cap for completeness errors: 3/4 * 1/5 * 3/3 * n2 = 1.5 with n2 = 10.
    tests = [("a", "completeness-mistake")] * 4 + [("a", "correct")] * 6
    tests += [("b", "correct")] * 10
    assert tracing.s2_wasted(tests, params, (0, 3), 10) == 8


# -- dim values against the brute-force oracles -------------------------------

SMALL = {"singleton5", "failtoken4"}


def test_small_dim_values_match_brute_force(tmp_path):
    dim = workloads.Dim(str(tmp_path), 5)
    dim.setup()
    seen = 0
    for (name, kind, k, gammas), (label, op, check) in zip(
            workloads.DIM_SUITE, [dim._op(*e) for e in workloads.DIM_SUITE]):
        if name not in SMALL:
            continue
        with open(op()) as f:
            value = Fraction(json.load(f)["value"])
        assert check(op()) == []
        vclass = workloads.DIM_CLASSES[name][0]()
        if kind == "ldim":
            expected = brute.bf_ldim(vclass)
        elif kind == "sc":
            expected = brute.bf_sc_ldim(vclass, k)
        elif kind == "wsc":
            expected = brute.bf_wsc_ldim(vclass, gammas[0], gammas[1])
        else:
            expected = brute.bf_scl_ldim(vclass, *gammas)
        assert value == expected, (name, kind)
        seen += 1
    assert seen == 6


# -- each check rejects a corrupted output ------------------------------------


@pytest.fixture(scope="module")
def dim_reports(tmp_path_factory):
    """Real reports for a few suite entries: (entry, report, tables)."""
    workdir = tmp_path_factory.mktemp("dim")
    dim = workloads.Dim(str(workdir), 7)
    dim.setup()
    out = {}
    for entry in [("singleton5", "ldim", 0, None), ("singleton5", "sc", 2, None),
                  ("singleton5", "wsc", 0, (3, 1, 0)),
                  ("failtoken4", "scl", 0, (3, 2, 1)),
                  ("complement16", "sc", 0, None)]:
        label, op, check = dim._op(*entry)
        with open(op()) as f:
            out[entry[:2]] = (entry, json.load(f), dim.tables[entry[0]])
    return out


def _check(entry, report, tables):
    name, kind, k, gammas = entry
    costs = tuple(Fraction(g) for g in gammas) if gammas else None
    return checks.witness_problems(report["witness"], tables, kind,
                                   Fraction(report["value"]), k, costs)


def _nodes(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not None:
            yield node
            stack.extend(e["child"] for e in node["edges"])


@pytest.mark.parametrize("key", [("singleton5", "ldim"), ("singleton5", "sc"),
                                 ("singleton5", "wsc"), ("failtoken4", "scl"),
                                 ("complement16", "sc")])
def test_witness_check_passes_real_reports(dim_reports, key):
    assert _check(*dim_reports[key]) == []


@pytest.mark.parametrize("key", [("singleton5", "ldim"), ("failtoken4", "scl"),
                                 ("complement16", "sc")])
def test_witness_check_rejects_a_wrong_value(dim_reports, key):
    entry, report, tables = dim_reports[key]
    report = dict(report, value=str(Fraction(report["value"]) + 1))
    assert _check(entry, report, tables)


@pytest.mark.parametrize("key", [("singleton5", "ldim"), ("singleton5", "wsc"),
                                 ("failtoken4", "scl")])
def test_witness_check_rejects_a_flipped_edge_label(dim_reports, key):
    entry, report, tables = dim_reports[key]
    for i, node in enumerate(_nodes(report["witness"])):
        bad = copy.deepcopy(report)
        target = list(_nodes(bad["witness"]))[i]
        edge = target["edges"][0]
        if isinstance(edge["label"], bool):
            edge["label"] = not edge["label"]
        elif edge["label"] == checks.ALL_CORRECT:
            edge["label"] = 1
        else:
            edge["label"] = checks.ALL_CORRECT if edge["kind"] == "l" else edge["label"] + 1
        assert _check(entry, bad, tables), f"node {i}"


def test_witness_check_rejects_a_swapped_instance(dim_reports):
    # Both edges stay well formed, but the node now splits on an instance
    # on which the alive verifiers agree, so one side has no verifier.
    entry, report, tables = dim_reports[("singleton5", "ldim")]
    bad = copy.deepcopy(report)
    root = bad["witness"]
    child = root["edges"][0]["child"]
    child["instance"] = root["instance"]
    assert _check(entry, bad, tables)


def test_witness_check_rejects_a_wrong_weight(dim_reports):
    entry, report, tables = dim_reports[("singleton5", "wsc")]
    bad = copy.deepcopy(report)
    bad["witness"]["edges"][0]["weight"] = "5/1"
    assert _check(entry, bad, tables)


def test_witness_check_applies_the_sc_budget(dim_reports):
    # At budget 0 the straight branch is unconstrained; read with budget 1
    # the same tree certifies only depth 1 there.
    entry, report, tables = dim_reports[("complement16", "sc")]
    assert _check(entry, report, tables) == []
    assert _check((entry[0], "sc", 1, None), report, tables)


def test_relation_checks_reject_wrong_values():
    good = {"n": 32, "singleton_L": 5, "ldim": 5, "sc": {2: 5}}
    assert checks.dim_relation_problems(good) == []
    assert checks.dim_relation_problems(dict(good, ldim=4, sc={}))
    assert checks.dim_relation_problems(dict(good, ldim=6, sc={}))
    assert checks.dim_relation_problems(dict(good, sc={2: 4}))
    assert checks.dim_relation_problems({"n": 16, "sc": {0: 1, 1: 2}})
    complement = {"n": 16, "complement_n": 16, "sc": {0: 15, 1: 1}}
    assert checks.dim_relation_problems(complement) == []
    assert checks.dim_relation_problems(dict(complement, sc={0: 14}))


def test_session_check_rejects_broken_transcripts():
    one = Fraction(1)
    rounds = [(False, True, "completeness", one), (True, True, "none", 0),
              (3, math.inf, "completeness", one)]
    truths = [True, True, math.inf]
    assert checks.session_problems(rounds, truths, {"max_sound": 0, "max_total": 2}) == []
    assert checks.session_problems(rounds, truths, {"max_total": 1})
    assert checks.session_problems(rounds, truths, {"max_cost": 1})
    assert checks.session_problems(rounds, truths, {"exact_cost": 3})
    assert checks.session_problems(rounds, [True, False, math.inf], {})
    sound = rounds + [(True, False, "soundness", one)]
    assert checks.session_problems(sound, truths + [False], {"max_sound": 0})
    hidden = [(True, False, "none", 0)]
    assert checks.session_problems(hidden, [False], {})


@pytest.fixture(scope="module")
def boost_op():
    boost = workloads.Boost("", 11)
    boost.setup()
    assert boost.problems == []
    (label, op, check), = boost.round(0)
    return boost, op(), check


def test_boost_check_passes_a_real_run(boost_op):
    boost, output, check = boost_op
    assert check(output) == []


def test_boost_check_rejects_a_wrong_proof(boost_op):
    boost, (report, rates, proofs, abstained, calls), check = boost_op
    assert proofs
    bad = [(0, 0, 1, 0)] + proofs[1:]
    assert check((report, rates, bad, abstained, calls))
    short = [(1, 0, 1)] + proofs[1:]
    assert check((report, rates, short, abstained, calls))


def test_boost_check_rejects_a_miscounted_oracle(boost_op):
    boost, (report, rates, proofs, abstained, calls), check = boost_op
    assert check((report, rates, proofs, abstained, calls + 1))


def test_boost_check_rejects_wrong_rates_and_sizes(boost_op):
    boost, (report, rates, proofs, abstained, calls), check = boost_op
    assert check((report, rates, proofs, abstained + 1, calls))
    assert check((dict(report, s1_size=138), rates, proofs, abstained, calls))


def test_boost_run_check_rejects_high_abstain_rates():
    boost = workloads.Boost("", 11)
    boost.setup()
    boost._abstain = [Fraction(1, 4)] * 8 + [Fraction(3, 4)] * 2
    assert boost.run_problems() == []
    boost._abstain = [Fraction(1, 4)] * 7 + [Fraction(3, 4)] * 3
    assert boost.run_problems()


def test_boost_setup_checks_the_scenario():
    boost = workloads.Boost("", 11)
    boost.setup()
    assert boost.sizes == (139, 1300)
    assert checks.s1_size(0, 3, Fraction(1, 5), Fraction(1, 5)) == 139
    assert checks.s2_size(0, 3, Fraction(1, 5), Fraction(1, 5)) == 1300
