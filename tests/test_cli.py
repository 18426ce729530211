"""CLI subcommands: reports, exit codes, and byte-level determinism."""

import copy
import dataclasses
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
import scenario
from cotverify import cli, dimensions, families, kernels
from cotverify.core import (
    PrefixInstance, Problem, StepToken, VerifierClass, cot_instances)


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def class_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("classes")
    paths = {}
    for name, args in {
        "indicator4": ["--family", "indicator", "--n", "4"],
        "singleton3": ["--family", "singleton", "--L", "3"],
        "complement4": ["--family", "complement", "--n", "4", "--L", "2"],
        "conjunction3": ["--family", "conjunction", "--L", "3"],
    }.items():
        out = str(d / f"{name}.json")
        assert run_cli("families", *args, "--out", out) == 0
        paths[name] = out
    return paths


def test_families_report(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert run_cli("families", "--family", "indicator", "--n", "3",
                   "--out", out) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verifiers"] == 3
    vc = families.load_class(out)
    assert len(vc) == 3


def test_dim_with_witness(class_files, tmp_path):
    out = str(tmp_path / "dim.json")
    assert run_cli("dim", "--class", class_files["indicator4"],
                   "--kind", "sc", "--k", "0", "--witness",
                   "--out", out) == 0
    report = json.loads(open(out).read())
    assert report["value"] == "3/1"
    assert report["witness_verified"] is True
    assert report["witness_dot"].startswith("digraph")


def test_dim_witness_must_certify_the_value(class_files, capsys, monkeypatch):
    """A witness that is shattered but whose shortest path falls short of
    the value is not verified."""
    extract = dimensions._extract_sc

    def cut(vs, k):
        tree = extract(vs, k)
        z, edges = tree.nodes[0]
        return dataclasses.replace(tree, nodes=[
            (z, tuple((label, kind, w, None) for label, kind, w, _ in edges))])

    monkeypatch.setattr(dimensions, "_extract_sc", cut)
    assert run_cli("dim", "--class", class_files["indicator4"],
                   "--kind", "sc", "--k", "0", "--witness") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == "3/1"
    assert report["witness_verified"] is False


@pytest.mark.parametrize("kind,game,extra", [
    ("ldim", "plain", []),
    ("sc", "sc", ["--k", "1"]),
    ("wsc", "wsc", ["--gamma-s", "3"]),
    ("scl", "scl", ["--gamma-s", "3", "--gamma-c", "2", "--gamma-l", "1"]),
])
def test_dim_runs_each_traced_route_once(tmp_path, capsys, monkeypatch, kind,
                                         game, extra):
    """The benchmark's tracer times a `dim` op through the game's query,
    value helper, witness extractor and engine factory.  A `dim --witness`
    on a fresh class must call each exactly once, or the benchmark's value
    and witness metrics miscount without any test failing."""
    path = str(tmp_path / "class.json")
    assert run_cli("families", "--family", "singleton", "--L", "3",
                   "--out", path) == 0
    capsys.readouterr()
    routes = [(dimensions, "ldim" if kind == "ldim" else f"{kind}_ldim"),
              (dimensions, f"{kind}_value"), (dimensions, f"_extract_{game}"),
              (kernels, f"{kind}_engine")]
    calls = dict.fromkeys((name for _, name in routes), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in routes:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert run_cli("dim", "--class", path, "--kind", kind, *extra,
                   "--witness") == 0
    assert json.loads(capsys.readouterr().out)["witness_verified"] is True
    assert calls == dict.fromkeys(calls, 1)


def test_dim_kinds(class_files, capsys):
    for kind, extra, expect in [
        ("ldim", [], "2/1"),
        ("wsc", ["--gamma-s", "1", "--gamma-c", "1"], "2/1"),
        ("scl", ["--gamma-s", "1", "--gamma-c", "1", "--gamma-l", "1"],
         "1/1"),
    ]:
        assert run_cli("dim", "--class", class_files["indicator4"],
                       "--kind", kind, *extra) == 0
        assert json.loads(capsys.readouterr().out)["value"] == expect


@pytest.mark.parametrize("text", ["1e4000", "1e100000", "1.5e3", "inf",
                                  "nan", "0x10", " 1", "1/0", "1" * 5000])
def test_cost_flags_refuse_text_outside_the_rational_grammar(class_files,
                                                             capsys, text):
    # The scenario loader's grammar: no exponent, so a short flag cannot
    # name a number too large to print; refused before any search runs.
    assert run_cli("dim", "--class", class_files["indicator4"], "--kind",
                   "wsc", "--gamma-s", text) == cli.EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"cotverify dim: error: argument --gamma-s: not a rational: {text!r}"]


def test_cost_flags_take_integers_ratios_and_decimals(class_files, capsys):
    # At equal costs gamma the weighted dimension of indicator4 is 2 gamma.
    for text, gamma in [("3", 3), ("3/2", Fraction(3, 2)),
                        ("1.50", Fraction(3, 2)), ("007", 7)]:
        assert cli.rational_text(text) == gamma
        assert run_cli("dim", "--class", class_files["indicator4"], "--kind",
                       "wsc", "--gamma-s", text, "--gamma-c", text) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == cli.frac_str(2 * gamma)


def test_run_subcommand(class_files, tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([[0, [0, 0, 0, 0]], [0, [0, 1, 0, 0]]]))
    assert run_cli("run", "--class", class_files["indicator4"],
                   "--learner", "sound-conservative", "--target", "1",
                   "--sequence", str(seq)) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["transcript"]["rounds"]) == 2
    assert report["transcript"]["soundness_mistakes"] == 0


def test_run_via_cot_requires_fail_token(class_files, tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([[0, [0]]]))
    assert run_cli("run", "--class", class_files["conjunction3"],
                   "--learner", "sound-conservative", "--target", "0",
                   "--sequence", str(seq), "--via-cot") == cli.EXIT_INVALID


def test_duel_tree_tight(class_files, capsys):
    assert run_cli("duel", "--class", class_files["indicator4"],
                   "--learner", "sc-soa", "--adversary", "tree",
                   "--k", "1") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "tight"
    assert report["achieved"] == report["bound"]


def test_cost_flags_price_every_learner(class_files, tmp_path, capsys):
    singleton3 = class_files["singleton3"]
    vc = families.load_class(singleton3)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([[z.problem, list(z.steps)] for z in vc.universe
                               if len(z.steps) == vc.L]))

    def run(*argv):
        assert run_cli(*argv) == 0
        return json.loads(capsys.readouterr().out)

    def total_cost(learner, target, *costs):
        report = run("run", "--class", singleton3, "--learner", learner,
                     "--target", str(target), "--sequence", str(seq), *costs)
        return report["transcript"]["total_cost"]

    # One completeness mistake, then one completeness and one location
    # mistake.
    assert total_cost("majority", 5) == "1/1"
    assert total_cost("majority", 5, "--gamma-s", "5", "--gamma-c", "7") == "7/1"
    assert total_cost("reject-all", 2, "--gamma-s", "5", "--gamma-c", "7",
                      "--gamma-l", "1/2") == "15/2"
    # The SC bound counts mistakes, whatever they cost: on complement4
    # sc-soa's one mistake is a soundness mistake priced at 3.
    for path, achieved, cost in ((singleton3, "3/1", "3/1"),
                                 (class_files["complement4"], "1/1", "3/1")):
        report = run("duel", "--class", path, "--learner", "sc-soa",
                     "--adversary", "tree", "--k", "1", "--gamma-s", "3")
        assert (report["verdict"], report["achieved"]) == ("tight", achieved)
        assert report["transcript"]["total_cost"] == cost


def test_duel_scl_soa_keeps_an_explicit_zero_gamma_l(class_files, capsys):
    """scl-soa's default gamma_l of 1 applies only when --gamma-l is absent:
    with an explicit 0, the tree duel's bound is the SCL dimension at 0."""
    path = class_files["singleton3"]
    assert run_cli("dim", "--class", path, "--kind", "scl", "--gamma-l", "0") == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert run_cli("duel", "--class", path, "--learner", "scl-soa",
                   "--adversary", "tree", "--gamma-l", "0") == 0
    assert json.loads(capsys.readouterr().out)["bound"] == value


@pytest.mark.parametrize("learner", ["sc-soa", "wsc-soa", "scl-soa"])
def test_duel_tree_on_a_zero_dimension_exits_2(tmp_path, capsys, learner):
    """A one-verifier class has dimension 0 in every game, so the tree
    adversary has no witness to play."""
    vc = VerifierClass.from_masks(
        [StepToken(0, "0"), StepToken(1, "1")], [Problem(0, "x")], 1,
        [(PrefixInstance(0, (t,)), 1) for t in (0, 1)], 1)
    path = str(tmp_path / "one.json")
    families.save_class(vc, path)
    assert run_cli("duel", "--class", path, "--learner", learner,
                   "--adversary", "tree") == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: dimension is 0\n"


def test_duel_prop31(class_files, capsys):
    assert run_cli("duel", "--class", class_files["singleton3"],
                   "--learner", "majority", "--adversary", "prop31") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "bound-met"


def test_duel_prop32(class_files, capsys):
    assert run_cli("duel", "--class", class_files["complement4"],
                   "--learner", "sound-conservative",
                   "--adversary", "prop32") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["achieved"] == "3/1"


def test_exit_code_on_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli("dim", "--class", missing,
                   "--kind", "ldim") == cli.EXIT_INVALID
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("dim", "--class", str(bad),
                   "--kind", "ldim") == cli.EXIT_INVALID
    assert run_cli("nonsense") == cli.EXIT_INVALID
    capsys.readouterr()


def test_boost_verify_alpha(tmp_path, capsys):
    path = scenario.write_scenario_files(tmp_path)
    assert run_cli("boost", "--scenario", path, "--verify-alpha") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gamma"] == "3/4"
    assert report["good_problems"] == list(range(12))


def test_boost_deterministic_reports(tmp_path):
    path = scenario.write_scenario_files(tmp_path)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    for out in (out1, out2):
        assert run_cli("boost", "--scenario", path, "--seed", "7",
                       "--trials", "100", "--out", out) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    report = json.loads(open(out1).read())
    assert report["bounds_hold"]["incorrect_zero"] is True


def test_boost_with_an_abstain_bound_above_one(tmp_path, capsys):
    """With alpha 1 no problem is verifiably good, so gamma is 0 and the
    abstain bound 1 - gamma + eps_c + eps_s + eps' exceeds 1: every
    abstain rate is within it."""
    doc = json.loads(open(scenario.write_scenario_files(tmp_path)).read())
    path = tmp_path / "alpha1.json"
    path.write_text(json.dumps(dict(doc, alpha="1")))
    assert run_cli("boost", "--scenario", str(path), "--verify-alpha") == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == "0/1"
    assert run_cli("boost", "--scenario", str(path), "--seed", "0",
                   "--trials", "100") == 0
    report = json.loads(capsys.readouterr().out)
    assert Fraction(report["abstain_bound"]) > 1
    assert report["bounds_hold"]["abstain_within_3se"] is True


def test_boost_rejects_fewer_than_one_trial(tmp_path, capsys):
    path = scenario.write_scenario_files(tmp_path)
    for trials in ("0", "-5"):
        assert run_cli("boost", "--scenario", path, "--trials",
                       trials) == cli.EXIT_INVALID
        assert "--trials must be at least 1" in _one_error_line(capsys)


def test_exact_3se_rule_agrees_with_the_float_rule():
    """cli.within_3se decides rate <= bound + 3 sqrt(bound (1 - bound) / n)
    exactly; on a grid of rates, bounds in [0, 1] and trial counts it
    agrees with the float formula wherever the two sides are not within
    1e-9 of each other."""
    compared = 0
    for n in (1, 2, 7, 50, 200):
        for k in range(n + 1):
            rate = Fraction(k, n)
            for j in range(41):
                bound = Fraction(j, 40)
                b = float(bound)
                limit = b + 3 * math.sqrt(b * (1 - b) / n)
                if abs(float(rate) - limit) < 1e-9:
                    continue
                compared += 1
                assert cli.within_3se(rate, bound, n) == (
                    float(rate) <= limit), (rate, bound, n)
    assert compared > 10000
    assert cli.within_3se(Fraction(1), Fraction(21, 20), 200)
    assert cli.within_3se(Fraction(1, 2), Fraction(1, 4), 3)
    assert not cli.within_3se(Fraction(1, 2), Fraction(1, 4), 200)


def test_boost_rejects_scenario_target_out_of_range(tmp_path, capsys):
    doc = json.loads(open(scenario.write_scenario_files(tmp_path)).read())
    for target in (-1, 8, 99):
        path = tmp_path / "bad_target.json"
        path.write_text(json.dumps(dict(doc, target=target)))
        assert run_cli("boost", "--scenario", str(path),
                       "--verify-alpha") == cli.EXIT_INVALID
        assert "0..7" in _one_error_line(capsys)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_run_rejects_target_out_of_range(class_files, tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([[0, [0, 0, 0, 0]]]))
    for target in ("-1", "4", "99"):
        assert run_cli("run", "--class", class_files["indicator4"],
                       "--learner", "majority", "--target", target,
                       "--sequence", str(seq)) == cli.EXIT_INVALID
        assert "0..3" in _one_error_line(capsys)


def test_run_rejects_malformed_sequence(class_files, tmp_path, capsys):
    for doc in ([[0, 5]], [[0]], [[0, [0, "x"]]], {"0": [0]}, [[True, [0]]],
                [[0, [0, 1]]]):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        assert run_cli("run", "--class", class_files["indicator4"],
                       "--learner", "majority", "--target", "0",
                       "--sequence", str(seq)) == cli.EXIT_INVALID
        _one_error_line(capsys)


_COT_LEARNERS = ("majority", "sound-conservative", "river", "scl-soa",
                 "reject-all")
_PREFIX_LEARNERS = ("sc-soa", "wsc-soa")


@pytest.fixture(scope="module")
def fail_token_files(tmp_path_factory):
    """Singleton L=3 with a fail token, and river L=4 without one and with
    one, each with two sequence files for target 0: its fail-token-free
    traces, and their prefixes up to the first step the target rejects, as
    in a proof attempt (the fail-token reduction is only sound on
    those)."""
    d = tmp_path_factory.mktemp("fail_token")
    files = {}
    river = families.river_crossing_class(families.river_edges()[:16], 4)
    for name, vc in {
        "singleton": families.with_fail_token(
            families.singleton_bitstring_class(3)),
        "river": river,
        "river-fail-token": families.with_fail_token(river),
    }.items():
        traces = [z for z in cot_instances(vc) if vc.fail_token not in z.steps]
        prefixes = []
        for z in traces:
            for ell in range(1, vc.L + 1):
                prefixes.append(z.prefix(ell))
                if not reference.accepts(vc, 0, prefixes[-1]):
                    break
        paths = [str(d / f"{name}{suffix}.json")
                 for suffix in ("", "-traces", "-prefixes")]
        families.save_class(vc, paths[0])
        for path, seq in zip(paths[1:], (traces, prefixes)):
            with open(path, "w") as f:
                json.dump([[z.problem, list(z.steps)] for z in seq], f)
        files[name] = paths
    return files


@pytest.mark.parametrize("count", ["-1", "21"])
def test_revealed_count_outside_the_river_graph_is_refused(
        fail_token_files, class_files, tmp_path, capsys, count):
    """--revealed slices the river graph's 20 edges: a count outside 0..20
    used to slice silently (-1 revealed 19 edges, 21 all 20)."""
    refused = f"error: --revealed must be in 0..20, got {count}\n"
    out = tmp_path / "river.json"
    assert run_cli("families", "--family", "river", "--L", "4",
                   "--revealed", count, "--out", str(out)) == cli.EXIT_INVALID
    assert _one_error_line(capsys) == refused
    assert not out.exists()
    class_path, traces, _ = fail_token_files["river"]
    assert run_cli("run", "--class", class_path, "--learner", "river",
                   "--target", "0", "--sequence", traces,
                   "--revealed", count) == cli.EXIT_INVALID
    assert _one_error_line(capsys) == refused
    assert run_cli("duel", "--class", class_files["singleton3"], "--learner",
                   "river", "--adversary", "prop31",
                   "--revealed", count) == cli.EXIT_INVALID
    assert _one_error_line(capsys) == refused
    for edge_count in ("16", "20"):
        assert run_cli("families", "--family", "river", "--L", "4",
                       "--revealed", edge_count, "--out", str(out)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", [None, "--via-prefix", "--via-cot"])
@pytest.mark.parametrize("learner", _COT_LEARNERS + _PREFIX_LEARNERS)
def test_run_wrapper_flag_must_match_learner_mode(fail_token_files, tmp_path,
                                                  capsys, learner, flag):
    """--via-prefix wraps prefix learners and --via-cot chain-of-thought
    learners; a mismatch is refused before the sequence file is read."""
    class_path, traces, prefixes = fail_token_files[
        "river" if learner == "river" else "singleton"]
    flags = [flag] if flag else []
    if ((flag == "--via-prefix" and learner in _COT_LEARNERS)
            or (flag == "--via-cot" and learner in _PREFIX_LEARNERS)):
        missing = str(tmp_path / "never-read.json")
        assert run_cli("run", "--class", class_path, "--learner", learner,
                       "--target", "0", "--sequence", missing,
                       *flags) == cli.EXIT_INVALID
        assert flag in _one_error_line(capsys)
    elif learner == "river" and flag == "--via-cot":
        # The reduction pads with the class's fail token: refused on a
        # class without one, sound on a class with one.
        assert run_cli("run", "--class", class_path, "--learner", learner,
                       "--target", "0", "--sequence", prefixes,
                       *flags) == cli.EXIT_INVALID
        assert "fail token" in _one_error_line(capsys)
        class_path, _, prefixes = fail_token_files["river-fail-token"]
        assert run_cli("run", "--class", class_path, "--learner", learner,
                       "--target", "0", "--sequence", prefixes, *flags) == 0
        transcript = json.loads(capsys.readouterr().out)["transcript"]
        assert len(transcript["rounds"]) == len(json.loads(open(prefixes).read()))
        assert transcript["soundness_mistakes"] == 0
    else:
        prefix_mode = flag == "--via-cot" or (
            learner in _PREFIX_LEARNERS and flag is None)
        seq_path = prefixes if prefix_mode else traces
        assert run_cli("run", "--class", class_path, "--learner", learner,
                       "--target", "0", "--sequence", seq_path, *flags) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["transcript"]["rounds"]) == len(
            json.loads(open(seq_path).read()))


def test_run_via_cot_needs_correct_strict_prefixes(tmp_path, capsys):
    """The fail-token reduction assumes every strict prefix of a queried
    prefix is correct under the target.  On conjunction L=2 with a fail
    token, target 0 rejects (1,) but accepts (1, 0); the first eight
    universe prefixes, which hold both, end the run with one error line
    and exit 2, not a traceback."""
    path = str(tmp_path / "conjunction.json")
    assert run_cli("families", "--family", "conjunction", "--L", "2",
                   "--fail-token", "--out", path) == 0
    capsys.readouterr()
    vc = families.load_class(path)
    assert not reference.accepts(vc, 0, PrefixInstance(0, (1,)))
    assert reference.accepts(vc, 0, PrefixInstance(0, (1, 0)))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(
        [[z.problem, list(z.steps)] for z in vc.universe[:8]]))
    assert run_cli("run", "--class", path, "--learner", "sound-conservative",
                   "--target", "0", "--sequence", str(seq),
                   "--via-cot") == cli.EXIT_INVALID
    assert _one_error_line(capsys) == (
        "error: no verifier consistent with history\n")


def test_run_rejects_both_wrapper_flags(fail_token_files, capsys):
    class_path, _, seq_path = fail_token_files["singleton"]
    assert run_cli("run", "--class", class_path, "--learner", "sc-soa",
                   "--target", "0", "--sequence", seq_path, "--via-prefix",
                   "--via-cot") == cli.EXIT_INVALID
    _one_error_line(capsys)


_OUTSIDE_ENTRIES = {
    "empty": [0, []], "long": [0, [0, 1, 2, 3, 0]],
    "token-99": [0, [0, 99, 1, 0]], "token-minus-1": [0, [-1, 0, 1, 0]],
    "problem-1": [1, [0, 1, 2, 0]], "problem-minus-1": [-1, [0, 1, 2, 0]],
}


@pytest.mark.parametrize("learner", ["river", "majority", "sc-soa"])
@pytest.mark.parametrize("entry", list(_OUTSIDE_ENTRIES.values()),
                         ids=list(_OUTSIDE_ENTRIES))
def test_run_rejects_entries_outside_the_class(fail_token_files, tmp_path,
                                               capsys, learner, entry):
    """Entries must be traces (or, for prefix learners, prefixes) of the
    class's problems and tokens; the river learner used to index its
    states with them and fail with an IndexError."""
    class_path = fail_token_files["river" if learner == "river"
                                  else "singleton"][0]
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([entry]))
    assert run_cli("run", "--class", class_path, "--learner", learner,
                   "--target", "0", "--sequence", str(seq)) == cli.EXIT_INVALID
    _one_error_line(capsys)


def test_deep_witness_is_written_and_verified(tmp_path):
    """complement(500) at k = 0 has a witness 499 levels deep, deeper than
    a witness walk of two frames per tree level can go at the default
    recursion limit.  The report nests too deep for json.loads, so its
    fields are read from the text."""
    path, out = str(tmp_path / "complement.json"), tmp_path / "report.json"
    families.save_class(families.complement_class(500, 10), path)
    assert run_cli("dim", "--class", path, "--kind", "sc", "--k", "0",
                   "--witness", "--out", str(out)) == cli.EXIT_OK
    text = out.read_text()
    assert '\n  "value": "499/1",\n' in text
    assert '\n  "witness_verified": true\n' in text


def test_deep_search_fails_cleanly(tmp_path, capsys):
    # complement(n) at k=0 is a chain n - 1 levels deep; the recursive
    # kernel cannot go deeper than the interpreter's recursion limit, the
    # only depth bound left, since every witness walk keeps its own stack.
    # The limit is lowered here so that a small class reaches it.
    path = str(tmp_path / "complement.json")
    families.save_class(families.complement_class(300, 9), path)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code = run_cli("dim", "--class", path, "--kind", "sc", "--k", "0")
    finally:
        sys.setrecursionlimit(limit)
    assert code == cli.EXIT_INVALID
    assert "search too deep" in _one_error_line(capsys)


def test_duel_rejects_learner_the_adversary_cannot_play(class_files, capsys):
    for learner in ("majority", "sound-conservative", "reject-all", "river"):
        assert run_cli("duel", "--class", class_files["complement4"],
                       "--learner", learner,
                       "--adversary", "tree") == cli.EXIT_INVALID
        err = _one_error_line(capsys)
        assert all(name in err for name in ("sc-soa", "wsc-soa", "scl-soa"))
    for adversary in ("prop31", "prop32"):
        for learner in ("sc-soa", "wsc-soa"):
            assert run_cli("duel", "--class", class_files["singleton3"],
                           "--learner", learner,
                           "--adversary", adversary) == cli.EXIT_INVALID
            assert "prefix learner" in _one_error_line(capsys)


def test_duel_requires_the_adversary_family(tmp_path, capsys):
    paths = {}
    for name, args in {
        "indicator6": ["--family", "indicator", "--n", "6"],
        "complement12": ["--family", "complement", "--n", "12", "--L", "4"],
        "singleton4": ["--family", "singleton", "--L", "4"],
    }.items():
        paths[name] = str(tmp_path / f"{name}.json")
        assert run_cli("families", *args, "--out", paths[name]) == 0
    capsys.readouterr()
    for name in ("indicator6", "complement12"):
        assert run_cli("duel", "--class", paths[name], "--learner", "majority",
                       "--adversary", "prop31") == cli.EXIT_INVALID
        assert "--family singleton --L" in _one_error_line(capsys)
    for name in ("indicator6", "singleton4"):
        assert run_cli("duel", "--class", paths[name],
                       "--learner", "sound-conservative",
                       "--adversary", "prop32") == cli.EXIT_INVALID
        assert "--family complement --n" in _one_error_line(capsys)
    # The matching families still play, whatever the order of the verifiers.
    doc = json.loads(open(paths["singleton4"]).read())
    rows = [v["rows"] for v in doc["verifiers"]]
    doc["verifiers"] = [{"id": i, "rows": r} for i, r in enumerate(rows[::-1])]
    shuffled = tmp_path / "singleton4_reversed.json"
    shuffled.write_text(json.dumps(doc))
    for path in (paths["singleton4"], str(shuffled)):
        assert run_cli("duel", "--class", path, "--learner", "majority",
                       "--adversary", "prop31") == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "bound-met"
    assert run_cli("duel", "--class", paths["complement12"],
                   "--learner", "sound-conservative",
                   "--adversary", "prop32") == 0
    assert json.loads(capsys.readouterr().out)["achieved"] == "11/1"
    # Classes whose family cannot be built at all.
    for adversary, doc in (
        ("prop31", _class_doc(L=17)),
        ("prop32", _class_doc(verifiers=[{"id": i, "rows": [1, 1]}
                                         for i in range(3)])),
    ):
        path = tmp_path / "unbuildable.json"
        path.write_text(json.dumps(doc))
        assert run_cli("duel", "--class", str(path), "--learner", "majority",
                       "--adversary", adversary) == cli.EXIT_INVALID
        assert "cannot build" in _one_error_line(capsys)


def _class_doc(**changes):
    doc = {"sigma": ["0", "1"], "problems": ["p"], "L": 1,
           "universe": [[0, [0]], [0, [1]]],
           "verifiers": [{"id": 0, "rows": [1, 0]}, {"id": 1, "rows": [0, 1]}]}
    doc.update(changes)
    return doc


def _rows(*rows):
    return [{"id": i, "rows": list(row)} for i, row in enumerate(rows)]


@pytest.mark.parametrize("doc", [
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": 1, "rows": [0]}]),
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": 2, "rows": [0, 1]}]),
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": 0, "rows": [0, 1]}]),
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": True, "rows": [0, 1]}]),
    _class_doc(fail_token=1.0),
    _class_doc(fail_token=True),
    5,
    [_class_doc()],
    _class_doc(sigma=5),
    _class_doc(sigma=None),
    _class_doc(problems=5),
    _class_doc(problems=None),
    _class_doc(universe=5),
    _class_doc(verifiers=None),
    _class_doc(L=2.9),
    _class_doc(L=True),
    _class_doc(L="1"),
    _class_doc(universe=[[0, [0.5]], [0, [1]]]),
    _class_doc(universe=[[0, [0]], [0, [True]]]),
    _class_doc(universe=[["0", [0]], [0, [1]]]),
    _class_doc(universe=[[0, []], [0, [1]]]),
    _class_doc(universe=[[0, [0], 1], [0, [1]]]),
    _class_doc(universe=[[0, [0]], [0, [0]]]),
    _class_doc(universe=[], verifiers=_rows([], [])),
    _class_doc(verifiers=_rows([True, 0], [0, 1])),
    _class_doc(verifiers=_rows([1.0, 0], [0, 1])),
    _class_doc(verifiers=_rows([2, 0], [0, 1])),
    _class_doc(verifiers=[[1, 0], [0, 1]]),
], ids=["short-row", "id-gap", "id-repeat", "bool-id", "float-fail-token",
        "bool-fail-token", "top-level-number", "top-level-list",
        "number-sigma", "null-sigma", "number-problems", "null-problems",
        "number-universe", "null-verifiers", "float-L", "bool-L", "string-L",
        "float-step", "bool-step", "string-problem-id", "empty-steps",
        "triple-entry", "duplicate-instance", "empty-universe", "bool-row-entry",
        "float-row-entry", "row-entry-2", "verifier-not-object"])
def test_dim_rejects_malformed_class_file(tmp_path, capsys, doc):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(doc))
    assert run_cli("dim", "--class", str(path),
                   "--kind", "ldim") == cli.EXIT_INVALID
    _one_error_line(capsys)
    path.write_text(json.dumps(_class_doc()))
    assert run_cli("dim", "--class", str(path), "--kind", "ldim") == 0


def _json_paths(doc, prefix=()):
    """The path of every field and list entry in a JSON document."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _has(container, key) -> bool:
    if isinstance(container, dict):
        return key in container
    return (isinstance(container, list) and isinstance(key, int)
            and key < len(container))


_FUZZ_DOC = _class_doc(L=2, universe=[[0, [0]], [0, [0, 1]], [0, [1]]],
                       verifiers=_rows([1, 0, 1], [1, 1, 0], [0, 0, 1]),
                       fail_token=1)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)


# An edit is (path, None), which deletes the field at path, or
# (path, [value]), which sets it to value.
def _edits(doc):
    """One to three random edits of doc's fields and list entries."""
    return st.lists(
        st.tuples(st.sampled_from(list(_json_paths(doc))),
                  st.none() | _JSON_VALUES.map(lambda v: [v])),
        min_size=1, max_size=3)


def _edited(doc, edits):
    """A copy of doc with the edits applied in order; an edit whose path
    an earlier edit removed sets the field if its parent is an object,
    and is skipped otherwise."""
    doc = copy.deepcopy(doc)
    for path, replacement in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key] if _has(parent, key) else None
        if _has(parent, path[-1]):
            if replacement is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replacement[0]
        elif isinstance(parent, dict) and replacement is not None:
            parent[path[-1]] = replacement[0]
    return doc


def _assert_contract(code, capsys):
    """Exit 0 with nothing on stderr, or exit 2 with one error line."""
    assert code in (0, cli.EXIT_INVALID)
    if code == 0:
        assert capsys.readouterr().err == ""
    else:
        _one_error_line(capsys)


@given(edits=_edits(_FUZZ_DOC))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_dim_class_file_contract_under_fuzzing(tmp_path, capsys, edits):
    """Deleting or replacing fields of a valid class file either leaves a
    class that dim solves, or is refused with one error line."""
    path = tmp_path / "class.json"
    path.write_text(json.dumps(_edited(_FUZZ_DOC, edits)))
    code = run_cli("dim", "--class", str(path), "--kind", "ldim", "--witness")
    _assert_contract(code, capsys)


# Scenario edits, as (path, None) to delete or (path, [value]) to set; the
# test scenario's first prover table starts with the rows for problem 0
# and steps [], [0] and [1].
_ROW = ("provers", 0, "table")
_SCENARIO_EDITS = {
    "float-target": [(("target",), [5.9])],
    "bool-target": [(("target",), [True])],
    "string-target": [(("target",), ["5"])],
    "missing-target": [(("target",), None)],
    "float-k": [(("k",), [0.5])],
    "bool-k": [(("k",), [False])],
    "negative-k": [(("k",), [-1])],
    "float-s2-constant": [(("s2_constant",), [32.0])],
    "string-s2-constant": [(("s2_constant",), ["32"])],
    "float-table-problem": [(_ROW + (0, 0), [0.0])],
    "bool-table-problem": [(_ROW + (0, 0), [True])],
    "float-table-step": [(_ROW + (1, 1, 0), [0.5])],
    "bool-table-step": [(_ROW + (1, 1, 0), [False])],
    "string-table-token": [(_ROW + (0, 2, "0"), None),
                           (_ROW + (0, 2, "x"), ["1/2"])],
    "padded-table-token": [(_ROW + (0, 2, "0"), None),
                           (_ROW + (0, 2, "00"), ["1/2"])],
    "float-text-D-problem": [(("D", "3"), None), (("D", "3.0"), ["1/16"])],
    "spaced-D-problem": [(("D", "3"), None), (("D", " 3"), ["1/16"])],
    "float-D-weight": [(("D", "0"), [0.0625])],
    "list-D-weight": [(("D", "0"), [[1]])],
    "negative-D-weight": [(("D",), [{"0": -1, "1": 2}])],
    "zero-denominator-weight": [(_ROW + (0, 2, "0"), ["1/0"])],
    "exponent-alpha": [(("alpha",), ["1e9"])],
    "null-alpha": [(("alpha",), [None])],
    "float-epsilon": [(("epsilon",), [0.2])],
    "missing-class": [(("class",), None)],
    "missing-alpha": [(("alpha",), None)],
    "missing-D": [(("D",), None)],
    "missing-epsilon": [(("epsilon",), None)],
    "missing-epsilon-prime": [(("epsilon_prime",), None)],
    "missing-delta": [(("delta",), None)],
    "missing-provers": [(("provers",), None)],
    "bool-s2-constant": [(("s2_constant",), [True])],
    "bool-D-weight": [(("D", "0"), [True])],
    "D-not-object": [(("D",), [[["0", "1"]]])],
    "number-class": [(("class",), [5])],
    "provers-not-list": [(("provers",), [{"table": []}])],
    "prover-without-table": [(("provers", 0, "table"), None)],
    "number-prover-name": [(("provers", 0, "name"), [5])],
    "short-table-row": [(_ROW + (2, 2), None)],
    "dist-not-object": [(_ROW + (1, 2), [[["0", "1"]]])],
    "repeated-table-row": [(_ROW + (1,), [[0, [], {"0": "1/2", "1": "1/2"}]])],
    "unknown-D-problem": [(("D", "3"), None), (("D", "99"), ["1/16"])],
    "unknown-table-problem": [(_ROW + (0, 0), [99])],
    "table-step-outside-sigma": [(_ROW + (1, 1, 0), [5])],
    "table-token-outside-sigma": [(_ROW + (0, 2, "0"), None),
                                  (_ROW + (0, 2, "5"), ["1/2"])],
}


@pytest.fixture
def scenario_path(tmp_path, capsys):
    """A valid scenario file with every optional field, which boost
    accepts."""
    doc = json.loads(open(scenario.write_scenario_files(tmp_path)).read())
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(doc, s2_constant=32)))
    assert run_cli("boost", "--scenario", str(path), "--verify-alpha") == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("edits", list(_SCENARIO_EDITS.values()),
                         ids=list(_SCENARIO_EDITS))
def test_boost_rejects_malformed_scenario(scenario_path, capsys, edits):
    doc = json.loads(scenario_path.read_text())
    scenario_path.write_text(json.dumps(_edited(doc, edits)))
    assert run_cli("boost", "--scenario", str(scenario_path),
                   "--verify-alpha") == cli.EXIT_INVALID
    _one_error_line(capsys)


def test_boost_names_a_missing_prover_distribution(scenario_path, capsys):
    # Every example is problem 0, where the first prover has no
    # distribution for the first step.
    doc = json.loads(scenario_path.read_text())
    scenario_path.write_text(json.dumps(_edited(doc, [
        (("D",), [{"0": 1}]), (_ROW + (0,), None)])))
    assert run_cli("boost", "--scenario", str(scenario_path), "--seed", "0",
                   "--trials", "1") == cli.EXIT_INVALID
    assert _one_error_line(capsys) == (
        "error: prover 0 (early) has no next-step distribution for problem 0 "
        "after steps []\n")


def test_boost_rejects_scenario_that_is_not_an_object(scenario_path, capsys):
    doc = json.loads(scenario_path.read_text())
    for bad in ([doc], 5, None):
        scenario_path.write_text(json.dumps(bad))
        assert run_cli("boost", "--scenario", str(scenario_path),
                       "--verify-alpha") == cli.EXIT_INVALID
        _one_error_line(capsys)


_FUZZ_SEQUENCE = [[0, [0, 1, 0]], [0, [1, 1, 1]], [0, [0, 2, 2]]]


@given(edits=_edits(_FUZZ_SEQUENCE),
       learner=st.sampled_from([
           ["majority"], ["sound-conservative"], ["reject-all"],
           ["scl-soa"], ["sc-soa"], ["wsc-soa"], ["sc-soa", "--via-prefix"],
           ["sound-conservative", "--via-cot"]]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_sequence_file_contract_under_fuzzing(fail_token_files, tmp_path,
                                                  capsys, edits, learner):
    """Deleting or replacing entries of a valid sequence file either leaves
    a sequence that run plays, or is refused with one error line."""
    class_path = fail_token_files["singleton"][0]
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(_edited(_FUZZ_SEQUENCE, edits)))
    code = run_cli("run", "--class", class_path, "--learner", learner[0],
                   "--target", "1", "--sequence", str(path), *learner[1:])
    _assert_contract(code, capsys)


@pytest.fixture(scope="module")
def fuzz_scenario(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenario")
    return json.loads(open(scenario.write_scenario_files(d)).read())


# The test scenario's fields, with each prover table cut to its first two
# rows (the other rows are alike), so that the edits hit every field.
_SCENARIO_SKELETON = {
    "class": "", "target": 0, "k": 0, "alpha": "", "epsilon": "",
    "epsilon_prime": "", "delta": "", "s2_constant": 0,
    "D": {str(p): "" for p in range(16)},
    "provers": [{"name": "", "table": [[0, [], {"0": "", "1": ""}],
                                       [0, [0], {"0": "", "1": ""}]]}] * 2,
}


@given(edits=_edits(_SCENARIO_SKELETON))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_boost_scenario_contract_under_fuzzing(fuzz_scenario, tmp_path,
                                               capsys, edits):
    """Deleting or replacing fields of the test scenario either leaves a
    scenario whose goodness boost verifies, or is refused with one error
    line."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_edited(dict(fuzz_scenario, s2_constant=32),
                                       edits)))
    code = run_cli("boost", "--scenario", str(path), "--verify-alpha")
    _assert_contract(code, capsys)


# The report writer.

_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**100, 2**100) | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30,
)


@given(value=_REPORT_VALUES)
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_json_dumps(value):
    assert cli.canonical_json(value) == json.dumps(value, sort_keys=True,
                                                   indent=2)


def test_canonical_json_edge_values():
    for value in ({}, [], "", "\x00\x1f\u2028\U0001f600\"\\", -2**200,
                  {"b": [{}, [], None], "a": {"": True, "\u00e9": False}}):
        assert cli.canonical_json(value) == json.dumps(
            value, sort_keys=True, indent=2)
    for value in (1.5, (1, 2), {1: "a"}, [{"a": {1, 2}}], b"x"):
        with pytest.raises(TypeError):
            cli.canonical_json(value)
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError):
        cli.canonical_json(loop)


def test_canonical_json_has_no_depth_limit():
    deep = []
    for _ in range(5000):
        deep = [deep]
    text = cli.canonical_json(deep)
    assert text.startswith("[\n  [\n    [") and text.count("[") == 5001


def test_every_subcommand_report_is_json_dumps_text(class_files, tmp_path,
                                                    capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([[0, [0, 0, 0, 0]], [0, [0, 1, 0, 0]]]))
    scenario_path = scenario.write_scenario_files(tmp_path)
    texts = []
    assert run_cli("families", "--family", "complement", "--n", "4",
                   "--L", "2", "--out", str(tmp_path / "c.json")) == 0
    texts.append(capsys.readouterr().out)
    for argv in (
        ["dim", "--class", class_files["indicator4"], "--kind", "scl",
         "--gamma-s", "3", "--gamma-c", "2", "--gamma-l", "1", "--witness"],
        ["run", "--class", class_files["indicator4"], "--learner",
         "sound-conservative", "--target", "1", "--sequence", str(seq)],
        ["duel", "--class", class_files["indicator4"], "--learner", "sc-soa",
         "--adversary", "tree", "--k", "1"],
        ["duel", "--class", class_files["complement4"], "--learner",
         "sound-conservative", "--adversary", "prop32"],
        ["boost", "--scenario", scenario_path, "--seed", "7",
         "--trials", "50"],
    ):
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        texts.append(out.read_text())
    for text in texts:
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"
