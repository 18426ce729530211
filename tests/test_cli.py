"""CLI subcommands: reports, exit codes, and byte-level determinism."""

import json
import sys

import pytest

import scenario
from cotverify import cli, families


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
    for doc in ([[0, 5]], [[0]], [[0, [0, "x"]]], {"0": [0]}, [[True, [0]]]):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        assert run_cli("run", "--class", class_files["indicator4"],
                       "--learner", "majority", "--target", "0",
                       "--sequence", str(seq)) == cli.EXIT_INVALID
        _one_error_line(capsys)


def test_deep_search_fails_cleanly(tmp_path, capsys):
    # complement(n) at k=0 is a chain n - 1 levels deep; the recursive
    # kernel cannot go deeper than the interpreter's recursion limit.
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


def _class_doc(**changes):
    doc = {"sigma": ["0", "1"], "problems": ["p"], "L": 1,
           "universe": [[0, [0]], [0, [1]]],
           "verifiers": [{"id": 0, "rows": [1, 0]}, {"id": 1, "rows": [0, 1]}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": 1, "rows": [0]}]),
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": 2, "rows": [0, 1]}]),
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": 0, "rows": [0, 1]}]),
    _class_doc(verifiers=[{"id": 0, "rows": [1, 0]}, {"id": True, "rows": [0, 1]}]),
    _class_doc(fail_token=1.0),
    _class_doc(fail_token=True),
], ids=["short-row", "id-gap", "id-repeat", "bool-id", "float-fail-token",
        "bool-fail-token"])
def test_dim_rejects_malformed_class_file(tmp_path, capsys, doc):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(doc))
    assert run_cli("dim", "--class", str(path),
                   "--kind", "ldim") == cli.EXIT_INVALID
    _one_error_line(capsys)
    path.write_text(json.dumps(_class_doc()))
    assert run_cli("dim", "--class", str(path), "--kind", "ldim") == 0
