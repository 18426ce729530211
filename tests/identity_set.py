"""The CLI report-identity set: one sha256 over about two thousand runs.

A refactor that promises unchanged reports runs this script on the old
and the new source and compares the digests it prints:

    PYTHONPATH=src python tests/identity_set.py [--verbose]

In a temporary directory it writes, through ``cotverify families``, the
class files of nine families, each with and without ``--fail-token``;
for each class a ten-entry trace file and a ten-entry prefix file; and
the boosting test scenario (``tests/scenario.py``) together with a copy
at alpha 1, on which no problem is verifiably good.  Then it runs through
``cli.main``, with file names relative to that directory:

- on every class ``dim --witness`` for ldim, sc at k 0 and 1, wsc at
  costs 2/1 and scl with gamma_l 1/2;
- ``run`` with each of the seven learners, targets 0 and n - 1, both
  sequence files and no flag, ``--via-prefix`` or ``--via-cot``;
- ``duel`` with each learner against the tree, prop31 and prop32
  adversaries;
- ``boost --seed 0`` to ``--seed 13`` and ``--verify-alpha`` on each
  scenario.

Every run contributes its argv, exit code and the sha256 of its stdout
and of its stderr, and a ``families`` run the sha256 of the class file
it wrote.  The script prints one digest per group of runs and one over
all of them; ``--verbose`` also prints one line per run, so that a diff
of two outputs names the runs that differ.  ``digests`` computes the
same figures for ``tests/test_report_identity.py``, which pins them.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import scenario  # noqa: E402
from cotverify import cli, families  # noqa: E402

FAMILIES = {
    "singleton3": ["--family", "singleton", "--L", "3"],
    "singleton4": ["--family", "singleton", "--L", "4"],
    "conjunction3": ["--family", "conjunction", "--L", "3"],
    "indicator4": ["--family", "indicator", "--n", "4"],
    "indicator6": ["--family", "indicator", "--n", "6"],
    "complement8-3": ["--family", "complement", "--n", "8", "--L", "3"],
    "complement12-4": ["--family", "complement", "--n", "12", "--L", "4"],
    "river16-4": ["--family", "river", "--revealed", "16", "--L", "4"],
    "river17-5": ["--family", "river", "--revealed", "17", "--L", "5"],
}
DIMS = [
    ["--kind", "ldim"],
    ["--kind", "sc", "--k", "0"],
    ["--kind", "sc", "--k", "1"],
    ["--kind", "wsc", "--gamma-s", "2", "--gamma-c", "1"],
    ["--kind", "scl", "--gamma-l", "1/2"],
]
LEARNERS = ["majority", "sound-conservative", "river", "sc-soa", "wsc-soa",
            "scl-soa", "reject-all"]
ADVERSARIES = ["tree", "prop31", "prop32"]
SEEDS = range(14)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> str:
    """Run one CLI invocation; return its line of the identity record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    fields = [json.dumps(argv), str(code), _sha(out.getvalue().encode()),
              _sha(err.getvalue().encode())]
    if argv[0] == "families":
        fields.append(_sha(pathlib.Path(argv[-1]).read_bytes()))
    return " ".join(fields)


def _write_sequences(name: str) -> None:
    """Ten full traces and ten prefixes of the class, drawn with replacement
    from its universe by a generator seeded with the class name."""
    vc = families.load_class(f"{name}.json")
    keys = {(z.problem, z.steps) for z in vc.universe}
    traces = [z for z in vc.universe if len(z.steps) == vc.L and all(
        (z.problem, z.steps[:ell]) in keys for ell in range(1, vc.L))]
    rng = random.Random(name)
    for kind, pool in (("trace", traces), ("prefix", vc.universe)):
        entries = [[z.problem, list(z.steps)]
                   for z in (rng.choices(pool, k=10) if pool else [])]
        pathlib.Path(f"{name}.{kind}.json").write_text(json.dumps(entries))


def _write_scenarios() -> list[str]:
    path = scenario.write_scenario_files(pathlib.Path("."))
    doc = json.loads(pathlib.Path(path).read_text())
    pathlib.Path("alpha1.json").write_text(json.dumps(dict(doc, alpha="1")))
    return [os.path.basename(path), "alpha1.json"]


def runs():
    """(group, argv) for every run of the set, in order; writes the files
    each run needs into the current directory first."""
    classes = []
    for family, args in FAMILIES.items():
        for fail in ([], ["--fail-token"]):
            name = family + ("-fail" if fail else "")
            yield "families", ["families", *args, *fail, "--out",
                               f"{name}.json"]
            _write_sequences(name)
            classes.append(name)
    for name in classes:
        n = len(families.load_class(f"{name}.json"))
        for dim in DIMS:
            yield "dim", ["dim", "--class", f"{name}.json", *dim, "--witness"]
        for learner in LEARNERS:
            for target in sorted({0, n - 1}):
                for kind in ("trace", "prefix"):
                    for flag in ([], ["--via-prefix"], ["--via-cot"]):
                        yield "run", ["run", "--class", f"{name}.json",
                                      "--learner", learner,
                                      "--target", str(target), "--sequence",
                                      f"{name}.{kind}.json", *flag]
            for adv in ADVERSARIES:
                yield "duel", ["duel", "--class", f"{name}.json",
                               "--learner", learner, "--adversary", adv]
    for path, group in zip(_write_scenarios(), ("boost", "boost-alpha1")):
        for seed in SEEDS:
            yield group, ["boost", "--scenario", path, "--seed", str(seed)]
        yield group, ["boost", "--scenario", path, "--verify-alpha"]


def record() -> dict[str, list[str]]:
    """Run the whole set in a temporary directory; return each group's
    lines of the identity record, in run order."""
    groups: dict[str, list[str]] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for group, argv in runs():
                groups.setdefault(group, []).append(_run(argv))
        finally:
            os.chdir(cwd)
    return groups


def digests(groups: dict[str, list[str]]) -> dict[str, tuple[int, str]]:
    """{group: (runs, sha256 of its lines)} for each group, then "all" over
    every line."""
    every = [line for lines in groups.values() for line in lines]
    out = {group: (len(lines), _sha("\n".join(lines).encode()))
           for group, lines in groups.items()}
    out["all"] = (len(every), _sha("\n".join(every).encode()))
    return out


def main(verbose: bool) -> None:
    groups = record()
    if verbose:
        for lines in groups.values():
            print("\n".join(lines))
    for group, (count, digest) in digests(groups).items():
        print(f"{group}: {count} runs {digest}")


if __name__ == "__main__":
    main("--verbose" in sys.argv[1:])
