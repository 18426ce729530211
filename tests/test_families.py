"""Generator invariants and class-file round trips."""

import json
import random

import pytest

import reference as ref
import scenario
from cotverify import families
from cotverify.core import (
    ALL_CORRECT,
    CapExceeded,
    CotInstance,
    ParseError,
    PrefixInstance,
    Problem,
    SchemaError,
    StepToken,
    fault_at,
    validate_fail_token,
)


def test_singleton_class_shape():
    vc = families.singleton_bitstring_class(3)
    assert len(vc) == 8
    assert len(vc.universe) == 2 + 4 + 8
    # Verifier b accepts a prefix iff the last step matches its bit.
    assert ref.accepts(vc, 0b000, PrefixInstance(0, (0, 0)))
    assert not ref.accepts(vc, 0b000, PrefixInstance(0, (0, 1)))


def test_singleton_cot_labels_locate_first_divergence():
    vc = families.singleton_bitstring_class(3)
    for h in range(8):
        bits = tuple((h >> (2 - j)) & 1 for j in range(3))
        assert vc.cot_label_of(h, CotInstance(0, bits)) == ALL_CORRECT
        flipped = (1 - bits[0],) + bits[1:]
        assert vc.cot_label_of(h, CotInstance(0, flipped)) == fault_at(1)


def test_complement_class_rejects_exactly_one_trace():
    vc = families.complement_class(4, 3)
    for h in range(4):
        rejected = [
            z for z in vc.universe if not ref.accepts(vc, h, z)
        ]
        assert len(rejected) == 1
        assert len(rejected[0].steps) == 3


def test_indicator_class_accepts_unit_vector():
    vc = families.indicator_class(4)
    for h in range(4):
        unit = tuple(1 if j == h else 0 for j in range(4))
        assert vc.cot_label_of(h, CotInstance(0, unit)) == ALL_CORRECT


def test_generator_caps():
    with pytest.raises(CapExceeded):
        families.singleton_bitstring_class(17)
    with pytest.raises(CapExceeded):
        families.indicator_class(11)
    with pytest.raises(CapExceeded):
        families.complement_class(5, 2)


def test_caps_admit_4096_verifiers_and_no_more():
    assert len(families.singleton_bitstring_class(12)) == 4096
    assert len(families.complement_class(4096, 12)) == 4096
    with pytest.raises(CapExceeded, match="^8192 verifiers exceeds cap 4096$"):
        families.singleton_bitstring_class(13)
    # One always-accept verifier per step over 2^1 + ... + 2^16 prefixes.
    with pytest.raises(CapExceeded,
                       match="^universe size 131070 exceeds cap 65536$"):
        families.product_class(
            [StepToken(0), StepToken(1)], [Problem(0)],
            [[lambda p, s: True]] * 16)


_RIVER = families.river_edges()
_MASK_BUILDERS = {
    "singleton": [(families.singleton_bitstring_class,
                   ref.ref_singleton_class, (L,)) for L in range(1, 11)],
    "conjunction": [(families.conjunction_class,
                     ref.ref_singleton_class, (L,)) for L in range(1, 10)],
    "indicator": [(families.indicator_class,
                   ref.ref_indicator_class, (n,)) for n in range(2, 11)],
    "complement": [(families.complement_class, ref.ref_complement_class,
                    (n, L)) for L in range(1, 8) for n in range(2, 2**L + 1)],
    "river": [(families.river_crossing_class, ref.ref_river_crossing_class,
               (_RIVER[:r], L)) for L in (4, 5, 8) for r in range(10, 19)],
    "product": [(families.product_class, ref.ref_product_class,
                 scenario.class_parts())],
}


def _fields(vc):
    return (vc.sigma, vc.problems, vc.L, vc.fail_token, vc.universe,
            vc.yes_masks, vc.n_verifiers)


@pytest.mark.parametrize("fail_token", [False, True])
@pytest.mark.parametrize("family", sorted(_MASK_BUILDERS))
def test_mask_builders_equal_the_table_references(family, fail_token):
    wrap = families.with_fail_token if fail_token else (lambda vc: vc)
    for build, reference, args in _MASK_BUILDERS[family]:
        got, expected = wrap(build(*args)), wrap(reference(*args))
        assert _fields(got) == _fields(expected), (family, args)


def test_river_edges_and_class():
    edges = families.river_edges()
    assert len(edges) == 20
    assert all(families.river_safe(s) and families.river_safe(t)
               for s, t in edges)
    vc = families.river_crossing_class(edges[:16], 4)
    assert len(vc) == 2 ** 4
    # Fully revealed graph leaves a single verifier.
    assert len(families.river_crossing_class(edges, 4)) == 1


def test_river_universe_only_walks_legal_edges():
    vc = families.river_crossing_class(families.river_edges(), 8)
    states = [tuple(int(c) for c in t.name) for t in vc.sigma]
    start = states.index(families.RIVER_START)
    # Chicken alone with fox on the far bank is not a legal successor.
    bad = states.index((0, 1, 1, 0))
    assert PrefixInstance(0, (start, bad)) not in vc
    # A prefix that starts away from the start state is rejected.
    other = states.index((1, 1, 1, 1))
    assert not ref.accepts(vc, 0, PrefixInstance(0, (other,)))


def test_river_classic_solution_accepted():
    vc = families.river_crossing_class(families.river_edges(), 8)
    states = [tuple(int(c) for c in t.name) for t in vc.sigma]
    sol = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0),
           (0, 0, 1, 0), (1, 0, 1, 1), (0, 0, 1, 1), (1, 1, 1, 1)]
    steps = tuple(states.index(s) for s in sol)
    assert vc.cot_label_of(0, CotInstance(0, steps)) == ALL_CORRECT


def test_with_fail_token_valid_and_idempotent():
    vc = families.with_fail_token(families.conjunction_class(3))
    validate_fail_token(vc)
    assert families.with_fail_token(vc) is vc
    F = vc.fail_token
    padded = PrefixInstance(0, (0, F, F))
    assert all(not ref.accepts(vc, h, padded) for h in range(len(vc)))


def test_save_load_round_trip(tmp_path, corpus):
    for name, vc in corpus.items():
        path = tmp_path / f"{name}.json"
        families.save_class(vc, path)
        loaded = families.load_class(path)
        assert ref.equal_canonical(loaded, vc), name


def _reference_masks(doc):
    """Each universe instance's yes-mask, set one row entry at a time."""
    masks = [0] * len(doc["universe"])
    for v in doc["verifiers"]:
        for i, accept in enumerate(v["rows"]):
            if accept:
                masks[i] |= 1 << v["id"]
    return {(p, tuple(steps)): m for (p, steps), m in zip(doc["universe"], masks)}


def test_load_class_masks_match_the_rows(tmp_path, corpus):
    rng = random.Random(0)
    for name, vc in corpus.items():
        path = tmp_path / f"{name}.json"
        families.save_class(vc, path)
        doc = json.loads(path.read_text())
        # Verifiers listed out of id order, and the universe shuffled.
        rng.shuffle(doc["verifiers"])
        order = list(range(len(doc["universe"])))
        rng.shuffle(order)
        doc["universe"] = [doc["universe"][i] for i in order]
        for v in doc["verifiers"]:
            v["rows"] = [v["rows"][i] for i in order]
        path.write_text(json.dumps(doc))
        loaded = families.load_class(path)
        got = {(z.problem, z.steps): m
               for z, m in zip(loaded.universe, loaded.yes_masks)}
        assert got == _reference_masks(doc), name
        assert ref.equal_canonical(loaded, vc), name


def test_save_load_round_trip_seven_families(tmp_path):
    river = families.river_edges()[:10]
    for name, vc in {
        "singleton5": families.singleton_bitstring_class(5),
        "singleton6": families.singleton_bitstring_class(6),
        "indicator6": families.indicator_class(6),
        "complement12": families.complement_class(12, 4),
        "conjunction4": families.conjunction_class(4),
        "river10": families.river_crossing_class(river, 8),
        "failtoken4": families.with_fail_token(
            families.singleton_bitstring_class(4)),
    }.items():
        path = tmp_path / f"{name}.json"
        families.save_class(vc, path)
        loaded = families.load_class(path)
        assert ref.equal_canonical(loaded, vc), name
        assert loaded.verifiers == vc.verifiers, name


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        families.load_class(bad)
    bad.write_text(json.dumps({"sigma": ["0"], "problems": ["x"], "L": 1}))
    with pytest.raises(SchemaError):
        families.load_class(bad)
    bad.write_text(json.dumps({
        "sigma": ["0"], "problems": ["x"], "L": 1,
        "universe": [[0, [0]]],
        "verifiers": [{"id": 0, "rows": [2]}],
    }))
    with pytest.raises(SchemaError):
        families.load_class(bad)


def test_product_class_combines_step_classes():
    vc = families.product_class(
        [StepToken(0, "0"), StepToken(1, "1")],
        [Problem(0, "x")],
        [
            [lambda p, s, b=b: s[-1] == b for b in (0, 1)],
            [lambda p, s: True],
        ],
    )
    assert len(vc) == 2
    assert vc.cot_label_of(0, CotInstance(0, (0, 1))) == ALL_CORRECT
    assert vc.cot_label_of(1, CotInstance(0, (0, 1))) == fault_at(1)
