"""Generator invariants and class-file round trips."""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import brute
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


def _shuffled_doc(vc, rng):
    """vc's class file with the universe in a random order and the
    verifiers under random ids, listed in a random order."""
    order = list(range(len(vc.universe)))
    rng.shuffle(order)
    ids = list(range(len(vc)))
    rng.shuffle(ids)
    rows = vc.row_bits()
    verifiers = [{"id": ids[h], "rows": [int(rows[h][j]) for j in order]}
                 for h in range(len(vc))]
    rng.shuffle(verifiers)
    doc = {
        "sigma": [t.name for t in vc.sigma],
        "problems": [p.name for p in vc.problems],
        "L": vc.L,
        "universe": [[vc.universe[j].problem, list(vc.universe[j].steps)]
                     for j in order],
        "verifiers": verifiers,
    }
    if rng.random() < 0.3:
        doc["fail_token"] = rng.randrange(len(vc.sigma))
    return doc


# Row entries that no class file may hold: integers other than 0 and 1,
# and every other JSON value.
_BAD_ENTRIES = [2, 255, 256, -1, 2**70, True, False, 1.0, "1", None, [0], {}]


def _malformed(doc, rng, edit, bad):
    """doc with one edit that no class file may hold."""
    rows = [v["rows"] for v in doc["verifiers"]]
    if edit == 0:  # a row entry other than the integers 0 and 1
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = bad
    elif edit == 1:  # a row one entry short
        rng.choice(rows).pop()
    elif edit == 2:  # one verifier id twice
        a, b = rng.sample(doc["verifiers"], 2)
        a["id"] = b["id"]
    elif edit == 3:  # one universe instance twice
        universe = doc["universe"]
        i, j = rng.sample(range(len(universe)), 2)
        universe[i] = json.loads(json.dumps(universe[j]))
    elif edit == 4:  # a step token outside the alphabet
        rng.choice(doc["universe"])[1][0] = len(doc["sigma"])
    else:  # a prefix longer than L
        doc["universe"][rng.randrange(len(doc["universe"]))][1] = [0] * (doc["L"] + 1)
    return doc


def _loaded(load, path):
    try:
        vc = load(path)
    except SchemaError as e:
        return SchemaError, type(e)
    return (vc.sigma, vc.problems, vc.L, vc.fail_token, vc.n_verifiers,
            vc.universe, vc.yes_masks, vc.index, vc.row_bits())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rng=st.randoms(use_true_random=False),
       edit=st.none() | st.integers(0, 5), bad=st.sampled_from(_BAD_ENTRIES))
def test_load_class_matches_the_reference_loader(tmp_path, rng, edit, bad):
    """The whole-table loader and the row-by-row reference give the same
    class from a file in any universe order under any verifier ids: the
    same universe, yes-masks, index and rows.  A malformed edit makes
    both refuse the file with SchemaError."""
    vc = brute.random_class(rng)
    doc = _shuffled_doc(vc, rng)
    if edit is not None:
        doc = _malformed(doc, rng, edit, bad)
    path = tmp_path / "class.json"
    path.write_text(json.dumps(doc))
    new, old = _loaded(families.load_class, path), _loaded(ref.ref_load_class, path)
    assert new == old
    assert (new[0] is SchemaError) == (edit is not None)
    if edit is None:
        assert new[5] == vc.universe
        assert sorted(new[8]) == sorted(vc.row_bits())


@pytest.mark.parametrize("bad", _BAD_ENTRIES, ids=repr)
def test_load_class_refuses_every_non_binary_row_entry(tmp_path, bad):
    """Each bad row entry is refused by both loaders, whether or not the
    file spells a boolean elsewhere (in a name here)."""
    for names in (["0", "1"], ["true", "false"]):
        doc = {"sigma": names, "problems": ["x"], "L": 1,
               "universe": [[0, [0]], [0, [1]]],
               "verifiers": [{"id": 0, "rows": [1, 0]}, {"id": 1, "rows": [0, bad]}]}
        path = tmp_path / "class.json"
        path.write_text(json.dumps(doc))
        for load in (families.load_class, ref.ref_load_class):
            with pytest.raises(SchemaError, match="non-binary row entry"):
                load(path)
