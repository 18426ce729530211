"""Pinned search counters of the benchmark's twenty `dim` games, of two
SCL games whose classes repeat label partitions, and of three wider
prefix games.

Each game is solved cold on a freshly built class, as one `cotverify dim`
run does.  A change to the kernels that moves any of these figures
changes the `stats` of a `dim` report, and must say so.
"""

from fractions import Fraction

import pytest

from cotverify import dimensions, families
from cotverify.core import CostVector, VersionSpace

CLASSES = {
    "singleton5": lambda: families.singleton_bitstring_class(5),
    "singleton6": lambda: families.singleton_bitstring_class(6),
    "singleton7": lambda: families.singleton_bitstring_class(7),
    "singleton8": lambda: families.singleton_bitstring_class(8),
    "singleton9": lambda: families.singleton_bitstring_class(9),
    "indicator10": lambda: families.indicator_class(10),
    "complement16": lambda: families.complement_class(16, 5),
    "complement17": lambda: families.complement_class(17, 5),
    "complement18": lambda: families.complement_class(18, 5),
    "river14": lambda: families.river_crossing_class(families.river_edges()[:14], 8),
    "failtoken4": lambda: families.with_fail_token(
        families.singleton_bitstring_class(4)),
}

# (class, kind, k, gammas, value, nodes_expanded, memo_hits)
GAMES = [
    ("singleton5", "ldim", 0, None, 5, 31, 0),
    ("singleton5", "sc", 2, None, 5, 34, 1),
    ("singleton5", "wsc", 0, (3, 1, 0), 5, 195, 626),
    ("singleton5", "scl", 0, (3, 2, 1), 4, 31, 290),
    ("singleton6", "ldim", 0, None, 6, 63, 0),
    ("singleton6", "sc", 2, None, 6, 219, 235),
    ("singleton6", "wsc", 0, (3, 1, 0), 6, 633, 2992),
    ("singleton6", "scl", 0, (3, 2, 1), 4, 63, 898),
    ("indicator10", "sc", 1, None, 3, 20, 15),
    ("indicator10", "ldim", 0, None, 3, 22, 19),
    ("complement16", "sc", 0, None, 15, 15, 0),
    ("complement17", "sc", 0, None, 16, 16, 0),
    ("complement18", "sc", 0, None, 17, 17, 0),
    ("complement16", "sc", 1, None, 1, 15, 0),
    ("singleton7", "ldim", 0, None, 7, 127, 0),
    ("singleton7", "scl", 0, (3, 2, 1), 5, 127, 2562),
    ("river14", "ldim", 0, None, 5, 112, 129),
    ("river14", "sc", 1, None, 5, 158, 557),
    ("failtoken4", "ldim", 0, None, 4, 15, 0),
    ("failtoken4", "scl", 0, (3, 2, 1), 5, 15, 178),
    # Repeated label partitions: 1024 traces but 56 partitions, and 86
    # traces but 28.
    ("indicator10", "scl", 0, (3, 2, 1), 2, 9, 184),
    ("river14", "scl", 0, (3, 2, 1), 7, 243, 5266),
    # Wider than the benchmark's games, whose classes have at most 128
    # verifiers: the leaf-count bounds at sizes they do not reach.
    ("singleton8", "sc", 3, None, 8, 2279, 5772),
    ("singleton8", "wsc", 0, ("7/3", 1, 0), 8, 6177, 48960),
    ("singleton9", "wsc", 0, (3, 1, 0), 9, 18915, 180418),
]


@pytest.mark.parametrize("name,kind,k,gammas,value,nodes,hits", GAMES)
def test_dim_game_stats_are_pinned(name, kind, k, gammas, value, nodes, hits):
    vs = VersionSpace.full(CLASSES[name]())
    costs = CostVector(*map(Fraction, gammas)) if gammas else None
    if kind == "ldim":
        res = dimensions.ldim(vs, witness=False)
    elif kind == "sc":
        res = dimensions.sc_ldim(vs, k, witness=False)
    elif kind == "wsc":
        res = dimensions.wsc_ldim(vs, costs, witness=False)
    else:
        res = dimensions.scl_ldim(vs, costs, witness=False)
    assert (res.value, res.stats["nodes_expanded"], res.stats["memo_hits"]) == (
        value, nodes, hits)


@pytest.mark.parametrize("query,kind,game", [
    (dimensions.ldim, "plain", {}),
    (dimensions.sc_ldim, "SC", {"k": 1}),
    (dimensions.wsc_ldim, "WSC",
     {"costs": CostVector(Fraction(3), Fraction(1), Fraction(0))}),
    (dimensions.scl_ldim, "SCL",
     {"costs": CostVector(Fraction(3), Fraction(2), Fraction(1))}),
], ids=["ldim", "sc", "wsc", "scl"])
def test_witness_extraction_runs_no_search(query, kind, game):
    vs = VersionSpace.full(CLASSES["indicator10"]())
    res = query(vs, witness=False, **game)
    engine = dimensions._game(vs.vclass, kind, **game).engine
    before = engine.stats()
    tree = dimensions.extract_witness(vs, kind, **game)
    assert engine.stats() == before
    assert dimensions.certified_value(tree) == res.value
    assert dimensions.verify_shattered(tree, vs)
