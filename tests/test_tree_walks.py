"""The witness walks (verify_shattered, certified_value, tree_json,
tree_dot) against their recursive references on hand-built flat trees,
and on witnesses deeper than the recursion limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from cotverify import cli, dimensions, families
from cotverify.core import (
    ALL_CORRECT,
    CotInstance,
    MalformedTree,
    VersionSpace,
    cot_instances,
)
from cotverify.dimensions import MistakeTree

_CLASSES = [families.singleton_bitstring_class(2), families.indicator_class(3),
            families.complement_class(4, 2)]
_WEIGHTS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


def _random_tree(rng):
    """A random small flat tree over a random class, often unshattered and
    sometimes malformed, and the features it has among "shared" (one
    subtree repeated under both edges of a node), "over budget" (an SC
    path with more straight edges than the budget) and "weighted SC" (an
    SC edge that does not weigh 1)."""
    vclass = rng.choice(_CLASSES)
    kind = rng.choice(dimensions.KINDS)
    budget = rng.randrange(3) if kind == "SC" else None
    instances = cot_instances(vclass) if kind == "SCL" else vclass.universe
    gamma = {k: rng.choice(_WEIGHTS) for k in "scl"}
    if kind in ("plain", "SC"):
        gamma = dict.fromkeys("scl", Fraction(1))
    features = set()
    nodes = []

    def flawed():
        return rng.random() < 0.04

    def copy(c):
        """Append a copy of the subtree at c, the last one appended."""
        if c is None:
            return None
        shift = len(nodes) - c
        nodes.extend([(z, tuple((label, k, w, None if d is None else d + shift)
                                for label, k, w, d in edges))
                      for z, edges in nodes[c:]])
        return c + shift

    def node(depth, straight):
        """Append a random subtree in pre-order: its root's index, or
        None for a bare leaf."""
        if depth == 4 or rng.random() < 0.3:
            return None
        z = rng.choice(instances)
        if flawed():  # a node of the other game
            z = z.prefix(1) if kind == "SCL" else CotInstance(z.problem, z.steps)
        if kind != "SCL":
            specs = [(True, "c"), (False, "s")]
        elif rng.random() < 0.5:
            specs = [(label, "l") for label in rng.sample(range(1, vclass.L + 1), 2)]
        else:
            specs = [(rng.randrange(1, vclass.L + 1), "s"), (ALL_CORRECT, "c")]
        rng.shuffle(specs)
        if flawed():
            specs[0] = (not specs[0][0] if kind != "SCL" else ALL_CORRECT, specs[0][1])
        if flawed():
            specs = specs[:1] if rng.random() < 0.5 else specs + specs[:1]
        i = len(nodes)
        nodes.append(None)
        shared = rng.random() < 0.15
        if shared:
            features.add("shared")
        edges = []
        for j, (label, k) in enumerate(specs):
            weight = gamma[k]
            if flawed():
                weight = rng.choice([Fraction(-1), Fraction(2)])
                if kind == "SC" and weight != 1:
                    features.add("weighted SC")
            if kind == "SC" and k == "s" and straight == budget:
                features.add("over budget")
            if not shared:
                child = node(depth + 1, straight + (k == "s"))
            elif j == 0:
                child = node(depth + 1, straight)
            else:
                child = copy(child)
            edges.append((label, k, weight, child))
        nodes[i] = (z, tuple(edges))
        return i

    node(0, 0)
    return VersionSpace.full(vclass), MistakeTree(kind, nodes, budget), features


def _outcome(f, *args):
    try:
        value = f(*args)
    except Exception as e:
        return type(e)
    return type(value), value


def _walks_agree(vs, tree, features):
    """Both versions of each walk return the same or raise the same type;
    returns verify_shattered's outcome.  The library's nested view is the
    reference's."""
    assert tree.root == ref.nested(tree)
    shattered = _outcome(dimensions.verify_shattered, tree, vs)
    assert shattered == _outcome(ref.ref_verify_shattered, tree, vs)
    if "weighted SC" not in features:  # the reference counts SC edges
        assert (_outcome(dimensions.certified_value, tree)
                == _outcome(ref.ref_certified_value, tree))
    assert (cli.canonical_json(cli.tree_json(tree))
            == cli.canonical_json(ref.ref_tree_json(ref.nested(tree))))
    assert cli.tree_dot(tree) == ref.ref_tree_dot(tree)
    return shattered


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tree_walks_match_the_recursive_references(rng):
    _walks_agree(*_random_tree(rng))


def test_random_trees_cover_every_case():
    """Over fixed seeds, the random trees above include shattered,
    unshattered and malformed ones, SC paths past the budget and shared
    subtrees, and the walks agree on each."""
    outcomes, features = set(), set()
    for seed in range(400):
        vs, tree, found = _random_tree(random.Random(seed))
        outcomes.add(_walks_agree(vs, tree, found))
        features |= found
    assert {(bool, True), (bool, False), MalformedTree} <= outcomes
    assert {"shared", "over budget", "weighted SC"} <= features


def test_sc_edges_must_weigh_one():
    """A plain or SC edge weighs 1: verify_shattered refuses any other
    weight, and certified_value sums the weights like every other kind, so
    doubling the root's edges adds one to the value."""
    vclass = families.indicator_class(2)
    vs = VersionSpace.full(vclass)
    tree = dimensions.extract_witness(vs, "SC", k=1)
    assert dimensions.verify_shattered(tree, vs)
    z, edges = tree.nodes[0]
    heavy = [(z, tuple((label, k, Fraction(2), c) for label, k, _, c in edges)),
             *tree.nodes[1:]]
    for kind in ("SC", "plain"):
        with pytest.raises(MalformedTree, match="must weigh 1"):
            dimensions.verify_shattered(MistakeTree(kind, heavy, 1), vs)
    value = dimensions.certified_value(tree)
    assert dimensions.certified_value(MistakeTree("SC", heavy, 1)) == value + 1


def test_walks_reach_below_the_recursion_limit():
    """complement_class(900) at SC k = 0 has a path-shaped witness 899
    levels deep.  At the default recursion limit every walk of it runs:
    the recursive tree_json needed two frames per level."""
    vc = families.complement_class(900, 10)
    vs = VersionSpace.full(vc)
    tree = dimensions.extract_witness(vs, "SC", k=0)
    assert dimensions.verify_shattered(tree, vs)
    assert dimensions.certified_value(tree) == 899
    doc, depth = cli.tree_json(tree), 0
    while doc is not None:
        doc = next(e["child"] for e in doc["edges"] if e["kind"] == "c")
        depth += 1
    assert depth == 899
    assert cli.tree_dot(tree).count(" -> ") == 2 * 899


def test_flat_trees_name_each_node_once():
    """Each node after the root is named by exactly one edge of an earlier
    node; any other list of nodes is MalformedTree, not a verdict and not
    another exception.  The nodes need not come in pre-order."""
    vs = VersionSpace.full(families.singleton_bitstring_class(2))
    tree = dimensions.extract_witness(vs, "plain")
    assert dimensions.verify_shattered(tree, vs)
    z, ((yes, kc, wc, c), (no, ks, ws, s)) = tree.nodes[0]
    assert (len(tree.nodes), c, s) == (3, 1, 2)

    def rooted(c, s):
        return MistakeTree("plain", [(z, ((yes, kc, wc, c), (no, ks, ws, s))),
                                     *tree.nodes[1:]])

    for c, s in [(0, 2),  # a node names itself
                 (3, 2),  # past the last node
                 (-1, 2), (True, 2), ("1", 2),  # no node index
                 (2, None),  # node 1 is named by no edge
                 (1, 1)]:  # node 1 is named twice
        with pytest.raises(MalformedTree):
            dimensions.verify_shattered(rooted(c, s), vs)
    # Dropping the last node leaves an edge that names no node.
    with pytest.raises(MalformedTree):
        dimensions.verify_shattered(MistakeTree("plain", tree.nodes[:-1]), vs)
    assert dimensions.verify_shattered(rooted(2, 1), vs)
    assert dimensions.verify_shattered(MistakeTree("plain", []), vs)


def test_a_malformed_node_is_refused_beside_a_failing_path():
    """verify_shattered checks every node: a tree whose first path fails
    and whose last node is malformed raises MalformedTree, as the
    reference does, rather than returning False."""
    vs = VersionSpace.full(families.singleton_bitstring_class(2))
    tree = dimensions.extract_witness(vs, "plain")
    root, (_, edges1), (z2, edges2) = tree.nodes
    # Node 1 asks the root's instance again, so its NO leaf is empty.
    failing = [root, (root[0], edges1), (z2, edges2)]
    assert not dimensions.verify_shattered(MistakeTree("plain", failing), vs)
    malformed = failing[:2] + [(z2, edges2[:1])]
    for walk in (dimensions.verify_shattered, ref.ref_verify_shattered):
        with pytest.raises(MalformedTree):
            walk(MistakeTree("plain", malformed), vs)
