"""Exact online-learning dimensions of finite verifier classes.

Four memoized minimax games over bitmask version spaces:

- plain (ldim): classic mistake-tree depth.
- SC (sc_ldim): depth with a budget k of "straight" (reject-side) edges;
  a straight branch burns budget, a curvy (accept-side) branch keeps it.
- WSC (wsc_ldim): weighted variant, straight edges cost gamma_s and curvy
  edges gamma_c; value is the guaranteed cumulative weight.
- SCL (scl_ldim): sequence-level game over full traces where the
  adversary commits either to two distinct fault locations (two l-edges)
  or to one fault location plus the all-correct answer (s-edge + c-edge).

Each game is described in one place, _game: it checks the game (SC needs
a budget k >= 0, WSC and SCL a cost vector, ordered for SCL), scales its
rational costs to integers, and pairs them with the class's engine for
those weights, once per class and game.  Every value, DimResult, witness
and optimal learner starts there.  All values are exact: integers for the
plain and SC games, rationals for the weighted ones.  A witness mistake
tree can be extracted for any positive value and independently
re-verified.

A MistakeTree is one flat list of nodes, each edge naming its child by
index, so every walk is a plain loop forward from the root or backward
from the leaves: no walk recurses, and a witness goes as deep as the
search.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import kernels
from .core import (
    ALL_CORRECT,
    CostVector,
    CotInstance,
    MalformedTree,
    NoWitness,
    PrefixInstance,
    VerifierClass,
    VersionSpace,
    cot_instances,
    is_fault,
)

KINDS = ("plain", "SC", "WSC", "SCL")


@dataclass(frozen=True)
class TreeEdge:
    """One labeled edge of a nested tree view; child None means leaf."""

    label: object  # PrefixLabel for prefix-level kinds, Label for SCL
    kind: str  # "s", "c", or "l"
    weight: Fraction
    child: Optional["TreeNode"]


@dataclass(frozen=True)
class TreeNode:
    instance: object  # PrefixInstance or CotInstance
    edges: tuple[TreeEdge, ...]


@dataclass(frozen=True)
class MistakeTree:
    """A mistake tree as one flat list of nodes.

    nodes[i] is node i's (instance, edges), each edge (label, kind,
    weight, child) with child the index of the node below it, or None for
    a bare leaf.  Node 0 is the root; every other node is named by one
    edge of an earlier node.  Extraction lists them in pre-order.  A tree
    without nodes is a single bare leaf.
    """

    kind: str  # one of KINDS
    nodes: list
    budget: Optional[int] = None  # straight-edge budget, SC kind only

    @property
    def root(self) -> Optional[TreeNode]:
        """The tree as nested TreeNode objects, built afresh on each call,
        for callers that walk a tree by object."""
        built = [None] * len(self.nodes)
        for i in range(len(built) - 1, -1, -1):
            z, edges = self.nodes[i]
            built[i] = TreeNode(z, tuple([
                TreeEdge(label, kind, w, None if c is None else built[c])
                for label, kind, w, c in edges]))
        return built[0] if built else None


@dataclass(frozen=True)
class DimResult:
    value: Union[int, Fraction]
    witness: Optional[MistakeTree]
    stats: dict


# Per-class cache of game descriptions, engines and the moves they scan, so
# repeated queries, and the optimal learners that keep their engine's
# value, share one memo table.
_class_caches: "weakref.WeakKeyDictionary[VerifierClass, dict]" = (
    weakref.WeakKeyDictionary()
)


def _cached(vclass: VerifierClass, key, make):
    """The class's object under key, made by make() on first use."""
    cache = _class_caches.setdefault(vclass, {})
    obj = cache.get(key)
    if obj is None:
        obj = cache[key] = make()
    return obj


def _first_of(pairs) -> dict:
    """{key: the first item paired with it} over (item, key) pairs, with
    the keys in order of first appearance."""
    first = {}
    for item, key in pairs:
        first.setdefault(key, item)
    return first


def _distinct_masks(vclass: VerifierClass) -> dict[int, PrefixInstance]:
    """The class's distinct yes-masks in order of first appearance, each
    mapped to the first universe instance that has it.  A repeated mask
    adds no split: the engines scan these instead of the whole universe,
    and a witness node asks the instance of its realizing mask."""
    return _cached(vclass, "distinct_masks",
                   lambda: _first_of(zip(vclass.universe, vclass.yes_masks)))


def _scl_label_masks(vclass: VerifierClass) -> dict[tuple, CotInstance]:
    """The distinct label partitions of the full traces in cot_instances
    order, each mapped to the first trace that has it.  Traces with one
    partition offer the same moves: the SCL engine scans these, and a
    witness node asks the trace of its realizing partition."""
    return _cached(vclass, "scl_labels", lambda: _first_of(
        (z, vclass.cot_partition(z)) for z in cot_instances(vclass)))


def integer_costs(*costs: Fraction) -> tuple[int, ...]:
    """The costs as integers over their least common denominator, followed
    by that denominator."""
    scale = math.lcm(*(c.denominator for c in costs))
    return (*(int(c * scale) for c in costs), scale)


class _Game(NamedTuple):
    """One game on one class, as _game describes it."""

    kind: str  # one of KINDS
    engine: kernels.Engine
    weights: tuple  # the integer edge costs: ws, wc and, for SCL, wl
    scale: int  # their common denominator: each cost is weight / scale
    root: Optional[int]  # the root's budget: k for SC, None for SCL
    costs: tuple  # the edge costs: gamma_s, gamma_c and, for SCL, gamma_l

    def value(self, alive: int) -> Union[int, Fraction]:
        """The exact value of the version space alive: an integer in the
        plain and SC games, a rational in the weighted ones."""
        eng = self.engine
        raw = eng.value(alive) if self.root is None else eng.value(alive, self.root)
        return raw if self.kind in ("plain", "SC") else Fraction(raw, self.scale)


def _game(vclass: VerifierClass, kind: str, k: Optional[int] = None,
          costs: Optional[CostVector] = None) -> _Game:
    """The one place where a query becomes a game, once per class and game.

    Checks the game (SC needs a budget k >= 0, WSC and SCL a cost vector,
    ordered for SCL), scales its costs to integers, and pairs them with the
    class's engine for those weights, made by the kind's kernels factory.
    Every value, DimResult, witness and optimal learner starts here, so a
    refused game never touches an engine.
    """
    cache = _class_caches.setdefault(vclass, {})
    game = cache.get((kind, k, costs))
    if game is not None:
        return game
    weighted = kind in ("WSC", "SCL")
    if kind not in KINDS:
        raise ValueError(f"unknown tree kind: {kind}")
    if kind == "SC" and k is None:
        raise ValueError("the SC game needs a budget k")
    if kind == "SC" and k < 0:
        raise ValueError("budget k must be >= 0")
    if weighted and costs is None:
        raise ValueError(f"the {kind} game needs a cost vector")
    gammas = (costs.gamma_s, costs.gamma_c) if weighted else (Fraction(1),) * 2
    if kind == "SCL":
        costs.require_ordered()
        gammas += (costs.gamma_l,)
    *weights, scale = integer_costs(*gammas)
    # Plain and SC engines take no weights; plain's is not WSC's at 1/1.
    name = "ldim" if kind == "plain" else kind.lower()
    args = tuple(weights) if weighted else ()
    moves = _scl_label_masks if kind == "SCL" else _distinct_masks
    engine = _cached(vclass, (name, args), lambda: getattr(
        kernels, f"{name}_engine")(moves(vclass), *args))
    root = None if kind == "SCL" else k if kind == "SC" else kernels.FREE_BUDGET
    cache[kind, k, costs] = game = _Game(kind, engine, tuple(weights), scale,
                                         root, gammas)
    return game


# One entry point per game and layer, as the package exports them and the
# benchmark's tracer times them: a query calls its game's value and extractor.

def ldim_value(vs: VersionSpace) -> int:
    return _game(vs.vclass, "plain").value(vs.alive)


def sc_value(vs: VersionSpace, k: int) -> int:
    return _game(vs.vclass, "SC", k).value(vs.alive)


def wsc_value(vs: VersionSpace, costs: CostVector) -> Fraction:
    return _game(vs.vclass, "WSC", costs=costs).value(vs.alive)


def scl_value(vs: VersionSpace, costs: CostVector) -> Fraction:
    return _game(vs.vclass, "SCL", costs=costs).value(vs.alive)


def ldim(vs: VersionSpace, witness: bool = True) -> DimResult:
    return _dim(vs, witness, "plain", ldim_value, _extract_plain)


def sc_ldim(vs: VersionSpace, k: int, witness: bool = True) -> DimResult:
    return _dim(vs, witness, "SC", sc_value, _extract_sc, k=k)


def wsc_ldim(vs: VersionSpace, costs: CostVector, witness: bool = True) -> DimResult:
    return _dim(vs, witness, "WSC", wsc_value, _extract_wsc, costs=costs)


def scl_ldim(vs: VersionSpace, costs: CostVector, witness: bool = True) -> DimResult:
    return _dim(vs, witness, "SCL", scl_value, _extract_scl, costs=costs)


def _extract_plain(vs: VersionSpace) -> MistakeTree:
    return extract_witness(vs, "plain")


def _extract_sc(vs: VersionSpace, k: int) -> MistakeTree:
    return extract_witness(vs, "SC", k)


def _extract_wsc(vs: VersionSpace, costs: CostVector) -> MistakeTree:
    return extract_witness(vs, "WSC", costs=costs)


def _extract_scl(vs: VersionSpace, costs: CostVector) -> MistakeTree:
    return extract_witness(vs, "SCL", costs=costs)


def _dim(vs: VersionSpace, witness: bool, kind: str, value, extract,
         **game) -> DimResult:
    """value(vs, **game), with the witness extract(vs, **game) if asked and
    the value is positive.  The stats count the engine work of this value
    search alone, not earlier queries on the class nor the extraction."""
    engine = _game(vs.vclass, kind, **game).engine
    nodes0, hits0 = engine.stats()
    v = value(vs, **game)
    nodes, hits = engine.stats()
    tree = extract(vs, **game) if witness and v > 0 else None
    return DimResult(v, tree, {"nodes_expanded": nodes - nodes0,
                               "memo_hits": hits - hits0,
                               "backend": kernels.BACKEND})


def extract_witness(vs: VersionSpace, kind: str, k: Optional[int] = None,
                    costs: Optional[CostVector] = None) -> MistakeTree:
    """Mistake tree certifying the dimension of the given kind.

    Follows the realizing move the engine recorded beside each memo
    entry, so the minimal path of the returned tree meets the dimension
    with equality and no child is solved again.  The game's expander
    turns a state and its move into the node's instance and its edges,
    each (label, kind, weight, child state); a child state of None is a
    bare leaf, as is a state whose value is 0.  Raises NoWitness when the
    dimension is 0.
    """
    game = _game(vs.vclass, kind, k, costs)
    moves = game.engine.moves
    state = vs.alive if game.root is None else (vs.alive, game.root)
    if state not in moves:
        game.value(vs.alive)  # a cold root, which no query has solved yet
    if moves.get(state) is None:
        raise NoWitness("dimension is 0")
    expand = (_scl_expander if kind == "SCL" else _prefix_expander)(vs.vclass, game)
    # Expand in pre-order from one stack, then name each child by its node
    # index: sibling version spaces are disjoint, so no state repeats in a
    # witness.  A child that no node expanded is a bare leaf.
    expanded, at = [], {}
    stack = [state]
    while stack:
        s = stack.pop()
        at[s] = len(expanded)
        z, edges = expand(s, moves[s])
        expanded.append((z, edges))
        stack.extend([e[3] for e in reversed(edges) if moves.get(e[3]) is not None])
    index = at.get
    return MistakeTree(kind, [
        (z, tuple([(label, e, w, index(child)) for label, e, w, child in edges]))
        for z, edges in expanded], game.root if kind == "SC" else None)


def _prefix_expander(vclass: VerifierClass, game: _Game):
    """The prefix games' nodes: a curvy YES edge and a straight NO edge
    over (alive, budget) states.  SC's straight edge spends one of its
    budget; the plain and WSC games never spend."""
    first = _distinct_masks(vclass)
    spend = int(game.kind == "SC")
    gamma_s, gamma_c = game.costs

    def expand(state, m):
        alive, budget = state
        y = m & alive
        # At budget 0 the straight subtree is unconstrained, so a bare
        # leaf keeps the tree shattered without adding depth.
        straight = None if budget == 0 else (alive ^ y, budget - spend)
        return first[m], ((True, "c", gamma_c, (y, budget)),
                          (False, "s", gamma_s, straight))

    return expand


def _scl_expander(vclass: VerifierClass, game: _Game):
    """The SCL game's nodes: the recorded partition's first move, s/c
    before l/l as the search weighs them, whose children's values realize
    the node."""
    memo = game.engine.memo
    first = _scl_label_masks(vclass)
    ws, wc, wl = game.weights
    gamma_s, gamma_c, gamma_l = game.costs

    def value(alive):
        return memo[alive] if alive & (alive - 1) else 0

    def expand(alive, parts):
        v = memo[alive]
        groups = [(label, m & alive) for label, m in parts if m & alive]
        faults = [g for g in groups if is_fault(g[0])]
        if len(faults) < len(groups):  # ALL_CORRECT comes last
            correct = groups[-1][1]
            for label, sub in faults:
                if min(ws + value(sub), wc + value(correct)) == v:
                    return first[parts], (
                        (label, "s", gamma_s, sub),
                        (ALL_CORRECT, "c", gamma_c, correct))
        for i, (la, a) in enumerate(faults):
            for lb, b in faults[i + 1:]:
                if wl + min(value(a), value(b)) == v:
                    return first[parts], (
                        (la, "l", gamma_l, a), (lb, "l", gamma_l, b))

    return expand


def _check_node(z, edges, kind: str) -> None:
    """Refuse a node that no tree of the kind has: MalformedTree."""
    if len(edges) != 2:
        raise MalformedTree(f"node must have exactly 2 edges, got {len(edges)}")
    (la, ka, wa, _), (lb, kb, wb, _) = edges
    unit = kind in ("plain", "SC")
    for w in (wa, wb):
        if w != 1 if unit else w < 0:
            raise MalformedTree(f"{kind} edges must weigh 1" if unit
                                else "negative edge weight")
    if kind == "SCL":
        if not isinstance(z, CotInstance):
            raise MalformedTree("SCL node must carry a full trace")
        kinds = {ka, kb}
        if kinds == {"l"}:
            if not (is_fault(la) and is_fault(lb)):
                raise MalformedTree("l-edges must carry fault labels")
            if la == lb:
                raise MalformedTree("l-edges must carry distinct labels")
        elif kinds == {"s", "c"}:
            s_label, c_label = (la, lb) if ka == "s" else (lb, la)
            if not is_fault(s_label):
                raise MalformedTree("s-edge must carry a fault label")
            if c_label != ALL_CORRECT:
                raise MalformedTree("c-edge must carry the all-correct label")
        else:
            raise MalformedTree(f"invalid SCL edge kinds: {kinds}")
    else:
        if not isinstance(z, PrefixInstance):
            raise MalformedTree(f"{kind} node must carry a prefix instance")
        by_kind = {ka: la, kb: lb}
        if set(by_kind) != {"s", "c"}:
            raise MalformedTree("need one straight and one curvy edge")
        if by_kind["c"] is not True or by_kind["s"] is not False:
            raise MalformedTree("curvy edge must be YES, straight edge NO")


def verify_shattered(tree: MistakeTree, vs: VersionSpace) -> bool:
    """Every root-to-leaf path is consistent with some alive verifier.

    One forward loop gives each node the verifiers of vs that agree with
    every label on its path, set by its parent's edge; a path fails at a
    bare leaf that none of them reaches.  Every node is checked, so a
    malformed node raises MalformedTree even beside a failing path, as
    does a node that is not named by exactly one edge of an earlier node.
    """
    kind = tree.kind
    if kind not in KINDS:
        raise MalformedTree(f"unknown tree kind: {kind}")
    nodes, vclass = tree.nodes, vs.vclass
    n = len(nodes)
    alive = [vs.alive] + [None] * (n - 1)
    shattered = True
    for i, (z, edges) in enumerate(nodes):
        a = alive[i]
        if a is None:
            raise MalformedTree(f"no edge of an earlier node names node {i}")
        _check_node(z, edges, kind)
        if kind == "SCL":
            part = dict(vclass.cot_partition(z))
        else:
            yes = vclass.yes_masks[vclass.index_of(z)]
            part = {True: yes, False: ~yes}
        for label, _, _, c in edges:
            sub = a & part.get(label, 0)
            if c is None:
                shattered = shattered and sub != 0
            elif type(c) is int and i < c < n and alive[c] is None:
                alive[c] = sub
            else:
                raise MalformedTree(f"node {i} names {c!r}, not a later node of its own")
    return shattered


def certified_value(tree: MistakeTree) -> Union[int, Fraction]:
    """Lower bound the tree certifies: minimum path depth or weight.

    For SC trees, paths using more straight edges than the budget are
    unconstrained and excluded from the minimum.
    """
    budget = (tree.budget or 0) if tree.kind == "SC" else math.inf
    below = _min_paths(tree.nodes, budget)
    w = below[0] if below else None
    return int(w or 0) if tree.kind in ("plain", "SC") else Fraction(w or 0)


def _min_paths(nodes: list, budget=math.inf) -> list:
    """Each node's minimum path weight down to a leaf, by node index:
    a forward loop gives each node the straight edges left above it, and
    a backward loop takes each node after its children.  A path with more
    straight edges than the budget is unconstrained and left out; a node
    with no path left, or under such a path, has None."""
    n = len(nodes)
    left = [budget] + [None] * (n - 1)
    for i, (_, edges) in enumerate(nodes):
        k = left[i]
        if k is not None:
            for _, kind, _, c in edges:
                if c is not None and (kind != "s" or k > 0):
                    left[c] = k - (kind == "s")
    below = [None] * n
    for i in range(n - 1, -1, -1):
        k = left[i]
        if k is None:
            continue
        best = None
        for _, kind, w, c in nodes[i][1]:
            if kind == "s" and k == 0:
                continue
            if c is not None:
                rest = below[c]
                if rest is None:
                    continue
                w += rest
            if best is None or w < best:
                best = w
        below[i] = best
    return below


def min_leaf_recurrence(w: int, d: int) -> int:
    """L(w) = L(w-1) + L(w-d) with L(w) = 1 for w <= 0.

    Minimum leaf count of a weight-w tree whose straight edges cost d and
    curvy edges cost 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if w <= 0:
        return 1
    vals = [1] * d  # vals[i] holds L(w - d + i) for the sliding window
    for _ in range(w):
        vals.append(vals[-1] + vals[0])
        vals.pop(0)
    return vals[-1]


def max_weight_for_leaves(n_leaves: int, d: int) -> int:
    """Largest w with min_leaf_recurrence(w, d) <= n_leaves (prefix_bound)."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    if d < 1:
        raise ValueError("d must be >= 1")
    return kernels.prefix_bound(d, 1, 0)(n_leaves, kernels.FREE_BUDGET)
