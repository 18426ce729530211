"""Exact online-learning dimensions of finite verifier classes.

Four memoized minimax games over bitmask version spaces:

- ldim: classic mistake-tree depth.
- sc_ldim: depth with a budget k of "straight" (reject-side) edges; a
  straight branch burns budget, a curvy (accept-side) branch keeps it.
- wsc_ldim: weighted variant, straight edges cost gamma_s and curvy
  edges gamma_c; value is the guaranteed cumulative weight.
- scl_ldim: sequence-level game over full traces where the adversary
  commits either to two distinct fault locations (two l-edges) or to one
  fault location plus the all-correct answer (s-edge + c-edge).

All values are exact: integers for ldim/sc_ldim, rationals for the
weighted games.  Rational costs are scaled to integers before hitting
the kernels and scaled back on the way out.  A witness mistake tree can
be extracted for any positive value and independently re-verified.

A MistakeTree is one flat list of nodes, each edge naming its child by
index, so every walk is a plain loop forward from the root or backward
from the leaves: no walk recurses, and a witness goes as deep as the
search.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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


# Per-class cache of engines (and SCL label partitions) so repeated
# queries, and the optimal learners that keep their engine's value, share
# one memo table.
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


def _ldim_engine(vclass: VerifierClass):
    return _cached(vclass, "ldim",
                   lambda: kernels.ldim_engine(list(_distinct_masks(vclass))))


def _sc_engine(vclass: VerifierClass):
    return _cached(vclass, "sc",
                   lambda: kernels.sc_engine(list(_distinct_masks(vclass))))


@functools.lru_cache(maxsize=256)
def integer_costs(*costs: Fraction) -> tuple[int, ...]:
    """The costs as integers over their least common denominator, followed
    by that denominator.  Cached per cost tuple: every weighted value
    query asks for it."""
    scale = math.lcm(*(c.denominator for c in costs))
    return (*(int(c * scale) for c in costs), scale)


def _wsc_engine(vclass: VerifierClass, ws: int, wc: int):
    return _cached(vclass, ("wsc", ws, wc),
                   lambda: kernels.wsc_engine(list(_distinct_masks(vclass)), ws, wc))


def _scl_label_masks(vclass: VerifierClass) -> dict[tuple, CotInstance]:
    """The distinct label partitions of the full traces in cot_instances
    order, each mapped to the first trace that has it.  Traces with one
    partition offer the same moves: the SCL engine scans these, and a
    witness node asks the trace of its realizing partition."""
    return _cached(vclass, "scl_labels", lambda: _first_of(
        (z, vclass.cot_partition(z)) for z in cot_instances(vclass)))


def _scl_engine(vclass: VerifierClass, ws: int, wc: int, wl: int):
    return _cached(vclass, ("scl", ws, wc, wl),
                   lambda: kernels.scl_engine(_scl_label_masks(vclass), ws, wc, wl))


def _query(engine, value, *args) -> tuple:
    """value(*args) and the engine work it alone did."""
    nodes0, hits0 = engine.stats()
    v = value(*args)
    nodes, hits = engine.stats()
    return v, {
        "nodes_expanded": nodes - nodes0,
        "memo_hits": hits - hits0,
        "backend": kernels.BACKEND,
    }


# Raw value helpers for one version space; the learners read their engine.

def ldim_value(vs: VersionSpace) -> int:
    return _ldim_engine(vs.vclass).value(vs.alive)


def sc_value(vs: VersionSpace, k: int) -> int:
    if k < 0:
        raise ValueError("budget k must be >= 0")
    return _sc_engine(vs.vclass).value(vs.alive, k)


def wsc_value(vs: VersionSpace, costs: CostVector) -> Fraction:
    ws, wc, scale = integer_costs(costs.gamma_s, costs.gamma_c)
    raw = _wsc_engine(vs.vclass, ws, wc).value(vs.alive)
    return Fraction(raw, scale)


def scl_value(vs: VersionSpace, costs: CostVector) -> Fraction:
    costs.require_ordered()
    ws, wc, wl, scale = integer_costs(costs.gamma_s, costs.gamma_c, costs.gamma_l)
    raw = _scl_engine(vs.vclass, ws, wc, wl).value(vs.alive)
    return Fraction(raw, scale)


# DimResult.stats counts the value search of this query only: not earlier
# queries on the same class, and not the witness extraction.

def ldim(vs: VersionSpace, witness: bool = True) -> DimResult:
    value, stats = _query(_ldim_engine(vs.vclass), ldim_value, vs)
    tree = _extract_plain(vs) if witness and value > 0 else None
    return DimResult(value, tree, stats)


def sc_ldim(vs: VersionSpace, k: int, witness: bool = True) -> DimResult:
    value, stats = _query(_sc_engine(vs.vclass), sc_value, vs, k)
    tree = _extract_sc(vs, k) if witness and value > 0 else None
    return DimResult(value, tree, stats)


def wsc_ldim(vs: VersionSpace, costs: CostVector, witness: bool = True) -> DimResult:
    ws, wc, _ = integer_costs(costs.gamma_s, costs.gamma_c)
    value, stats = _query(_wsc_engine(vs.vclass, ws, wc), wsc_value, vs, costs)
    tree = _extract_wsc(vs, costs) if witness and value > 0 else None
    return DimResult(value, tree, stats)


def scl_ldim(vs: VersionSpace, costs: CostVector, witness: bool = True) -> DimResult:
    ws, wc, wl, _ = integer_costs(costs.gamma_s, costs.gamma_c, costs.gamma_l)
    value, stats = _query(_scl_engine(vs.vclass, ws, wc, wl), scl_value, vs, costs)
    tree = _extract_scl(vs, costs) if witness and value > 0 else None
    return DimResult(value, tree, stats)


# Witness extraction follows the realizing move each engine recorded beside
# a memo entry, so the minimal path of the returned tree meets the
# dimension with equality and no child is solved again.  Each game turns a
# recorded move into a node once, as expand(state, move) giving the
# node's instance and its edges, each (label, kind, weight, child state);
# a child state of None is a bare leaf, as is a state whose value is 0.

def _extract(kind: str, eng, state, solve, expand, budget=None) -> MistakeTree:
    moves = eng.moves
    if state not in moves:
        solve()  # a cold root, which no query has solved yet
    if moves.get(state) is None:
        raise NoWitness("dimension is 0")
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
        (z, tuple([(label, k, w, index(child)) for label, k, w, child in edges]))
        for z, edges in expanded], budget)


def _extract_prefix(kind: str, vs: VersionSpace, eng, gamma_s: Fraction,
                    gamma_c: Fraction, k: Optional[int] = None) -> MistakeTree:
    """The prefix game's tree: a curvy YES edge and a straight NO edge over
    (alive, budget) states.  SC's straight edge spends one of its budget
    k; the plain and WSC games pass no k and never spend."""
    first = _distinct_masks(vs.vclass)
    spend, root = (0, kernels.FREE_BUDGET) if k is None else (1, k)

    def expand(state, m):
        alive, budget = state
        y = m & alive
        # At budget 0 the straight subtree is unconstrained, so a bare
        # leaf keeps the tree shattered without adding depth.
        straight = None if budget == 0 else (alive ^ y, budget - spend)
        return first[m], ((True, "c", gamma_c, (y, budget)),
                          (False, "s", gamma_s, straight))

    return _extract(kind, eng, (vs.alive, root), lambda: eng.value(vs.alive, root),
                    expand, budget=k)


def _extract_plain(vs: VersionSpace) -> MistakeTree:
    one = Fraction(1)
    return _extract_prefix("plain", vs, _ldim_engine(vs.vclass), one, one)


def _extract_wsc(vs: VersionSpace, costs: CostVector) -> MistakeTree:
    ws, wc, _ = integer_costs(costs.gamma_s, costs.gamma_c)
    return _extract_prefix("WSC", vs, _wsc_engine(vs.vclass, ws, wc),
                           costs.gamma_s, costs.gamma_c)


def _extract_sc(vs: VersionSpace, k: int) -> MistakeTree:
    if k < 0:
        raise ValueError("budget k must be >= 0")
    one = Fraction(1)
    return _extract_prefix("SC", vs, _sc_engine(vs.vclass), one, one, k)


def _extract_scl(vs: VersionSpace, costs: CostVector) -> MistakeTree:
    costs.require_ordered()
    ws, wc, wl, _ = integer_costs(costs.gamma_s, costs.gamma_c, costs.gamma_l)
    eng = _scl_engine(vs.vclass, ws, wc, wl)
    memo = eng.memo
    first = _scl_label_masks(vs.vclass)

    def value(alive):
        return memo[alive] if alive & (alive - 1) else 0

    # The recorded trace's first move, s/c before l/l as the search
    # weighs them, whose children's values realize the node.
    def expand(alive, parts):
        v = memo[alive]
        groups = [(label, m & alive) for label, m in parts if m & alive]
        faults = [g for g in groups if is_fault(g[0])]
        if len(faults) < len(groups):  # ALL_CORRECT comes last
            correct = groups[-1][1]
            for label, sub in faults:
                if min(ws + value(sub), wc + value(correct)) == v:
                    return first[parts], (
                        (label, "s", costs.gamma_s, sub),
                        (ALL_CORRECT, "c", costs.gamma_c, correct))
        for i, (la, a) in enumerate(faults):
            for lb, b in faults[i + 1:]:
                if wl + min(value(a), value(b)) == v:
                    return first[parts], (
                        (la, "l", costs.gamma_l, a), (lb, "l", costs.gamma_l, b))

    return _extract("SCL", eng, vs.alive, lambda: eng.value(vs.alive), expand)


def extract_witness(
    vs: VersionSpace,
    kind: str,
    k: Optional[int] = None,
    costs: Optional[CostVector] = None,
) -> MistakeTree:
    """Mistake tree certifying the dimension of the given kind.

    Raises NoWitness when the dimension is 0.
    """
    if kind == "plain":
        return _extract_plain(vs)
    if kind == "SC":
        if k is None:
            raise ValueError("SC witness needs a budget k")
        return _extract_sc(vs, k)
    if kind == "WSC":
        if costs is None:
            raise ValueError("WSC witness needs a cost vector")
        return _extract_wsc(vs, costs)
    if kind == "SCL":
        if costs is None:
            raise ValueError("SCL witness needs a cost vector")
        return _extract_scl(vs, costs)
    raise ValueError(f"unknown tree kind: {kind}")


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
    """Largest w with min_leaf_recurrence(w, d) <= n_leaves."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    if d < 1:
        raise ValueError("d must be >= 1")
    return kernels.wsc_bound(n_leaves, d, 1)
