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
    """One labeled edge of a mistake tree; child None means leaf."""

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
    kind: str  # one of KINDS
    root: Optional[TreeNode]
    budget: Optional[int] = None  # straight-edge budget, SC kind only


@dataclass(frozen=True)
class DimResult:
    value: Union[int, Fraction]
    witness: Optional[MistakeTree]
    stats: dict


def depth_first(root, children):
    """Yield root and everything below it, depth-first in edge order, from
    an explicit stack, so no walk is bound by the recursion limit.

    children(node) gives a list or tuple of node's children in edge order.
    It is asked after node is yielded, so a walk that stops early asks no
    further.  Listed and reversed, the walk puts every node after its
    descendants.
    """
    stack = [root]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        yield node
        push(children(node)[::-1])


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
    # Expand top-down, then freeze bottom-up.  A child's version space is a
    # strict part of its parent's and disjoint from its sibling's, so no
    # state repeats in a witness and one dict can hold each state's
    # expansion and then its node.
    nodes = {}

    def children(state):
        z, edges = nodes[state] = expand(state, moves[state])
        return [e[3] for e in edges if moves.get(e[3]) is not None]

    for s in [*depth_first(state, children)][::-1]:
        z, edges = nodes[s]
        nodes[s] = TreeNode(z, tuple([TreeEdge(label, k, w, nodes.get(child))
                                      for label, k, w, child in edges]))
    return MistakeTree(kind, nodes[state], budget)


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


def _check_node(node: TreeNode, kind: str) -> None:
    if len(node.edges) != 2:
        raise MalformedTree(f"node must have exactly 2 edges, got {len(node.edges)}")
    unit = kind in ("plain", "SC")
    for e in node.edges:
        if e.weight != 1 if unit else e.weight < 0:
            raise MalformedTree(f"{kind} edges must weigh 1" if unit
                                else "negative edge weight")
    if kind == "SCL":
        if not isinstance(node.instance, CotInstance):
            raise MalformedTree("SCL node must carry a full trace")
        a, b = node.edges
        kinds = {a.kind, b.kind}
        if kinds == {"l"}:
            if not (is_fault(a.label) and is_fault(b.label)):
                raise MalformedTree("l-edges must carry fault labels")
            if a.label == b.label:
                raise MalformedTree("l-edges must carry distinct labels")
        elif kinds == {"s", "c"}:
            s_edge = a if a.kind == "s" else b
            c_edge = a if a.kind == "c" else b
            if not is_fault(s_edge.label):
                raise MalformedTree("s-edge must carry a fault label")
            if c_edge.label != ALL_CORRECT:
                raise MalformedTree("c-edge must carry the all-correct label")
        else:
            raise MalformedTree(f"invalid SCL edge kinds: {kinds}")
    else:
        if not isinstance(node.instance, PrefixInstance):
            raise MalformedTree(f"{kind} node must carry a prefix instance")
        by_kind = {e.kind: e for e in node.edges}
        if set(by_kind) != {"s", "c"}:
            raise MalformedTree("need one straight and one curvy edge")
        if by_kind["c"].label is not True or by_kind["s"].label is not False:
            raise MalformedTree("curvy edge must be YES, straight edge NO")


def verify_shattered(tree: MistakeTree, vs: VersionSpace) -> bool:
    """Every root-to-leaf path is consistent with some alive verifier."""
    if tree.kind not in KINDS:
        raise MalformedTree(f"unknown tree kind: {tree.kind}")
    if tree.root is None:
        return True
    restrict = (VersionSpace.restrict_cot if tree.kind == "SCL"
                else VersionSpace.restrict)

    # A bare leaf is listed only when no alive verifier reaches it, and the
    # walk stops there, so a node is checked where its turn comes.
    def children(item):
        node, space = item
        _check_node(node, tree.kind)
        return [(e.child, sub) for e in node.edges
                if not (sub := restrict(space, node.instance, e.label)).alive
                or e.child is not None]

    for node, _ in depth_first((tree.root, vs), children):
        if node is None:
            return False
    return True


def certified_value(tree: MistakeTree) -> Union[int, Fraction]:
    """Lower bound the tree certifies: minimum path depth or weight.

    For SC trees, paths using more straight edges than the budget are
    unconstrained and excluded from the minimum.
    """
    budget = (tree.budget or 0) if tree.kind == "SC" else math.inf
    w = _min_paths(tree.root, budget).get((id(tree.root), budget))
    return int(w or 0) if tree.kind in ("plain", "SC") else Fraction(w or 0)


def _min_paths(root: Optional[TreeNode], budget=math.inf) -> dict:
    """Every subtree's minimum root-to-leaf path weight, keyed by (the id
    of its root node, the straight edges left above it), from one pass
    that takes each subtree after those below it.  A path with more
    straight edges than the budget is unconstrained and left out; a
    subtree none of whose paths is left maps to None."""
    below: dict = {}

    def children(item):
        node, k = item
        return [(e.child, k - (e.kind == "s")) for e in node.edges
                if e.child is not None]

    for node, k in reversed([*depth_first((root, budget), children)]
                            if root is not None else []):
        rests = [r for e in node.edges if (r := _remainder(e, below, k)) is not None]
        below[id(node), k] = min(rests, default=None)
    return below


def _remainder(edge: TreeEdge, below: dict, k=math.inf) -> Optional[Fraction]:
    """The edge's weight plus the minimum path weight below its child, with
    k straight edges left above the edge; None when every path through the
    edge is over budget."""
    if edge.kind == "s":
        if k == 0:
            return None
        k -= 1
    if edge.child is None:
        return edge.weight
    rest = below[id(edge.child), k]
    return None if rest is None else edge.weight + rest


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
