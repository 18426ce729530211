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
    Label,
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


# Per-class cache of engines (and SCL label partitions) so repeated
# queries, and online learners that consult dimension values every round,
# share one memo table.
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


def _ldim_engine(vclass: VerifierClass):
    return _cached(vclass, "ldim", lambda: kernels.ldim_engine(vclass.yes_masks))


def _sc_engine(vclass: VerifierClass):
    return _cached(vclass, "sc", lambda: kernels.sc_engine(vclass.yes_masks))


def _scale(*costs: Fraction) -> tuple[int, ...]:
    """The costs as integers over their least common denominator, followed
    by that denominator."""
    scale = math.lcm(*(c.denominator for c in costs))
    return (*(int(c * scale) for c in costs), scale)


def _wsc_engine(vclass: VerifierClass, ws: int, wc: int):
    return _cached(vclass, ("wsc", ws, wc),
                   lambda: kernels.wsc_engine(vclass.yes_masks, ws, wc))


def _scl_label_masks(vclass: VerifierClass) -> list[tuple[tuple[Label, int], ...]]:
    """Per full trace (in cot_instances order), its label partition."""
    return _cached(vclass, "scl_labels", lambda: [
        vclass.cot_partition(z) for z in cot_instances(vclass)
    ])


def _scl_engine(vclass: VerifierClass, ws: int, wc: int, wl: int):
    return _cached(vclass, ("scl", ws, wc, wl),
                   lambda: kernels.scl_engine(_scl_label_masks(vclass), ws, wc, wl))


def _query(engine, solve) -> tuple:
    """solve()'s value and the engine work it alone did."""
    nodes0, hits0 = engine.stats()
    value = solve()
    nodes, hits = engine.stats()
    return value, {
        "nodes_expanded": nodes - nodes0,
        "memo_hits": hits - hits0,
        "backend": kernels.BACKEND,
    }


# Raw value helpers, shared by learners that query dimensions per round.

def ldim_value(vs: VersionSpace) -> int:
    return _ldim_engine(vs.vclass).value(vs.alive)


def sc_value(vs: VersionSpace, k: int) -> int:
    if k < 0:
        raise ValueError("budget k must be >= 0")
    return _sc_engine(vs.vclass).value(vs.alive, k)


def wsc_value(vs: VersionSpace, costs: CostVector) -> Fraction:
    ws, wc, scale = _scale(costs.gamma_s, costs.gamma_c)
    raw = _wsc_engine(vs.vclass, ws, wc).value(vs.alive)
    return Fraction(raw, scale)


def scl_value(vs: VersionSpace, costs: CostVector) -> Fraction:
    costs.require_ordered()
    ws, wc, wl, scale = _scale(costs.gamma_s, costs.gamma_c, costs.gamma_l)
    raw = _scl_engine(vs.vclass, ws, wc, wl).value(vs.alive)
    return Fraction(raw, scale)


# DimResult.stats counts the value search of this query only: not earlier
# queries on the same class, and not the witness extraction.

def ldim(vs: VersionSpace, witness: bool = True) -> DimResult:
    value, stats = _query(_ldim_engine(vs.vclass), lambda: ldim_value(vs))
    tree = _extract_plain(vs) if witness and value > 0 else None
    return DimResult(value, tree, stats)


def sc_ldim(vs: VersionSpace, k: int, witness: bool = True) -> DimResult:
    value, stats = _query(_sc_engine(vs.vclass), lambda: sc_value(vs, k))
    tree = _extract_sc(vs, k) if witness and value > 0 else None
    return DimResult(value, tree, stats)


def wsc_ldim(vs: VersionSpace, costs: CostVector, witness: bool = True) -> DimResult:
    ws, wc, _ = _scale(costs.gamma_s, costs.gamma_c)
    value, stats = _query(_wsc_engine(vs.vclass, ws, wc),
                          lambda: wsc_value(vs, costs))
    tree = _extract_wsc(vs, costs) if witness and value > 0 else None
    return DimResult(value, tree, stats)


def scl_ldim(vs: VersionSpace, costs: CostVector, witness: bool = True) -> DimResult:
    ws, wc, wl, _ = _scale(costs.gamma_s, costs.gamma_c, costs.gamma_l)
    value, stats = _query(_scl_engine(vs.vclass, ws, wc, wl),
                          lambda: scl_value(vs, costs))
    tree = _extract_scl(vs, costs) if witness and value > 0 else None
    return DimResult(value, tree, stats)


# Witness extraction walks the memoized game again, always following a
# move whose exact value realizes the node's value, so the minimal path of
# the returned tree meets the dimension with equality.  Each game gives its
# moves once, as moves(state) yielding (instance, move value, edges) in
# search order, each edge (label, kind, weight, child state); a child
# state of None is a bare leaf.

def _extract(kind: str, value, moves, state, budget=None) -> MistakeTree:
    if value(state) == 0:
        raise NoWitness("dimension is 0")

    def build(state) -> Optional[TreeNode]:
        v = value(state)
        if v == 0:
            return None
        for z, move_value, edges in moves(state):
            if move_value == v:
                return TreeNode(z, tuple(
                    TreeEdge(label, k, w, None if child is None else build(child))
                    for label, k, w, child in edges
                ))
        raise AssertionError("memoized value has no realizing move")

    return MistakeTree(kind, build(state), budget)


def _splits(vclass: VerifierClass, alive: int):
    for z, m in zip(vclass.universe, vclass.yes_masks):
        y = m & alive
        if y and y != alive:
            yield z, y, alive ^ y


def _weighted_moves(vclass: VerifierClass, eng, ws: int, wc: int,
                    gamma_s: Fraction, gamma_c: Fraction):
    """The prefix game's moves: a curvy YES edge and a straight NO edge."""

    def moves(alive):
        for z, y, n in _splits(vclass, alive):
            yield z, min(ws + eng.value(n), wc + eng.value(y)), (
                (True, "c", gamma_c, y), (False, "s", gamma_s, n))

    return moves


def _extract_plain(vs: VersionSpace) -> MistakeTree:
    eng = _ldim_engine(vs.vclass)
    one = Fraction(1)
    return _extract("plain", eng.value,
                    _weighted_moves(vs.vclass, eng, 1, 1, one, one), vs.alive)


def _extract_wsc(vs: VersionSpace, costs: CostVector) -> MistakeTree:
    ws, wc, _ = _scale(costs.gamma_s, costs.gamma_c)
    eng = _wsc_engine(vs.vclass, ws, wc)
    moves = _weighted_moves(vs.vclass, eng, ws, wc,
                            costs.gamma_s, costs.gamma_c)
    return _extract("WSC", eng.value, moves, vs.alive)


def _extract_sc(vs: VersionSpace, k: int) -> MistakeTree:
    eng = _sc_engine(vs.vclass)
    one = Fraction(1)

    def moves(state):
        alive, budget = state
        for z, y, n in _splits(vs.vclass, alive):
            curvy = (True, "c", one, (y, budget))
            if budget == 0:
                # At budget 0 the straight subtree is unconstrained, so a
                # bare leaf keeps the tree shattered without adding depth.
                yield z, 1 + eng.value(y, 0), (curvy, (False, "s", one, None))
            else:
                yield z, 1 + min(eng.value(y, budget), eng.value(n, budget - 1)), (
                    curvy, (False, "s", one, (n, budget - 1)))

    return _extract("SC", lambda state: eng.value(*state), moves,
                    (vs.alive, k), budget=k)


def _extract_scl(vs: VersionSpace, costs: CostVector) -> MistakeTree:
    costs.require_ordered()
    ws, wc, wl, _ = _scale(costs.gamma_s, costs.gamma_c, costs.gamma_l)
    eng = _scl_engine(vs.vclass, ws, wc, wl)
    traces = cot_instances(vs.vclass)
    partitions = _scl_label_masks(vs.vclass)

    def moves(alive):
        for z, parts in zip(traces, partitions):
            groups = [(label, m & alive) for label, m in parts if m & alive]
            if len(groups) < 2:
                continue
            faults = [g for g in groups if is_fault(g[0])]
            if len(faults) < len(groups):  # ALL_CORRECT comes last
                correct = groups[-1][1]
                for label, sub in faults:
                    yield z, min(ws + eng.value(sub), wc + eng.value(correct)), (
                        (label, "s", costs.gamma_s, sub),
                        (ALL_CORRECT, "c", costs.gamma_c, correct))
            for i, (la, a) in enumerate(faults):
                for lb, b in faults[i + 1:]:
                    yield z, wl + min(eng.value(a), eng.value(b)), (
                        (la, "l", costs.gamma_l, a), (lb, "l", costs.gamma_l, b))

    return _extract("SCL", eng.value, moves, vs.alive)


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
    for e in node.edges:
        if e.weight < 0:
            raise MalformedTree("negative edge weight")
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

    def walk(node: Optional[TreeNode], space: VersionSpace) -> bool:
        if node is None:
            return space.alive != 0
        _check_node(node, tree.kind)
        for e in node.edges:
            if tree.kind == "SCL":
                sub = space.restrict_cot(node.instance, e.label)
            else:
                sub = space.restrict(node.instance, e.label)
            if not walk(e.child, sub):
                return False
        return True

    return walk(tree.root, vs)


def certified_value(tree: MistakeTree) -> Union[int, Fraction]:
    """Lower bound the tree certifies: minimum path depth or weight.

    For SC trees, paths using more straight edges than the budget are
    unconstrained and excluded from the minimum.
    """
    if tree.root is None:
        return 0 if tree.kind in ("plain", "SC") else Fraction(0)

    if tree.kind == "SC":
        budget = tree.budget if tree.budget is not None else 0

        def depth(node: Optional[TreeNode], k: int) -> Optional[int]:
            if node is None:
                return 0
            best = None
            for e in node.edges:
                if e.kind == "s":
                    if k == 0:
                        continue  # over budget, path unconstrained
                    d = depth(e.child, k - 1)
                else:
                    d = depth(e.child, k)
                if d is not None and (best is None or 1 + d < best):
                    best = 1 + d
            return best

        v = depth(tree.root, budget)
        return 0 if v is None else v

    def weight(node: Optional[TreeNode]) -> Fraction:
        if node is None:
            return Fraction(0)
        return min(e.weight + weight(e.child) for e in node.edges)

    w = weight(tree.root)
    return int(w) if tree.kind == "plain" else w


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
    w = 0
    while min_leaf_recurrence(w + 1, d) <= n_leaves:
        w += 1
    return w
