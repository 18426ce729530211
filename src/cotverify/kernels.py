"""Minimax kernels over bitmask version spaces: one prefix search for
three games, and the SCL search.

All version spaces are int bitmasks over verifier ids; costs arrive
pre-scaled to integers.  Each search takes a memo dict, a moves dict and
a two-slot stats list [nodes_expanded, memo_hits] that it mutates in
place, and the state to solve last.

The plain, SC and WSC games play on the same mistake trees, a curvy YES
edge and a straight NO edge at every node, so one search (prefix_ldim)
solves all three over states (alive, k).  A curvy edge weighs wc and
keeps the budget k; a straight edge weighs ws and spends spend of it.
SC is unit weights with spend 1, WSC is weights ws and wc with spend 0,
and the plain game is WSC at unit weights.

The prefix search is pruned by leaf-count bounds.  Every leaf of a
shattered tree is consistent with a distinct verifier, so a version space
of size s has value at most the largest value whose smallest tree has no
more than s leaves: prefix_bound(ws, wc, spend), from the least leaf
count N(v, k) = N(v - wc, k) + N(v - ws, k - spend) of a tree of value
v on budget k, with N = 1 for v <= 0 or k < 0.  A node stops scanning
once its best split meets its own bound, skips a split whose child
bounds cannot beat its best, skips a projection it has already tried,
and leaves the second child unsolved when the first one already caps the
split at its best.  Every child that is solved is solved exactly, so each
memo entry is the exact value of its state, never a bound.  The engines
take the class's distinct yes-masks: a repeated mask always projects onto
a split the node has already tried.

The SCL game is not pruned.  Its engine takes the distinct label
partitions of the class's traces, and a node hands its children only the
partitions that split it: one whose groups leave the node whole leaves
every subset of it whole too.  Each group's child is solved once per
partition, and its best moves follow from those values: the s/c move from
the largest fault value, the l/l move from the second largest.

Beside each memo entry the search records the node's realizing move: the
first move in scan order that raised the node's best to its final value,
or None for a value of 0.  For the prefix search that is the distinct
yes-mask that splits the node, for SCL the distinct label partition.
A move before it in scan order has a lower value, so it is the first
realizing move of a full scan, and the children it names were solved on
the way.  Witness extraction follows these moves and searches nothing.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right

from .core import ALL_CORRECT

BACKEND = "pure"

# The budget of the games that never spend one: any k > 0 would do.
FREE_BUDGET = 1


@functools.cache
def prefix_bound(ws, wc, spend):
    """The bound(size, k) of the prefix game with edge weights ws and wc
    whose straight edge spends spend of the budget: the largest path
    weight v with N(v, k) <= size, where

        N(v, k) = 1 for v <= 0 or k < 0,
        N(v, k) = N(v - wc, k) + N(v - ws, k - spend) otherwise,

    is the least leaf count of a tree of value v on budget k.  N only
    steps at the weights a path can have (sums of ws and wc), so the
    table holds those weights and, per budget, N at each.  A zero weight
    is not tabulated: its bound is infinite and prunes nothing.
    """
    if ws == 0 or wc == 0:
        return lambda size, k: math.inf
    weights = [0]
    cursor = [0, 0]
    leaves = {}  # k -> [N(weights[0], k), N(weights[1], k), ...] so far

    def at(v, k):
        if v <= 0 or k < 0:
            return 1
        i = bisect_left(weights, v)
        row = leaves.setdefault(k, [1])
        while len(row) <= i:
            extend(row, k)
        return row[i]

    def extend(row, k):
        if len(row) == len(weights):
            last = weights[-1]
            while weights[cursor[0]] + ws <= last:
                cursor[0] += 1
            while weights[cursor[1]] + wc <= last:
                cursor[1] += 1
            weights.append(min(weights[cursor[0]] + ws, weights[cursor[1]] + wc))
        w = weights[len(row)]
        row.append(at(w - wc, k) + at(w - ws, k - spend))

    @functools.cache
    def bound(size, k):
        row = leaves.setdefault(k, [1])
        while row[-1] <= size:
            extend(row, k)
        return weights[bisect_right(row, size) - 1]

    return bound


def prefix_ldim(yes_masks, ws, wc, spend, bound, memo, moves, stats, alive,
                k=FREE_BUDGET):
    """The value of state (alive, k) in the prefix game with edge weights
    ws and wc, whose straight edge spends spend of the budget k.

    bound(size, k) is the largest value a state of that size can have:
    prefix_bound(ws, wc, spend), from the least leaf count
    N(v, k) = N(v - wc, k) + N(v - ws, k - spend).  The plain and WSC
    states all keep FREE_BUDGET.  With k == 0 the straight subtree is
    unconstrained (any path through it already exceeds the budget), so
    only the curvy branch contributes, at most wc per verifier it drops.
    """
    if alive & (alive - 1) == 0:
        return 0
    key = (alive, k)
    cached = memo.get(key)
    if cached is not None:
        stats[1] += 1
        return cached
    stats[0] += 1
    top = bound(alive.bit_count(), k)
    left = k - spend
    best = 0
    move = None
    seen = set()
    for m in yes_masks:
        y = m & alive
        if y == 0 or y == alive or y in seen:
            continue
        seen.add(y)
        if k:
            n = alive ^ y
            if (ws + bound(n.bit_count(), left) <= best
                    or wc + bound(y.bit_count(), k) <= best):
                continue
            straight = ws + prefix_ldim(yes_masks, ws, wc, spend, bound, memo,
                                        moves, stats, n, left)
            if straight <= best:
                continue
            cand = min(straight, wc + prefix_ldim(yes_masks, ws, wc, spend, bound,
                                                  memo, moves, stats, y, k))
        else:
            if wc * y.bit_count() <= best:
                continue
            cand = wc + prefix_ldim(yes_masks, ws, wc, spend, bound, memo, moves,
                                    stats, y, 0)
        if cand > best:
            best, move = cand, m
            if best >= top:
                break
    memo[key] = best
    moves[key] = move
    return best


def scl_ldim(label_masks, ws, wc, wl, memo, moves, stats, alive):
    """Sequence-level weighted dimension.

    label_masks: the distinct label partitions of the traces, each the
    (label, mask) pairs of VerifierClass.cot_partition: label 1..L for a
    first-fault location and ALL_CORRECT, last, for a fully correct trace.
    At each node the adversary commits to either two distinct fault labels
    (two l-edges) or one fault label plus the all-correct label (s-edge +
    c-edge).  The list may omit any partition that does not split alive.
    """
    if alive & (alive - 1) == 0:
        return 0
    cached = memo.get(alive)
    if cached is not None:
        stats[1] += 1
        return cached
    stats[0] += 1
    # The groups partition the verifiers, so a partition splits alive
    # unless the first group meeting alive holds all of it.
    live = []
    for pairs in label_masks:
        for _, m in pairs:
            if m & alive:
                if m & alive != alive:
                    live.append(pairs)
                break
    best = 0
    move = None
    for pairs in live:
        # The two largest fault values and the all-correct value; -1 for
        # none.  A live partition has two groups, so with an all-correct
        # group it has a fault group too.
        top = second = inf_val = -1
        for label, m in pairs:
            sub = m & alive
            if not sub:
                continue
            v = scl_ldim(live, ws, wc, wl, memo, moves, stats, sub)
            if label == ALL_CORRECT:
                inf_val = v
            elif v > top:
                top, second = v, top
            elif v > second:
                second = v
        if inf_val >= 0:
            cand = min(ws + top, wc + inf_val)
            if cand > best:
                best, move = cand, pairs
        if second >= 0 and wl + second > best:
            best, move = wl + second, pairs
    memo[alive] = best
    moves[alive] = move
    return best


class Engine:
    """One game's memo on one verifier class.

    memo maps each solved state to its exact value and moves maps it to
    its realizing move.  value(state) solves a state: the game's kernel
    with everything but the state bound once.
    """

    def __init__(self, kernel, *params):
        self.memo = {}
        self.moves = {}
        self._stats = [0, 0]
        self.value = functools.partial(kernel, *params, self.memo,
                                       self.moves, self._stats)

    def stats(self):
        """(nodes_expanded, memo_hits) over the engine's lifetime."""
        return tuple(self._stats)


def ldim_engine(yes_masks):
    """The plain game is the weighted game at unit costs."""
    return wsc_engine(yes_masks, 1, 1)


def sc_engine(yes_masks):
    return Engine(prefix_ldim, list(yes_masks), 1, 1, 1, prefix_bound(1, 1, 1))


def wsc_engine(yes_masks, ws: int, wc: int):
    return Engine(prefix_ldim, list(yes_masks), ws, wc, 0,
                  prefix_bound(ws, wc, 0))


def scl_engine(label_masks, ws: int, wc: int, wl: int):
    return Engine(scl_ldim, list(label_masks), ws, wc, wl)
