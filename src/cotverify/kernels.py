"""Minimax kernels over bitmask version spaces, one engine per game.

All version spaces are int bitmasks over verifier ids; costs arrive
pre-scaled to integers.  Each game function takes a memo dict and a
two-slot stats list [nodes_expanded, memo_hits] that it mutates in place.

The SC and WSC searches are pruned by leaf-count bounds.  Every leaf of a
shattered tree is consistent with a distinct verifier, so a version space
of size s has value at most the largest value whose smallest tree has no
more than s leaves (sc_bound, wsc_bound).  A node stops scanning once its
best split meets its own bound, skips a split whose child bounds cannot
beat its best, skips a projection it has already tried, and leaves the
second child unsolved when the first one already caps the split at its
best.  Every child that is solved is solved exactly, so each memo entry
is the exact value of its version space, never a bound.  The SCL game is
not pruned.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right

from .core import ALL_CORRECT

BACKEND = "pure"


@functools.cache
def sc_bound(size, k):
    """Largest d with sum_{i <= k+1} C(d, i) <= size.

    The smallest budget-k tree of depth d has N_k(d) leaves, where
    N_k(0) = 1, N_0(d) = d + 1 and N_k(d) = N_k(d-1) + N_{k-1}(d-1):
    exactly that binomial sum.
    """

    def leaves(d):
        return sum(math.comb(d, i) for i in range(min(k + 1, d) + 1))

    lo, hi = 0, size - 1  # N_k(d) >= d + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if leaves(mid) <= size:
            lo = mid
        else:
            hi = mid - 1
    return lo


# (ws, wc) -> [tree weights ascending, their least leaf counts, two cursors]
_WSC_LEAVES: dict = {}


@functools.cache
def wsc_bound(size, ws, wc):
    """Largest weight w with L(w) <= size, where L(w) = 1 for w <= 0 and
    L(w) = L(w - ws) + L(w - wc): the least leaf count of a weight-w tree.

    L only steps at the weights a tree path can have (sums of ws and wc),
    so the table holds those weights and L at each.  With a zero cost L
    never grows and there is no finite bound.
    """
    if ws == 0 or wc == 0:
        return math.inf
    table = _WSC_LEAVES.get((ws, wc))
    if table is None:
        table = _WSC_LEAVES[(ws, wc)] = [[0], [1], [0, 0]]
    weights, leaves, cursor = table

    def leaves_at(w):
        return 1 if w <= 0 else leaves[bisect_left(weights, w)]

    while leaves[-1] <= size:
        last = weights[-1]
        while weights[cursor[0]] + ws <= last:
            cursor[0] += 1
        while weights[cursor[1]] + wc <= last:
            cursor[1] += 1
        w = min(weights[cursor[0]] + ws, weights[cursor[1]] + wc)
        weights.append(w)
        leaves.append(leaves_at(w - ws) + leaves_at(w - wc))
    return weights[bisect_right(leaves, size) - 1]


def sc_ldim(yes_masks, alive, k, memo, stats):
    """Budgeted dimension: curvy branches keep k, straight branches burn it.

    With k == 0 the straight subtree is unconstrained (any path through it
    already exceeds the budget), so only the curvy branch contributes.
    """
    if alive & (alive - 1) == 0:
        return 0
    key = (alive, k)
    cached = memo.get(key)
    if cached is not None:
        stats[1] += 1
        return cached
    stats[0] += 1
    bound = sc_bound(alive.bit_count(), k)
    best = 0
    seen = set()
    for m in yes_masks:
        y = m & alive
        if y == 0 or y == alive or y in seen:
            continue
        seen.add(y)
        if k == 0:
            if y.bit_count() <= best:  # 1 + sc_bound(|y|, 0) <= best
                continue
            cand = 1 + sc_ldim(yes_masks, y, 0, memo, stats)
        else:
            n = alive ^ y
            if 1 + min(sc_bound(y.bit_count(), k),
                       sc_bound(n.bit_count(), k - 1)) <= best:
                continue
            straight = 1 + sc_ldim(yes_masks, n, k - 1, memo, stats)
            if straight <= best:
                continue
            cand = min(straight, 1 + sc_ldim(yes_masks, y, k, memo, stats))
        if cand > best:
            best = cand
            if best >= bound:
                break
    memo[key] = best
    return best


def wsc_ldim(yes_masks, alive, ws, wc, memo, stats):
    """Weighted dimension with integer edge weights (ws straight, wc curvy).

    At unit costs this is the Littlestone dimension.
    """
    if alive & (alive - 1) == 0:
        return 0
    cached = memo.get(alive)
    if cached is not None:
        stats[1] += 1
        return cached
    stats[0] += 1
    bound = wsc_bound(alive.bit_count(), ws, wc)
    best = 0
    seen = set()
    for m in yes_masks:
        y = m & alive
        if y == 0 or y == alive or y in seen:
            continue
        seen.add(y)
        n = alive ^ y
        if min(ws + wsc_bound(n.bit_count(), ws, wc),
               wc + wsc_bound(y.bit_count(), ws, wc)) <= best:
            continue
        straight = ws + wsc_ldim(yes_masks, n, ws, wc, memo, stats)
        if straight <= best:
            continue
        cand = min(straight, wc + wsc_ldim(yes_masks, y, ws, wc, memo, stats))
        if cand > best:
            best = cand
            if best >= bound:
                break
    memo[alive] = best
    return best


def scl_ldim(label_masks, alive, ws, wc, wl, memo, stats):
    """Sequence-level weighted dimension.

    label_masks: per instance, the (label, mask) pairs of
    VerifierClass.cot_partition: label 1..L for a first-fault location and
    ALL_CORRECT for a fully correct trace.  At each node the adversary
    commits to either two distinct fault labels (two l-edges) or one fault
    label plus the all-correct label (s-edge + c-edge).
    """
    if alive & (alive - 1) == 0:
        return 0
    cached = memo.get(alive)
    if cached is not None:
        stats[1] += 1
        return cached
    stats[0] += 1
    best = 0
    for pairs in label_masks:
        faults = []
        inf_mask = 0
        for label, m in pairs:
            sub = m & alive
            if not sub:
                continue
            if sub == alive:
                # Every alive verifier agrees on this instance, so no
                # second label survives and no branch is possible here.
                faults = []
                inf_mask = 0
                break
            if label == ALL_CORRECT:
                inf_mask = sub
            else:
                faults.append(sub)
        if inf_mask:
            inf_val = scl_ldim(label_masks, inf_mask, ws, wc, wl, memo, stats)
            for sub in faults:
                cand = min(
                    ws + scl_ldim(label_masks, sub, ws, wc, wl, memo, stats),
                    wc + inf_val,
                )
                if cand > best:
                    best = cand
        for i in range(len(faults)):
            vi = scl_ldim(label_masks, faults[i], ws, wc, wl, memo, stats)
            for j in range(i + 1, len(faults)):
                vj = scl_ldim(label_masks, faults[j], ws, wc, wl, memo, stats)
                cand = wl + min(vi, vj)
                if cand > best:
                    best = cand
    memo[alive] = best
    return best


class _Engine:
    """Memo-carrying wrapper; one engine per game and verifier class."""

    def __init__(self):
        self.memo = {}
        self._stats = [0, 0]

    def stats(self):
        """(nodes_expanded, memo_hits) over the engine's lifetime."""
        return tuple(self._stats)


class ScEngine(_Engine):
    def __init__(self, yes_masks):
        super().__init__()
        self.yes_masks = list(yes_masks)

    def value(self, alive, k):
        return sc_ldim(self.yes_masks, alive, k, self.memo, self._stats)


class WscEngine(_Engine):
    def __init__(self, yes_masks, ws, wc):
        super().__init__()
        self.yes_masks = list(yes_masks)
        self.ws = ws
        self.wc = wc

    def value(self, alive):
        return wsc_ldim(self.yes_masks, alive, self.ws, self.wc,
                        self.memo, self._stats)


class SclEngine(_Engine):
    def __init__(self, label_masks, ws, wc, wl):
        super().__init__()
        self.label_masks = [list(pairs) for pairs in label_masks]
        self.ws = ws
        self.wc = wc
        self.wl = wl

    def value(self, alive):
        return scl_ldim(self.label_masks, alive, self.ws, self.wc, self.wl,
                        self.memo, self._stats)


def ldim_engine(yes_masks):
    """The plain game is the weighted game at unit costs."""
    return WscEngine(yes_masks, 1, 1)


def sc_engine(yes_masks):
    return ScEngine(yes_masks)


def wsc_engine(yes_masks, ws: int, wc: int):
    return WscEngine(yes_masks, ws, wc)


def scl_engine(label_masks, ws: int, wc: int, wl: int):
    return SclEngine(label_masks, ws, wc, wl)
