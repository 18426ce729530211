"""Independent brute-force dimension oracles for the test suite.

These re-derive every value from the definition: a dimension is the
largest target for which a shattered mistake tree with the required
difficulty exists.  Tree existence is checked by explicit construction
over hypothesis-consistency sets computed row by row from the truth
tables; no bitmask kernels, no minimax recursion values.  Memoization
keys on the frozen set of still-consistent verifier ids, which only
caches the existence predicate and shares no code with the engines.
"""

import itertools

from reference import class_from_table
from cotverify.core import (
    ALL_CORRECT,
    PrefixInstance,
    Problem,
    StepToken,
    cot_instances,
)


def _splits(vclass, ids):
    """Proper splits of the consistent set, one per universe instance."""
    out = []
    for i in range(len(vclass.universe)):
        yes = frozenset(h for h in ids if vclass.verifiers[h].rows[i])
        if yes and yes != ids:
            out.append((yes, ids - yes))
    return out


def _start(vclass, ids):
    """The consistent set a search starts from: all verifiers by default."""
    return frozenset(range(len(vclass)) if ids is None else ids)


def bf_ldim(vclass, ids=None):
    """Largest d such that a depth-d shattered complete tree exists."""
    memo = {}

    def exists(ids, d):
        if not ids:
            return False
        if d == 0:
            return True
        key = (ids, d)
        if key not in memo:
            memo[key] = any(
                exists(yes, d - 1) and exists(no, d - 1)
                for yes, no in _splits(vclass, ids)
            )
        return memo[key]

    full = _start(vclass, ids)
    d = 0
    while exists(full, d + 1):
        d += 1
    return d


def bf_sc_ldim(vclass, k, ids=None):
    """Largest m such that a shattered (k, m)-difficult tree exists.

    Paths that spend more straight edges than the budget are
    unconstrained, so once the budget is gone a straight branch only
    needs a satisfiable leaf.
    """
    memo = {}

    def exists(ids, k, m):
        if not ids:
            return False
        if m <= 0:
            return True
        key = (ids, k, m)
        if key not in memo:
            found = False
            for yes, no in _splits(vclass, ids):
                straight_ok = True if k == 0 else exists(no, k - 1, m - 1)
                if straight_ok and exists(yes, k, m - 1):
                    found = True
                    break
            memo[key] = found
        return memo[key]

    full = _start(vclass, ids)
    m = 0
    while exists(full, k, m + 1):
        m += 1
    return m


def _weight_grid(costs, max_edges):
    sums = {0}
    for counts in itertools.product(range(max_edges + 1), repeat=len(costs)):
        if sum(counts) <= max_edges:
            sums.add(sum(c * w for c, w in zip(counts, costs)))
    return sorted(sums)


def bf_wsc_ldim(vclass, ws, wc, ids=None):
    """Largest achievable guaranteed weight with integer edge costs."""
    memo = {}

    def exists(ids, w):
        if not ids:
            return False
        if w <= 0:
            return True
        key = (ids, w)
        if key not in memo:
            memo[key] = any(
                exists(no, w - ws) and exists(yes, w - wc)
                for yes, no in _splits(vclass, ids)
            )
        return memo[key]

    full = _start(vclass, ids)
    best = 0
    for w in _weight_grid((ws, wc), len(vclass) - 1):
        if w > best and exists(full, w):
            best = w
    return best


def bf_scl_ldim(vclass, ws, wc, wl, ids=None):
    """Largest guaranteed weight of a shattered sequence-level tree.

    Branch pairs per full trace: one fault label against all-correct
    (s-edge plus c-edge), or two distinct fault labels (two l-edges).
    """
    traces = cot_instances(vclass)
    memo = {}

    def groups(ids, z):
        by_label = {}
        for h in ids:
            by_label.setdefault(vclass.cot_label_of(h, z), set()).add(h)
        return {lab: frozenset(s) for lab, s in by_label.items()}

    def exists(ids, w):
        if not ids:
            return False
        if w <= 0:
            return True
        key = (ids, w)
        if key in memo:
            return memo[key]
        found = False
        for z in traces:
            g = groups(ids, z)
            if len(g) < 2:
                continue
            faults = sorted(lab for lab in g if lab != ALL_CORRECT)
            if ALL_CORRECT in g:
                for f in faults:
                    if exists(g[f], w - ws) and exists(g[ALL_CORRECT], w - wc):
                        found = True
                        break
            if not found:
                for a, b in itertools.combinations(faults, 2):
                    if exists(g[a], w - wl) and exists(g[b], w - wl):
                        found = True
                        break
            if found:
                break
        memo[key] = found
        return found

    full = _start(vclass, ids)
    best = 0
    for w in _weight_grid((ws, wc, wl), len(vclass) - 1):
        if w > best and exists(full, w):
            best = w
    return best


def min_leaf_unrolled(w, d, _memo=None):
    """L(w) = L(w-1) + L(w-d), L(w <= 0) = 1, by direct recursion."""
    if _memo is None:
        _memo = {}
    if w <= 0:
        return 1
    if w not in _memo:
        _memo[w] = min_leaf_unrolled(w - 1, d, _memo) + min_leaf_unrolled(
            w - d, d, _memo
        )
    return _memo[w]


def random_class(rng, max_h=8, max_universe=12):
    """Random binary-alphabet class over a random prefix universe."""
    L = rng.choice([2, 3])
    n_h = rng.randint(2, max_h)
    prefixes = [
        steps
        for ell in range(1, L + 1)
        for steps in itertools.product((0, 1), repeat=ell)
    ]
    size = rng.randint(3, min(max_universe, len(prefixes)))
    chosen = rng.sample(prefixes, size)
    table = {
        PrefixInstance(0, steps): [rng.random() < 0.5 for _ in range(n_h)]
        for steps in chosen
    }
    sigma = [StepToken(0, "0"), StepToken(1, "1")]
    return class_from_table(sigma, [Problem(0, "x")], L, table)


def random_full_trace_class(rng, max_h=8, L=2):
    """Random class whose universe contains every length-<=L prefix."""
    n_h = rng.randint(2, max_h)
    prefixes = [
        steps
        for ell in range(1, L + 1)
        for steps in itertools.product((0, 1), repeat=ell)
    ]
    table = {
        PrefixInstance(0, steps): [rng.random() < 0.5 for _ in range(n_h)]
        for steps in prefixes
    }
    sigma = [StepToken(0, "0"), StepToken(1, "1")]
    return class_from_table(sigma, [Problem(0, "x")], L, table)
