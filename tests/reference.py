"""Reference searches and walkers for the kernel equivalence tests.

These are the minimax searches and witness walkers as they were before
the engines took distinct yes-masks, the SCL game filtered its traces
and the engines recorded each node's realizing move: every node scans
every universe instance (SC, WSC, plain) or every full trace (SCL), the
SCL node asks for each pair's children separately, and the walker
rescans a node's moves from the first instance, solving each move's
children, until one realizes the node's value.  The library must
reproduce their values, memo tables, node counts and witness trees
exactly.  ref_sc and ref_wsc prune with the two leaf-count bounds the
library had before prefix_bound: sc_bound, the binomial closed form, and
wsc_bound, a weight table per cost pair.  The walkers build each tree
recursively, appending its nodes in pre-order, so the library's flat
trees must equal theirs list for list.  ref_validate_fail_token is the
fail-token check as it was before it read the class's (problem, steps)
index: one walk per verifier over the head's prefixes.  A missing prefix
is refused by name there too.

ref_load_class is families.load_class as it was before it read the
truth table in whole-table passes: one set() check per row, and one
yes-mask per column of zip(*rows).

class_from_table builds a class from a per-instance column table
{z: [h_0(z), h_1(z), ...]}, turning each column into a yes-mask; the
tests that write small classes by hand use it.  The ref_*_class builders
are the family builders as they were before they computed yes-masks
directly: each fills one bool per (instance, verifier) and goes through
class_from_table.  The library builders must give equal classes.

accepts, equal_canonical, check_realizable and totals_consistent are
views of a class or a transcript that only tests read.

ref_verify_shattered, ref_certified_value, ref_tree_json and
ref_tree_dot are the witness walks as they were before every walk listed
its nodes from one explicit stack: each recurses one frame per tree level
(two for ref_tree_json) over the nested view that nested() builds from a
flat tree, and the SC value is a separate depth search that counts edges
instead of summing their weights.  ref_verify_shattered checks each node
with the library's _check_node, and walks every node even below a
failing path, as the library's walk does, so a malformed tree is refused
whether or not it is shattered.

ref_draw is a prover's exact draw as the compiled samplers must make it,
with none of their machinery: the denominator and each cumulative bound
are worked out per draw from the Fractions, and ref_randbelow takes a
uniform integer below the denominator by rejection from the narrowest
getrandbits words that hold every integer below it, with no word for a
point mass.

The RefRound* learners are the learners' rounds as they were before
update took the round's prediction: each update ignores pred and
predicts again on its own learner (a reduction or wrapper also asks its
inner learner for the prediction it passes on), and RefRoundScSoa,
RefRoundWscSoa and RefRoundSclSoa predict through the dimensions.*_value
helpers on restricted version spaces, as before they read their engine.
RejectAll's update never read a prediction, so it is its own reference.
"""

import functools
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from cotverify.core import (
    ALL_CORRECT,
    EmptyVersionSpace,
    VersionSpace,
    FailTokenInvalid,
    FailTokenRequired,
    MalformedTree,
    NoWitness,
    ParseError,
    PrefixInstance,
    Problem,
    SchemaError,
    StepToken,
    VerifierClass,
    cot_instances,
    fault_at,
    is_fault,
)
from cotverify import dimensions, families
from cotverify.cli import frac_str, instance_json, label_json
from cotverify.dimensions import (
    KINDS,
    MistakeTree,
    TreeEdge,
    TreeNode,
    _check_node,
)
from cotverify.learners import (
    ConservativeWrapper,
    MajorityVote,
    RiverCrossingSound,
    ScSoa,
    SclSoa,
    SoundConservative,
    WscSoa,
    _scl_loss,
)
from cotverify.reductions import CotFromPrefix, PrefixFromCot
from cotverify.families import RIVER_GOAL, RIVER_START, river_edges


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


def ref_sc(yes_masks, alive, k, memo, stats):
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
            if y.bit_count() <= best:
                continue
            cand = 1 + ref_sc(yes_masks, y, 0, memo, stats)
        else:
            n = alive ^ y
            if 1 + min(sc_bound(y.bit_count(), k),
                       sc_bound(n.bit_count(), k - 1)) <= best:
                continue
            straight = 1 + ref_sc(yes_masks, n, k - 1, memo, stats)
            if straight <= best:
                continue
            cand = min(straight, 1 + ref_sc(yes_masks, y, k, memo, stats))
        if cand > best:
            best = cand
            if best >= bound:
                break
    memo[key] = best
    return best


def ref_wsc(yes_masks, alive, ws, wc, memo, stats):
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
        straight = ws + ref_wsc(yes_masks, n, ws, wc, memo, stats)
        if straight <= best:
            continue
        cand = min(straight, wc + ref_wsc(yes_masks, y, ws, wc, memo, stats))
        if cand > best:
            best = cand
            if best >= bound:
                break
    memo[alive] = best
    return best


def ref_scl(label_masks, alive, ws, wc, wl, memo, stats):
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
                faults = []
                inf_mask = 0
                break
            if label == ALL_CORRECT:
                inf_mask = sub
            else:
                faults.append(sub)
        if inf_mask:
            inf_val = ref_scl(label_masks, inf_mask, ws, wc, wl, memo, stats)
            for sub in faults:
                cand = min(ws + ref_scl(label_masks, sub, ws, wc, wl, memo, stats),
                           wc + inf_val)
                best = max(best, cand)
        for i in range(len(faults)):
            vi = ref_scl(label_masks, faults[i], ws, wc, wl, memo, stats)
            for j in range(i + 1, len(faults)):
                vj = ref_scl(label_masks, faults[j], ws, wc, wl, memo, stats)
                best = max(best, wl + min(vi, vj))
    memo[alive] = best
    return best


def scl_label_masks(vclass):
    """Per full trace, in cot_instances order, its label partition."""
    return [vclass.cot_partition(z) for z in cot_instances(vclass)]


# Walkers: the first realizing move of a full scan, with values from the
# references.  Each game gives its moves as moves(state) yielding
# (instance, move value, edges) in scan order, each edge (label, kind,
# weight, child state); a child state of None is a bare leaf.

def _build(kind, value, moves, state, budget=None):
    if value(state) == 0:
        raise NoWitness("dimension is 0")

    nodes = []

    def build(state):
        v = value(state)
        if v == 0:
            return None
        for z, move_value, edges in moves(state):
            if move_value == v:
                i = len(nodes)
                nodes.append(None)
                nodes[i] = (z, tuple(
                    (label, k, w, None if child is None else build(child))
                    for label, k, w, child in edges
                ))
                return i
        raise AssertionError("memoized value has no realizing move")

    build(state)
    return MistakeTree(kind, nodes, budget)


def _full_scan_moves(vclass, value, ws, wc, gamma_s, gamma_c):
    def moves(alive):
        for z, m in zip(vclass.universe, vclass.yes_masks):
            y = m & alive
            if y and y != alive:
                n = alive ^ y
                yield z, min(ws + value(n), wc + value(y)), (
                    (True, "c", gamma_c, y), (False, "s", gamma_s, n))
    return moves


def ref_extract_weighted(vs, kind, ws, wc, gamma_s, gamma_c):
    """The plain (ws = wc = 1) or WSC witness of a full-universe scan."""
    memo, stats = {}, [0, 0]

    def value(alive):
        return ref_wsc(vs.vclass.yes_masks, alive, ws, wc, memo, stats)

    return _build(
        kind, value, _full_scan_moves(vs.vclass, value, ws, wc, gamma_s, gamma_c),
        vs.alive)


def ref_extract_sc(vs, k, one):
    memo, stats = {}, [0, 0]
    masks = vs.vclass.yes_masks

    def value(alive, budget):
        return ref_sc(masks, alive, budget, memo, stats)

    def moves(state):
        alive, budget = state
        for z, m in zip(vs.vclass.universe, masks):
            y = m & alive
            if not y or y == alive:
                continue
            n = alive ^ y
            curvy = (True, "c", one, (y, budget))
            if budget == 0:
                yield z, 1 + value(y, 0), (curvy, (False, "s", one, None))
            else:
                yield z, 1 + min(value(y, budget), value(n, budget - 1)), (
                    curvy, (False, "s", one, (n, budget - 1)))

    return _build("SC", lambda state: value(*state), moves,
                               (vs.alive, k), budget=k)


def ref_extract_scl(vs, costs, ws, wc, wl):
    label_masks = scl_label_masks(vs.vclass)
    traces = cot_instances(vs.vclass)
    memo, stats = {}, [0, 0]

    def value(alive):
        return ref_scl(label_masks, alive, ws, wc, wl, memo, stats)

    def moves(alive):
        for z, parts in zip(traces, label_masks):
            groups = [(label, m & alive) for label, m in parts if m & alive]
            if len(groups) < 2:
                continue
            faults = [g for g in groups if is_fault(g[0])]
            if len(faults) < len(groups):
                correct = groups[-1][1]
                for label, sub in faults:
                    yield z, min(ws + value(sub), wc + value(correct)), (
                        (label, "s", costs.gamma_s, sub),
                        (ALL_CORRECT, "c", costs.gamma_c, correct))
            for i, (la, a) in enumerate(faults):
                for lb, b in faults[i + 1:]:
                    yield z, wl + min(value(a), value(b)), (
                        (la, "l", costs.gamma_l, a), (lb, "l", costs.gamma_l, b))

    return _build("SCL", value, moves, vs.alive)


def ref_validate_fail_token(vclass):
    if vclass.fail_token is None:
        raise FailTokenRequired("class declares no fail token")
    position = {z: i for i, z in enumerate(vclass.universe)}

    def index_of(p, z):
        try:
            return position[p]
        except KeyError:
            raise FailTokenInvalid(
                f"fail-token step at {z} follows a prefix missing from "
                f"the universe: {p}") from None

    def prefix_correct(h, head, z):
        return all(
            vclass.yes_masks[index_of(PrefixInstance(z.problem, head[:i]), z)]
            >> h & 1
            for i in range(1, len(head) + 1)
        )

    F = vclass.fail_token
    for z in vclass.universe:
        if z.steps[-1] != F:
            continue
        head = z.steps[:-1]
        if head:
            correct_for_someone = any(
                prefix_correct(h, head, z) for h in range(len(vclass)))
        else:
            correct_for_someone = True
        if correct_for_someone and vclass.yes_masks[position[z]] != 0:
            raise FailTokenInvalid(
                f"some verifier accepts fail-token step after correct "
                f"prefix at {z}"
            )


# Byte 0/1 to ASCII "0"/"1", for reading a truth table as a binary numeral.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def column_mask(bits):
    """The bitmask of a sequence of 0/1 entries (bools or ints): bit j is
    set iff bits[j] is 1."""
    return int(b"0" + bytes(bits)[::-1].translate(_DIGITS), 2)


def class_from_table(sigma, problems, L, table, fail_token=None):
    """Build from a per-instance column table {z: [h_0(z), h_1(z), ...]}."""
    sizes = {len(column) for column in table.values()}
    if len(sizes) != 1:
        raise SchemaError("ragged verifier columns")
    masks = [(z, column_mask(map(bool, column)))
             for z, column in table.items()]
    return VerifierClass.from_masks(sigma, problems, L, masks, sizes.pop(),
                                    fail_token)


def ref_load_class(path):
    """families.load_class before its whole-table passes."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from None
    if type(doc) is not dict:
        raise SchemaError(f"{path}: a class file holds one JSON object")
    for key in ("sigma", "problems", "L", "universe", "verifiers"):
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")
    for key in ("sigma", "problems", "universe", "verifiers"):
        if type(doc[key]) is not list:
            raise SchemaError(f"{path}: {key!r} must be a list")
    L, fail_token = doc["L"], doc.get("fail_token")
    if type(L) is not int:
        raise SchemaError(f"{path}: L must be an integer")
    if fail_token is not None and type(fail_token) is not int:
        raise SchemaError(f"{path}: fail_token must be an integer")
    universe_doc, verifiers_doc = doc["universe"], doc["verifiers"]
    n, size = len(verifiers_doc), len(universe_doc)
    families._check_caps(n, size)

    entries_ok = (size > 0 and set(map(type, universe_doc)) == {list}
                  and set(map(len, universe_doc)) == {2})
    if entries_ok:
        problem_ids, steps = zip(*universe_doc)
        entries_ok = (families._all_ints(problem_ids)
                      and set(map(type, steps)) == {list}
                      and min(map(len, steps)) > 0
                      and families._all_ints(itertools.chain.from_iterable(steps)))
    if not entries_ok:
        raise SchemaError(
            f"{path}: the universe must be a nonempty list of "
            "[problem, [step, ...]] entries, all integers, each with a step")
    universe = list(map(PrefixInstance, problem_ids, map(tuple, steps)))

    rows = [None] * n
    for v in verifiers_doc:
        if type(v) is not dict or "id" not in v or "rows" not in v:
            raise SchemaError(
                f'{path}: a verifier must be an object {{"id": ..., "rows": [...]}}')
        i, row = v["id"], v["rows"]
        if type(i) is not int or not 0 <= i < n or rows[i] is not None:
            raise SchemaError(f"{path}: verifier ids must be exactly 0..n-1")
        if type(row) is not list or len(row) != size:
            raise SchemaError(f"{path}: verifier {i} row length mismatch")
        if not families._all_ints(row) or not set(row) <= {0, 1}:
            raise SchemaError(f"{path}: non-binary row entry")
        rows[i] = row
    masks = map(column_mask, zip(*rows)) if n else [0] * size

    return VerifierClass.from_masks(
        [StepToken(i, str(s)) for i, s in enumerate(doc["sigma"])],
        [Problem(i, str(p)) for i, p in enumerate(doc["problems"])],
        L, zip(universe, masks), n, fail_token,
    )


def _binary_sigma():
    return [StepToken(0, "0"), StepToken(1, "1")]


def _bit_prefixes(L):
    for ell in range(1, L + 1):
        yield from itertools.product((0, 1), repeat=ell)


def ref_singleton_class(L):
    patterns = list(itertools.product((0, 1), repeat=L))
    table = {}
    for steps in _bit_prefixes(L):
        z = PrefixInstance(0, steps)
        ell = len(steps)
        table[z] = [steps[ell - 1] == b[ell - 1] for b in patterns]
    return class_from_table(_binary_sigma(), [Problem(0, "x")], L, table)


def ref_complement_class(n, L):
    designated = [
        tuple((i >> (L - 1 - j)) & 1 for j in range(L)) for i in range(n)
    ]
    prefixes = {t[:ell] for t in designated for ell in range(1, L + 1)}
    table = {}
    for steps in sorted(prefixes):
        z = PrefixInstance(0, steps)
        table[z] = [steps != designated[i] for i in range(n)]
    return class_from_table(_binary_sigma(), [Problem(0, "x")], L, table)


def ref_indicator_class(n_bits):
    units = [
        tuple(1 if j == i else 0 for j in range(n_bits))
        for i in range(n_bits)
    ]
    table = {}
    for steps in _bit_prefixes(n_bits):
        z = PrefixInstance(0, steps)
        table[z] = [steps == u[: len(steps)] for u in units]
    return class_from_table(_binary_sigma(), [Problem(0, "x")], n_bits, table)


def ref_river_crossing_class(revealed_edges, L):
    E = river_edges()
    E0 = set(revealed_edges)
    pool = sorted(set(E) - E0)
    states = list(itertools.product((0, 1), repeat=4))
    state_id = {s: i for i, s in enumerate(states)}
    sigma = [StepToken(i, "".join(map(str, s))) for i, s in enumerate(states)]
    universe = {(state_id[s],) for s in states}
    frontier = [(RIVER_START,)]
    while frontier:
        path = frontier.pop()
        universe.add(tuple(state_id[s] for s in path))
        if len(path) < L:
            for s, t in E:
                if s == path[-1]:
                    frontier.append(path + (t,))
    hidden_sets = [
        frozenset(c)
        for r in range(len(pool) + 1)
        for c in itertools.combinations(pool, r)
    ]

    def accepts(known, steps):
        path = [states[i] for i in steps]
        if path[0] != RIVER_START:
            return False
        t = len(path)
        allowed = E0 | known
        for a, b in zip(path, path[1:]):
            if (a, b) not in allowed:
                return False
        if t == L and path[-1] != RIVER_GOAL:
            return False
        return True

    table = {
        PrefixInstance(0, steps): [accepts(h, steps) for h in hidden_sets]
        for steps in universe
    }
    return class_from_table(sigma, [Problem(0, "river")], L, table)


def ref_product_class(sigma, problems, minis):
    L = len(minis)
    n_tokens = len(sigma)
    combos = list(itertools.product(*[range(len(m)) for m in minis]))
    table = {}
    for p in problems:
        for ell in range(1, L + 1):
            for steps in itertools.product(range(n_tokens), repeat=ell):
                z = PrefixInstance(p.id, steps)
                judged = [m(p.id, steps) for m in minis[ell - 1]]
                table[z] = [judged[c[ell - 1]] for c in combos]
    return class_from_table(sigma, problems, L, table)


def accepts(vclass, verifier_id, z):
    """Whether the verifier accepts the universe instance z."""
    return vclass.yes_masks[vclass.index_of(z)] >> verifier_id & 1 == 1


def equal_canonical(a, b):
    """Whether two classes hold the same canonical data."""
    return (
        a.sigma == b.sigma
        and a.problems == b.problems
        and a.L == b.L
        and a.fail_token == b.fail_token
        and a.universe == b.universe
        and a.n_verifiers == b.n_verifiers
        and a.yes_masks == b.yes_masks
    )


def check_realizable(vclass, labeled):
    """Some verifier id consistent with all (prefix, label) pairs, or None."""
    alive = VersionSpace.full(vclass)
    for z, y in labeled:
        alive = alive.restrict(z, y)
    if alive.alive == 0:
        return None
    return alive.alive.bit_length() - 1


def totals_consistent(transcript, costs):
    """Whether the transcript's total cost is its mistake counts priced at
    costs."""
    expected = (
        costs.gamma_s * transcript.soundness_mistakes
        + costs.gamma_c * transcript.completeness_mistakes
        + costs.gamma_l * transcript.location_mistakes
    )
    return transcript.total_cost == expected


def nested(tree):
    """The flat tree as nested TreeNode and TreeEdge objects, built
    recursively from node 0; None for a tree without nodes."""
    def node(i):
        z, edges = tree.nodes[i]
        return TreeNode(z, tuple(
            TreeEdge(label, k, w, None if c is None else node(c))
            for label, k, w, c in edges))

    return node(0) if tree.nodes else None


def ref_verify_shattered(tree, vs):
    if tree.kind not in KINDS:
        raise MalformedTree(f"unknown tree kind: {tree.kind}")
    root = nested(tree)
    if root is None:
        return True

    def walk(node, space):
        if node is None:
            return space.alive != 0
        _check_node(node.instance, [(e.label, e.kind, e.weight, e.child)
                                    for e in node.edges], tree.kind)
        shattered = []  # every subtree is walked, for its checks
        for e in node.edges:
            if tree.kind == "SCL":
                sub = space.restrict_cot(node.instance, e.label)
            else:
                sub = space.restrict(node.instance, e.label)
            shattered.append(walk(e.child, sub))
        return all(shattered)

    return walk(root, vs)


def ref_certified_value(tree):
    root = nested(tree)
    if root is None:
        return 0 if tree.kind in ("plain", "SC") else Fraction(0)
    if tree.kind == "SC":
        def depth(node, k):
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

        v = depth(root, tree.budget if tree.budget is not None else 0)
        return 0 if v is None else v

    def weight(node):
        return min(e.weight + (0 if e.child is None else weight(e.child))
                   for e in node.edges)

    w = weight(root)
    return int(w) if tree.kind == "plain" else w


def ref_tree_json(node):
    if node is None:
        return None
    return {
        "instance": instance_json(node.instance),
        "edges": [
            {
                "label": label_json(e.label),
                "kind": e.kind,
                "weight": frac_str(e.weight),
                "child": ref_tree_json(e.child),
            }
            for e in node.edges
        ],
    }


def ref_tree_dot(tree):
    lines = ["digraph mistake_tree {"]
    counter = [0]

    def walk(node):
        idx = counter[0]
        counter[0] += 1
        if node is None:
            lines.append(f'  n{idx} [shape=point, label=""];')
            return idx
        name = f"{node.instance.problem}:{''.join(map(str, node.instance.steps))}"
        lines.append(f'  n{idx} [label="{name}"];')
        for e in node.edges:
            child = walk(e.child)
            style = "dashed" if e.kind == "c" else "solid"
            lines.append(
                f'  n{idx} -> n{child} '
                f'[label="{label_json(e.label)} ({frac_str(e.weight)})", '
                f'style={style}];'
            )
        return idx

    walk(nested(tree))
    lines.append("}")
    return "\n".join(lines)


def ref_randbelow(n, rng):
    """A uniform integer in range(n): getrandbits words of
    (n - 1).bit_length() bits, each >= n rejected; n = 1 takes no word."""
    if n == 1:
        return 0
    bits = (n - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def ref_draw(weights, rng):
    """One draw from {outcome: Fraction} weights: outcome i, in sorted
    order, for r below the denominator in the i-th cumulative interval."""
    denom = math.lcm(*(w.denominator for w in weights.values()))
    r = ref_randbelow(denom, rng)
    acc = 0
    for outcome in sorted(weights):
        acc += int(weights[outcome] * denom)
        if r < acc:
            return outcome
    raise AssertionError("categorical weights do not sum to 1")


class RefRoundMajorityVote(MajorityVote):
    def update(self, z, truth, pred):
        if self.predict(z) != truth:
            self.vs = self.vs.restrict_cot(z, truth)


class RefRoundSoundConservative(SoundConservative):
    def update(self, z, truth, pred):
        if self.predict(z) != truth:
            self.vs = self.vs.restrict_cot(z, truth)


class RefRoundRiverCrossingSound(RiverCrossingSound):
    def update(self, z, truth, pred):
        pred = self.predict(z)
        if pred == truth or pred == ALL_CORRECT:
            return
        if truth > pred:
            path = [self.states[s] for s in z.steps]
            ell = int(pred)
            if ell >= 2:
                self.allowed = self.allowed | {(path[ell - 2], path[ell - 1])}


class RefRoundScSoa(ScSoa):
    def predict(self, z):
        vs, k = self.vs, self.k
        if vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        ym = vs.yes_mask(z)
        if ym == vs.alive:
            return True
        if k == 0 or ym == 0:
            return False
        m_c = dimensions.sc_value(vs.restrict(z, True), k)
        m_s = dimensions.sc_value(vs.restrict(z, False), k - 1)
        return not (m_c <= m_s)

    def update(self, z, truth, pred):
        if self.predict(z) and not truth:
            self.k -= 1
        self.vs = self.vs.restrict(z, truth)


class RefRoundWscSoa(WscSoa):
    def predict(self, z):
        vs, costs = self.vs, self.costs
        if vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        ym = vs.yes_mask(z)
        if ym == vs.alive:
            return True
        if ym == 0:
            return False
        ws, wc, scale = dimensions.integer_costs(costs.gamma_s, costs.gamma_c)
        m_c = dimensions.wsc_value(vs.restrict(z, True), costs)
        m_s = dimensions.wsc_value(vs.restrict(z, False), costs)
        return (wc + m_c.numerator * (scale // m_c.denominator)
                > ws + m_s.numerator * (scale // m_s.denominator))


class RefRoundSclSoa(SclSoa):
    def predict(self, z):
        vs, costs = self.vs, self.costs
        if vs.alive == 0:
            raise EmptyVersionSpace("no verifier consistent with history")
        labels = sorted(vs.cot_labels(z))
        if len(labels) == 1:
            return labels[0]
        ws, wc, wl, scale = dimensions.integer_costs(
            costs.gamma_s, costs.gamma_c, costs.gamma_l)
        residual = {}
        for y in labels:
            r = dimensions.scl_value(vs.restrict_cot(z, y), costs)
            residual[y] = r.numerator * (scale // r.denominator)
        best, best_worst = None, None
        for i in labels:
            worst = max(_scl_loss(ws, wc, wl, i, j) + residual[j] for j in labels)
            if best_worst is None or worst < best_worst:
                best, best_worst = i, worst
        return best


class RefRoundConservativeWrapper(ConservativeWrapper):
    def update(self, z, truth, pred):
        pred = self.learner.predict(z)
        if pred != truth:
            self.learner.update(z, truth, pred)
            self.snapshots.append(self.learner.snapshot())


def _inner_update(inner, z, truth):
    """Teach the inner learner, with the prediction it makes on z."""
    inner.update(z, truth, inner.predict(z))


class RefRoundCotFromPrefix(CotFromPrefix):
    def update(self, z, truth, pred):
        pred = self.predict(z)
        if pred == truth:
            return
        if pred < truth:
            _inner_update(self.inner, z.prefix(int(pred)), True)
        else:
            _inner_update(self.inner, z.prefix(int(truth)), False)


class RefRoundPrefixFromCot(PrefixFromCot):
    def update(self, z, truth, pred):
        if self.predict(z) == truth:
            return
        ell = len(z.steps)
        padded = self._padded(z)
        if not truth:
            _inner_update(self.inner, padded, fault_at(ell))
        elif ell < self.vclass.L:
            _inner_update(self.inner, padded, fault_at(ell + 1))
        else:
            _inner_update(self.inner, padded, ALL_CORRECT)
