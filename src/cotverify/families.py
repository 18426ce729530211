"""Generators for the concrete verifier classes used in examples, proofs,
and lower bounds, plus JSON load/save for user-defined classes.

All generators are pure and deterministic; identical parameters produce
identical canonical classes.  Each computes its class's yes-masks
directly and hands (instance, mask) pairs to VerifierClass.from_masks.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterable, Sequence

from .core import (
    CapExceeded,
    ParseError,
    PrefixInstance,
    Problem,
    SchemaError,
    StepToken,
    VerifierClass,
)


# Tractability limits; dimension minimax is exponential in these.
MAX_VERIFIERS = 4096
MAX_UNIVERSE = 65536


def _check_caps(n_verifiers: int, n_universe: int):
    if n_verifiers > MAX_VERIFIERS:
        raise CapExceeded(
            f"{n_verifiers} verifiers exceeds cap {MAX_VERIFIERS}"
        )
    if n_universe > MAX_UNIVERSE:
        raise CapExceeded(
            f"universe size {n_universe} exceeds cap {MAX_UNIVERSE}"
        )


# Byte 0/1 to ASCII "0"/"1", for reading a truth table as a binary numeral.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _column_mask(bits: Iterable[int]) -> int:
    """The bitmask of a sequence of 0/1 entries (bools or ints): bit j is
    set iff bits[j] is 1."""
    return int(b"0" + bytes(bits)[::-1].translate(_DIGITS), 2)


def _bit_prefixes(L: int):
    for ell in range(1, L + 1):
        yield from itertools.product((0, 1), repeat=ell)


def _binary_class(L: int, masks, n_verifiers: int) -> VerifierClass:
    """A one-problem class over the binary alphabet from (steps, mask)
    pairs."""
    return VerifierClass.from_masks(
        [StepToken(0, "0"), StepToken(1, "1")], [Problem(0, "x")], L,
        ((PrefixInstance(0, steps), m) for steps, m in masks), n_verifiers,
    )


def singleton_bitstring_class(L: int) -> VerifierClass:
    """Correct proofs are single unknown length-L bitstrings.

    One verifier h_b per b in {0,1}^L, where verifier j's b is the
    bitstring of j, most significant bit first; h_b accepts a prefix iff
    its last step matches the corresponding bit of b.  A length-l
    prefix's yes-mask is therefore one of two masks for position l: the
    verifiers whose bit L - l is set, or the rest.
    """
    if L < 1 or L > 16:
        raise CapExceeded(f"L must be in 1..16, got {L}")
    n = 2**L
    _check_caps(n, 2 * n - 2)
    full = (1 << n) - 1
    by_step = {}
    for ell in range(1, L + 1):
        half = 1 << (L - ell)
        # Runs of `half` clear bits then `half` set bits, repeated.
        ones = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
        by_step[ell] = (full ^ ones, ones)
    return _binary_class(
        L, ((steps, by_step[len(steps)][steps[-1]])
            for steps in _bit_prefixes(L)), n)


def complement_class(n: int, L: int) -> VerifierClass:
    """n verifiers, each rejecting exactly one designated full trace.

    Verifier i outputs NO only on the final prefix of designated trace i
    (the first n length-L bitstrings in lexicographic order).  The
    universe is the designated traces' prefixes: every shorter one has
    the full mask, and trace i has every bit but i.
    """
    if n < 2:
        raise CapExceeded("need n >= 2")
    if n > 2**L:
        raise CapExceeded(f"only {2 ** L} distinct traces of length {L}")
    # The length-l prefixes of the designated traces are the numbers
    # 0 .. (n - 1) >> (L - l), written in l bits.
    tops = [(n - 1) >> (L - ell) for ell in range(1, L + 1)]
    _check_caps(n, sum(tops) + L)
    full = (1 << n) - 1
    return _binary_class(
        L, ((tuple(map(int, format(p, f"0{ell}b"))),
             full ^ 1 << p if ell == L else full)
            for ell, top in enumerate(tops, 1) for p in range(top + 1)), n)


def indicator_class(n_bits: int) -> VerifierClass:
    """One verifier per coordinate; h_i accepts exactly the unit vector e_i.

    Instances are bit prefixes revealed one coordinate at a time (L equals
    n_bits); h_i accepts a prefix iff it agrees with e_i so far.  So an
    all-zero length-l prefix is accepted by h_l .. h_{n-1}, a prefix whose
    only 1 is at step i by h_i alone, and any other prefix by none.
    """
    if n_bits < 2 or n_bits > 10:
        raise CapExceeded(f"n_bits must be in 2..10, got {n_bits}")
    _check_caps(n_bits, 2 ** (n_bits + 1) - 2)
    full = (1 << n_bits) - 1

    def mask(steps):
        ones = steps.count(1)
        if ones == 0:
            return full >> len(steps) << len(steps)
        return 1 << steps.index(1) if ones == 1 else 0

    return _binary_class(
        n_bits, ((steps, mask(steps)) for steps in _bit_prefixes(n_bits)),
        n_bits)


def conjunction_class(L: int) -> VerifierClass:
    """Satisfying assignments of an unknown full conjunction over L variables.

    A trace is an assignment; verifier h_b (b_i = 1 for a positive literal,
    0 for a negated one) judges step i by whether literal i is satisfied,
    so the first faulty step is the first violated literal.
    """
    if L < 1 or L > 12:
        raise CapExceeded(f"L must be in 1..12, got {L}")
    return singleton_bitstring_class(L)


# River-crossing puzzle: states are (farmer, chicken, fox, corn) banks.

RIVER_START = (0, 0, 0, 0)
RIVER_GOAL = (1, 1, 1, 1)


def _river_states():
    return list(itertools.product((0, 1), repeat=4))


def river_safe(state: tuple[int, int, int, int]) -> bool:
    farmer, chicken, fox, corn = state
    if chicken == fox and chicken != farmer:
        return False
    if chicken == corn and chicken != farmer:
        return False
    return True


def river_edges() -> list[tuple[tuple, tuple]]:
    """All legal moves between safe states (farmer alone or with one item)."""
    edges = []
    for s in _river_states():
        if not river_safe(s):
            continue
        farmer = s[0]
        for item in (None, 1, 2, 3):
            if item is not None and s[item] != farmer:
                continue
            t = list(s)
            t[0] = 1 - farmer
            if item is not None:
                t[item] = 1 - farmer
            t = tuple(t)
            if river_safe(t):
                edges.append((s, t))
    return edges


def river_crossing_class(
    revealed_edges: Sequence[tuple[tuple, tuple]],
    L: int,
) -> VerifierClass:
    """Verifier per hidden edge set over the river-crossing move graph.

    A trace is a vertex sequence; h accepts a prefix iff it starts at the
    start state, each move uses a revealed or hidden edge, and a full-length
    trace ends at the goal.  Hidden sets range over the edges not already
    revealed, which avoids duplicate verifiers.
    """
    if L < 2 or L > 12:
        raise CapExceeded(f"L must be in 2..12, got {L}")
    E = river_edges()
    E0 = set(revealed_edges)
    if not E0 <= set(E):
        raise SchemaError("revealed edge not in the legal-move graph")
    pool = sorted(set(E) - E0)
    if len(pool) > 20 or 2 ** len(pool) > MAX_VERIFIERS:
        raise CapExceeded(f"2^{len(pool)} hidden sets exceeds verifier cap")

    states = _river_states()
    state_id = {s: i for i, s in enumerate(states)}
    sigma = [StepToken(i, "".join(map(str, s))) for i, s in enumerate(states)]

    # Universe: every single-state prefix, plus all walks from the start
    # state along legal edges, up to length L.
    universe = {(state_id[s],) for s in states}
    frontier = [(RIVER_START,)]
    while frontier:
        path = frontier.pop()
        universe.add(tuple(state_id[s] for s in path))
        if len(path) < L:
            for s, t in E:
                if s == path[-1]:
                    frontier.append(path + (t,))
    if len(universe) > MAX_UNIVERSE:
        raise CapExceeded(f"universe size {len(universe)} exceeds cap")

    hidden_sets = [
        frozenset(c)
        for r in range(len(pool) + 1)
        for c in itertools.combinations(pool, r)
    ]

    def accepts(known: frozenset, steps: tuple[int, ...]) -> bool:
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

    masks = [
        (PrefixInstance(0, steps),
         _column_mask(accepts(h, steps) for h in hidden_sets))
        for steps in universe
    ]
    return VerifierClass.from_masks(
        sigma, [Problem(0, "river")], L, masks, len(hidden_sets))


def product_class(
    sigma: Sequence[StepToken],
    problems: Sequence[Problem],
    minis: Sequence[Sequence[Callable[[int, tuple[int, ...]], bool]]],
) -> VerifierClass:
    """Product of per-step mini-verifier classes H_1 x ... x H_L.

    minis[i] lists the step-(i+1) mini-verifiers as predicates on
    (problem, steps); a length-i prefix is judged by the i-th component.
    """
    L = len(minis)
    if L < 1:
        raise CapExceeded("need at least one step class")
    n_verifiers = 1
    for step_class in minis:
        if not step_class:
            raise SchemaError("empty mini-class")
        n_verifiers *= len(step_class)
    n_tokens = len(sigma)
    n_universe = len(problems) * sum(n_tokens**ell for ell in range(1, L + 1))
    _check_caps(n_verifiers, n_universe)
    combos = list(itertools.product(*[range(len(m)) for m in minis]))
    masks = []
    for p in problems:
        for ell in range(1, L + 1):
            for steps in itertools.product(range(n_tokens), repeat=ell):
                judged = [bool(m(p.id, steps)) for m in minis[ell - 1]]
                masks.append((PrefixInstance(p.id, steps), _column_mask(
                    judged[c[ell - 1]] for c in combos)))
    return VerifierClass.from_masks(sigma, problems, L, masks, n_verifiers)


def with_fail_token(vclass: VerifierClass) -> VerifierClass:
    """Extend a class with a designated fail step rejected by everyone.

    Adds one token F and, for every universe prefix shorter than L, its
    F-padded continuations; every verifier rejects all of them.
    """
    if vclass.fail_token is not None:
        return vclass
    F = len(vclass.sigma)
    sigma = list(vclass.sigma) + [StepToken(F, "F")]
    masks = list(zip(vclass.universe, vclass.yes_masks))
    for z in vclass.universe:
        for pad in range(1, vclass.L - len(z.steps) + 1):
            masks.append((PrefixInstance(z.problem, z.steps + (F,) * pad), 0))
    # F as a first step is likewise rejected by everyone.
    for p in vclass.problems:
        for pad in range(1, vclass.L + 1):
            masks.append((PrefixInstance(p.id, (F,) * pad), 0))
    return VerifierClass.from_masks(
        sigma, vclass.problems, vclass.L, masks, len(vclass), fail_token=F
    )


def save_class(vclass: VerifierClass, path) -> None:
    doc = {
        "sigma": [t.name or str(t.id) for t in vclass.sigma],
        "problems": [p.name or str(p.id) for p in vclass.problems],
        "L": vclass.L,
        "universe": [[z.problem, list(z.steps)] for z in vclass.universe],
        "verifiers": [
            {"id": h, "rows": list(map(int, row))}
            for h, row in enumerate(vclass.row_bits())
        ],
    }
    if vclass.fail_token is not None:
        doc["fail_token"] = vclass.fail_token
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _all_ints(values) -> bool:
    """Whether every value is a JSON integer: an int, and not one of the
    bools that json gives for true and false."""
    return set(map(type, values)) <= {int}


def load_class(path) -> VerifierClass:
    """Read a class file, the JSON object that save_class writes.

    Every number in it must be a JSON integer and every row entry 0 or 1;
    anything else raises SchemaError rather than being coerced.  The
    universe may come in any order.
    """
    try:
        with open(path) as f:
            text = f.read()
        doc = json.loads(text)
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
    _check_caps(n, size)

    entries_ok = (size > 0 and set(map(type, universe_doc)) == {list}
                  and set(map(len, universe_doc)) == {2})
    if entries_ok:
        problem_ids, steps = zip(*universe_doc)
        entries_ok = (_all_ints(problem_ids)
                      and set(map(type, steps)) == {list}
                      and min(map(len, steps)) > 0
                      and _all_ints(itertools.chain.from_iterable(steps)))
    if not entries_ok:
        raise SchemaError(
            f"{path}: the universe must be a nonempty list of "
            "[problem, [step, ...]] entries, all integers, each with a step")
    universe = list(map(PrefixInstance, problem_ids, map(tuple, steps)))

    # bytes() below refuses every JSON value but an integer and true or
    # false, which it reads as 1 and 0, so only a file that spells a
    # boolean needs each row's types checked.
    bools = "true" in text or "false" in text
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
        if bools and not _all_ints(row):
            raise SchemaError(f"{path}: non-binary row entry")
        rows[i] = row
    # One byte per entry, verifier n-1's row first: column i, read down,
    # is universe[i]'s yes-mask in binary.  bytes() raises TypeError on a
    # value that is not an integer and ValueError on one past 0..255.
    try:
        table = b"".join(map(bytes, reversed(rows)))
        if table.translate(None, b"\x00\x01"):
            raise ValueError
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: non-binary row entry") from None
    digits = table.translate(_DIGITS)
    masks = [int(digits[i::size], 2) for i in range(size)] if n else [0] * size

    return VerifierClass.from_masks(
        [StepToken(i, str(s)) for i, s in enumerate(doc["sigma"])],
        [Problem(i, str(p)) for i, p in enumerate(doc["problems"])],
        L, zip(universe, masks), n, fail_token,
    )
