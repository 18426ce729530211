"""Generators for the concrete verifier classes used in examples, proofs,
and lower bounds, plus JSON load/save for user-defined classes.

All generators are pure and deterministic; identical parameters produce
identical canonical classes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    CapExceeded,
    ParseError,
    PrefixInstance,
    Problem,
    SchemaError,
    StepToken,
    VerifierClass,
)


@dataclass(frozen=True)
class Caps:
    """Tractability limits; dimension minimax is exponential in these."""

    max_verifiers: int = 4096
    max_universe: int = 65536


DEFAULT_CAPS = Caps()


def _check_caps(n_verifiers: int, n_universe: int, caps: Caps):
    if n_verifiers > caps.max_verifiers:
        raise CapExceeded(
            f"{n_verifiers} verifiers exceeds cap {caps.max_verifiers}"
        )
    if n_universe > caps.max_universe:
        raise CapExceeded(
            f"universe size {n_universe} exceeds cap {caps.max_universe}"
        )


def _binary_sigma() -> list[StepToken]:
    return [StepToken(0, "0"), StepToken(1, "1")]


def _bit_prefixes(L: int):
    for ell in range(1, L + 1):
        yield from itertools.product((0, 1), repeat=ell)


def _bits_name(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def singleton_bitstring_class(L: int, caps: Caps = DEFAULT_CAPS) -> VerifierClass:
    """Correct proofs are single unknown length-L bitstrings.

    One verifier h_b per b in {0,1}^L; h_b accepts a prefix iff its last
    step matches the corresponding bit of b.
    """
    if L < 1 or L > 16:
        raise CapExceeded(f"L must be in 1..16, got {L}")
    _check_caps(2**L, 2 ** (L + 1) - 2, caps)
    patterns = list(itertools.product((0, 1), repeat=L))
    table = {}
    for steps in _bit_prefixes(L):
        z = PrefixInstance(0, steps)
        ell = len(steps)
        table[z] = [steps[ell - 1] == b[ell - 1] for b in patterns]
    return VerifierClass.build(
        _binary_sigma(), [Problem(0, "x")], L, table
    )


def complement_class(n: int, L: int, caps: Caps = DEFAULT_CAPS) -> VerifierClass:
    """n verifiers, each rejecting exactly one designated full trace.

    Verifier i outputs NO only on the final prefix of designated trace i
    (the first n length-L bitstrings in lexicographic order).
    """
    if n < 2:
        raise CapExceeded("need n >= 2")
    if n > 2**L:
        raise CapExceeded(f"only {2 ** L} distinct traces of length {L}")
    designated = [
        tuple((i >> (L - 1 - j)) & 1 for j in range(L)) for i in range(n)
    ]
    prefixes = {t[:ell] for t in designated for ell in range(1, L + 1)}
    _check_caps(n, len(prefixes), caps)
    table = {}
    for steps in sorted(prefixes):
        z = PrefixInstance(0, steps)
        table[z] = [steps != designated[i] for i in range(n)]
    return VerifierClass.build(
        _binary_sigma(), [Problem(0, "x")], L, table
    )


def indicator_class(n_bits: int, caps: Caps = DEFAULT_CAPS) -> VerifierClass:
    """One verifier per coordinate; h_i accepts exactly the unit vector e_i.

    Instances are bit prefixes revealed one coordinate at a time (L equals
    n_bits); h_i accepts a prefix iff it agrees with e_i so far.
    """
    if n_bits < 2 or n_bits > 10:
        raise CapExceeded(f"n_bits must be in 2..10, got {n_bits}")
    _check_caps(n_bits, 2 ** (n_bits + 1) - 2, caps)
    units = [
        tuple(1 if j == i else 0 for j in range(n_bits))
        for i in range(n_bits)
    ]
    table = {}
    for steps in _bit_prefixes(n_bits):
        z = PrefixInstance(0, steps)
        table[z] = [steps == u[: len(steps)] for u in units]
    return VerifierClass.build(
        _binary_sigma(), [Problem(0, "x")], n_bits, table
    )


def conjunction_class(L: int, caps: Caps = DEFAULT_CAPS) -> VerifierClass:
    """Satisfying assignments of an unknown full conjunction over L variables.

    A trace is an assignment; verifier h_b (b_i = 1 for a positive literal,
    0 for a negated one) judges step i by whether literal i is satisfied,
    so the first faulty step is the first violated literal.
    """
    if L < 1 or L > 12:
        raise CapExceeded(f"L must be in 1..12, got {L}")
    return singleton_bitstring_class(L, caps)


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
    restrict_hidden: bool = True,
    caps: Caps = DEFAULT_CAPS,
) -> VerifierClass:
    """Verifier per hidden edge set over the river-crossing move graph.

    A trace is a vertex sequence; h accepts a prefix iff it starts at the
    start state, each move uses a revealed or hidden edge, and a full-length
    trace ends at the goal.  By default hidden sets range over the edges not
    already revealed, which avoids duplicate verifiers.
    """
    if L < 2 or L > 12:
        raise CapExceeded(f"L must be in 2..12, got {L}")
    E = river_edges()
    E0 = set(revealed_edges)
    if not E0 <= set(E):
        raise SchemaError("revealed edge not in the legal-move graph")
    pool = sorted(set(E) - E0) if restrict_hidden else sorted(E)
    if len(pool) > 20 or 2 ** len(pool) > caps.max_verifiers:
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
    if len(universe) > caps.max_universe:
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

    table = {
        PrefixInstance(0, steps): [accepts(h, steps) for h in hidden_sets]
        for steps in universe
    }
    return VerifierClass.build(sigma, [Problem(0, "river")], L, table)


def product_class(
    sigma: Sequence[StepToken],
    problems: Sequence[Problem],
    minis: Sequence[Sequence[Callable[[int, tuple[int, ...]], bool]]],
    caps: Caps = DEFAULT_CAPS,
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
    _check_caps(n_verifiers, n_universe, caps)
    combos = list(itertools.product(*[range(len(m)) for m in minis]))
    table = {}
    for p in problems:
        for ell in range(1, L + 1):
            for steps in itertools.product(range(n_tokens), repeat=ell):
                z = PrefixInstance(p.id, steps)
                judged = [m(p.id, steps) for m in minis[ell - 1]]
                table[z] = [judged[c[ell - 1]] for c in combos]
    return VerifierClass.build(sigma, problems, L, table)


def with_fail_token(vclass: VerifierClass) -> VerifierClass:
    """Extend a class with a designated fail step rejected by everyone.

    Adds one token F and, for every universe prefix shorter than L, its
    F-padded continuations; every verifier rejects all of them.
    """
    if vclass.fail_token is not None:
        return vclass
    F = len(vclass.sigma)
    sigma = list(vclass.sigma) + [StepToken(F, "F")]
    n = len(vclass)
    table = {
        z: [v.rows[i] for v in vclass.verifiers]
        for i, z in enumerate(vclass.universe)
    }
    for z in vclass.universe:
        for pad in range(1, vclass.L - len(z.steps) + 1):
            padded = PrefixInstance(z.problem, z.steps + (F,) * pad)
            table[padded] = [False] * n
    # F as a first step is likewise rejected by everyone.
    for p in vclass.problems:
        for pad in range(1, vclass.L + 1):
            table[PrefixInstance(p.id, (F,) * pad)] = [False] * n
    return VerifierClass.build(
        sigma, vclass.problems, vclass.L, table, fail_token=F
    )


def save_class(vclass: VerifierClass, path) -> None:
    doc = {
        "sigma": [t.name or str(t.id) for t in vclass.sigma],
        "problems": [p.name or str(p.id) for p in vclass.problems],
        "L": vclass.L,
        "universe": [[z.problem, list(z.steps)] for z in vclass.universe],
        "verifiers": [
            {"id": v.id, "rows": [int(b) for b in v.rows]}
            for v in vclass.verifiers
        ],
    }
    if vclass.fail_token is not None:
        doc["fail_token"] = vclass.fail_token
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_class(path, caps: Caps = DEFAULT_CAPS) -> VerifierClass:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from None
    for key in ("sigma", "problems", "L", "universe", "verifiers"):
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")
    sigma = [StepToken(i, str(s)) for i, s in enumerate(doc["sigma"])]
    problems = [Problem(i, str(p)) for i, p in enumerate(doc["problems"])]
    try:
        universe = [
            PrefixInstance(int(p), tuple(int(s) for s in steps))
            for p, steps in doc["universe"]
        ]
        verifiers_doc = sorted(doc["verifiers"], key=lambda v: v["id"])
        ids = [v["id"] for v in verifiers_doc]
        rows = [v["rows"] for v in verifiers_doc]
    except (TypeError, ValueError, KeyError) as e:
        raise SchemaError(f"{path}: malformed field: {e}") from None
    if any(type(i) is not int for i in ids) or ids != list(range(len(ids))):
        raise SchemaError(f"{path}: verifier ids must be exactly 0..n-1")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(universe):
            raise SchemaError(f"{path}: verifier {i} row length mismatch")
        if any(x not in (0, 1) for x in row):
            raise SchemaError(f"{path}: non-binary row entry")
    fail_token = doc.get("fail_token")
    if fail_token is not None and type(fail_token) is not int:
        raise SchemaError(f"{path}: fail_token must be an integer")
    _check_caps(len(rows), len(universe), caps)
    if len(set(universe)) != len(universe):
        raise SchemaError(f"{path}: duplicate universe instance")
    columns = list(zip(*rows)) or [()] * len(universe)  # no verifiers
    table = dict(zip(universe, columns))
    return VerifierClass.build(
        sigma, problems, int(doc["L"]), table, fail_token=fail_token
    )
