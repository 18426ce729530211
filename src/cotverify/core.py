"""Domain vocabulary for online chain-of-thought verification.

A verifier class is a finite, fully enumerated object: every verifier is a
truth table over an explicit universe of prefix instances.  All costs are
exact rationals; nothing in this module uses floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

# Prefix verdicts.  Tables store plain bools; YES/NO aliases keep call
# sites readable.
PrefixLabel = bool
YES: PrefixLabel = True
NO: PrefixLabel = False

# Chain-of-thought labels: 1..L for the first faulty step, ALL_CORRECT
# (compares greater than every step index) when the whole trace is fine.
Label = float
ALL_CORRECT: Label = math.inf


def fault_at(step: int) -> Label:
    if step < 1:
        raise ValueError(f"fault location must be >= 1, got {step}")
    return step


def is_fault(label: Label) -> bool:
    return label != ALL_CORRECT


class CotVerifyError(Exception):
    """Base class for all library errors."""


class UnknownInstance(CotVerifyError):
    pass


class CapExceeded(CotVerifyError):
    pass


class ParseError(CotVerifyError):
    pass


class SchemaError(CotVerifyError):
    pass


class EmptyVersionSpace(CotVerifyError):
    pass


class ClassMismatch(CotVerifyError):
    pass


class FailTokenRequired(CotVerifyError):
    pass


class FailTokenInvalid(CotVerifyError):
    pass


class InvalidCosts(CotVerifyError):
    pass


class MalformedTree(CotVerifyError):
    pass


class TreeNotShattered(CotVerifyError):
    pass


class NoWitness(CotVerifyError):
    pass


class LearnerNotSound(CotVerifyError):
    pass


class NoHypothesisQualified(CotVerifyError):
    pass


class OracleUnavailable(CotVerifyError):
    pass


@dataclass(frozen=True)
class StepToken:
    id: int
    name: str = ""

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("token id must be nonnegative")


@dataclass(frozen=True)
class Problem:
    id: int
    name: str = ""

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("problem id must be nonnegative")


@dataclass(frozen=True)
class PrefixInstance:
    """A problem together with a nonempty prefix of reasoning steps."""

    problem: int
    steps: tuple[int, ...]

    def __post_init__(self):
        if len(self.steps) < 1:
            raise ValueError("prefix must contain at least one step")

    def sort_key(self):
        return (self.problem, len(self.steps), self.steps)


@dataclass(frozen=True)
class CotInstance:
    """A problem together with a full length-L reasoning trace."""

    problem: int
    steps: tuple[int, ...]

    def prefix(self, length: int) -> PrefixInstance:
        return PrefixInstance(self.problem, self.steps[:length])

    def prefixes(self) -> list[PrefixInstance]:
        return [self.prefix(i) for i in range(1, len(self.steps) + 1)]


@dataclass(frozen=True)
class Verifier:
    """One row-per-universe-instance truth table: a read-only view that
    VerifierClass.verifiers derives from the class's yes-masks."""

    id: int
    rows: tuple[bool, ...]


# Byte 0/1 to ASCII "0"/"1", for reading a truth table as a binary numeral.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def column_mask(bits: Iterable[int]) -> int:
    """The bitmask of a sequence of 0/1 entries (bools or ints): bit j is
    set iff bits[j] is 1."""
    return int(b"0" + bytes(bits)[::-1].translate(_DIGITS), 2)


class VerifierClass:
    """A finite set of verifiers over a shared enumerated prefix universe.

    The universe is kept in canonical order: sorted by (problem id, prefix
    length, lexicographic steps).  The class is stored as one yes-mask per
    universe instance: bit h of yes_masks[i] is set iff verifier h accepts
    universe[i].
    """

    def __init__(
        self,
        sigma: Sequence[StepToken],
        problems: Sequence[Problem],
        L: int,
        universe: Sequence[PrefixInstance],
        yes_masks: Sequence[int],
        n_verifiers: int,
        fail_token: Optional[int] = None,
    ):
        self.sigma = tuple(sigma)
        self.problems = tuple(problems)
        self.L = L
        self.universe = tuple(universe)
        self.yes_masks = list(yes_masks)
        self.n_verifiers = n_verifiers
        self.fail_token = fail_token
        self._validate()
        self._index = {z: i for i, z in enumerate(self.universe)}
        # Universe index by object identity, filled by prefix_trie: sound
        # because self.universe keeps every one of these objects alive.
        self._ids: dict[int, int] = {}
        self._partitions: dict[CotInstance, tuple[tuple[Label, int], ...]] = {}
        self._prefix_masks: dict[CotInstance, tuple[int, ...]] = {}
        self._trie: Optional[dict[tuple[int, int], int]] = None
        self._verifiers: Optional[tuple[Verifier, ...]] = None

    def _validate(self):
        if self.L < 1:
            raise SchemaError("L must be >= 1")
        if len(self.sigma) < 1:
            raise SchemaError("alphabet must be nonempty")
        token_ids = {t.id for t in self.sigma}
        if token_ids != set(range(len(self.sigma))):
            raise SchemaError("token ids must be 0..|sigma|-1")
        problem_ids = {p.id for p in self.problems}
        if problem_ids != set(range(len(self.problems))):
            raise SchemaError("problem ids must be 0..|X|-1")
        if self.fail_token is not None and self.fail_token not in token_ids:
            raise SchemaError("fail_token not in alphabet")
        if not self.universe:
            raise SchemaError("universe must be nonempty")
        keys = [z.sort_key() for z in self.universe]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            if len(set(keys)) != len(keys):
                raise SchemaError("duplicate universe instance")
            raise SchemaError("universe not in canonical order")
        for z in self.universe:
            if len(z.steps) > self.L:
                raise SchemaError(f"prefix longer than L: {z}")
            if z.problem not in problem_ids:
                raise SchemaError(f"unknown problem in universe: {z}")
            if not token_ids.issuperset(z.steps):
                raise SchemaError(f"unknown token in universe: {z}")
        n = self.n_verifiers
        if type(n) is not int or n < 0:
            raise SchemaError("verifier count must be a nonnegative integer")
        if len(self.yes_masks) != len(self.universe):
            raise SchemaError("need one yes-mask per universe instance")
        if min(self.yes_masks) < 0 or max(self.yes_masks) >> n:
            raise SchemaError(f"yes-mask names a verifier outside 0..{n - 1}")

    @classmethod
    def build(
        cls,
        sigma: Sequence[StepToken],
        problems: Sequence[Problem],
        L: int,
        table: dict[PrefixInstance, Sequence[bool]],
        fail_token: Optional[int] = None,
    ) -> "VerifierClass":
        """Build from a per-instance column table {z: [h_0(z), h_1(z), ...]}."""
        sizes = {len(column) for column in table.values()}
        if len(sizes) != 1:
            raise SchemaError("ragged verifier columns")
        masks = [(z, column_mask(map(bool, column)))
                 for z, column in table.items()]
        return cls.from_masks(sigma, problems, L, masks, sizes.pop(), fail_token)

    @classmethod
    def from_masks(
        cls,
        sigma: Sequence[StepToken],
        problems: Sequence[Problem],
        L: int,
        masks: Iterable[tuple[PrefixInstance, int]],
        n_verifiers: int,
        fail_token: Optional[int] = None,
    ) -> "VerifierClass":
        """Build from (instance, yes-mask) pairs in any instance order."""
        pairs = sorted(masks, key=lambda pair: pair[0].sort_key())
        universe = [z for z, _ in pairs]
        yes_masks = [m for _, m in pairs]
        return cls(sigma, problems, L, universe, yes_masks, n_verifiers, fail_token)

    def row_bits(self) -> list[str]:
        """Each verifier's truth table in universe order, as a string of
        "0"/"1" characters: one string per verifier id."""
        n = self.n_verifiers
        if n == 0:
            return []
        width = f"0{n}b"
        return ["".join(row) for row in
                zip(*(format(m, width)[::-1] for m in self.yes_masks))]

    @property
    def verifiers(self) -> tuple[Verifier, ...]:
        """The verifiers as per-verifier truth tables, derived from the
        yes-masks on first use and cached."""
        if self._verifiers is None:
            self._verifiers = tuple(
                Verifier(h, tuple(map("1".__eq__, row)))
                for h, row in enumerate(self.row_bits())
            )
        return self._verifiers

    def __len__(self):
        return self.n_verifiers

    def index_of(self, z: PrefixInstance) -> int:
        """z's universe index: by identity for the universe's own objects
        once prefix_trie has been built, else by value."""
        i = self._ids.get(id(z))
        if i is not None:
            return i
        try:
            return self._index[z]
        except KeyError:
            raise UnknownInstance(f"instance not in universe: {z}") from None

    def __contains__(self, z: PrefixInstance) -> bool:
        return z in self._index

    def prefix_trie(self) -> dict[tuple[int, int], int]:
        """The universe as a prefix trie: child[(node, token)] is the index
        of the prefix extending node's prefix by token, where node is a
        universe index or -1 - problem for the empty prefix.  A prefix
        whose parent is outside the universe has no entry.  Built on first
        use and cached, together with index_of's identity map."""
        if self._trie is None:
            child = {}
            for i, z in enumerate(self.universe):
                parent = (-1 - z.problem if len(z.steps) == 1 else
                          self._index.get(PrefixInstance(z.problem, z.steps[:-1])))
                if parent is not None:
                    child[(parent, z.steps[-1])] = i
            self._trie = child
            self._ids = {id(z): i for i, z in enumerate(self.universe)}
        return self._trie

    def accepts(self, verifier_id: int, z: PrefixInstance) -> PrefixLabel:
        return self.yes_masks[self.index_of(z)] >> verifier_id & 1 == 1

    def cot_label_of(self, verifier_id: int, z: CotInstance) -> Label:
        """First prefix of z the verifier rejects, ALL_CORRECT if none.

        The per-verifier reference for cot_partition.
        """
        if len(z.steps) != self.L:
            raise UnknownInstance(
                f"trace length {len(z.steps)} != L={self.L}"
            )
        for ell in range(1, self.L + 1):
            if not self.yes_masks[self.index_of(z.prefix(ell))] >> verifier_id & 1:
                return fault_at(ell)
        return ALL_CORRECT

    def prefix_masks(self, z: CotInstance) -> tuple[int, ...]:
        """The yes-masks of z's prefixes, shortest first, up to the first
        prefix outside the universe: a caller that reads further calls
        read_past.  Cached per trace."""
        masks = self._prefix_masks.get(z)
        if masks is None:
            out = []
            for ell in range(1, len(z.steps) + 1):
                i = self._index.get(z.prefix(ell))
                if i is None:
                    break
                out.append(self.yes_masks[i])
            masks = self._prefix_masks[z] = tuple(out)
        return masks

    def read_past(self, z: CotInstance, masks: tuple[int, ...]) -> None:
        """Read the prefix of z after its prefix_masks, as a walk over z's
        prefixes does: raise UnknownInstance, as index_of does, if z has
        one."""
        if len(masks) < len(z.steps):
            self.index_of(z.prefix(len(masks) + 1))

    def cot_partition(self, z: CotInstance) -> tuple[tuple[Label, int], ...]:
        """The verifiers grouped by derived label on z: (label, mask) pairs
        in label order, one per label some verifier derives.  Cached per
        trace."""
        part = self._partitions.get(z)
        if part is not None:
            return part
        if len(z.steps) != self.L:
            raise UnknownInstance(
                f"trace length {len(z.steps)} != L={self.L}"
            )
        # A verifier's label is the first prefix it rejects: peel the
        # rejecters of each prefix off the verifiers that accepted so far.
        groups = []
        accepted = self.full_mask()
        masks = self.prefix_masks(z)
        for ell, yes in enumerate(masks, 1):
            if not accepted:
                break
            if accepted & ~yes:
                groups.append((fault_at(ell), accepted & ~yes))
            accepted &= yes
        if accepted:
            self.read_past(z, masks)
            groups.append((ALL_CORRECT, accepted))
        part = self._partitions[z] = tuple(groups)
        return part

    def full_mask(self) -> int:
        return (1 << self.n_verifiers) - 1

    def equal_canonical(self, other: "VerifierClass") -> bool:
        return (
            self.sigma == other.sigma
            and self.problems == other.problems
            and self.L == other.L
            and self.fail_token == other.fail_token
            and self.universe == other.universe
            and self.n_verifiers == other.n_verifiers
            and self.yes_masks == other.yes_masks
        )


@dataclass(frozen=True)
class VersionSpace:
    """An immutable bitset of still-consistent verifier ids."""

    vclass: VerifierClass
    alive: int

    @classmethod
    def full(cls, vclass: VerifierClass) -> "VersionSpace":
        return cls(vclass, vclass.full_mask())

    @property
    def size(self) -> int:
        return self.alive.bit_count()

    def ids(self) -> list[int]:
        return [i for i in range(len(self.vclass)) if self.alive >> i & 1]

    def __contains__(self, verifier_id: int) -> bool:
        return bool(self.alive >> verifier_id & 1)

    def yes_mask(self, z: PrefixInstance) -> int:
        return self.vclass.yes_masks[self.vclass.index_of(z)] & self.alive

    def restrict(self, z: PrefixInstance, y: PrefixLabel) -> "VersionSpace":
        mask = self.vclass.yes_masks[self.vclass.index_of(z)]
        alive = self.alive & (mask if y else ~mask)
        return VersionSpace(self.vclass, alive)

    def restrict_cot(self, z: CotInstance, y: Label) -> "VersionSpace":
        """Keep verifiers whose derived chain-of-thought label on z is y."""
        for label, mask in self.vclass.cot_partition(z):
            if label == y:
                return VersionSpace(self.vclass, self.alive & mask)
        return VersionSpace(self.vclass, 0)

    def cot_labels(self, z: CotInstance) -> set[Label]:
        return {
            label for label, mask in self.vclass.cot_partition(z)
            if mask & self.alive
        }


def cot_instances(vclass: VerifierClass) -> list[CotInstance]:
    """Full-length traces whose every prefix is enumerated in the universe."""
    out = []
    for z in vclass.universe:
        if len(z.steps) != vclass.L:
            continue
        c = CotInstance(z.problem, z.steps)
        if all(p in vclass for p in c.prefixes()):
            out.append(c)
    return out


@dataclass(frozen=True)
class Oracle:
    """Ground-truth labeler induced by the target verifier (realizable)."""

    vclass: VerifierClass
    target: int

    def __post_init__(self):
        if not 0 <= self.target < len(self.vclass):
            raise ValueError(
                f"target must be in 0..{len(self.vclass) - 1}, got {self.target}"
            )

    def prefix_label(self, z: PrefixInstance) -> PrefixLabel:
        return self.vclass.accepts(self.target, z)

    def cot_label(self, z: CotInstance) -> Label:
        """The target's first rejected prefix of z, as cot_label_of, read
        from the class's cached prefix masks."""
        vclass, target = self.vclass, self.target
        if len(z.steps) != vclass.L:
            raise UnknownInstance(
                f"trace length {len(z.steps)} != L={vclass.L}"
            )
        masks = vclass.prefix_masks(z)
        for ell, yes in enumerate(masks, 1):
            if not yes >> target & 1:
                return ell
        vclass.read_past(z, masks)
        return ALL_CORRECT

    def prefix_correct(self, z: PrefixInstance) -> bool:
        """True iff every step of the prefix is correct (cumulative)."""
        masks, bit = self.vclass.yes_masks, 1 << self.target
        return all(
            masks[self.vclass.index_of(PrefixInstance(z.problem, z.steps[:i]))] & bit
            for i in range(1, len(z.steps) + 1)
        )


class MistakeKind(Enum):
    NONE = "none"
    SOUNDNESS = "soundness"
    COMPLETENESS = "completeness"
    LOCATION = "location"


def classify_mistake(
    prediction: Label, truth: Label, mode: str = "prefix-level"
) -> MistakeKind:
    """Classify a chain-of-thought prediction against the truth.

    In prefix-level accounting, predicting the first fault too late is a
    soundness mistake and too early a completeness mistake.  Sequence-level
    accounting additionally separates out location mistakes (both labels in
    1..L but unequal).
    """
    if prediction == truth:
        return MistakeKind.NONE
    if mode == "prefix-level":
        if prediction > truth:
            return MistakeKind.SOUNDNESS
        return MistakeKind.COMPLETENESS
    if mode == "sequence-level":
        if prediction == ALL_CORRECT:
            return MistakeKind.SOUNDNESS
        if truth == ALL_CORRECT:
            return MistakeKind.COMPLETENESS
        return MistakeKind.LOCATION
    raise ValueError(f"unknown mode: {mode}")


def classify_prefix_mistake(
    prediction: PrefixLabel, truth: PrefixLabel
) -> MistakeKind:
    if prediction == truth:
        return MistakeKind.NONE
    return MistakeKind.SOUNDNESS if prediction == YES else MistakeKind.COMPLETENESS


# The cost of a round without a mistake; Fractions are immutable, so one
# shared zero serves every transcript.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class CostVector:
    """Exact rational mistake costs (gamma_l only used sequence-level)."""

    gamma_s: Fraction = Fraction(1)
    gamma_c: Fraction = Fraction(1)
    gamma_l: Fraction = Fraction(0)

    def __post_init__(self):
        if self.gamma_s < 0 or self.gamma_c < 0 or self.gamma_l < 0:
            raise InvalidCosts("costs must be nonnegative")

    def require_ordered(self):
        """Standing assumption for the sequence-level game:
        gamma_s >= gamma_c >= gamma_l."""
        if not (self.gamma_s >= self.gamma_c >= self.gamma_l):
            raise InvalidCosts(
                f"need gamma_s >= gamma_c >= gamma_l, got "
                f"{self.gamma_s}, {self.gamma_c}, {self.gamma_l}"
            )

    def of(self, kind: MistakeKind) -> Fraction:
        if kind is MistakeKind.NONE:
            return _ZERO
        if kind is MistakeKind.SOUNDNESS:
            return self.gamma_s
        if kind is MistakeKind.COMPLETENESS:
            return self.gamma_c
        if kind is MistakeKind.LOCATION:
            return self.gamma_l
        raise KeyError(kind)


@dataclass(frozen=True)
class Round:
    instance: object
    prediction: object
    truth: object
    kind: MistakeKind
    cost: Fraction


@dataclass
class Transcript:
    """Per-round record of an online run with exact cumulative cost."""

    rounds: list[Round] = field(default_factory=list)

    def record(self, instance, prediction, truth, kind: MistakeKind, cost: Fraction):
        self.rounds.append(Round(instance, prediction, truth, kind, cost))

    def count(self, kind: MistakeKind) -> int:
        return sum(1 for r in self.rounds if r.kind is kind)

    @property
    def soundness_mistakes(self) -> int:
        return self.count(MistakeKind.SOUNDNESS)

    @property
    def completeness_mistakes(self) -> int:
        return self.count(MistakeKind.COMPLETENESS)

    @property
    def location_mistakes(self) -> int:
        return self.count(MistakeKind.LOCATION)

    @property
    def total_mistakes(self) -> int:
        return sum(1 for r in self.rounds if r.kind is not MistakeKind.NONE)

    @property
    def total_cost(self) -> Fraction:
        return sum((r.cost for r in self.rounds), Fraction(0))

    def totals_consistent(self, costs: CostVector) -> bool:
        expected = (
            costs.gamma_s * self.soundness_mistakes
            + costs.gamma_c * self.completeness_mistakes
            + costs.gamma_l * self.location_mistakes
        )
        return self.total_cost == expected


def check_realizable(
    vclass: VerifierClass,
    labeled: Iterable[tuple[PrefixInstance, PrefixLabel]],
) -> Optional[int]:
    """Some verifier id consistent with all labeled pairs, or None."""
    alive = VersionSpace.full(vclass)
    for z, y in labeled:
        alive = alive.restrict(z, y)
    if alive.alive == 0:
        return None
    return alive.alive.bit_length() - 1


def validate_fail_token(vclass: VerifierClass) -> None:
    """Check the fail-token hypothesis against the enumerated universe.

    For every universe prefix ending in the fail token whose strict prefix
    is correct under at least one verifier in the class, every verifier
    must reject it.
    """
    if vclass.fail_token is None:
        raise FailTokenRequired("class declares no fail token")
    F = vclass.fail_token
    for z in vclass.universe:
        if z.steps[-1] != F:
            continue
        head = z.steps[:-1]
        if head:
            head_z = PrefixInstance(z.problem, head)
            correct_for_someone = any(
                Oracle(vclass, h).prefix_correct(head_z)
                for h in range(len(vclass))
            )
        else:
            correct_for_someone = True
        if correct_for_someone and vclass.yes_masks[vclass.index_of(z)] != 0:
            raise FailTokenInvalid(
                f"some verifier accepts fail-token step after correct "
                f"prefix at {z}"
            )
