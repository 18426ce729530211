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
    """One row-per-universe-instance truth table."""

    id: int
    rows: tuple[bool, ...]


class VerifierClass:
    """A finite set of verifiers over a shared enumerated prefix universe.

    The universe is kept in canonical order: sorted by (problem id, prefix
    length, lexicographic steps).  Verifier rows follow universe order.
    """

    def __init__(
        self,
        sigma: Sequence[StepToken],
        problems: Sequence[Problem],
        L: int,
        universe: Sequence[PrefixInstance],
        verifiers: Sequence[Verifier],
        fail_token: Optional[int] = None,
    ):
        self.sigma = tuple(sigma)
        self.problems = tuple(problems)
        self.L = L
        self.universe = tuple(universe)
        self.verifiers = tuple(verifiers)
        self.fail_token = fail_token
        self._validate()
        self._index = {z: i for i, z in enumerate(self.universe)}
        self._partitions: dict[CotInstance, tuple[tuple[Label, int], ...]] = {}
        # yes_masks[i] = bitmask over verifier ids accepting universe[i]
        self.yes_masks = [0] * len(self.universe)
        for v in self.verifiers:
            bit = 1 << v.id
            for i, accept in enumerate(v.rows):
                if accept:
                    self.yes_masks[i] |= bit

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
        keys = [z.sort_key() for z in self.universe]
        if keys != sorted(keys):
            raise SchemaError("universe not in canonical order")
        if len(set(self.universe)) != len(self.universe):
            raise SchemaError("duplicate universe instance")
        for z in self.universe:
            if len(z.steps) > self.L:
                raise SchemaError(f"prefix longer than L: {z}")
            if z.problem not in problem_ids:
                raise SchemaError(f"unknown problem in universe: {z}")
            if any(s not in token_ids for s in z.steps):
                raise SchemaError(f"unknown token in universe: {z}")
        for i, v in enumerate(self.verifiers):
            if v.id != i:
                raise SchemaError("verifier ids must be 0..n-1 in order")
            if len(v.rows) != len(self.universe):
                raise SchemaError(f"verifier {v.id} row length mismatch")

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
        universe = sorted(table, key=PrefixInstance.sort_key)
        columns = [table[z] for z in universe]
        if len({len(col) for col in columns}) != 1:
            raise SchemaError("ragged verifier columns")
        verifiers = [
            Verifier(i, tuple(map(bool, row)))
            for i, row in enumerate(zip(*columns))
        ]
        return cls(sigma, problems, L, universe, verifiers, fail_token)

    def __len__(self):
        return len(self.verifiers)

    def index_of(self, z: PrefixInstance) -> int:
        try:
            return self._index[z]
        except KeyError:
            raise UnknownInstance(f"instance not in universe: {z}") from None

    def __contains__(self, z: PrefixInstance) -> bool:
        return z in self._index

    def accepts(self, verifier_id: int, z: PrefixInstance) -> PrefixLabel:
        return self.verifiers[verifier_id].rows[self.index_of(z)]

    def cot_label_of(self, verifier_id: int, z: CotInstance) -> Label:
        """First prefix of z the verifier rejects, ALL_CORRECT if none.

        The per-verifier reference for cot_partition.
        """
        if len(z.steps) != self.L:
            raise UnknownInstance(
                f"trace length {len(z.steps)} != L={self.L}"
            )
        rows = self.verifiers[verifier_id].rows
        for ell in range(1, self.L + 1):
            if not rows[self.index_of(z.prefix(ell))]:
                return fault_at(ell)
        return ALL_CORRECT

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
        for ell in range(1, self.L + 1):
            if not accepted:
                break
            yes = self.yes_masks[self.index_of(z.prefix(ell))]
            if accepted & ~yes:
                groups.append((fault_at(ell), accepted & ~yes))
            accepted &= yes
        if accepted:
            groups.append((ALL_CORRECT, accepted))
        part = self._partitions[z] = tuple(groups)
        return part

    def full_mask(self) -> int:
        return (1 << len(self.verifiers)) - 1

    def equal_canonical(self, other: "VerifierClass") -> bool:
        return (
            self.sigma == other.sigma
            and self.problems == other.problems
            and self.L == other.L
            and self.fail_token == other.fail_token
            and self.universe == other.universe
            and self.verifiers == other.verifiers
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

    def prefix_label(self, z: PrefixInstance) -> PrefixLabel:
        return self.vclass.accepts(self.target, z)

    def cot_label(self, z: CotInstance) -> Label:
        return self.vclass.cot_label_of(self.target, z)

    def prefix_correct(self, z: PrefixInstance) -> bool:
        """True iff every step of the prefix is correct (cumulative)."""
        rows = self.vclass.verifiers[self.target].rows
        return all(
            rows[self.vclass.index_of(PrefixInstance(z.problem, z.steps[:i]))]
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
        return {
            MistakeKind.NONE: Fraction(0),
            MistakeKind.SOUNDNESS: self.gamma_s,
            MistakeKind.COMPLETENESS: self.gamma_c,
            MistakeKind.LOCATION: self.gamma_l,
        }[kind]


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
