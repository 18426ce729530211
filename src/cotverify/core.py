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
from itertools import chain
from operator import attrgetter, lt
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


class _NotCanonical(SchemaError):
    """A universe out of canonical order: from_masks sorts it."""


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


class VerifierClass:
    """A finite set of verifiers over a shared enumerated prefix universe.

    The universe is kept in canonical order: sorted by (problem id, prefix
    length, lexicographic steps).  The class is stored as one yes-mask per
    universe instance: bit h of yes_masks[i] is set iff verifier h accepts
    universe[i].  index maps each instance's (problem, steps) to its
    universe index: every lookup and every prefix walk reads it.

    A class is made from its yes-masks, either directly or through
    from_masks, which takes (instance, mask) pairs in any order; the
    family builders and the class-file loader both go through it.
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
        problem_of, steps_of = self._validate()
        self.index: dict[tuple[int, tuple[int, ...]], int] = dict(
            zip(zip(problem_of, steps_of), range(len(steps_of))))
        # Per-trace caches, keyed by (problem, steps) like the index.
        self._partitions: dict[tuple, tuple[tuple[Label, int], ...]] = {}
        self._prefix_masks: dict[tuple, tuple[int, ...]] = {}
        self._verifiers: Optional[tuple[Verifier, ...]] = None

    def _validate(self) -> tuple[list, list]:
        """Refuse an invalid class with SchemaError, checking the universe
        in whole-list passes; return its problem ids and steps."""
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
        problem_of = list(map(attrgetter("problem"), self.universe))
        steps_of = list(map(attrgetter("steps"), self.universe))
        lengths = list(map(len, steps_of))
        keys = list(zip(problem_of, lengths, steps_of))  # the sort keys
        if not all(map(lt, keys, keys[1:])):
            if len(set(keys)) != len(keys):
                raise SchemaError("duplicate universe instance")
            raise _NotCanonical("universe not in canonical order")
        if not (max(lengths) <= self.L and problem_ids.issuperset(problem_of)
                and token_ids.issuperset(chain.from_iterable(steps_of))):
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
        return problem_of, steps_of

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
        """Build from (instance, yes-mask) pairs in any instance order,
        sorting them only when they are out of canonical order."""
        pairs = list(masks)
        try:
            return cls(sigma, problems, L, [z for z, _ in pairs],
                       [m for _, m in pairs], n_verifiers, fail_token)
        except _NotCanonical:
            pairs.sort(key=lambda pair: pair[0].sort_key())
            return cls(sigma, problems, L, [z for z, _ in pairs],
                       [m for _, m in pairs], n_verifiers, fail_token)

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
        """z's universe index; UnknownInstance if z is outside it."""
        try:
            return self.index[z.problem, z.steps]
        except KeyError:
            raise UnknownInstance(f"instance not in universe: {z}") from None

    def __contains__(self, z: PrefixInstance) -> bool:
        return (z.problem, z.steps) in self.index

    def cot_label_of(self, verifier_id: int, z: CotInstance) -> Label:
        """First prefix of z the verifier rejects, ALL_CORRECT if none,
        read from the cached prefix masks.

        The per-verifier reference for cot_partition.
        """
        if len(z.steps) != self.L:
            raise UnknownInstance(
                f"trace length {len(z.steps)} != L={self.L}"
            )
        masks = self.prefix_masks(z)
        for ell, yes in enumerate(masks, 1):
            if not yes >> verifier_id & 1:
                return ell
        self.read_past(z, masks)
        return ALL_CORRECT

    def prefix_masks(self, z: CotInstance) -> tuple[int, ...]:
        """The yes-masks of z's prefixes, shortest first, up to the first
        prefix outside the universe: a caller that reads further calls
        read_past.  Cached per trace."""
        key = (z.problem, z.steps)
        masks = self._prefix_masks.get(key)
        if masks is None:
            index, out = self.index, []
            for ell in range(1, len(z.steps) + 1):
                i = index.get((z.problem, z.steps[:ell]))
                if i is None:
                    break
                out.append(self.yes_masks[i])
            masks = self._prefix_masks[key] = tuple(out)
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
        key = (z.problem, z.steps)
        part = self._partitions.get(key)
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
        part = self._partitions[key] = tuple(groups)
        return part

    def full_mask(self) -> int:
        return (1 << self.n_verifiers) - 1


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
        if len(vclass.prefix_masks(c)) == vclass.L:
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
        vclass = self.vclass
        return vclass.yes_masks[vclass.index_of(z)] >> self.target & 1 == 1

    def cot_label(self, z: CotInstance) -> Label:
        """The target's first rejected prefix of z."""
        return self.vclass.cot_label_of(self.target, z)


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


def validate_fail_token(vclass: VerifierClass) -> None:
    """Check the fail-token hypothesis against the enumerated universe.

    For every universe prefix ending in the fail token whose strict prefix
    is correct under at least one verifier in the class, every verifier
    must reject it.  The verifiers that find the strict prefix correct are
    the AND of its prefixes' yes-masks.  A prefix the walk reaches while
    some verifier is still correct must be in the universe: without it no
    verifier has a label on the padded trace, so the hypothesis fails
    there too, with FailTokenInvalid naming the missing prefix.
    """
    if vclass.fail_token is None:
        raise FailTokenRequired("class declares no fail token")
    F, index, yes_masks = vclass.fail_token, vclass.index, vclass.yes_masks
    for i, z in enumerate(vclass.universe):
        if z.steps[-1] != F:
            continue
        correct = vclass.full_mask()
        for ell in range(1, len(z.steps)):
            if not correct:
                break
            j = index.get((z.problem, z.steps[:ell]))
            if j is None:
                raise FailTokenInvalid(
                    f"fail-token step at {z} follows a prefix missing from "
                    f"the universe: {PrefixInstance(z.problem, z.steps[:ell])}")
            correct &= yes_masks[j]
        if correct and yes_masks[i]:
            raise FailTokenInvalid(
                f"some verifier accepts fail-token step after correct "
                f"prefix at {z}"
            )
