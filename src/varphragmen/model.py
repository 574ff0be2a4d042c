"""Domain types for approval profiles, load vectors and election outcomes.

All quantities are exact rationals (:class:`fractions.Fraction`).  Decimal
tables produced by the CLI are display-only renderings; comparisons, tie
detection and sign tests always happen on the exact values.  The float64
engine backend substitutes ``float`` weights into the same containers, which
every algorithm tolerates, but parsing always yields exact rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

CandidateId = str

#: Exact rational in the canonical representation; ``float`` only ever enters
#: through the float64 engine backend, ``int`` through literal zero loads.
Rational = Union[Fraction, int, float]

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_WEIGHT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


class ProfileParseError(ValueError):
    """Profile text could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownCandidateError(ValueError):
    """A candidate name that does not occur in the profile."""


def rational_str(value: Rational) -> str:
    """Render a value exactly: ``p/q`` (or ``p``) for rationals, repr for floats."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q`` or a decimal string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


class Method(str, Enum):
    VAR_PHRAGMEN = "var-phragmen"
    SEQ_PHRAGMEN = "seq-phragmen"
    SAINTE_LAGUE = "sainte-lague"
    DHONDT = "dhondt"


class Mode(str, Enum):
    CANDIDATE = "candidate"
    PARTY = "party"


class Backend(str, Enum):
    EXACT = "exact"
    FLOAT64 = "float64"


@dataclass(frozen=True)
class VoterType:
    """A group of identical ballots: a positive weight and an approval set."""

    weight: Rational
    approvals: tuple[CandidateId, ...]

    def __post_init__(self):
        if isinstance(self.weight, int):
            # plain ints would leak true division (floats) into the exact lane
            object.__setattr__(self, "weight", Fraction(self.weight))
        if not self.weight > 0:
            raise ValueError(f"voter type weight must be positive, got {self.weight}")
        if not self.approvals:
            raise ValueError("voter type must approve at least one candidate")
        if len(set(self.approvals)) != len(self.approvals):
            raise ValueError(f"duplicate candidate in approval set: {self.approvals}")

    def approval_set(self) -> frozenset[CandidateId]:
        return frozenset(self.approvals)


@dataclass(frozen=True)
class Profile:
    """An approval profile: voter types in input order.

    ``candidates`` is the union of all approval sets in first-appearance
    order; ``total_weight`` is the exact sum of type weights.  The supporter
    index behind :meth:`supporters` is built once, at construction; it takes
    no part in equality and is never mutated, so the profile stays immutable
    and safe to share across threads.
    """

    types: tuple[VoterType, ...]
    candidates: tuple[CandidateId, ...]
    total_weight: Rational
    _supporters: dict[CandidateId, tuple[tuple[int, ...], Rational]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        indices: dict[CandidateId, list[int]] = {name: [] for name in self.candidates}
        for k, t in enumerate(self.types):
            for name in t.approvals:
                indices[name].append(k)
        # sum() in ascending type order: bit-identical to summing a scan
        index = {name: (tuple(ks), sum(self.types[k].weight for k in ks))
                 for name, ks in indices.items()}
        object.__setattr__(self, "_supporters", index)

    @classmethod
    def from_types(cls, types: Iterable[VoterType]) -> "Profile":
        types = tuple(types)
        if not types:
            raise ProfileParseError("profile contains no voter types")
        seen: dict[CandidateId, None] = {}
        for t in types:
            for name in t.approvals:
                seen.setdefault(name)
        total = sum(t.weight for t in types)
        return cls(types=types, candidates=tuple(seen), total_weight=total)

    def supporters(self, candidate: CandidateId) -> tuple[tuple[int, ...], Rational]:
        """Indices of types approving ``candidate`` and their combined weight."""
        try:
            return self._supporters[candidate]
        except KeyError:
            raise UnknownCandidateError(f"unknown candidate: {candidate!r}") from None

    def is_closed_list(self) -> bool:
        """True when every voter type approves exactly one candidate."""
        return all(len(t.approvals) == 1 for t in self.types)


def parse_profile(text: str) -> Profile:
    """Parse profile text into a :class:`Profile`.

    Format: one voter type per line, ``W : name, name, ...`` with ``W`` an
    integer or ``p/q``; names may be separated by commas and/or whitespace;
    ``#`` starts a comment; blank lines are ignored.
    """
    types: list[VoterType] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ProfileParseError(
                f"expected '<weight> : <name>[, <name>...]', got {raw.strip()!r}",
                line_no,
            )
        weight_token = head.strip()
        if not _WEIGHT_RE.match(weight_token):
            raise ProfileParseError(
                f"weight must be an integer or p/q, got {weight_token!r}", line_no
            )
        try:
            weight = Fraction(weight_token)
        except ZeroDivisionError:
            raise ProfileParseError(
                f"weight has zero denominator: {weight_token!r}", line_no
            ) from None
        if weight <= 0:
            raise ProfileParseError(
                f"weight must be positive, got {weight_token!r}", line_no
            )
        names = [tok for tok in re.split(r"[,\s]+", tail.strip()) if tok]
        if not names:
            raise ProfileParseError("empty approval list", line_no)
        for name in names:
            if not _NAME_RE.match(name):
                raise ProfileParseError(f"invalid candidate name: {name!r}", line_no)
        if len(set(names)) != len(names):
            raise ProfileParseError(
                f"duplicate candidate within one approval list: {tail.strip()!r}",
                line_no,
            )
        types.append(VoterType(weight=weight, approvals=tuple(names)))
    return Profile.from_types(types)


def render_profile(profile: Profile) -> str:
    """Render a profile in the text format accepted by :func:`parse_profile`."""
    lines = [
        f"{rational_str(t.weight)} : {', '.join(t.approvals)}" for t in profile.types
    ]
    return "\n".join(lines) + "\n"


def merge_duplicate_types(profile: Profile) -> Profile:
    """Merge voter types with identical approval sets, summing their weights.

    The parser deliberately keeps duplicates; this is the explicit
    normalization step.  Approval order within a merged type follows its
    first occurrence.
    """
    merged: dict[frozenset[CandidateId], VoterType] = {}
    order: list[frozenset[CandidateId]] = []
    for t in profile.types:
        key = t.approval_set()
        if key in merged:
            prev = merged[key]
            merged[key] = VoterType(prev.weight + t.weight, prev.approvals)
        else:
            merged[key] = t
            order.append(key)
    return Profile.from_types(merged[key] for key in order)


@dataclass(frozen=True)
class LoadVector:
    """Per-type accumulated representation after ``seats_assigned`` seats.

    Each seat distributes a total load of exactly 1 among the winner's
    supporters, so ``sum(u_k * values[k]) == seats_assigned`` holds for every
    election-generated vector.
    """

    values: tuple[Rational, ...]
    seats_assigned: int

    @classmethod
    def zero(cls, profile: Profile) -> "LoadVector":
        return cls(values=(0,) * len(profile.types), seats_assigned=0)

    def add(self, x: Sequence[Rational]) -> "LoadVector":
        if len(x) != len(self.values):
            raise ValueError("seat distribution length does not match load vector")
        return LoadVector(
            values=tuple(r + xi for r, xi in zip(self.values, x)),
            seats_assigned=self.seats_assigned + 1,
        )


@dataclass(frozen=True)
class StepSolution:
    """One candidate's optimal distribution of a single new seat.

    ``x`` holds the per-type seat shares (zero off the supporter set),
    ``level`` the common post-seat load of the types that received a positive
    share, and ``score`` the quantity ``sum(u*(2*r*x + x*x))``, i.e. the
    increase of the weighted sum of squared loads caused by this seat.
    ``corrected`` is set when the nonnegativity constraint was binding.
    """

    candidate: CandidateId
    x: tuple[Rational, ...]
    level: Rational
    score: Rational
    corrected: bool
    clamp_rounds: tuple[frozenset[int], ...] = ()


@dataclass(frozen=True)
class SeatRecord:
    seat_index: int
    solution: StepSolution
    loads_after: LoadVector
    variance_after: Rational
    tied_with: tuple[CandidateId, ...] = ()


@dataclass(frozen=True)
class ElectionResult:
    method: Method
    mode: Mode
    records: tuple[SeatRecord, ...]
    seat_counts: Mapping[CandidateId, int]

    @property
    def winners(self) -> tuple[CandidateId, ...]:
        return tuple(rec.solution.candidate for rec in self.records)
