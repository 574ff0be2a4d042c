"""Domain types for approval profiles, load vectors and election outcomes.

All quantities are exact rationals (:class:`fractions.Fraction`).  Decimal
tables produced by the CLI are display-only renderings; comparisons, tie
detection and sign tests always happen on the exact values.  Parsing yields
exact rationals; floats enter only as the float64 engine lane's own weights
and the loads it computes from them, never as a voter type or a profile.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence, Union

CandidateId = str

#: Exact rational in the canonical representation; ``float`` enters only as the
#: float64 lane's own weights and its loads, ``int`` as literal zero loads.
Rational = Union[Fraction, int, float]

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
# numbers are ASCII digits: ``\d`` would match any Unicode decimal digit
_WEIGHT_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")
_RATIONAL_RE = re.compile(
    r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]{1,4}))?)"
)


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
    """Render a value exactly: ``p/q`` (or ``p``) for rationals, repr for floats.

    Integers longer than the interpreter's digit limit for ``str`` (4300
    digits by default; long exact runs reach it) are rendered in pieces
    below that limit, which stays as it is.
    """
    try:
        return str(value)  # str(x) == repr(x) for every float
    except ValueError:
        num, den = value.as_integer_ratio()
        return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def _int_str(n: int) -> str:
    """``str(n)``, split at about half its digits while it exceeds the limit."""
    if n < 0:
        return "-" + _int_str(-n)
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # log10(2) is just over 3/10
        high, low = divmod(n, 10**half)
        return _int_str(high) + _int_str(low).zfill(half)


def _str_int(digits: str) -> int:
    """``int(digits)`` for optionally signed decimal digits, the inverse of
    :func:`_int_str`: split in halves while the string exceeds the limit."""
    if digits.startswith("-"):
        return -_str_int(digits[1:])
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _str_int(digits[:-half]) * 10**half + _str_int(digits[-half:])


def left_sum(values: Iterable[Rational]) -> Rational:
    """``sum(values)``, added strictly left to right on every Python version.

    From Python 3.12 on, ``sum()`` compensates float rounding, so the float
    lane's bits would depend on the version; this is the plain sum of 3.11.
    """
    return reduce(operator.add, values, 0)


def _ratio(token: str) -> Fraction:
    """The value of a ``p`` or ``p/q`` token of any length, by :func:`_str_int`.

    A ``p`` token is already in lowest terms, so it is built without a gcd.
    """
    num, _, den = token.partition("/")
    if not den:
        return Fraction(_str_int(num))
    return Fraction(_str_int(num), _str_int(den))


def parse_rational(text: str) -> Fraction:
    """Parse an optionally signed ``p``, ``p/q`` or decimal, with or without
    an exponent, into an exact Fraction at any length.

    This is the grammar ``Fraction`` reads on Python 3.10, in ASCII digits
    only, read the same way on every supported version: surrounding
    whitespace is ignored, and underscores in numbers or spaces around
    ``/`` are refused, and so is an exponent of more than four digits,
    before any power is built.
    """
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match:
        sign, whole, den, fraction, exponent = match.groups("")
        try:
            shift = int(exponent or 0) - len(fraction)
            num = _str_int(sign + whole + fraction) * 10 ** max(shift, 0)
            return Fraction(num, _str_int(den or "1") * 10 ** max(-shift, 0))
        except ZeroDivisionError:
            pass  # a zero denominator
    raise ValueError(f"not a rational number: {text!r}")


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
    """A group of identical ballots: a positive weight and an approval set.

    Candidate names match ``[A-Za-z0-9_-]+``, the names the profile text
    format can carry, so every profile renders and parses back unchanged.
    An ``int`` weight is stored as a ``Fraction``.  A ``Fraction``'s sign is
    read from its numerator, as its denominator is positive; any other
    weight, a ``Fraction`` subclass included, must satisfy ``weight > 0``,
    so a float NaN is refused.  Every check is :func:`_checked_weight`'s,
    which the constructor runs with no name known to be valid.
    """

    weight: Rational
    approvals: tuple[CandidateId, ...]

    def __post_init__(self):
        weight = _checked_weight(self.weight, self.approvals, set())
        if weight is not self.weight:
            object.__setattr__(self, "weight", weight)


def _checked_weight(
    weight: Rational, approvals: tuple[CandidateId, ...], valid_names: set[CandidateId]
) -> Rational:
    """Run :class:`VoterType`'s checks on its fields; the weight it stores.

    In order: an ``int`` weight becomes a ``Fraction``, then the weight's
    sign, an empty approval list, a duplicate name and the first invalid
    name are refused, each with its own message.  ``valid_names`` holds the
    names already known to match ``[A-Za-z0-9_-]+``; a name not in it is
    matched, and added once every name of the list has passed, so a
    caller that keeps one set checks each distinct name once.
    """
    if isinstance(weight, int):
        # plain ints would leak true division (floats) into the exact lane
        weight = Fraction(weight)
    # a Fraction's denominator is positive, so its numerator has its sign
    if not (weight.numerator > 0 if type(weight) is Fraction else weight > 0):
        raise ValueError(
            f"voter type weight must be positive, got {rational_str(weight)}"
        )
    if not approvals:
        raise ValueError("empty approval list")
    if len(set(approvals)) != len(approvals):
        raise ValueError(f"duplicate candidate in approval set: {approvals}")
    if not valid_names.issuperset(approvals):
        # any other name would be saved as one election and read back as
        # another; the loop only finds the first invalid name to report it
        for name in approvals:
            if name not in valid_names and not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid candidate name: {name!r}")
        valid_names.update(approvals)
    return weight


def _voter_type(weight: Rational, approvals: tuple[CandidateId, ...]) -> VoterType:
    """The :class:`VoterType` of fields that have passed
    :func:`_checked_weight`, ``weight`` the one it returned: the one the
    public constructor would build, built by setting its fields, without
    running the checks again.  This is the only code that builds a
    ``VoterType`` without its constructor, and the only code that writes its
    ``__dict__``."""
    result = object.__new__(VoterType)
    fields = result.__dict__
    fields["weight"], fields["approvals"] = weight, approvals
    return result


@dataclass(frozen=True)
class Profile:
    """An approval profile, built from its voter types alone.

    ``types`` (any nonempty iterable, stored as a tuple in input order)
    determines the rest, both derived once at construction and never written
    again: ``candidates``, the union of all approval sets in first-appearance
    order, and the supporter index behind :meth:`supporters`.  Building a
    profile does no arithmetic on weights: a total weight, of all types or of
    a supporter set, belongs to the code that reads it, which sums it.  Only
    ``types`` and ``candidates`` take part in equality.
    """

    types: tuple[VoterType, ...]
    candidates: tuple[CandidateId, ...] = field(init=False)
    _indices: dict[CandidateId, tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        types = tuple(self.types)
        if not types:
            raise ProfileParseError("profile contains no voter types")
        # insertion order of the dict is first-appearance order
        indices: dict[CandidateId, list[int]] = {}
        for k, t in enumerate(types):
            for name in t.approvals:
                indices.setdefault(name, []).append(k)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "candidates", tuple(indices))
        index = {name: tuple(ks) for name, ks in indices.items()}
        object.__setattr__(self, "_indices", index)

    def supporters(self, candidate: CandidateId) -> tuple[int, ...]:
        """Indices of the types approving ``candidate``, ascending."""
        indices = self._indices.get(candidate)
        if indices is None:
            raise UnknownCandidateError(f"unknown candidate: {candidate!r}")
        return indices

    def is_closed_list(self) -> bool:
        """True when every voter type approves exactly one candidate."""
        return all(len(t.approvals) == 1 for t in self.types)


def parse_profile(text: str) -> Profile:
    """Parse profile text into a :class:`Profile`.

    Format: one voter type per line, ``W : name, name, ...`` with ``W`` an
    integer or ``p/q`` in ASCII digits; names may be separated by commas
    and/or whitespace;
    ``#`` starts a comment; blank lines are ignored.

    Whitespace is what ``str.isspace`` says it is, which is exactly what
    ``\\s`` matches in a ``str`` regex, so the names are split with
    ``str.split`` once every comma is a space.  The weight's sign and the
    names are :class:`VoterType`'s to check, by its :func:`_checked_weight`.

    Each distinct weight token is checked and read into a ``Fraction`` once
    per call; later lines with the same token share that immutable value.
    Each distinct name is matched once per call: the names that passed are
    kept in a set for the call, so a line of known names is checked for an
    empty list and duplicates only.  A token or name is stored only once it
    has passed, so every error names the line it is on.  Each type is built
    from its checked fields by :func:`_voter_type`, which checks nothing
    again.
    """
    types: list[VoterType] = []
    weights: dict[str, Fraction] = {}
    valid_names: set[CandidateId] = set()
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
        weight = weights.get(weight_token)
        if weight is None:
            if not _WEIGHT_RE.match(weight_token):
                raise ProfileParseError(
                    f"weight must be an integer or p/q, got {weight_token!r}", line_no
                )
            try:
                weight = weights[weight_token] = _ratio(weight_token)
            except ZeroDivisionError:
                raise ProfileParseError(
                    f"weight has zero denominator: {weight_token!r}", line_no
                ) from None
        names = tuple(tail.replace(",", " ").split())
        try:
            weight = _checked_weight(weight, names, valid_names)
        except ValueError as exc:
            raise ProfileParseError(str(exc), line_no) from None
        types.append(_voter_type(weight, names))
    return Profile(types)


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
    for t in profile.types:
        key = frozenset(t.approvals)
        if key in merged:
            # replacing a value keeps the key's first position
            prev = merged[key]
            merged[key] = VoterType(prev.weight + t.weight, prev.approvals)
        else:
            merged[key] = t
    return Profile(merged.values())


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
        """The loads after one more seat distributed as ``x``."""
        if len(x) != len(self.values):
            raise ValueError("seat distribution length does not match load vector")
        values = tuple(map(operator.add, self.values, x))
        return LoadVector(values=values, seats_assigned=self.seats_assigned + 1)


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
