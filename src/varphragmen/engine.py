"""Sequential election runner for the four supported methods.

Seats are awarded one at a time.  ``var-phragmen`` gives each seat to the
candidate whose (negativity-corrected) distribution minimizes the score, i.e.
the post-seat load variance; ``seq-phragmen`` to the candidate minimizing the
common post-seat load level.  ``sainte-lague`` and ``dhondt`` are the
classical highest-averages rules and require closed-list profiles (every
ballot approves exactly one party).  Ties break lexicographically on the
candidate name everywhere, and all tied candidates are reported on the seat
record.

Elections are independent of each other and may run in parallel; a run only
ever builds fresh immutable load vectors, and its lane is its own.  A lane is
a seat's whole state: the profile, the method, the current loads and a lower
bound on each candidate's float key, its only memory.  :func:`select_winner`
decides each seat from it; its docstring states what it may be handed and
which candidates it solves and compares.  A backend's lane takes in each
seat in two parts: its ``move`` is all that decides the next seat or may
raise, and its ``advance`` also records the seat.  One seat loop serves every
run: :func:`run_election` records each seat, and the callers that read only
the winners or the seat counts (:func:`_winners`) build no record.  The
share lane is the eager reference.  The exact lane solves on integers, loads
as numerators over one run-wide denominator; the float64 lane solves share
by share.  All three solve to a light ``Solve``; only a recorded seat's
winner becomes a record.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    Backend,
    CandidateId,
    ElectionResult,
    LoadVector,
    Method,
    Mode,
    Profile,
    Rational,
    SeatRecord,
    VoterType,
    left_sum,
    rational_str,
)
from .step import (
    IntegerSubproblem,
    Solve,
    Subproblem,
    _reduced,
    _score,
    corrected_solution,
    unconstrained_level,
    waterfill_solution,
)


class ElectionConfigError(ValueError):
    """The requested election cannot be run on the given profile."""


class VerificationError(AssertionError):
    """An election result violates one of the per-seat invariants."""


HIGHEST_AVERAGES_DIVISORS = {
    Method.SAINTE_LAGUE: lambda n: 2 * n + 1,
    Method.DHONDT: lambda n: n + 1,
}


def variance(profile: Profile, loads: LoadVector) -> Rational:
    """Load variance multiplied by the total weight: ``sum(u*r*r) - n*n/w``.

    The direct evaluation: the float lane of :func:`run_election` and
    :func:`verify_election` evaluate it after every seat, while the exact
    lane keeps both sums running instead.  Requires a load vector of the
    profile's length and a consistent one (``sum(u*r) == seats_assigned``,
    with a tolerance only for float loads), else raises ``ValueError``.  All
    sums add left to right in type order: ``w`` over every type, zero loads
    included, and the others over the types with a nonzero load, each
    ``u*r`` computed once.  Loads and weights are nonnegative, so a partial
    sum is never ``-0.0``, and adding an exact or float zero to it changes
    no value or bit: the result equals the full scan exactly.
    """
    return _variance(profile, loads, left_sum(t.weight for t in profile.types))


def _variance(profile: Profile, loads: LoadVector, w: Rational) -> Rational:
    """:func:`variance` at the total weight ``w``, which its callers that
    evaluate it at every seat sum once, left to right in type order."""
    if len(loads.values) != len(profile.types):
        raise ValueError("load vector length does not match profile")
    mass = squares = 0
    for t, r in zip(profile.types, loads.values):
        if r:
            weighted = t.weight * r
            mass += weighted
            squares += weighted * r  # (u*r)*r is how u*r*r evaluates
    n = loads.seats_assigned
    exact = isinstance(mass, (Fraction, int))
    if (mass != n) if exact else not math.isclose(mass, n, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"inconsistent loads: total mass {rational_str(mass)} != {n} seats"
        )
    return squares - n * n / w


class _ShareLane:
    """Share-by-share arithmetic for ``method`` at ``loads``: the eager reference.

    Subproblems are plain :class:`Subproblem` instances at ``self.loads``,
    which compute each ``u*r`` afresh and score their active set share by
    share.  The backends' lanes, :class:`_FloatLane` and :class:`_ExactLane`,
    add ``move``, which takes in a seat's decision and moves the lane on, and
    ``advance``, which also records the seat.  The float key is the key
    itself.

    ``bounds`` holds a lower bound on each candidate's float key at
    ``loads``: minus infinity, which rules no candidate out, until
    :meth:`solve` raises it to the float key it returns; nothing else does.
    """

    def __init__(self, profile: Profile, method: Method, loads: LoadVector):
        self.profile = profile
        self.method = method
        self.loads = loads
        self.bounds = dict.fromkeys(profile.candidates, -math.inf)

    def subproblem(self, name: CandidateId) -> Subproblem:
        return Subproblem(self.profile, self.loads, name)

    def approximate(self, key: Rational) -> Rational:
        return key

    def solve(self, name: CandidateId) -> tuple[Rational, Rational, Solve]:
        """``name``'s float key, key (score for var-Phragmén, level for
        seq-Phragmén) and solve at ``loads``."""
        sol = corrected_solution(self.subproblem(name))
        if self.method is Method.VAR_PHRAGMEN:
            key = sol.score
        else:
            # The max-load method moves every supporter to the common level;
            # along its own runs that level never undercuts a supporter's
            # load, so the solve never clamps, which we assert rather than
            # assume.
            if sol.clamp_rounds:
                raise AssertionError(
                    f"negative shares for supporter types "
                    f"{sorted(sol.clamp_rounds[0])} of {name!r}: "
                    "max-load positivity violated"
                )
            key = sol.level
        approx = self.bounds[name] = self.approximate(key)
        return approx, key, sol


class _FloatLane(_ShareLane):
    """The float64 backend: the share lane on ``profile``'s weights in float64,
    refused (exit 3) when a weight, its reciprocal or their total, summed
    left to right in type order, does not fit.  It keeps that
    ``total_weight`` for the variance after each seat.

    A bound is the candidate's float key itself while none of its supporters
    has moved: its subproblem reads the same weight and load objects, so a
    fresh key has the same bits.  :meth:`move` resets to minus infinity
    the bound of every candidate approved by a type the seat moved (active,
    below the level): a float64 key, a sum of many roundings, is not proven
    never to fall as a load rises, so no stale key may bound it.
    """

    def __init__(self, profile: Profile, method: Method, loads: LoadVector):
        types = []
        for k, t in enumerate(profile.types, start=1):
            try:
                weight = float(t.weight)
            except OverflowError:
                weight = math.inf
            # a weight whose reciprocal is inf would make a level inf and a
            # score ``0 * inf``, NaN
            if not 0 < weight < math.inf or 1 / weight == math.inf:
                problem = "overflows" if weight == math.inf else "is too small for"
                raise ElectionConfigError(
                    f"voter type {k} weight {problem} float64; use --backend exact"
                )
            types.append(VoterType(weight=weight, approvals=t.approvals))
        self.total_weight = left_sum(t.weight for t in types)
        if not math.isfinite(self.total_weight):
            raise ElectionConfigError(
                "total voter weight overflows float64; use --backend exact"
            )
        super().__init__(Profile(types), method, loads)

    def move(self, solution: Solve) -> Rational:
        """Take in a seat: move ``loads`` on and return the variance after it.

        Only the moved types' loads change, and only their candidates' bounds
        are reset; the other loads keep their objects.  A score or variance
        that overflowed is reported before the next seat.
        """
        level = solution.level
        values = list(self.loads.values)
        for k, _, r in solution.active:
            if r != level:
                values[k] += level - r if r else level  # the recorded share
                for name in self.profile.types[k].approvals:
                    self.bounds[name] = -math.inf
        loads = self.loads = LoadVector(tuple(values), self.loads.seats_assigned + 1)
        after = _variance(self.profile, loads, self.total_weight)
        for what, value in (("score", solution.score), ("variance", after)):
            if not math.isfinite(value):
                raise ElectionConfigError(
                    f"seat {loads.seats_assigned}: float64 {what} is {value}; "
                    "use --backend exact"
                )
        return after

    def advance(self, solution: Solve) -> tuple:
        """Take in a seat by :meth:`move`: its record and the variance after it."""
        return solution.record(), self.move(solution)


class _ExactLane(_ShareLane):
    """Exact arithmetic on the integer loads the lane holds: ``weights`` ``U``
    over their lcm ``multiplier`` ``L``, ``numerators`` ``N`` over one
    ``denominator`` ``D``.  Each subproblem sums its own supporters'
    ``(sum(U*N), sum(U*N*N), max N)`` when it is built, so the lane keeps no
    per-candidate state besides its ``bounds``; every key is at today's ``D``.
    ``D``, the number of ``seats`` and the run totals below start from the
    loads the lane is built at.

    A seat at level ``p/(D*q)``, in lowest terms, sets ``D`` to ``D*q``: the
    active types take ``N = p`` and every other numerator is multiplied by
    ``q``.  So is the run total ``sum(U*N)``, which must equal the number of
    seats: the consistency check of :func:`variance`; each moved type then
    adds its increase.  The lane keeps ``unit = L*D``, the load a seat adds,
    and ``ldd = L*D*D`` running, multiplied by ``q`` and ``q*q``.  That is
    :meth:`move`.  :meth:`advance` also keeps ``squares = sum(U*N*N)`` for
    the variance: the seat's score ``s/t`` (``L*D*D`` times the score, ``t``
    dividing ``q``) times ``q*q`` is ``p*p*W - sum(U*N*N)*q*q`` over its
    active set, what the seat adds to the sum at the new ``D``, so the sum
    becomes ``squares*q*q + s*(q*q//t)``.  Only there does the winner's
    solve become fractions of big denominators.

    ``radical`` is divisible by every prime of ``L``, ``D`` and the total
    weight ``w = sum(U)``: it starts at their lcm, and :meth:`move` takes in
    each ``q`` it does not already divide.  Each ``q`` divides a
    subproblem's ``W``, so from zero loads ``radical`` takes in few primes
    over a two-party run and many over a profile of many types.  A recorded
    value's denominator is a product of those numbers times a factor
    coprime to its numerator: the variance ``(squares*w -
    n*n*L*ldd)/(ldd*w)``, at the ``D`` after :meth:`move`, and the solve's
    values (see :class:`IntegerSubproblem`).  So every prime its numerator
    shares with it divides ``radical``: that is what ``step._reduced`` needs
    to reduce it exactly, by remainders against ``radical`` while
    ``radical`` is small.

    A float key, the score over ``L*D*D`` or the level over ``D``, does not
    depend on ``D``.

    ``bounds`` holds each candidate's last float key, minus infinity until
    its first solve, kept across seats: nothing but a solve changes it.  It
    is a lower bound on the candidate's fresh float key: the seat's feasible
    shares do not depend on the loads, the score and the level never fall
    as a load rises, loads only rise, and the float key is one correctly
    rounded, hence monotone, division.
    """

    def __init__(self, profile: Profile, method: Method, loads: LoadVector):
        super().__init__(profile, method, loads)
        ratios = [t.weight.as_integer_ratio() for t in profile.types]  # floats too
        multiplier = self.multiplier = math.lcm(*(q for _, q in ratios))
        weights = self.weights = [p * (multiplier // q) for p, q in ratios]
        denominator = self.denominator = math.lcm(*(r.denominator for r in loads.values))
        numerators = self.numerators = [int(r * denominator) for r in loads.values]
        self.unit = multiplier * denominator
        self.ldd = self.unit * denominator
        self.total_weight = sum(weights)
        self.radical = math.lcm(multiplier, self.total_weight, denominator)
        weighted = [u * n for u, n in zip(weights, numerators)]
        self.mass = sum(weighted)
        self.squares = sum(c * n for c, n in zip(weighted, numerators))
        self.seats = loads.seats_assigned

    def approximate(self, key: Fraction) -> float:
        """The absolute key, by one correctly rounded ``int`` division."""
        scale = self.ldd if self.method is Method.VAR_PHRAGMEN else self.denominator
        try:
            return key.numerator / (key.denominator * scale)
        except OverflowError:
            return math.inf

    def subproblem(self, name: CandidateId) -> IntegerSubproblem:
        return IntegerSubproblem(self, name)

    def move(self, solution: Solve) -> None:
        """Take in a seat's decision: rescale every numerator, ``L*D`` and
        ``L*D*D`` to ``D*q``, move the active numerators to ``p`` and check the
        mass.  It builds no fraction: ``loads`` and ``squares`` stay at the
        last seat :meth:`advance` took in."""
        level = solution.level
        p, q = level.numerator, level.denominator
        numerators = self.numerators = [n * q for n in self.numerators]
        self.denominator *= q
        if self.radical % q:
            self.radical = math.lcm(self.radical, q)
        unit = self.unit = self.unit * q
        self.ldd *= q * q
        mass = self.mass * q
        for k, u, _ in solution.active:
            # a type already at the level has q == 1 and N == p: it does not move
            mass += u * (p - numerators[k])
            numerators[k] = p
        self.mass = mass
        n = self.seats = self.seats + 1
        if mass != n * unit:
            shown = rational_str(Fraction(mass, unit))
            raise ValueError(f"inconsistent loads: total mass {shown} != {n} seats")

    def advance(self, solution: Solve) -> tuple:
        """Take in a seat by :meth:`move` and record it: its
        :class:`StepSolution`, the ``Fraction`` loads and the variance after it."""
        record = solution.record()
        q = solution.level.denominator
        s, t = solution.score.numerator, solution.score.denominator
        square = q * q
        squares = self.squares = self.squares * square + s * (square // t)
        self.move(solution)
        values = list(self.loads.values)
        for k, _, _ in solution.active:
            values[k] = record.level
        n = self.seats
        self.loads = LoadVector(tuple(values), n)
        ldd, w = self.ldd, self.total_weight
        after = _reduced(squares * w - n * n * self.multiplier * ldd, ldd * w, self.radical)
        return record, after


def select_winner(
    lane: _ShareLane, eligible: Iterable[CandidateId]
) -> tuple[CandidateId, Solve, list[CandidateId]]:
    """Pick the next seat's winner among the ``eligible`` candidates on ``lane``.

    ``eligible`` must be names of the lane's candidates, at least one, as
    :func:`_eligible` yields them; nothing checks them.  The lane is the
    seat's whole state: its profile, its method, its loads and its bounds.
    Returns the winner, its :class:`Solve` (``.record()`` is its seat
    distribution) and all the candidates tied at the optimum, in name order;
    ties resolve to the smallest name.

    The candidates are visited in ``(bound, name)`` order and solved until
    a bound lies strictly above the least fresh float key found so far.
    That candidate and every later one are skipped unsolved: a fresh key is
    never below its bound, so none can contend.  A bound equal to the least
    key is solved, as it may tie.  So the result is the one that re-solving
    every eligible candidate gives, float bits included.

    The contenders are the solved candidates whose float key equals the
    least float key.  Only their keys are compared exactly, in one sort by
    ``(key, name)``: the winner comes first and its ties follow.  An
    exact-lane float key is one correctly rounded division, which is
    monotone, so the least key and its ties all round to the least float;
    elsewhere the float key is the key.

    The visit order changes no contender, winner or tie unless a float key
    is NaN, and none is: keys are sums of nonnegative terms, which may
    reach inf but not NaN, and the float64 lane's exit-3 checks keep its
    weights, their reciprocals and total, and each recorded score and
    variance finite.
    """
    if lane.method not in (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN):
        raise ValueError(f"select_winner does not handle {lane.method.value}")
    bounds = lane.bounds
    names = sorted(eligible)
    names.sort(key=bounds.__getitem__)  # stable: (bound, name) order
    scored: list[tuple[Rational, Rational, CandidateId, Solve]] = []
    least = math.inf
    for name in names:
        if bounds[name] > least:
            break  # this fresh key and every later one are above ``least``
        approx, key, sol = lane.solve(name)
        if approx < least:
            least = approx
        scored.append((approx, key, name, sol))
    # names are unique, so the sort never compares two solves
    contenders = sorted(
        (key, name, sol) for approx, key, name, sol in scored if approx == least
    )
    best_key, winner, solution = contenders[0]
    tied = [name for key, name, _ in contenders if key == best_key]
    return winner, solution, tied


def _eligible(candidates: Sequence[CandidateId], mode: Mode, counts: Mapping) -> Sequence:
    """Who may win a seat: all in party mode, else those without one in ``counts``."""
    return candidates if mode is Mode.PARTY else [c for c in candidates if not counts[c]]


def seat_states(profile: Profile, result: ElectionResult) -> Iterator[tuple]:
    """Yield ``(record, loads before its seat, candidates eligible for it)``
    for each seat of ``result``, by :func:`_eligible` of the earlier winners."""
    loads = LoadVector.zero(profile)
    counts: Counter[CandidateId] = Counter()
    for rec in result.records:
        yield rec, loads, _eligible(profile.candidates, result.mode, counts)
        loads = rec.loads_after
        counts[rec.solution.candidate] += 1


def _party_weights(profile: Profile) -> dict[CandidateId, Rational]:
    """Each candidate's vote total: the combined weight of its supporters."""
    return {
        name: left_sum(profile.types[k].weight for k in profile.supporters(name))
        for name in profile.candidates
    }


def _highest_quotients(
    votes: Mapping[CandidateId, Rational],
    held: Mapping[CandidateId, int],
    rule: Callable[[int], int],
) -> list[CandidateId]:
    """Parties tied at the highest ``votes / rule(held)``, by name: the first wins."""
    quotients = {name: v / rule(held[name]) for name, v in votes.items()}
    top = max(quotients.values())
    return sorted(name for name, q in quotients.items() if q == top)


def _lane(
    profile: Profile, method: Method, seats: int, mode: Mode, backend: Backend
) -> _ShareLane:
    """The backend's lane for ``method`` at zero loads, once a run of
    ``seats`` seats in ``mode`` is checked to be possible; else raises
    :class:`ElectionConfigError`."""
    if seats < 1:
        raise ElectionConfigError(f"seats must be >= 1, got {seats}")
    lane_class = _ExactLane if backend is Backend.EXACT else _FloatLane
    lane = lane_class(profile, method, LoadVector.zero(profile))
    work = lane.profile
    if mode is Mode.CANDIDATE and seats > len(work.candidates):
        raise ElectionConfigError(
            f"cannot fill {seats} seats from {len(work.candidates)} candidates "
            "in candidate mode"
        )
    if method in HIGHEST_AVERAGES_DIVISORS:
        if not work.is_closed_list():
            raise ElectionConfigError(
                f"{method.value} requires a closed-list profile "
                "(every ballot approves exactly one party)"
            )
        if mode is not Mode.PARTY:
            raise ElectionConfigError(f"{method.value} runs in party mode only")
    return lane


def _seats(
    lane: _ShareLane, seats: int, mode: Mode, take: Callable[[Solve], object]
) -> Iterator[tuple[CandidateId, list[CandidateId], object]]:
    """The seat loop of every run: yield each seat's winner, the candidates
    tied with it, and what ``take`` returns for its solve.

    Each seat picks the winner (:func:`select_winner` on the lane, or
    :func:`_highest_quotients`) and hands its solve to ``take``: the lane's
    ``move``, which moves its integers or loads on and runs every check, or
    its ``advance``, which also records the seat.
    """
    work = lane.profile
    quotient_rule = HIGHEST_AVERAGES_DIVISORS.get(lane.method)
    if quotient_rule is not None:
        party_weight = _party_weights(work)
    counts = dict.fromkeys(work.candidates, 0)
    for _ in range(seats):
        if quotient_rule is None:
            eligible = _eligible(work.candidates, mode, counts)
            winner, solution, tied = select_winner(lane, eligible)
        else:
            tied = _highest_quotients(party_weight, counts, quotient_rule)
            winner = tied[0]
            solution = corrected_solution(lane.subproblem(winner))
        yield winner, tied, take(solution)
        counts[winner] += 1


def _winners(
    profile: Profile,
    method: Method,
    seats: int,
    mode: Mode = Mode.CANDIDATE,
    backend: Backend = Backend.EXACT,
) -> list[CandidateId]:
    """The winner of each seat of :func:`run_election`'s run, which no seat
    records: each only moves the lane, with every check of a recorded seat."""
    method, mode, backend = Method(method), Mode(mode), Backend(backend)
    lane = _lane(profile, method, seats, mode, backend)
    return [winner for winner, _, _ in _seats(lane, seats, mode, lane.move)]


def run_election(
    profile: Profile,
    method: Method,
    seats: int,
    *,
    mode: Mode = Mode.CANDIDATE,
    backend: Backend = Backend.EXACT,
) -> ElectionResult:
    """Run a full sequential election and return the per-seat trace.

    Candidate mode elects each candidate at most once, party mode any number
    of times (:func:`_eligible`).  The highest-averages methods demand a
    closed-list profile and party mode.

    ``method``, ``mode`` and ``backend`` may also be given as their string
    values; an unknown one raises ``ValueError``.

    The seats come from :func:`_seats`, whose lane records each one, moves
    its loads on and returns the variance after the seat.  The backend picks
    the lane's class, built once per run for ``method`` at zero loads
    (:func:`_lane`); the lane holds the profile the run reads and the loads
    each record takes.  A Phragmén seat is :func:`select_winner`'s decision
    on the lane, which solves only the candidates whose bounds do not rule
    them out (each lane's docstring says what its bounds are).

    Both methods elect through :func:`corrected_solution`; a seq-Phragmén
    solve that clamps is an error.  The exact lane solves on integer loads
    over one run-wide denominator (:class:`IntegerSubproblem`), scoring in
    closed form from sums each solve takes over its own supporters;
    ``variance_after`` comes from the running total ``sum(u*r*r)``.  The
    float lane scores share by share and rescans the variance, so its bits
    do not depend on the closed form.  :func:`verify_election` re-checks
    every exact-lane score against the share-by-share reference.
    """
    method, mode, backend = Method(method), Mode(mode), Backend(backend)
    lane = _lane(profile, method, seats, mode, backend)
    counts = dict.fromkeys(lane.profile.candidates, 0)
    records: list[SeatRecord] = []
    for seat, (winner, tied, (solution, variance_after)) in enumerate(
        _seats(lane, seats, mode, lane.advance), start=1
    ):
        records.append(
            SeatRecord(
                seat_index=seat,
                solution=solution,
                loads_after=lane.loads,
                variance_after=variance_after,
                tied_with=tuple(tied),
            )
        )
        counts[winner] += 1
    return ElectionResult(
        method=method, mode=mode, records=tuple(records), seat_counts=counts
    )


def apportion_sequence(
    votes: Mapping[CandidateId, Rational], seats: int, divisor: Method
) -> list[CandidateId]:
    """Award seats one by one to the party with the highest quotient.

    ``divisor`` selects the rule: Sainte-Laguë divides by ``2n+1``, D'Hondt
    by ``n+1``.  Ties go to the lexicographically smallest party name, by
    the same quotient step as :func:`run_election`'s.
    """
    rule = HIGHEST_AVERAGES_DIVISORS.get(divisor)
    if rule is None:
        raise ValueError(f"not a highest-averages method: {divisor}")
    if seats < 0:
        raise ValueError("seats must be nonnegative")
    if any(v < 0 for v in votes.values()):
        raise ValueError("vote counts must be nonnegative")
    if not any(v > 0 for v in votes.values()):
        raise ValueError("at least one party needs a positive vote count")
    held = {name: 0 for name in votes}
    sequence: list[CandidateId] = []
    for _ in range(seats):
        winner = _highest_quotients(votes, held, rule)[0]
        sequence.append(winner)
        held[winner] += 1
    return sequence


def verify_election(profile: Profile, result: ElectionResult) -> None:
    """Re-check every per-seat invariant of an exact-backend election.

    Raises :class:`VerificationError` listing all violations: seat mass,
    nonnegativity, common-level structure, load bookkeeping, variance
    identities, recorded score, and the winner's optimality against every
    candidate that was eligible at that seat, each solved afresh by an
    oracle, not on :func:`run_election`'s lane or with its solver: a
    var-Phragmén rival by :func:`waterfill_solution`, a seq-Phragmén one by
    :func:`unconstrained_level`.  The loop carries the loads the recorded
    shares lead to, and counts only the winners of records it could check.
    """
    problems: list[str] = []
    types = profile.types
    w = left_sum(t.weight for t in types)
    quotient_rule = HIGHEST_AVERAGES_DIVISORS.get(result.method)
    party_weight = _party_weights(profile) if quotient_rule else {}
    loads = LoadVector.zero(profile)
    counts: dict[CandidateId, int] = {name: 0 for name in profile.candidates}

    for rec in result.records:
        seat = rec.seat_index
        sol = rec.solution

        def problem(msg: str) -> None:
            problems.append(f"seat {seat} ({sol.candidate}): {msg}")

        if sol.candidate not in counts:
            problem("winner is not a candidate of the profile")
            continue
        if len(sol.x) != len(types):
            problem("distribution length mismatch")
            continue
        sub = Subproblem(profile, loads, sol.candidate)
        support = set(sub.supporters)
        mass = sum(t.weight * xk for t, xk in zip(types, sol.x))
        if mass != 1:
            problem(f"seat mass {rational_str(mass)} != 1")
        for k, xk in enumerate(sol.x):
            if xk < 0:
                problem(f"negative share x[{k}] = {rational_str(xk)}")
            if k not in support and xk != 0:
                problem(f"nonzero share for non-supporter type {k}")
        for k in sub.supporters:
            if sol.x[k] > 0 and loads.values[k] + sol.x[k] != sol.level:
                problem(f"positive-share type {k} misses the common level")
            if sol.x[k] == 0 and loads.values[k] < sol.level:
                problem(f"zero-share type {k} sits below the common level")
        if _score(sub, sol.x) != sol.score:
            problem(f"recorded score {rational_str(sol.score)} != recomputed")

        before_sq = sum(t.weight * r * r for t, r in zip(types, loads.values))
        expected_after = loads.add(sol.x)
        if rec.loads_after != expected_after:
            problem("loads_after does not equal loads_before + x")
        after_mass = sum(t.weight * r for t, r in zip(types, expected_after.values))
        if after_mass != seat:
            problem(f"total load mass {rational_str(after_mass)} != {seat} seats")
        elif rec.variance_after != _variance(profile, expected_after, w):
            problem("variance_after does not match direct evaluation")
        if rec.variance_after != before_sq + sol.score - Fraction(seat * seat, 1) / w:
            problem("variance_after violates the score bookkeeping identity")

        optimum: dict[CandidateId, Rational] = {}
        for name in _eligible(profile.candidates, result.mode, counts):
            rival = Subproblem(profile, loads, name)
            if result.method is Method.VAR_PHRAGMEN:
                optimum[name] = waterfill_solution(rival).score
            elif result.method is Method.SEQ_PHRAGMEN:
                optimum[name] = unconstrained_level(rival)
            else:
                # larger quotient is better: compare on the reciprocal
                optimum[name] = quotient_rule(counts[name]) / party_weight[name]
        best = min(optimum.values(), default=None)
        if sol.candidate not in optimum:
            problem("winner was not eligible")
        elif optimum[sol.candidate] != best:
            problem(
                f"winner is not optimal: {rational_str(optimum[sol.candidate])} "
                f"vs best {rational_str(best)}"
            )
        tied = tuple(sorted(name for name, val in optimum.items() if val == best))
        if tuple(sorted(rec.tied_with)) != tied:
            problem(f"tied_with {rec.tied_with} != recomputed {tied}")

        loads = expected_after
        counts[sol.candidate] += 1

    if problems:
        raise VerificationError("\n".join(problems))
