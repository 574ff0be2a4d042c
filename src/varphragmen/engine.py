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
ever builds fresh immutable load vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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
    StepSolution,
    VoterType,
)
from .step import (
    Subproblem,
    _score,
    corrected_solution,
    unconstrained_level,
    unconstrained_solution,
)


class ElectionConfigError(ValueError):
    """The requested election cannot be run on the given profile."""


class VerificationError(AssertionError):
    """An election result violates one of the per-seat invariants."""


HIGHEST_AVERAGES_DIVISORS = {
    Method.SAINTE_LAGUE: lambda n: 2 * n + 1,
    Method.DHONDT: lambda n: n + 1,
}


@dataclass(frozen=True)
class MethodConfig:
    method: Method
    mode: Mode = Mode.CANDIDATE
    seats: int = 1
    backend: Backend = Backend.EXACT


def variance(profile: Profile, loads: LoadVector) -> Rational:
    """Load variance multiplied by the total weight: ``sum(u*r*r) - n*n/w``.

    Requires a consistent load vector (``sum(u*r) == seats_assigned``); the
    check uses a tolerance only when float loads are involved.
    """
    mass = sum(t.weight * r for t, r in zip(profile.types, loads.values))
    n = loads.seats_assigned
    exact = isinstance(mass, (Fraction, int))
    if exact and mass != n:
        raise ValueError(f"inconsistent loads: total mass {mass} != {n} seats")
    if not exact and not math.isclose(mass, n, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"inconsistent loads: total mass {mass} != {n} seats")
    return sum(
        t.weight * r * r for t, r in zip(profile.types, loads.values)
    ) - n * n / profile.total_weight


def select_winner(
    profile: Profile,
    loads: LoadVector,
    eligible: Iterable[CandidateId],
    method: Method,
) -> tuple[CandidateId, StepSolution, list[CandidateId]]:
    """Pick the next seat's winner among ``eligible`` candidates.

    Candidates without supporters (including names absent from the profile)
    are silently skipped.  Returns the winner, its seat distribution and the
    full list of candidates tied at the optimum; ties resolve to the
    lexicographically smallest name.
    """
    if method not in (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN):
        raise ValueError(f"select_winner does not handle {method.value}")
    known = set(profile.candidates)
    scored: list[tuple[Rational, CandidateId, StepSolution]] = []
    for name in sorted(set(eligible)):
        if name not in known:
            continue
        sub = Subproblem(profile, loads, name)
        if method is Method.VAR_PHRAGMEN:
            sol = corrected_solution(sub)
            scored.append((sol.score, name, sol))
        else:
            sol = unconstrained_solution(sub)
            # The max-load method moves every supporter to the common level;
            # along its own runs that level never undercuts a supporter's
            # load, which we assert rather than assume.
            for k in sub.supporters:
                share = sol.x[k]
                if share < 0:
                    if not isinstance(share, float) or share < -1e-9:
                        raise AssertionError(
                            f"negative share {share} for supporter type {k} of "
                            f"{sub.candidate!r}: max-load positivity violated"
                        )
            scored.append((sol.level, name, sol))
    if not scored:
        raise ElectionConfigError("no eligible candidate with support")
    best_key, winner, solution = min(scored, key=lambda item: (item[0], item[1]))
    tied = [name for key, name, _ in scored if key == best_key]
    return winner, solution, tied


def _float_profile(profile: Profile) -> Profile:
    return Profile.from_types(
        VoterType(weight=float(t.weight), approvals=t.approvals)
        for t in profile.types
    )


def _party_weights(profile: Profile) -> dict[CandidateId, Rational]:
    return {name: profile.supporters(name)[1] for name in profile.candidates}


def run_election(profile: Profile, config: MethodConfig) -> ElectionResult:
    """Run a full sequential election and return the per-seat trace.

    Candidate mode removes each winner from further eligibility; party mode
    keeps every candidate re-electable.  The highest-averages methods demand
    a closed-list profile and party mode.
    """
    if config.seats < 1:
        raise ElectionConfigError(f"seats must be >= 1, got {config.seats}")
    work = profile if config.backend is Backend.EXACT else _float_profile(profile)
    contenders = list(work.candidates)
    if config.mode is Mode.CANDIDATE and config.seats > len(contenders):
        raise ElectionConfigError(
            f"cannot fill {config.seats} seats from {len(contenders)} candidates "
            "in candidate mode"
        )
    quotient_rule = HIGHEST_AVERAGES_DIVISORS.get(config.method)
    if quotient_rule is not None:
        if not work.is_closed_list():
            raise ElectionConfigError(
                f"{config.method.value} requires a closed-list profile "
                "(every ballot approves exactly one party)"
            )
        if config.mode is not Mode.PARTY:
            raise ElectionConfigError(
                f"{config.method.value} runs in party mode only"
            )
        party_weight = _party_weights(work)

    loads = LoadVector.zero(work)
    counts: dict[CandidateId, int] = {name: 0 for name in work.candidates}
    elected: set[CandidateId] = set()
    records: list[SeatRecord] = []
    for seat in range(1, config.seats + 1):
        if config.mode is Mode.CANDIDATE:
            eligible = [name for name in contenders if name not in elected]
        else:
            eligible = contenders
        if quotient_rule is None:
            winner, solution, tied = select_winner(work, loads, eligible, config.method)
        else:
            quotients = {
                name: party_weight[name] / quotient_rule(counts[name])
                for name in eligible
            }
            top = max(quotients.values())
            tied = sorted(name for name, q in quotients.items() if q == top)
            winner = tied[0]
            solution = corrected_solution(Subproblem(work, loads, winner))
        loads = loads.add(solution.x)
        records.append(
            SeatRecord(
                seat_index=seat,
                solution=solution,
                loads_after=loads,
                variance_after=variance(work, loads),
                tied_with=tuple(tied),
            )
        )
        counts[winner] += 1
        elected.add(winner)
    return ElectionResult(
        method=config.method,
        mode=config.mode,
        records=tuple(records),
        seat_counts=counts,
    )


def apportion_sequence(
    votes: Mapping[CandidateId, Rational], seats: int, divisor: Method
) -> list[CandidateId]:
    """Award seats one by one to the party with the highest quotient.

    ``divisor`` selects the rule: Sainte-Laguë divides by ``2n+1``, D'Hondt
    by ``n+1``.  Ties go to the lexicographically smallest party name.
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
        top = None
        winner = None
        for name in sorted(votes):
            q = votes[name] / rule(held[name])
            if top is None or q > top:
                top = q
                winner = name
        sequence.append(winner)
        held[winner] += 1
    return sequence


def highest_averages(
    votes: Mapping[CandidateId, Rational], seats: int, divisor: Method
) -> dict[CandidateId, int]:
    """Seat counts from the sequential highest-averages apportionment."""
    counts = {name: 0 for name in votes}
    for name in apportion_sequence(votes, seats, divisor):
        counts[name] += 1
    return counts


def verify_election(profile: Profile, result: ElectionResult) -> None:
    """Re-check every per-seat invariant of an exact-backend election.

    Raises :class:`VerificationError` listing all violations: seat mass,
    nonnegativity, common-level structure, load bookkeeping, variance
    identities, recorded score, and the winner's optimality against every
    candidate that was eligible at that seat.
    """
    problems: list[str] = []
    types = profile.types
    w = profile.total_weight
    quotient_rule = HIGHEST_AVERAGES_DIVISORS.get(result.method)
    party_weight = _party_weights(profile) if quotient_rule else {}
    loads = LoadVector.zero(profile)
    counts: dict[CandidateId, int] = {name: 0 for name in profile.candidates}
    elected: set[CandidateId] = set()

    for rec in result.records:
        seat = rec.seat_index
        sol = rec.solution
        sub = Subproblem(profile, loads, sol.candidate)
        support = set(sub.supporters)

        def problem(msg: str) -> None:
            problems.append(f"seat {seat} ({sol.candidate}): {msg}")

        if len(sol.x) != len(types):
            problem("distribution length mismatch")
            continue
        mass = sum(t.weight * xk for t, xk in zip(types, sol.x))
        if mass != 1:
            problem(f"seat mass {mass} != 1")
        for k, xk in enumerate(sol.x):
            if xk < 0:
                problem(f"negative share x[{k}] = {xk}")
            if k not in support and xk != 0:
                problem(f"nonzero share for non-supporter type {k}")
        for k in sub.supporters:
            if sol.x[k] > 0 and loads.values[k] + sol.x[k] != sol.level:
                problem(f"positive-share type {k} misses the common level")
            if sol.x[k] == 0 and loads.values[k] < sol.level:
                problem(f"zero-share type {k} sits below the common level")
        if _score(sub, sol.x) != sol.score:
            problem(f"recorded score {sol.score} != recomputed")

        before_sq = sum(t.weight * r * r for t, r in zip(types, loads.values))
        expected_after = loads.add(sol.x)
        if rec.loads_after != expected_after:
            problem("loads_after does not equal loads_before + x")
        after_mass = sum(t.weight * r for t, r in zip(types, expected_after.values))
        if after_mass != seat:
            problem(f"total load mass {after_mass} != {seat} seats")
        if rec.variance_after != variance(profile, expected_after):
            problem("variance_after does not match direct evaluation")
        if rec.variance_after != before_sq + sol.score - Fraction(seat * seat, 1) / w:
            problem("variance_after violates the score bookkeeping identity")

        if result.mode is Mode.CANDIDATE:
            eligible = [c for c in profile.candidates if c not in elected]
        else:
            eligible = list(profile.candidates)
        if sol.candidate not in eligible:
            problem("winner was not eligible")
        optimum: dict[CandidateId, Rational] = {}
        for name in eligible:
            rival = Subproblem(profile, loads, name)
            if result.method is Method.VAR_PHRAGMEN:
                optimum[name] = corrected_solution(rival).score
            elif result.method is Method.SEQ_PHRAGMEN:
                optimum[name] = unconstrained_level(rival)
            else:
                # larger quotient is better: compare on the reciprocal
                optimum[name] = quotient_rule(counts[name]) / party_weight[name]
        best = min(optimum.values())
        if optimum[sol.candidate] != best:
            problem(
                f"winner is not optimal: {optimum[sol.candidate]} vs best {best}"
            )
        tied = tuple(sorted(name for name, val in optimum.items() if val == best))
        if tuple(sorted(rec.tied_with)) != tied:
            problem(f"tied_with {rec.tied_with} != recomputed {tied}")

        loads = expected_after
        counts[sol.candidate] += 1
        elected.add(sol.candidate)

    if problems:
        raise VerificationError("\n".join(problems))
