"""Randomized checks and experiments built on top of the election engine.

Four surfaces:

* closed-list equivalence: on profiles where every ballot approves a single
  party, the variance-criterion election must reproduce Sainte-Laguë seat by
  seat, and the max-load election must reproduce D'Hondt.
* solver agreement: the clamp-and-resolve correction is compared against the
  water-filling and subset-enumeration oracles on randomized elections; a
  divergence is a reportable finding, not a crash.
* support monotonicity probe: does adding weight that approves only one
  party ever cost that party seats?
* two-party seat-share sweep: sample the share of seats won by party A as a
  function of the split parameter alpha, for a fixed overlap mass zeta.

Both campaigns run on one kernel, :func:`_campaign`: a trial function draws
each instance from one seeded PRNG, and the result is one
:class:`CampaignReport` (``trials``, ``instances``, ``agreed``, ``findings``),
each finding a self-contained record that :func:`replay_record` re-runs.
Campaigns are deterministic for a given seed, in trial order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .engine import (
    _ExactLane,
    _party_weights,
    _winners,
    apportion_sequence,
    run_election,
    seat_states,
)
from .model import (
    Backend,
    CandidateId,
    LoadVector,
    Method,
    Mode,
    Profile,
    Rational,
    StepSolution,
    UnknownCandidateError,
    VoterType,
    parse_profile,
    parse_rational,
    rational_str,
    render_profile,
)
from .step import Subproblem, corrected_solution, subset_oracle, waterfill_solution

PARTY_POOL = tuple("ABCDEF")


# ---------------------------------------------------------------------------
# random instance generation (fixed-seed PRNG; weights are uniform integers)

def random_profile(
    rng: random.Random, max_types: int = 8, max_candidates: int = 6
) -> Profile:
    pool = PARTY_POOL[: rng.randint(1, max_candidates)]
    types = []
    for _ in range(rng.randint(1, max_types)):
        approvals = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
        types.append(VoterType(Fraction(rng.randint(1, 100)), approvals))
    return Profile(types)


def random_closed_list_profile(rng: random.Random) -> Profile:
    parties = PARTY_POOL[: rng.randint(2, len(PARTY_POOL))]
    types = []
    for party in parties:
        types.append(VoterType(Fraction(rng.randint(1, 1000)), (party,)))
        if rng.random() < 0.3:
            # a second type for the same party: closed lists need not be
            # pre-merged, supporter weights still add up
            types.append(VoterType(Fraction(rng.randint(1, 1000)), (party,)))
    return Profile(types)


# ---------------------------------------------------------------------------
# the campaign kernel

@dataclass(frozen=True)
class CampaignReport:
    """``agreed`` of ``instances`` checked over ``trials`` trials, and each finding's record."""

    trials: int
    instances: int
    agreed: int
    findings: tuple[dict, ...]


#: A trial maps the campaign's PRNG and its own index to its instances,
#: how many of them agreed, and its findings.
Trial = Callable[[random.Random, int], tuple[int, int, list[dict]]]


def _campaign(trial: Trial, seed: int, trials: int) -> CampaignReport:
    """Run ``trials`` trials, in order, on one ``random.Random(seed)``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    checked, agreed, found = zip(*(trial(rng, index) for index in range(trials)))
    findings = tuple(record for records in found for record in records)
    return CampaignReport(trials, sum(checked), sum(agreed), findings)


# ---------------------------------------------------------------------------
# closed-list equivalence

def _equivalence_failure(
    profile: Profile, seats: int, pair: str,
    election_sequence: Sequence[CandidateId], apportionment_sequence: Sequence[CandidateId],
) -> dict:
    return {
        "kind": "closed-list-equivalence-failure",
        "profile": render_profile(profile),
        "seats": seats,
        "pair": pair,
        "election_sequence": list(election_sequence),
        "apportionment_sequence": list(apportionment_sequence),
    }


_EQUIVALENCE_PAIRS = (
    (Method.VAR_PHRAGMEN, Method.SAINTE_LAGUE),
    (Method.SEQ_PHRAGMEN, Method.DHONDT),
)


def closed_list_sequences(
    profile: Profile, seats: int
) -> dict[str, tuple[list[CandidateId], list[CandidateId]]]:
    """Winner sequences of both equivalence pairs on a closed-list profile."""
    votes = _party_weights(profile)
    out = {}
    for election_method, divisor in _EQUIVALENCE_PAIRS:
        out[f"{election_method.value}/{divisor.value}"] = (
            _winners(profile, election_method, seats, Mode.PARTY),
            apportion_sequence(votes, seats, divisor),
        )
    return out


def _closed_list_trial(rng: random.Random, _: int) -> tuple[int, int, list[dict]]:
    """One random closed list: it agrees when both method pairs match."""
    profile = random_closed_list_profile(rng)
    seats = rng.randint(1, 12)
    failures = [
        _equivalence_failure(profile, seats, pair, got, want)
        for pair, (got, want) in closed_list_sequences(profile, seats).items()
        if got != want
    ]
    return 1, int(not failures), failures


def check_closed_list_equivalence(seed: int, trials: int) -> CampaignReport:
    """Compare election runs against highest-averages on random closed lists."""
    return _campaign(_closed_list_trial, seed, trials)


# ---------------------------------------------------------------------------
# solver agreement

@dataclass(frozen=True)
class CampaignCaps:
    """Size limits of the oracle campaign's random instances."""

    max_types: int = 8
    max_candidates: int = 6
    max_seats: int = 8


def _solution_payload(sol: StepSolution) -> dict:
    return {
        "x": [rational_str(v) for v in sol.x],
        "level": rational_str(sol.level),
        "score": rational_str(sol.score),
        "corrected": sol.corrected,
    }


def _solve_instance(
    lane: _ExactLane, candidate: CandidateId
) -> tuple[StepSolution, StepSolution, StepSolution]:
    """``candidate``'s seat at ``lane``'s loads by the production solver on
    ``lane``, as elections solve it, water-filling and the subset oracle."""
    sub = Subproblem(lane.profile, lane.loads, candidate)
    exact = corrected_solution(lane.subproblem(candidate)).record()
    return exact, waterfill_solution(sub), subset_oracle(sub)


def solver_instance_record(
    profile: Profile,
    loads: LoadVector,
    candidate: CandidateId,
    *,
    mode: Mode = Mode.CANDIDATE,
) -> dict:
    """Serialize one subproblem, at the seat after ``loads``, with all three solvers.

    The record is self-contained: :func:`replay_record` reparses the profile
    and loads from it and recomputes every solver from scratch.
    """
    mode = Mode(mode)
    lane = _ExactLane(profile, Method.VAR_PHRAGMEN, loads)
    exact, waterfill, subset = _solve_instance(lane, candidate)
    return {
        "kind": "solver-instance",
        "profile": render_profile(profile),
        "method": Method.VAR_PHRAGMEN.value,
        "mode": mode.value,
        "seat": loads.seats_assigned + 1,
        "candidate": candidate,
        "loads": [rational_str(v) for v in loads.values],
        "seats_assigned": loads.seats_assigned,
        "corrected": _solution_payload(exact),
        "waterfill": _solution_payload(waterfill),
        "subset": _solution_payload(subset),
    }


def _solutions_agree(*solutions: StepSolution) -> bool:
    first = solutions[0]
    return all(
        s.x == first.x
        and s.level == first.level
        and s.score == first.score
        and s.corrected == first.corrected
        for s in solutions[1:]
    )


def compare_solvers_over_election(
    profile: Profile, seats: int, mode: Mode = Mode.CANDIDATE
) -> tuple[int, list[dict]]:
    """Run a variance-criterion election, cross-checking the three solvers.

    For every candidate eligible at every seat, as :func:`seat_states`
    walks the finished election, the corrected solution, the water-filling
    solution and the subset oracle are compared exactly at the loads before
    the seat (shares, level, score, corrected flag), the first on an exact
    lane built at those loads.  Returns the number of compared instances and
    the serialized records of any disagreements.
    """
    mode = Mode(mode)
    result = run_election(profile, Method.VAR_PHRAGMEN, seats, mode=mode)
    instances = 0
    disagreements: list[dict] = []
    for _, loads, eligible in seat_states(profile, result):
        lane = _ExactLane(profile, Method.VAR_PHRAGMEN, loads)
        for name in eligible:
            instances += 1
            if not _solutions_agree(*_solve_instance(lane, name)):
                disagreements.append(
                    solver_instance_record(profile, loads, name, mode=mode)
                )
    return instances, disagreements


def _oracle_trial(rng: random.Random, index: int) -> tuple[int, int, list[dict]]:
    """One random election, in party mode at odd ``index``; each compared solve is an instance."""
    caps = CampaignCaps()
    profile = random_profile(rng, caps.max_types, caps.max_candidates)
    mode = Mode.PARTY if index % 2 else Mode.CANDIDATE
    cap = caps.max_seats if mode is Mode.PARTY else min(caps.max_seats, len(profile.candidates))
    instances, disagreements = compare_solvers_over_election(profile, rng.randint(1, cap), mode)
    return instances, instances - len(disagreements), disagreements


def oracle_agreement_campaign(seed: int, trials: int) -> CampaignReport:
    """Randomized search for a divergence between correction and oracles.

    A disagreement does not fail the campaign; it is reported and serialized
    verbatim so the instance can be replayed and studied.
    """
    return _campaign(_oracle_trial, seed, trials)


def replay_record(record: dict) -> dict:
    """Recompute a serialized record from scratch and diff it.

    Returns ``{"matches_recorded": bool, "fresh": {...}}`` where ``fresh``
    holds the recomputed outcome in the same shape as the input record.
    """
    kind = record.get("kind")
    if kind == "solver-instance":
        profile = parse_profile(record["profile"])
        loads = LoadVector(
            values=tuple(parse_rational(v) for v in record["loads"]),
            seats_assigned=record["seats_assigned"],
        )
        fresh = solver_instance_record(profile, loads, record["candidate"], mode=record["mode"])
        keys = ("corrected", "waterfill", "subset")
    elif kind == "closed-list-equivalence-failure":
        profile = parse_profile(record["profile"])
        seats = record["seats"]
        got, want = closed_list_sequences(profile, seats)[record["pair"]]
        fresh = _equivalence_failure(profile, seats, record["pair"], got, want)
        keys = ("election_sequence", "apportionment_sequence")
    else:
        raise ValueError(f"unknown record kind: {kind!r}")
    return {
        "matches_recorded": all(fresh[k] == record[k] for k in keys),
        "fresh": fresh,
    }


# ---------------------------------------------------------------------------
# support monotonicity

@dataclass(frozen=True)
class MonotonicityReport:
    party: CandidateId
    seats: int
    delta: Fraction
    seats_before: int
    seats_after: int

    @property
    def violated(self) -> bool:
        return self.seats_after < self.seats_before


def monotonicity_probe(
    profile: Profile,
    party: CandidateId,
    seats: int,
    delta: Rational = Fraction(1),
) -> MonotonicityReport:
    """Measure how extra approval-only weight for one party shifts its seats.

    Runs variance-criterion party-mode elections on the base profile and on
    the profile augmented with a new voter type of weight ``delta`` approving
    only ``party``.  ``delta == 0`` is accepted as the degenerate comparison
    of the base profile against itself.  Only the winners are counted: no
    seat is recorded.
    """
    if party not in profile.candidates:
        raise UnknownCandidateError(f"unknown party: {party!r}")
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {rational_str(delta)}")
    before = _winners(profile, Method.VAR_PHRAGMEN, seats, Mode.PARTY)
    if delta == 0:
        augmented = profile
    else:
        augmented = Profile((*profile.types, VoterType(delta, (party,))))
    after = _winners(augmented, Method.VAR_PHRAGMEN, seats, Mode.PARTY)
    return MonotonicityReport(
        party=party,
        seats=seats,
        delta=delta,
        seats_before=before.count(party),
        seats_after=after.count(party),
    )


# ---------------------------------------------------------------------------
# two-party seat-share sweep

@dataclass(frozen=True)
class TwoPartyFamily:
    """Two parties with an overlap bloc approving both.

    Total weight is 1 for every split: ``alpha*(1-zeta)`` approves only A,
    ``(1-alpha)*(1-zeta)`` approves only B, and ``zeta`` approves both.
    Degenerate zero-weight types are dropped.  This parameterization is one
    choice among many; the sweep accepts any callable producing a profile
    from alpha.
    """

    alpha: Fraction
    zeta: Fraction

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {rational_str(self.alpha)}")
        if not 0 <= self.zeta < 1:
            raise ValueError(f"zeta must lie in [0, 1), got {rational_str(self.zeta)}")

    def profile(self) -> Profile:
        weights = (
            (self.alpha * (1 - self.zeta), ("A",)),
            ((1 - self.alpha) * (1 - self.zeta), ("B",)),
            (self.zeta, ("A", "B")),
        )
        return Profile(
            VoterType(w, approvals) for w, approvals in weights if w > 0
        )


def two_party_family(zeta: Fraction) -> Callable[[Fraction], Profile]:
    """Profile generator for :func:`sweep_seat_share` at a fixed overlap."""

    def family(alpha: Fraction) -> Profile:
        return TwoPartyFamily(alpha=alpha, zeta=zeta).profile()

    return family


@dataclass(frozen=True)
class SweepResult:
    points: tuple[tuple[Fraction, Fraction], ...]
    n: int

    @property
    def shares(self) -> tuple[Fraction, ...]:
        return tuple(share for _, share in self.points)


def sweep_seat_share(
    family: Callable[[Fraction], Profile],
    alphas: Iterable[Fraction],
    seats: int,
    backend: Backend = Backend.EXACT,
) -> SweepResult:
    """Seat share of party ``A`` across a family of profiles indexed by alpha.

    Each sample runs a variance-criterion party-mode election of ``seats``
    seats; the share is the exact fraction of seats won.  A sampled profile
    without party ``A`` simply scores zero.  Only the winners are counted: no
    seat is recorded.
    """
    ordered = sorted(alphas)
    for a in ordered:
        if not 0 <= a <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {rational_str(a)}")
    points = []
    for a in ordered:
        winners = _winners(family(a), Method.VAR_PHRAGMEN, seats, Mode.PARTY, backend)
        points.append((a, Fraction(winners.count("A"), seats)))
    return SweepResult(points=tuple(points), n=seats)
