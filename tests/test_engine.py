import importlib.util
import math
import random
from collections import Counter
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from varphragmen import (
    Backend,
    ElectionConfigError,
    LoadVector,
    Method,
    Mode,
    Profile,
    Subproblem,
    VerificationError,
    VoterType,
    apportion_sequence,
    corrected_solution,
    parse_profile,
    rational_str,
    run_election,
    unconstrained_solution,
    variance,
    verify_election,
)
from varphragmen import engine, step
from varphragmen.analysis import (
    TwoPartyFamily,
    monotonicity_probe,
    random_closed_list_profile,
    random_profile,
)
from varphragmen.engine import select_winner
from varphragmen.model import StepSolution, left_sum
from varphragmen.render import election_json

from conftest import PROFILE_12


def select_uncached(profile, loads, eligible, method):
    """:func:`select_winner` on a fresh share lane at ``loads``: every eligible
    candidate solved afresh, share by share (the reference)."""
    return select_winner(engine._ShareLane(profile, method, loads), eligible)


# ---------------------------------------------------------------------------
# the worked three-seat election

def test_profile12_full_run(profile12):
    result = run_election(profile12, Method.VAR_PHRAGMEN, 3)
    assert result.winners == ("a1", "b", "a2")

    first, second, third = result.records
    assert first.solution.x == (F(1, 10), F(1, 10), 0)
    assert first.tied_with == ("a1", "a2")  # symmetric pair, broken to a1
    assert not first.solution.corrected

    assert second.solution.x == (0, F(7, 40), F(11, 40))
    assert second.solution.level == F(11, 40)
    assert not second.solution.corrected

    assert third.solution.x == (F(1, 9), 0, 0)
    assert third.solution.level == F(19, 90)
    assert third.solution.score == F(14, 45)
    assert third.solution.corrected
    assert third.loads_after.values == (F(19, 90), F(11, 40), F(11, 40))

    assert result.seat_counts == {"a1": 1, "a2": 1, "b": 1, "c": 0}
    verify_election(profile12, result)


def test_profile12_variance_trace(profile12):
    result = run_election(profile12, Method.VAR_PHRAGMEN, 3)
    # direct evaluation of sum(u*r*r) - n*n/w at each seat
    w = sum(t.weight for t in profile12.types)
    for rec in result.records:
        direct = sum(
            t.weight * r * r for t, r in zip(profile12.types, rec.loads_after.values)
        ) - F(rec.seat_index**2) / w
        assert rec.variance_after == direct
    assert result.records[0].variance_after == F(3, 130)


def test_profile12_seat2_scores(profile12, loads12_after_seat1):
    scores = {
        name: corrected_solution(
            Subproblem(profile12, loads12_after_seat1, name)
        ).score
        for name in ("a2", "b", "c")
    }
    assert scores == {"a2": F(3, 10), "b": F(117, 400), "c": F(1, 3)}
    winner, solution, tied = select_uncached(
        profile12, loads12_after_seat1, {"a2", "b", "c"}, Method.VAR_PHRAGMEN
    )
    assert winner == "b"
    assert tied == ["b"]
    assert solution.score == F(117, 400)


def test_profile12_seat3_scores(profile12, loads12_after_seat2):
    a2 = corrected_solution(Subproblem(profile12, loads12_after_seat2, "a2"))
    c = corrected_solution(Subproblem(profile12, loads12_after_seat2, "c"))
    assert a2.score == F(14, 45)
    assert c.score == F(53, 60)
    winner, _, _ = select_uncached(
        profile12, loads12_after_seat2, {"a2", "c"}, Method.VAR_PHRAGMEN
    )
    assert winner == "a2"


def test_profile13_party_mode(profile13):
    result = run_election(profile13, Method.VAR_PHRAGMEN, 3, mode=Mode.PARTY)
    assert result.winners == ("A", "C", "A")
    assert result.seat_counts == {"A": 2, "B": 0, "C": 1}
    verify_election(profile13, result)


def test_profile13_bumped_party_mode(profile13_bumped):
    result = run_election(profile13_bumped, Method.VAR_PHRAGMEN, 3, mode=Mode.PARTY)
    assert result.winners == ("A", "B", "C")
    assert result.seat_counts == {"A": 1, "B": 1, "C": 1}
    verify_election(profile13_bumped, result)


# ---------------------------------------------------------------------------
# variance

def test_variance_zero_loads(profile12):
    assert variance(profile12, LoadVector.zero(profile12)) == 0


def test_variance_uniform_loads_is_zero(profile12):
    w = sum(t.weight for t in profile12.types)
    loads = LoadVector(values=(F(1, 13),) * 3, seats_assigned=1)
    assert w == 13
    assert variance(profile12, loads) == 0


def test_variance_after_seat1(profile12, loads12_after_seat1):
    assert variance(profile12, loads12_after_seat1) == F(3, 130)


@pytest.mark.parametrize(
    "values", [(F(1, 9),), (F(1, 13),) * 3 + (F(5),)], ids=["short", "long"]
)
def test_variance_rejects_a_load_vector_of_the_wrong_length(profile12, values):
    # zip would drop the extra loads or types: 4/117 and 0 for these two
    with pytest.raises(ValueError, match="load vector length does not match profile"):
        variance(profile12, LoadVector(values, 1))


def test_variance_rejects_inconsistent_loads(profile12):
    bad = LoadVector(values=(F(1, 10), 0, 0), seats_assigned=1)
    with pytest.raises(ValueError, match="inconsistent"):
        variance(profile12, bad)
    # float loads are checked with a tolerance; a mass of 0.9 misses it
    zero = LoadVector.zero(profile12)
    floats = engine._FloatLane(profile12, Method.VAR_PHRAGMEN, zero).profile
    with pytest.raises(ValueError, match="inconsistent"):
        variance(floats, LoadVector(values=(0.1, 0.0, 0.0), seats_assigned=1))


def test_float64_variance_adds_the_weights_left_to_right():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, not fsum's 0.6:
    # the float64 lane's variance divides by the sum that the direct
    # evaluation on its float profile adds, to the last bit
    profile = parse_profile("1/10 : a\n1/5 : a, b\n3/10 : b\n")
    floats = engine._FloatLane(profile, Method.VAR_PHRAGMEN, LoadVector.zero(profile)).profile
    assert left_sum(t.weight for t in floats.types) != math.fsum(t.weight for t in floats.types)
    result = run_election(profile, Method.VAR_PHRAGMEN, 6, mode=Mode.PARTY, backend=Backend.FLOAT64)
    for rec in result.records:
        assert repr(rec.variance_after) == repr(variance(floats, rec.loads_after))


# ---------------------------------------------------------------------------
# highest averages

def test_sainte_lague_counts():
    votes = {"A": 53, "B": 24, "C": 23}
    sequence = apportion_sequence(votes, 5, Method.SAINTE_LAGUE)
    assert Counter(sequence) == {"A": 3, "B": 1, "C": 1}


def test_sainte_lague_sequence():
    votes = {"A": 10, "B": 4, "C": 3}
    assert apportion_sequence(votes, 3, Method.SAINTE_LAGUE) == ["A", "B", "A"]


def test_dhondt_sequence():
    assert apportion_sequence({"A": 7, "B": 5}, 3, Method.DHONDT) == ["A", "B", "A"]


def test_highest_averages_zero_seats():
    assert apportion_sequence({"A": 3, "B": 1}, 0, Method.DHONDT) == []


def test_highest_averages_lexicographic_ties():
    assert apportion_sequence({"B": 2, "A": 2}, 2, Method.SAINTE_LAGUE) == ["A", "B"]


def test_highest_averages_requires_positive_votes():
    with pytest.raises(ValueError):
        apportion_sequence({"A": 0, "B": 0}, 2, Method.SAINTE_LAGUE)
    with pytest.raises(ValueError):
        apportion_sequence({"A": -1, "B": 2}, 2, Method.SAINTE_LAGUE)
    with pytest.raises(ValueError, match="seats must be nonnegative"):
        apportion_sequence({"A": 3, "B": 1}, -1, Method.DHONDT)
    with pytest.raises(ValueError):
        apportion_sequence({"A": 1}, 1, Method.VAR_PHRAGMEN)


# ---------------------------------------------------------------------------
# closed-list elections

CLOSED = "10 : A\n4 : B\n3 : C\n"


def test_sainte_lague_election_matches_apportionment():
    profile = parse_profile(CLOSED)
    result = run_election(profile, Method.SAINTE_LAGUE, 3, mode=Mode.PARTY)
    assert result.winners == ("A", "B", "A")
    assert result.seat_counts == {"A": 2, "B": 1, "C": 0}
    verify_election(profile, result)


def test_dhondt_election_matches_apportionment():
    profile = parse_profile(CLOSED)
    result = run_election(profile, Method.DHONDT, 5, mode=Mode.PARTY)
    votes = {"A": 10, "B": 4, "C": 3}
    assert list(result.winners) == apportion_sequence(votes, 5, Method.DHONDT)
    verify_election(profile, result)


def test_closed_list_methods_reject_open_profiles(profile12):
    with pytest.raises(ElectionConfigError, match="closed-list"):
        run_election(profile12, Method.SAINTE_LAGUE, 2, mode=Mode.PARTY)


def test_closed_list_methods_reject_candidate_mode():
    profile = parse_profile(CLOSED)
    with pytest.raises(ElectionConfigError, match="party mode"):
        run_election(profile, Method.DHONDT, 2, mode=Mode.CANDIDATE)


def test_closed_list_reduction_on_random_profiles():
    rng = random.Random(42)
    from varphragmen.analysis import random_closed_list_profile

    for _ in range(40):
        profile = random_closed_list_profile(rng)
        seats = rng.randint(1, 12)
        votes = {
            name: left_sum(profile.types[k].weight for k in profile.supporters(name))
            for name in profile.candidates
        }
        var_run = run_election(profile, Method.VAR_PHRAGMEN, seats, mode=Mode.PARTY)
        assert list(var_run.winners) == apportion_sequence(
            votes, seats, Method.SAINTE_LAGUE
        )
        seq_run = run_election(profile, Method.SEQ_PHRAGMEN, seats, mode=Mode.PARTY)
        assert list(seq_run.winners) == apportion_sequence(votes, seats, Method.DHONDT)


# ---------------------------------------------------------------------------
# max-load sequential method

def test_seq_phragmen_profile12(profile12):
    result = run_election(profile12, Method.SEQ_PHRAGMEN, 3, mode=Mode.CANDIDATE)
    # seat 1 levels: a1 = a2 = 1/10, b = 1/4, c = 1/3
    assert result.records[0].solution.candidate == "a1"
    assert result.records[0].tied_with == ("a1", "a2")
    assert result.records[0].solution.level == F(1, 10)
    for rec in result.records:
        assert min(rec.solution.x) >= 0
    verify_election(profile12, result)


def test_seq_phragmen_asserts_max_load_positivity(profile12, loads12_after_seat2):
    # loads no seq-Phragmén run reaches: a2's level falls below type 1's load
    with pytest.raises(AssertionError, match="max-load positivity violated"):
        select_uncached(profile12, loads12_after_seat2, {"a2"}, Method.SEQ_PHRAGMEN)


# ---------------------------------------------------------------------------
# config validation, eligibility, determinism

def test_seats_must_be_positive(profile12):
    with pytest.raises(ElectionConfigError):
        run_election(profile12, Method.VAR_PHRAGMEN, 0)


def test_candidate_mode_needs_enough_candidates(profile12):
    with pytest.raises(ElectionConfigError):
        run_election(profile12, Method.VAR_PHRAGMEN, 5)
    # party mode has no such cap
    run_election(profile12, Method.VAR_PHRAGMEN, 5, mode=Mode.PARTY)


def test_select_winner_refuses_a_highest_averages_method(profile12):
    loads = LoadVector.zero(profile12)
    with pytest.raises(ValueError, match="does not handle sainte-lague"):
        select_uncached(profile12, loads, {"a1"}, Method.SAINTE_LAGUE)


#: Runs that name one of ``method``, ``mode`` and ``backend`` by its string
#: value.  On this profile var-Phragmén elects a1, b, a2, seq-Phragmén a1,
#: a2, b, and party mode re-elects a1.
STRING_FORMS = [
    ("var-phragmen", Mode.CANDIDATE, Backend.EXACT),
    ("seq-phragmen", Mode.CANDIDATE, Backend.EXACT),
    (Method.VAR_PHRAGMEN, "party", Backend.EXACT),
    (Method.VAR_PHRAGMEN, Mode.CANDIDATE, "exact"),
    (Method.VAR_PHRAGMEN, Mode.PARTY, "float64"),
]


@pytest.mark.parametrize(
    "method, mode, backend",
    STRING_FORMS,
    ids=["var-phragmen", "seq-phragmen", "party", "exact", "float64"],
)
def test_a_string_value_elects_as_its_enum(profile12, method, mode, backend):
    seats = 4 if mode == Mode.PARTY else 3
    by_string = run_election(profile12, method, seats, mode=mode, backend=backend)
    by_enum = run_election(
        profile12, Method(method), seats, mode=Mode(mode), backend=Backend(backend)
    )
    # repr tells an enum from its string value, and Fraction from float
    assert repr(by_string) == repr(by_enum)
    assert by_string.method is Method(method) and by_string.mode is Mode(mode)


@pytest.mark.parametrize("field", ["method", "mode", "backend"])
def test_an_unknown_string_value_is_refused(profile12, field):
    args = {"method": Method.VAR_PHRAGMEN, "mode": Mode.CANDIDATE, "backend": Backend.EXACT}
    args[field] = "bogus"
    with pytest.raises(ValueError, match="'bogus' is not a valid"):
        run_election(profile12, seats=3, **args)


def test_determinism(profile13):
    first = run_election(profile13, Method.VAR_PHRAGMEN, 4, mode=Mode.PARTY)
    assert first == run_election(profile13, Method.VAR_PHRAGMEN, 4, mode=Mode.PARTY)


def test_conservation_and_verify_on_random_runs():
    rng = random.Random(7)
    for _ in range(15):
        profile = random_profile(rng, max_types=6, max_candidates=5)
        mode = Mode.PARTY if rng.random() < 0.5 else Mode.CANDIDATE
        seats = rng.randint(1, 4 if mode is Mode.PARTY else len(profile.candidates))
        for method in (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN):
            result = run_election(profile, method, seats, mode=mode)
            for rec in result.records:
                mass = sum(
                    t.weight * r
                    for t, r in zip(profile.types, rec.loads_after.values)
                )
                assert mass == rec.seat_index
            verify_election(profile, result)


# ---------------------------------------------------------------------------
# cached rescoring against a per-seat reference

def sparse_profile(rng, n_types=60, n_candidates=30):
    """Many small approval sets, so most candidates keep their solution."""
    pool = [f"c{i:02d}" for i in range(n_candidates)]
    return Profile(
        VoterType(F(rng.randint(1, 100)), tuple(rng.sample(pool, rng.randint(1, 3))))
        for _ in range(n_types)
    )


def test_cached_election_matches_per_seat_reference():
    rng = random.Random(20260810)
    profiles = [random_profile(rng) for _ in range(12)]
    profiles += [sparse_profile(rng) for _ in range(3)]
    methods = (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN)
    for profile, method, mode, backend in product(profiles, methods, Mode, Backend):
        seats = min(8, len(profile.candidates)) if mode is Mode.CANDIDATE else 8
        result = run_election(profile, method, seats, mode=mode, backend=backend)
        exact = backend is Backend.EXACT
        zero = LoadVector.zero(profile)
        work = profile if exact else engine._FloatLane(profile, method, zero).profile
        total = left_sum(t.weight for t in work.types)
        for rec, loads, eligible in engine.seat_states(work, result):
            # no cache: every eligible candidate solved afresh
            winner, solution, tied = select_uncached(work, loads, eligible, method)
            assert rec.solution.candidate == winner
            # repr tells int 0, Fraction and float bits apart
            assert repr(rec.solution) == repr(solution.record())
            assert rec.tied_with == tuple(tied)
            # left to right over every type, zero loads included
            squares = 0
            for t, r in zip(work.types, rec.loads_after.values):
                squares += t.weight * r * r
            full_scan = squares - rec.seat_index**2 / total
            assert repr(rec.variance_after) == repr(full_scan)
        if exact:
            verify_election(profile, result)


def test_seat_states_match_the_seat_loop(monkeypatch):
    # the walk over a finished election yields the loads and candidates that
    # run_election's own loop handed to select_winner, seat by seat
    handed = []

    def recording(lane, eligible):
        handed.append((lane.loads, list(eligible)))
        return select_winner(lane, eligible)

    monkeypatch.setattr(engine, "select_winner", recording)
    rng = random.Random(20260810)
    profiles = [random_profile(rng) for _ in range(8)]
    profiles += [sparse_profile(rng) for _ in range(2)]
    methods = (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN)
    for profile, method, mode, backend in product(profiles, methods, Mode, Backend):
        handed.clear()
        seats = min(6, len(profile.candidates)) if mode is Mode.CANDIDATE else 6
        result = run_election(profile, method, seats, mode=mode, backend=backend)
        walked = [
            (loads, list(eligible))
            for _, loads, eligible in engine.seat_states(profile, result)
        ]
        assert len(walked) == seats
        # repr tells int 0, Fraction and float bits apart
        assert repr(walked) == repr(handed)


def solves_per_seat(monkeypatch) -> list[list[str]]:
    """The candidates each seat of a run solves, in solve order, one list a seat."""
    per_seat: list[list[str]] = []

    def seat(*args):
        per_seat.append([])
        return select_winner(*args)

    def counting(sub):
        per_seat[-1].append(sub.candidate)
        return corrected_solution(sub)

    monkeypatch.setattr(engine, "select_winner", seat)
    monkeypatch.setattr(engine, "corrected_solution", counting)
    return per_seat


@pytest.mark.parametrize("mode", [Mode.CANDIDATE, Mode.PARTY])
def test_rescoring_touches_only_changed_types(monkeypatch, mode):
    # seat 1 solves every eligible candidate once; a later seat solves a
    # candidate at most once: one approved by a type that some seat moved
    # since its last solve, or one whose key did not change, and so is its
    # bound's float, only at the seat's least float key: the uncached
    # reference's score then rounds to the winner's; the eager count has each
    # seat re-solve every candidate the previous seat moved
    profile = sparse_profile(random.Random(5))
    seats = 12
    solved = solves_per_seat(monkeypatch)
    result = run_election(profile, Method.VAR_PHRAGMEN, seats, mode=mode)
    assert len(solved) == seats
    stale = moved = set(profile.candidates)  # none is solved before seat 1
    eager = unchanged = 0
    for names, (rec, loads, eligible) in zip(
        solved, engine.seat_states(profile, result)
    ):
        assert len(set(names)) == len(names)
        assert set(names) <= set(eligible)
        least = float(rec.solution.score)
        for name in set(names).difference(stale):
            unchanged += 1
            reference = corrected_solution(Subproblem(profile, loads, name))
            assert float(reference.score) == least
        if rec.seat_index == 1:
            assert sorted(names) == sorted(eligible)
        eager += len(moved.intersection(eligible))
        moved = {
            name
            for k, share in enumerate(rec.solution.x)
            if share > 0
            for name in profile.types[k].approvals
        }
        stale = stale.difference(names) | moved
    assert sum(map(len, solved)) < eager < len(profile.candidates) * seats
    assert unchanged


@pytest.mark.parametrize("backend", Backend)
def test_a_supporter_at_the_level_keeps_its_candidates_cached(monkeypatch, backend):
    # at seat 4, c's supporter type 2 already sits at the level 4/15: it stays
    # active with a zero share and moves nothing, so a, approved by types 0
    # and 2 only, is not re-solved at seat 5: both lanes keep a's bound, its
    # unchanged float key of 11/15, which lies above c's fresh key 37/60 (the
    # float64 lane resets a bound only for a type that moved); within a seat
    # the solve order follows the bounds, so the seats are compared as sets
    solved = solves_per_seat(monkeypatch)
    profile = parse_profile("3 : a\n4 : c\n2 : a, c\n6 : c\n")
    result = run_election(
        profile, Method.VAR_PHRAGMEN, 5, mode=Mode.PARTY, backend=backend
    )
    seat4 = result.records[3]
    assert seat4.solution.candidate == "c"
    assert seat4.solution.x[2] == 0
    assert result.records[2].loads_after.values[2] == seat4.solution.level
    assert list(map(len, solved)) == [2] * 4 + [1]
    assert list(map(set, solved)) == [{"a", "c"}] * 4 + [{"c"}]


def test_exact_lane_metamorphic_relations():
    """Relations the exact lane must keep, checked against the lane itself.

    Each run is compared with runs on transformed profiles rather than with
    a reference solver: scaling every weight by ``c`` scales loads and
    variances by ``1/c``; reordering the types permutes the loads; splitting
    a type into parts with its approval set gives each part its load.  None
    changes a winner or a tie set.  The transforms move type indices and
    approval order, so a cache or index bug that depends on type order shows
    up as a mismatch.
    """
    rng = random.Random(20260810)
    profiles = [random_profile(rng) for _ in range(30)]
    profiles += [sparse_profile(rng, n_types=30, n_candidates=12) for _ in range(3)]
    for profile in profiles:
        types = profile.types
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        order = rng.sample(range(len(types)), len(types))
        k = rng.randrange(len(types))
        part = types[k].weight * F(rng.randint(1, 9), 10)
        scaled = Profile(VoterType(c * t.weight, t.approvals) for t in types)
        permuted = Profile(types[j] for j in order)
        split = Profile((
            *types[:k],
            VoterType(part, types[k].approvals),
            VoterType(types[k].weight - part, types[k].approvals),
            *types[k + 1:],
        ))
        for method, mode in product((Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode):
            seats = min(6, len(profile.candidates)) if mode is Mode.CANDIDATE else 6
            runs = [
                run_election(p, method, seats, mode=mode)
                for p in (profile, scaled, permuted, split)
            ]
            for rec, s_rec, p_rec, sp_rec in zip(*(run.records for run in runs)):
                for other in (s_rec, p_rec, sp_rec):
                    assert other.solution.candidate == rec.solution.candidate
                    assert other.tied_with == rec.tied_with
                r = rec.loads_after.values
                assert s_rec.loads_after.values == tuple(v / c for v in r)
                assert s_rec.variance_after == rec.variance_after / c
                assert p_rec.loads_after.values == tuple(r[j] for j in order)
                assert p_rec.variance_after == rec.variance_after
                assert sp_rec.loads_after.values == (*r[:k], r[k], r[k], *r[k + 1:])
                assert sp_rec.variance_after == rec.variance_after


EXACT_LANE_RUNS = [
    (method, mode)
    for method in (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN)
    for mode in Mode
] + [(Method.SAINTE_LAGUE, Mode.PARTY), (Method.DHONDT, Mode.PARTY)]


@pytest.mark.parametrize("method, mode", EXACT_LANE_RUNS)
def test_exact_lane_never_scores_share_by_share(monkeypatch, method, mode):
    profile = sparse_profile(random.Random(5))
    if method in (Method.SAINTE_LAGUE, Method.DHONDT):
        profile = parse_profile("5 : A\n3 : B\n2 : C\n")
    calls = []

    def counting(sub, x):
        calls.append(sub.candidate)
        return original(sub, x)

    original = step._score
    for module in (step, engine):
        monkeypatch.setattr(module, "_score", counting)
    seats = min(8, len(profile.candidates))
    result = run_election(profile, method, seats, mode=mode)
    assert calls == []
    # the share-by-share reference still accepts every closed-form score
    verify_election(profile, result)
    assert len(calls) >= seats


#: Every arithmetic operator of ``Fraction``, forward and reflected.
FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


@pytest.mark.parametrize("method", [Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN])
@pytest.mark.parametrize("mode", Mode)
def test_exact_lane_decides_without_fraction_arithmetic(monkeypatch, method, mode):
    # once the lane is built, deciding every seat calls neither the Fraction
    # constructor nor any Fraction operator: the level, the clamp test and
    # the score are int arithmetic, built into fractions by their slots,
    # and only the contenders' keys are compared
    calls = Counter()
    counting = False

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if counting:
                calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("__new__", *FRACTION_ARITHMETIC):
        monkeypatch.setattr(F, name, counted(name, F.__dict__[name]))
    build = engine._lane

    def built(*args):
        nonlocal counting
        lane = build(*args)
        counting = True
        return lane

    monkeypatch.setattr(engine, "_lane", built)
    rng = random.Random(20260810)
    profiles = [random_profile(rng) for _ in range(10)] + [sparse_profile(rng)]
    profiles.append(TwoPartyFamily(alpha=F(31, 100), zeta=F(376, 1000)).profile())
    for profile in profiles:
        seats = min(8, len(profile.candidates)) if mode is Mode.CANDIDATE else 60
        winners = engine._winners(profile, method, seats, mode)
        counting = False
        assert len(winners) == seats
        assert calls == Counter()
    # the counters count
    counting = True
    assert 1 - (F(1, 3) + 1) == F(-1, 3)
    counting = False
    assert calls["__new__"] >= 1
    assert (calls["__add__"], calls["__rsub__"]) == (1, 1)


def test_exact_lane_numerators_and_subproblem_sums_match_a_fresh_scan(monkeypatch):
    # after every seat, the numerators over D are the loads, the running
    # sum(U*N*N), L*D and L*D*D are a fresh scan of the integers, and the
    # seat's level and score are in lowest terms; and every subproblem the
    # lane builds has carried, squares and top that, over (L*D, L*D*D, D),
    # are a fresh scan of the fraction loads it was built at
    seen, totals, built = [], [], []
    advance, subproblem = engine._ExactLane.advance, engine._ExactLane.subproblem

    def recording(lane, solution):
        out = advance(lane, solution)
        seen.append((lane.loads, [F(n, lane.denominator) for n in lane.numerators]))
        squares = sum(u * n * n for u, n in zip(lane.weights, lane.numerators))
        unit = lane.multiplier * lane.denominator
        totals.append(
            ((lane.squares, lane.unit, lane.ldd), (squares, unit, unit * lane.denominator))
        )
        for value in (solution.level, solution.score):
            assert math.gcd(value.numerator, value.denominator) == 1
        return out

    def checking(lane, name):
        sub = subproblem(lane, name)
        unit = lane.multiplier * sub.denominator
        scales = (unit, unit * sub.denominator, sub.denominator)
        sums = (sub.carried, sub.squares, sub.top)
        built.append((lane.loads, name, tuple(F(v, s) for v, s in zip(sums, scales))))
        return sub

    monkeypatch.setattr(engine._ExactLane, "advance", recording)
    monkeypatch.setattr(engine._ExactLane, "subproblem", checking)
    rng = random.Random(20260810)
    profiles = [random_profile(rng) for _ in range(20)]
    profiles += [sparse_profile(rng) for _ in range(3)]
    profiles.append(parse_profile("5/7 : a, b\n3/4 : b\n11/6 : a, c\n1/9 : c\n"))
    methods = (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN)
    for profile, method, mode in product(profiles, methods, Mode):
        seats = min(8, len(profile.candidates)) if mode is Mode.CANDIDATE else 8
        seen.clear()
        totals.clear()
        built.clear()
        run_election(profile, method, seats, mode=mode)
        assert len(seen) == len(totals) == seats
        for loads, numerators in seen:
            assert numerators == list(loads.values)
        for running, fresh in totals:
            assert running == fresh
        assert len(built) >= seats
        for loads, name, sums in built:
            supporters = profile.supporters(name)
            fresh = [(profile.types[k].weight, loads.values[k]) for k in supporters]
            assert sums == (
                sum(u * r for u, r in fresh),
                sum(u * r * r for u, r in fresh),
                max(r for _, r in fresh),
            )


@pytest.mark.parametrize("backend", Backend)
def test_a_lane_built_at_a_seat_s_loads_decides_that_seat(backend):
    # each lane may start at any loads, not only at zero: built at the loads
    # before a seat of a run, it elects that seat's winner, with its ties,
    # record, loads and variance after
    rng = random.Random(11)
    profiles = [random_profile(rng) for _ in range(10)]
    profiles += [parse_profile("5/7 : a, b\n3/4 : b\n11/6 : a, c\n1/9 : c\n")]
    lane_class = engine._ExactLane if backend is Backend.EXACT else engine._FloatLane
    for profile, method, mode in product(
        profiles, (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode
    ):
        seats = min(5, len(profile.candidates)) if mode is Mode.CANDIDATE else 5
        result = run_election(profile, method, seats, mode=mode, backend=backend)
        for rec, loads, eligible in engine.seat_states(profile, result):
            lane = lane_class(profile, method, loads)
            _, solution, tied = select_winner(lane, eligible)
            record, variance_after = lane.advance(solution)
            assert repr(record) == repr(rec.solution)
            assert tuple(tied) == rec.tied_with
            assert repr(lane.loads) == repr(rec.loads_after)
            assert repr(variance_after) == repr(rec.variance_after)


def radical_covers(x, radical):
    """Whether every prime of ``x`` divides ``radical``."""
    g = math.gcd(x, radical)
    while g > 1:
        x //= g
        g = math.gcd(x, radical)
    return x == 1


def assert_radical_covers(lane):
    for x in (lane.denominator, lane.multiplier, lane.total_weight):
        assert radical_covers(x, lane.radical)


def test_exact_lane_radical_covers_its_denominators_after_every_seat():
    # a record is reduced only by the primes of ``radical``: every prime of
    # D, L and the total weight must be among them, in lanes built at zero
    # loads and at a run's loads (as the oracle campaign builds them), and
    # after every seat either takes in
    rng = random.Random(34)
    profiles = [random_profile(rng) for _ in range(20)]
    profiles += [parse_profile("5/7 : a, b\n3/4 : b\n11/6 : a, c\n1/9 : c\n")]
    profiles.append(TwoPartyFamily(alpha=F(37, 100), zeta=F(376, 1000)).profile())
    for profile, method, mode in product(
        profiles, (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode
    ):
        seats = min(6, len(profile.candidates)) if mode is Mode.CANDIDATE else 12
        lane = engine._lane(profile, method, seats, mode, Backend.EXACT)
        assert_radical_covers(lane)
        for _ in engine._seats(lane, seats, mode, lane.advance):
            assert_radical_covers(lane)
        result = run_election(profile, method, seats, mode=mode)
        for rec, loads, eligible in engine.seat_states(profile, result):
            lane = engine._ExactLane(profile, method, loads)
            assert_radical_covers(lane)
            _, solution, _ = select_winner(lane, eligible)
            record, variance_after = lane.advance(solution)
            assert_radical_covers(lane)
            assert repr(record) == repr(rec.solution)
            assert repr(variance_after) == repr(rec.variance_after)


@pytest.mark.parametrize("mode", Mode)
def test_a_one_type_profile_records_a_reduced_zero_variance(mode):
    # one type: every load is the mean, so the variance is exactly 0, which
    # must be the reduced Fraction(0, 1), render as "0" and verify
    profile = parse_profile("7/3 : a, b\n")
    result = run_election(profile, Method.VAR_PHRAGMEN, 2, mode=mode)
    for rec in result.records:
        assert repr(rec.variance_after) == "Fraction(0, 1)"
        assert rec.variance_after.denominator == 1
    payload = election_json(profile, result, backend="exact")
    assert [r["variance_after"] for r in payload["records"]] == ["0", "0"]
    verify_election(profile, result)


def test_an_active_supporter_at_the_level_records_a_reduced_zero_share():
    # seat 3: type 1 (a, b, c) already sits at c's level 3/8, so it stays
    # active with a zero share, the Fraction 0 over 1, not int 0 (which
    # marks a type off the active set)
    profile = parse_profile("3 : b\n1 : a, b, c\n2 : a\n4 : b, c\n")
    result = run_election(profile, Method.VAR_PHRAGMEN, 3)
    rec = result.records[2]
    assert (rec.solution.candidate, rec.solution.level) == ("c", F(3, 8))
    assert rec.loads_after.values[1] == F(3, 8)
    assert repr(rec.solution.x) == repr((0, F(0), 0, F(1, 4)))
    assert rec.solution.x[1].denominator == 1
    cells = election_json(profile, result, backend="exact")["records"][2]
    assert (cells["x"][1], cells["x_display"][1]) == ("0", "0.0000")
    verify_election(profile, result)


@pytest.mark.parametrize("alpha", [F(31, 100), F(37, 100)])
def test_long_two_party_runs_record_fractions_in_lowest_terms(alpha):
    # after a dozen seats D outgrows the radical and records are reduced by
    # remainders against it; at 31/100 some values also share a prime's
    # power past two rounds, which the public constructor finishes
    profile = TwoPartyFamily(alpha=alpha, zeta=F(376, 1000)).profile()
    result = run_election(profile, Method.VAR_PHRAGMEN, 40, mode=Mode.PARTY)
    for rec in result.records:
        sol = rec.solution
        for v in (sol.level, sol.score, rec.variance_after, *sol.x, *rec.loads_after.values):
            if type(v) is F:
                assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
    verify_election(profile, result)


def near_tie_profile(rng, n_types=10, n_candidates=6):
    """Weights 1-4 over four approval sets, repeated: many candidates share a key."""
    pool = [f"c{i}" for i in range(n_candidates)]
    sets = [tuple(rng.sample(pool, rng.randint(1, 3))) for _ in range(4)]
    return Profile(
        VoterType(F(rng.randint(1, 4)), rng.choice(sets)) for _ in range(n_types)
    )


def test_exact_lane_matches_the_uncached_reference_seat_by_seat():
    """Exact runs against :func:`select_winner` on a share lane, seat by seat.

    The reference solves every eligible candidate afresh, share by share, at
    the recorded loads; the exact lane decides on integers, and skips the
    candidates whose stale bounds rule them out.  Both methods and modes,
    with knife-edge ties: at alpha = 1/2 the two parties tie at every other
    seat, and the near-tie profiles put several candidates, stale or fresh,
    at one key.
    """
    rng = random.Random(7)
    profiles = [random_profile(rng) for _ in range(25)]
    profiles += [sparse_profile(rng, n_types=30, n_candidates=12) for _ in range(2)]
    profiles.append(TwoPartyFamily(alpha=F(1, 2), zeta=F(376, 1000)).profile())
    profiles += [near_tie_profile(rng) for _ in range(20)]
    ties = 0
    for profile, method, mode in product(
        profiles, (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode
    ):
        seats = min(7, len(profile.candidates)) if mode is Mode.CANDIDATE else 7
        result = run_election(profile, method, seats, mode=mode)
        for rec, loads, eligible in engine.seat_states(profile, result):
            winner, solution, tied = select_uncached(profile, loads, eligible, method)
            assert repr(rec.solution) == repr(solution.record())
            assert rec.tied_with == tuple(tied)
            assert rec.loads_after == loads.add(solution.record().x)
            assert rec.variance_after == variance(profile, rec.loads_after)
            ties += len(tied) > 1
    assert ties >= 4


def recording_solves(lane) -> list:
    """``(name, float key, key)`` of each of ``lane``'s solves from now on,
    in solve order."""
    solves = []
    solve = lane.solve

    def recording(name):
        approx, key, sol = solve(name)
        solves.append((name, approx, key))
        return approx, key, sol

    lane.solve = recording
    return solves


@pytest.mark.parametrize("method", [Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN])
def test_a_stale_bound_at_the_least_key_is_solved_and_can_win(method):
    """A stale bound equal to the least fresh float key is solved, not skipped.

    A bound stands for any float at or below the candidate's fresh key, so
    the lane's bounds are set by hand at zero loads, where a's and b's keys
    are 1/2 and c's is 1.  b has none (minus infinity), so it is visited
    first and sets the least key.  a, the smaller name, is visited after it,
    at a bound equal to that key: it must be solved, tie b and win.  c's
    bound is above the least key, so c is skipped.
    """
    profile = parse_profile("2 : a\n2 : b\n1 : c\n")
    loads = LoadVector.zero(profile)
    lane = engine._ExactLane(profile, method, loads)
    lane.bounds.update(a=0.5, c=1.0)
    solves = recording_solves(lane)
    eligible = profile.candidates
    winner, solution, tied = select_winner(lane, eligible)
    assert (winner, tied) == ("a", ["a", "b"])
    assert [name for name, _, _ in solves] == ["b", "a"]
    assert lane.bounds == {"a": 0.5, "b": 0.5, "c": 1.0}
    reference, ref_solution, ref_tied = select_uncached(profile, loads, eligible, method)
    assert (reference, ref_tied) == (winner, tied)
    assert repr(ref_solution.record()) == repr(solution.record())


def test_first_round_clamps_match_the_uncached_reference(monkeypatch):
    """Runs whose solves clamp, where the first round must scan its supporters.

    Such a solve has a supporter above the unconstrained level, so the
    subproblem's highest load must send the first round to the scan.  The
    runs are checked seat by seat against the uncached share-by-share lane,
    which reads no highest load and scans every round.
    """
    clamped = []

    def counting(sub):
        sol = corrected_solution(sub)
        clamped.append(bool(sol.clamp_rounds))
        return sol

    monkeypatch.setattr(engine, "corrected_solution", counting)
    rng = random.Random(20260810)
    runs = []
    for profile, mode in product([random_profile(rng) for _ in range(300)], Mode):
        seats = min(6, len(profile.candidates)) if mode is Mode.CANDIDATE else 6
        clamped.clear()
        result = run_election(profile, Method.VAR_PHRAGMEN, seats, mode=mode)
        if any(clamped):
            runs.append((profile, result))
    assert runs, "no solve clamped"
    for profile, result in runs:
        verify_election(profile, result)
        for rec, loads, eligible in engine.seat_states(profile, result):
            winner, solution, tied = select_uncached(
                profile, loads, eligible, Method.VAR_PHRAGMEN
            )
            assert repr(rec.solution) == repr(solution.record())
            assert rec.tied_with == tuple(tied)


#: Profiles whose seat-1 keys (``1/W`` for a candidate of weight ``W``, as
#: score and as level) round to one float: two keys closer than one ulp, an
#: exact tie beside a key closer than one ulp, keys past float64, below it
#: and subnormal.  The candidates the exact keys tie at seat 1 follow.
FILTER_CASES = {
    "closer-than-an-ulp": (f"{10**20} : a\n{10**20 + 1} : b\n", ("b",)),
    "exact-tie": (f"{10**20 + 1} : a\n{10**20 + 1} : b\n{10**20} : c\n", ("a", "b")),
    "past-float64": (f"1/{10**400 + 1} : a\n1/{10**400} : b\n", ("b",)),
    "below-float64": (f"{10**400} : a\n{10**400 + 1} : b\n", ("b",)),
    "subnormal": (f"{10**310} : a\n{10**310 + 1} : b\n", ("b",)),
}


@pytest.mark.parametrize("method", [Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN])
@pytest.mark.parametrize("text, tied", FILTER_CASES.values(), ids=list(FILTER_CASES))
def test_exact_keys_decide_what_float_keys_cannot_tell_apart(text, tied, method):
    """Float keys that cannot tell the candidates apart leave them to the
    exact keys: the seat goes to the least exact key, ``tied_with`` lists
    only its exact ties, and every seat is the uncached reference's."""
    profile = parse_profile(text)
    lane = engine._ExactLane(profile, method, LoadVector.zero(profile))
    solves = recording_solves(lane)
    winner, _, first_tied = select_winner(lane, profile.candidates)
    floats = {approx for _, approx, _ in solves}
    keys = {key for _, _, key in solves}
    assert len(floats) == 1 and len(keys) == 2
    assert (winner, tuple(first_tied)) == (tied[0], tied)
    result = run_election(profile, method, 4, mode=Mode.PARTY)
    assert result.records[0].tied_with == tied
    for rec, loads, eligible in engine.seat_states(profile, result):
        winner, solution, tied_now = select_uncached(profile, loads, eligible, method)
        assert repr(rec.solution) == repr(solution.record())
        assert rec.tied_with == tuple(tied_now)
    verify_election(profile, result)


def test_an_unchanged_key_is_compared_at_the_current_denominator():
    # b wins seat 1, which sets D to b's weight; at seat 2, a's key, unchanged
    # since seat 1, and b's fresh key 3/W round to one float, and b's is
    # smaller: a's bound equals the least float key, so a is solved again at
    # today's D and the exact keys decide
    profile = parse_profile(f"{10**20} : a\n{3 * 10**20 + 1} : b\n")
    b_key, a_key = F(3, 3 * 10**20 + 1), F(1, 10**20)
    assert b_key < a_key and float(b_key) == float(a_key)
    method = Method.VAR_PHRAGMEN
    result = run_election(profile, method, 2, mode=Mode.PARTY)
    assert result.winners == ("b", "b")
    for rec, loads, eligible in engine.seat_states(profile, result):
        winner, solution, tied = select_uncached(profile, loads, eligible, method)
        assert repr(rec.solution) == repr(solution.record())
        assert rec.tied_with == tuple(tied)


def test_exact_lane_rejects_inconsistent_loads(monkeypatch):
    def doubled(sub):
        # twice the level: at seat 1, from zero loads, twice every share
        sol = corrected_solution(sub)
        return sol._replace(level=2 * sol.level)

    monkeypatch.setattr(engine, "corrected_solution", doubled)
    with pytest.raises(ValueError, match="inconsistent loads: total mass 2 != 1 seats"):
        run_election(parse_profile(PROFILE_12), Method.VAR_PHRAGMEN, 3)


def test_inconsistent_loads_past_the_int_digit_limit(monkeypatch):
    # a total mass of 10**4400 has 4401 digits, past the limit of str()
    huge = 10**4400
    message = f"inconsistent loads: total mass 1{'0' * 4400} != 1 seats"
    profile = parse_profile(PROFILE_12)
    with pytest.raises(ValueError, match=message):
        variance(profile, LoadVector(values=(F(huge, 9), 0, 0), seats_assigned=1))

    def scaled(sub):
        sol = corrected_solution(sub)
        return sol._replace(level=huge * sol.level)

    monkeypatch.setattr(engine, "corrected_solution", scaled)
    with pytest.raises(ValueError, match=message):
        run_election(profile, Method.VAR_PHRAGMEN, 3)


# ---------------------------------------------------------------------------
# verify_election reports every kind of corruption

def _with_record(result, seat, **changes):
    records = list(result.records)
    records[seat - 1] = replace(records[seat - 1], **changes)
    return replace(result, records=tuple(records))


def _with_solution(result, seat, **changes):
    solution = replace(result.records[seat - 1].solution, **changes)
    return _with_record(result, seat, solution=solution)


def _reseat(profile, result, seat, candidate, solve=corrected_solution):
    """``result`` with one seat given to ``candidate``, bookkeeping consistent."""
    if seat > 1:
        before = result.records[seat - 2].loads_after
    else:
        before = LoadVector.zero(profile)
    solution = solve(Subproblem(profile, before, candidate)).record()
    after = before.add(solution.x)
    return _with_record(
        result,
        seat,
        solution=solution,
        loads_after=after,
        variance_after=variance(profile, after),
        tied_with=(candidate,),
    )


def _extra_seat(profile, result):
    """A fifth candidate-mode seat from a profile of four candidates."""
    full = run_election(profile, Method.VAR_PHRAGMEN, 4)
    last = full.records[-1]
    return replace(full, records=full.records + (replace(last, seat_index=5),))


VERIFIED_RUNS = {
    "var": (PROFILE_12, Method.VAR_PHRAGMEN, Mode.CANDIDATE, 3),
    "seq": (PROFILE_12, Method.SEQ_PHRAGMEN, Mode.CANDIDATE, 3),
    "sl": ("5: A\n3: B\n", Method.SAINTE_LAGUE, Mode.PARTY, 2),
}

CORRUPTIONS = [
    ("var", lambda p, r: _with_solution(r, 1, candidate="z"),
     "seat 1 (z): winner is not a candidate of the profile"),
    ("var", lambda p, r: _with_solution(r, 1, x=(F(1, 10), F(1, 10))),
     "seat 1 (a1): distribution length mismatch"),
    ("var", lambda p, r: _with_solution(r, 1, x=(F(1, 5), F(1, 5), 0)),
     "seat 1 (a1): seat mass 2 != 1"),
    ("var", lambda p, r: _with_solution(r, 1, x=(F(1, 5), F(1, 5), 0)),
     "seat 1 (a1): total load mass 2 != 1 seats"),
    ("var", lambda p, r: _with_solution(r, 1, x=(F(11, 90), F(-1, 10), 0)),
     "seat 1 (a1): negative share x[1] = -1/10"),
    ("var", lambda p, r: _with_solution(r, 1, x=(F(1, 10), 0, F(1, 30))),
     "seat 1 (a1): nonzero share for non-supporter type 2"),
    ("var", lambda p, r: _with_solution(r, 1, level=F(1, 5)),
     "seat 1 (a1): positive-share type 0 misses the common level"),
    ("var", lambda p, r: _with_solution(r, 1, x=(F(1, 9), 0, 0), level=F(1, 9)),
     "seat 1 (a1): zero-share type 1 sits below the common level"),
    ("var", lambda p, r: _with_solution(r, 1, score=F(1)),
     "seat 1 (a1): recorded score 1 != recomputed"),
    ("var", lambda p, r: _with_record(r, 1, loads_after=LoadVector.zero(p)),
     "seat 1 (a1): loads_after does not equal loads_before + x"),
    ("var", lambda p, r: _with_record(r, 2, variance_after=F(1)),
     "seat 2 (b): variance_after does not match direct evaluation"),
    ("var", lambda p, r: _with_record(r, 2, variance_after=F(1)),
     "seat 2 (b): variance_after violates the score bookkeeping identity"),
    ("var", lambda p, r: _reseat(p, r, 2, "a1"),
     "seat 2 (a1): winner was not eligible"),
    ("var", _extra_seat,
     "seat 5 (c): winner was not eligible"),
    ("var", lambda p, r: _reseat(p, r, 1, "b"),
     "seat 1 (b): winner is not optimal: 1/4 vs best 1/10"),
    ("var", lambda p, r: _with_record(r, 1, tied_with=("a1",)),
     "seat 1 (a1): tied_with ('a1',) != recomputed ('a1', 'a2')"),
    ("seq", lambda p, r: _reseat(p, r, 1, "b", unconstrained_solution),
     "seat 1 (b): winner is not optimal: 1/4 vs best 1/10"),
    ("sl", lambda p, r: _reseat(p, r, 1, "B"),
     "seat 1 (B): winner is not optimal: 1/3 vs best 1/5"),
]


@pytest.mark.parametrize(
    "run, corrupt, message",
    CORRUPTIONS,
    ids=[f"{run}-{message}" for run, _, message in CORRUPTIONS],
)
def test_verify_election_reports_each_corruption(run, corrupt, message):
    text, method, mode, seats = VERIFIED_RUNS[run]
    profile = parse_profile(text)
    result = run_election(profile, method, seats, mode=mode)
    verify_election(profile, result)
    with pytest.raises(VerificationError) as info:
        verify_election(profile, corrupt(profile, result))
    assert message in str(info.value).splitlines()


def test_verify_election_prints_values_past_the_int_digit_limit():
    # each seat's score, 1/u, has 4401 digits, past the limit of str()
    profile = Profile(
        [VoterType(F(1, 10**4400 + 1), ("a",)), VoterType(F(1, 10**4400 + 3), ("b",))]
    )
    result = run_election(profile, Method.VAR_PHRAGMEN, 2)
    verify_election(profile, result)
    score = result.records[0].solution.score + 1
    with pytest.raises(VerificationError) as info:
        verify_election(profile, _with_solution(result, 1, score=score))
    message = f"seat 1 (a): recorded score {rational_str(score)} != recomputed"
    assert message in str(info.value).splitlines()


def test_verify_election_after_a_truncated_distribution(profile12):
    # the skipped record moves neither the loads nor the eligibility the later
    # seats are checked against: a1 stays eligible, so it ties at seat 3
    result = run_election(profile12, Method.VAR_PHRAGMEN, 3)
    corrupt = _with_solution(result, 1, x=result.records[0].solution.x[:2])
    with pytest.raises(VerificationError) as info:
        verify_election(profile12, corrupt)
    assert str(info.value).splitlines() == [
        "seat 1 (a1): distribution length mismatch",
        "seat 2 (b): positive-share type 1 misses the common level",
        "seat 2 (b): recorded score 117/400 != recomputed",
        "seat 2 (b): loads_after does not equal loads_before + x",
        "seat 2 (b): total load mass 1 != 2 seats",
        "seat 2 (b): variance_after violates the score bookkeeping identity",
        "seat 2 (b): winner is not optimal: 1/4 vs best 1/10",
        "seat 2 (b): tied_with ('b',) != recomputed ('a1', 'a2')",
        "seat 3 (a2): positive-share type 0 misses the common level",
        "seat 3 (a2): zero-share type 1 sits below the common level",
        "seat 3 (a2): recorded score 14/45 != recomputed",
        "seat 3 (a2): loads_after does not equal loads_before + x",
        "seat 3 (a2): total load mass 2 != 3 seats",
        "seat 3 (a2): variance_after violates the score bookkeeping identity",
        "seat 3 (a2): tied_with ('a2',) != recomputed ('a1', 'a2')",
    ]


def test_verify_election_solves_rivals_without_the_production_solver(monkeypatch):
    # a production solver that scores b four times too high elects c at seat
    # 2; a checker that solved the rivals with it would agree, water-filling
    # does not
    def b_four_times(sub):
        sol = corrected_solution(sub)
        return sol._replace(score=4 * sol.score) if sub.candidate == "b" else sol

    profile = parse_profile("5 : a\n4 : b\n3 : c\n")
    monkeypatch.setattr(engine, "corrected_solution", b_four_times)
    result = run_election(profile, Method.VAR_PHRAGMEN, 2)
    assert result.winners == ("a", "c")
    with pytest.raises(VerificationError) as info:
        verify_election(profile, result)
    assert str(info.value).splitlines() == [
        "seat 2 (c): winner is not optimal: 1/3 vs best 1/4",
        "seat 2 (c): tied_with ('c',) != recomputed ('b',)",
    ]


def test_verify_election_shares_no_code_with_the_seat_decision(monkeypatch):
    # the checker solves each seat's rivals by oracles of its own, so it
    # passes every run and still catches a swapped winner while each part
    # of the production seat decision raises
    rng = random.Random(5)
    runs = []
    for _ in range(6):
        profile = random_profile(rng)
        for method, mode in product((Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode):
            seats = len(profile.candidates) if mode is Mode.CANDIDATE else 4
            runs.append((profile, run_election(profile, method, seats, mode=mode)))

    def refuse(*args, **kwargs):
        raise AssertionError("the seat decision was called")

    for name in (
        "select_winner",
        "_seats",
        "_lane",
        "_ShareLane",
        "_FloatLane",
        "_ExactLane",
        "IntegerSubproblem",
        "corrected_solution",
    ):
        monkeypatch.setattr(engine, name, refuse)
    profile, result = runs[0]
    with pytest.raises(AssertionError, match="the seat decision was called"):
        run_election(profile, result.method, 1)
    swapped = 0
    for profile, result in runs:
        verify_election(profile, result)
        first = result.records[0]
        rivals = [c for c in profile.candidates if c not in first.tied_with]
        if rivals:
            swapped += 1
            with pytest.raises(VerificationError, match="winner is not optimal"):
                verify_election(profile, _with_solution(result, 1, candidate=rivals[0]))
    assert swapped >= len(runs) // 2


# ---------------------------------------------------------------------------
# float64 backend

def exact_seat_gaps(profile, seats, mode, method=Method.VAR_PHRAGMEN):
    """Smallest winner-vs-runner-up key gap (score or level) at each seat, exactly."""
    result = run_election(profile, method, seats, mode=mode)
    gaps = []
    for _, loads, eligible in engine.seat_states(profile, result):
        keys = []
        for name in eligible:
            sol = corrected_solution(Subproblem(profile, loads, name))
            keys.append(sol.score if method is Method.VAR_PHRAGMEN else sol.level)
        keys.sort()
        if len(keys) > 1:
            gaps.append(keys[1] - keys[0])
    return result, gaps


def test_float64_matches_exact_outside_knife_edge_ties():
    for method in (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN):
        rng = random.Random(99)
        checked = 0
        for _ in range(25):
            profile = random_profile(rng, max_types=5, max_candidates=5)
            seats = rng.randint(1, 4)
            exact_result, gaps = exact_seat_gaps(profile, seats, Mode.PARTY, method)
            if any(g <= F(1, 10**9) for g in gaps):
                continue  # knife-edge instances carry no expectation
            float_result = run_election(
                profile, method, seats, mode=Mode.PARTY, backend=Backend.FLOAT64
            )
            assert float_result.winners == exact_result.winners
            checked += 1
        assert checked >= 15, method


def test_a_float64_bound_is_its_fresh_key_or_minus_infinity(monkeypatch):
    # a float64 key, a sum of many roundings, is not proven never to fall,
    # so no stale key may rule a candidate out: after every seat, each
    # candidate approved by a type the seat moved has its bound reset, and
    # every other finite bound is the float key a fresh solve gives at the
    # new loads, bit for bit
    original = engine._FloatLane.advance
    checked = 0

    def checking(lane, solution):
        nonlocal checked
        record, after = original(lane, solution)
        moved = {
            name
            for k, share in enumerate(record.x)
            if share > 0
            for name in lane.profile.types[k].approvals
        }
        for name, bound in lane.bounds.items():
            if name in moved:
                assert bound == -math.inf, name
            elif math.isfinite(bound):
                fresh = engine._ShareLane(lane.profile, lane.method, lane.loads)
                assert repr(bound) == repr(fresh.solve(name)[0]), name
                checked += 1
        return record, after

    monkeypatch.setattr(engine._FloatLane, "advance", checking)
    rng = random.Random(27)
    profiles = [random_profile(rng) for _ in range(6)] + [sparse_profile(rng)]
    methods = (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN)
    for profile, method, mode in product(profiles, methods, Mode):
        seats = min(6, len(profile.candidates)) if mode is Mode.CANDIDATE else 6
        run_election(profile, method, seats, mode=mode, backend=Backend.FLOAT64)
    assert checked


def test_float64_rejects_a_total_weight_it_cannot_hold():
    # each weight is a finite float64, but their sum overflows: the float
    # lane would divide by inf and record zero scores without a word
    huge = F(10**308)
    profile = Profile([VoterType(huge, ("a",)), VoterType(huge, ("b",))])
    exact = run_election(profile, Method.VAR_PHRAGMEN, 2)
    assert [rec.solution.score for rec in exact.records] == [F(1, 10**308)] * 2
    with pytest.raises(ElectionConfigError, match="total voter weight overflows"):
        run_election(profile, Method.VAR_PHRAGMEN, 2, backend=Backend.FLOAT64)


def test_an_election_leaves_its_profile_untouched():
    closed = parse_profile(CLOSED)
    profiles = [parse_profile(PROFILE_12), random_profile(random.Random(3))]
    runs = [(p, method, mode, backend) for p, method, mode, backend in product(
        profiles, (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode, Backend
    )]
    runs += [(closed, method, Mode.PARTY, backend) for method, backend in product(
        (Method.SAINTE_LAGUE, Method.DHONDT), Backend
    )]
    for profile, method, mode, backend in runs:
        before = deepcopy(vars(profile))
        seats = min(3, len(profile.candidates))
        result = run_election(profile, method, seats, mode=mode, backend=backend)
        if backend is Backend.EXACT:
            verify_election(profile, result)
        assert dict(vars(profile)) == before


def sparse_profile_2000(seed):
    """The benchmark's sparse profile (2000 voter types over c000..c199) at
    ``seed``, from the one recipe in ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return parse_profile(workloads.sparse_profile_text(seed))


@pytest.mark.parametrize("seed", [20260810, 7])
def test_float64_matches_exact_on_the_2000_type_profile(seed):
    # the float lane at a scale no golden covers: 40 seats, both methods
    profile = sparse_profile_2000(seed)
    for method in (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN):
        exact = run_election(profile, method, 40)
        float64 = run_election(profile, method, 40, backend=Backend.FLOAT64)
        assert float64.winners == exact.winners


def test_a_run_records_one_step_solution_per_seat(monkeypatch):
    # every other solve stays a light Solve; only each seat's winner is recorded
    built = []

    def counting(*args):
        built.append(args[0])
        return StepSolution(*args)

    monkeypatch.setattr(step, "StepSolution", counting)
    profile = sparse_profile(random.Random(20260810))
    runs = [
        (profile, method, mode, backend)
        for method, mode, backend in product(
            (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN), Mode, Backend
        )
    ]
    closed = random_closed_list_profile(random.Random(5))
    runs += [
        (closed, method, Mode.PARTY, backend)
        for method, backend in product((Method.SAINTE_LAGUE, Method.DHONDT), Backend)
    ]
    for profile, method, mode, backend in runs:
        built.clear()
        result = run_election(profile, method, 12, mode=mode, backend=backend)
        assert built == list(result.winners), (method, mode, backend)


# ---------------------------------------------------------------------------
# counts-only runs: each seat moves the lane and builds no record

def counts_only_runs():
    """Seeded runs ``(profile, method, seats, mode, backend)``: both methods
    in both modes and backends, with knife-edge ties at alpha = 1/2, and both
    highest-averages methods on closed lists."""
    rng = random.Random(20260810)
    profiles = [random_profile(rng) for _ in range(12)]
    profiles += [sparse_profile(rng) for _ in range(2)]
    profiles.append(TwoPartyFamily(alpha=F(1, 2), zeta=F(376, 1000)).profile())
    profiles.append(parse_profile("5/7 : a, b\n3/4 : b\n11/6 : a, c\n1/9 : c\n"))
    methods = (Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN)
    for profile, method, mode, backend in product(profiles, methods, Mode, Backend):
        seats = min(8, len(profile.candidates)) if mode is Mode.CANDIDATE else 12
        yield profile, method, seats, mode, backend
    closed = [random_closed_list_profile(rng) for _ in range(6)]
    highest_averages = (Method.SAINTE_LAGUE, Method.DHONDT)
    for profile, method, backend in product(closed, highest_averages, Backend):
        yield profile, method, 12, Mode.PARTY, backend


def test_a_counts_only_run_elects_what_run_election_records(monkeypatch):
    # the same winners, hence counts, as the recorded run, with no
    # StepSolution built; and the lane ends where the records end: the exact
    # numerators over D are the recorded loads, the float64 loads the
    # recorded ones to the bit
    built = []

    def counting(*args):
        built.append(args[0])
        return StepSolution(*args)

    monkeypatch.setattr(step, "StepSolution", counting)
    for profile, method, seats, mode, backend in counts_only_runs():
        result = run_election(profile, method, seats, mode=mode, backend=backend)
        built.clear()
        winners = engine._winners(profile, method, seats, mode, backend)
        assert built == []
        assert winners == list(result.winners), (method, mode, backend)
        assert {name: winners.count(name) for name in result.seat_counts} == dict(
            result.seat_counts
        )
        lane = engine._lane(profile, method, seats, mode, backend)
        for _ in engine._seats(lane, seats, mode, lane.move):
            pass
        loads = result.records[-1].loads_after
        if backend is Backend.EXACT:
            assert lane.seats == seats
            assert [F(n, lane.denominator) for n in lane.numerators] == list(loads.values)
        else:
            assert repr(lane.loads) == repr(loads)
    assert built == []


def test_a_counts_only_run_rejects_inconsistent_loads(monkeypatch):
    # the integer mass check is the move's, so a run that records nothing,
    # like the monotonicity probe's, still refuses a solve at twice its level
    def doubled(sub):
        sol = corrected_solution(sub)
        return sol._replace(level=2 * sol.level)

    monkeypatch.setattr(engine, "corrected_solution", doubled)
    with pytest.raises(ValueError, match="inconsistent loads: total mass 2 != 1 seats"):
        monotonicity_probe(parse_profile(PROFILE_12), "a1", 3)


def test_float64_loads_keep_the_objects_a_seat_does_not_move():
    # a seat adds only the shares of the types it moved, so election_json
    # reuses the cells of every other load
    profile = sparse_profile(random.Random(5))
    result = run_election(profile, Method.VAR_PHRAGMEN, 12, backend=Backend.FLOAT64)
    kept = 0
    for before, rec in zip(result.records, result.records[1:]):
        pairs = zip(before.loads_after.values, rec.loads_after.values, rec.solution.x)
        for old, new, share in pairs:
            if not share:
                assert new is old
                kept += isinstance(old, float)
    assert kept > 100


def test_float64_loads_are_floats(profile12):
    result = run_election(profile12, Method.VAR_PHRAGMEN, 3, backend=Backend.FLOAT64)
    assert result.winners == ("a1", "b", "a2")
    assert isinstance(result.records[-1].loads_after.values[0], float)


def test_result_winners_property(profile13):
    result = run_election(profile13, Method.VAR_PHRAGMEN, 3, mode=Mode.PARTY)
    assert result.winners == tuple(rec.solution.candidate for rec in result.records)
    assert sum(result.seat_counts.values()) == len(result.records)
