import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from varphragmen import (
    Backend,
    LoadVector,
    Method,
    Profile,
    TwoPartyFamily,
    UnknownCandidateError,
    VoterType,
    apportion_sequence,
    check_closed_list_equivalence,
    compare_solvers_over_election,
    monotonicity_probe,
    oracle_agreement_campaign,
    parse_profile,
    parse_rational,
    replay_record,
    run_election,
    solver_instance_record,
    sweep_seat_share,
    two_party_family,
)
from varphragmen.analysis import closed_list_sequences
from varphragmen.engine import _ExactLane
from varphragmen.model import Mode
from varphragmen.step import IntegerSubproblem


# ---------------------------------------------------------------------------
# closed-list equivalence

def test_equivalence_campaign_passes():
    report = check_closed_list_equivalence(seed=3, trials=50)
    assert not report.findings
    assert report.agreed == 50
    assert report.findings == ()


def test_equivalence_campaign_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_closed_list_equivalence(seed=3, trials=0)


def test_equivalence_hand_profile():
    profile = parse_profile("10 : A\n4 : B\n3 : C\n")
    pairs = closed_list_sequences(profile, 3)
    got, want = pairs["var-phragmen/sainte-lague"]
    assert got == want == ["A", "B", "A"]
    got_dh, want_dh = pairs["seq-phragmen/dhondt"]
    assert got_dh == want_dh


# ---------------------------------------------------------------------------
# monotonicity probe

def test_probe_profile13_violation(profile13):
    report = monotonicity_probe(profile13, "A", 3, F(1))
    assert report.seats_before == 2
    assert report.seats_after == 1
    assert report.violated


def test_probe_closed_list_no_violation():
    profile = parse_profile("10 : A\n5 : B\n")
    report = monotonicity_probe(profile, "A", 2, F(1))
    assert report.seats_before == 1
    assert report.seats_after == 1
    assert not report.violated


def test_probe_zero_delta_never_violates(profile13):
    report = monotonicity_probe(profile13, "A", 3, F(0))
    assert report.seats_before == report.seats_after
    assert not report.violated


def test_probe_rejects_bad_inputs(profile13):
    with pytest.raises(UnknownCandidateError):
        monotonicity_probe(profile13, "Z", 3)
    with pytest.raises(ValueError):
        monotonicity_probe(profile13, "A", 3, F(-1))


def test_probe_default_delta_is_one(profile13):
    assert monotonicity_probe(profile13, "A", 3).delta == 1


def test_probe_reads_delta_as_an_exact_rational(profile13):
    # a float delta is read exactly: 0.5 is 1/2
    report = monotonicity_probe(profile13, "A", 3, 0.5)
    assert repr(report) == repr(monotonicity_probe(profile13, "A", 3, F(1, 2)))


# ---------------------------------------------------------------------------
# two-party sweep

def test_two_party_family_profile():
    family = TwoPartyFamily(alpha=F(1, 4), zeta=F(1, 2))
    profile = family.profile()
    assert sum(t.weight for t in profile.types) == 1
    assert [t.weight for t in profile.types] == [F(1, 8), F(3, 8), F(1, 2)]
    assert profile.candidates == ("A", "B")


def test_two_party_family_drops_zero_types():
    profile = TwoPartyFamily(alpha=F(0), zeta=F(0)).profile()
    assert len(profile.types) == 1
    assert profile.candidates == ("B",)
    with pytest.raises(ValueError):
        TwoPartyFamily(alpha=F(2), zeta=F(0))
    with pytest.raises(ValueError):
        TwoPartyFamily(alpha=F(1, 2), zeta=F(1))


def test_sweep_endpoints_and_midpoint():
    result = sweep_seat_share(
        two_party_family(F(0)), [F(0), F(1, 2), F(1)], seats=2,
        backend=Backend.EXACT,
    )
    assert result.shares == (0, F(1, 2), 1)
    assert result.n == 2


def test_sweep_orders_points_and_validates_alpha():
    result = sweep_seat_share(
        two_party_family(F(0)), [F(1), F(0)], seats=1, backend=Backend.EXACT
    )
    assert [a for a, _ in result.points] == [0, 1]
    with pytest.raises(ValueError):
        sweep_seat_share(two_party_family(F(0)), [F(3, 2)], seats=1)


def test_sweep_zeta_zero_matches_sainte_lague():
    seats = 12
    alphas = [F(k, 20) for k in range(21)]
    result = sweep_seat_share(
        two_party_family(F(0)), alphas, seats, backend=Backend.EXACT
    )
    for alpha, share in result.points:
        votes = {
            name: weight
            for name, weight in (("A", alpha), ("B", 1 - alpha))
            if weight > 0
        }
        sequence = apportion_sequence(votes, seats, Method.SAINTE_LAGUE)
        assert share == F(sequence.count("A"), seats)
        assert share.denominator <= seats  # multiples of 1/seats


# ---------------------------------------------------------------------------
# solver-agreement campaign

def test_campaign_small_run_agrees():
    report = oracle_agreement_campaign(seed=11, trials=60)
    assert report.trials == 60
    assert report.instances > 0
    assert not report.findings
    assert report.agreed == report.instances
    with pytest.raises(ValueError, match="trials must be >= 1"):
        oracle_agreement_campaign(seed=1, trials=0)


def test_profile12_replay_compares_all_seats(profile12):
    instances, disagreements = compare_solvers_over_election(
        profile12, 3, Mode.CANDIDATE
    )
    # 4 eligible at seat 1, then 3, then 2
    assert instances == 9
    assert disagreements == []


def integer_lane_off_by_one(monkeypatch):
    """Make the integer lane score one too high, so that it disagrees with
    both oracles at every instance."""
    record = IntegerSubproblem.record

    def off_by_one(sub, solve):
        sol = record(sub, solve)
        return replace(sol, score=sol.score + 1)

    monkeypatch.setattr(IntegerSubproblem, "record", off_by_one)


def integer_lane_built_one_high(monkeypatch):
    """Build every exact lane with each nonzero numerator one higher.  An
    election's lane, built at zero loads, is untouched; a lane built at a
    later seat's loads is not."""
    init = _ExactLane.__init__

    def one_high(lane, *args):
        init(lane, *args)
        lane.numerators = [n + 1 if n else 0 for n in lane.numerators]

    monkeypatch.setattr(_ExactLane, "__init__", one_high)


@pytest.mark.parametrize(
    "perturb", [integer_lane_off_by_one, integer_lane_built_one_high],
    ids=["off-by-one", "built-one-high"],
)
def test_campaign_checks_the_integer_lane_the_elections_run_on(monkeypatch, perturb):
    # a campaign that solved on the share lane (Subproblem) instead would
    # find every instance agreeing
    perturb(monkeypatch)
    report = oracle_agreement_campaign(seed=11, trials=6)
    assert report.instances > 0
    if perturb is integer_lane_off_by_one:
        # every instance disagrees, and its record shows the score one too high
        assert len(report.findings) == report.instances
        for rec in report.findings:
            scores = [parse_rational(rec[k]["score"]) for k in ("corrected", "waterfill")]
            assert scores[0] == scores[1] + 1
    else:
        # the campaign builds a lane at each seat's loads, and only those
        # after the first seat are nonzero
        assert report.findings
        assert all(rec["seat"] >= 2 for rec in report.findings)
    for rec in report.findings:
        assert replay_record(rec)["matches_recorded"]


# ---------------------------------------------------------------------------
# serialization and replay

def test_solver_instance_record_replays(profile12, loads12_after_seat2):
    record = solver_instance_record(
        profile12, loads12_after_seat2, "a2", mode=Mode.CANDIDATE
    )
    json.dumps(record)  # must be a plain JSON document
    assert record["seat"] == 3
    assert record["corrected"]["x"] == ["1/9", "0", "0"]
    assert record["corrected"] == record["waterfill"] == record["subset"]
    replayed = replay_record(record)
    assert replayed["matches_recorded"]


def test_solver_instance_record_replays_loads_past_the_int_digit_limit():
    # after seat 1 both types sit at (10**5000 + 1)/(10**5000 + 2)
    tiny = F(1, 10**5000 + 1)
    profile = Profile([VoterType(tiny, ("a", "b")), VoterType(F(1), ("b",))])
    result = run_election(profile, Method.VAR_PHRAGMEN, 1, mode=Mode.PARTY)
    loads = result.records[0].loads_after
    record = solver_instance_record(profile, loads, "a", mode=Mode.PARTY)
    assert record["seat"] == 2
    assert min(len(cell) for cell in record["loads"]) > 10_000
    assert replay_record(record)["matches_recorded"]


def test_a_string_mode_is_read_as_its_enum(monkeypatch, profile12, loads12_after_seat2):
    record = solver_instance_record(profile12, loads12_after_seat2, "a2", mode="party")
    assert record["mode"] == "party"
    assert replay_record(record)["matches_recorded"]
    # every instance disagrees, so each is serialized with the mode it was
    # given as a string
    integer_lane_off_by_one(monkeypatch)
    instances, disagreements = compare_solvers_over_election(profile12, 3, mode="party")
    assert len(disagreements) == instances > 0
    assert {rec["mode"] for rec in disagreements} == {"party"}


def test_equivalence_record_replays():
    profile = parse_profile("10 : A\n4 : B\n3 : C\n")
    got, want = closed_list_sequences(profile, 3)["var-phragmen/sainte-lague"]
    record = {
        "kind": "closed-list-equivalence-failure",
        "profile": "10 : A\n4 : B\n3 : C\n",
        "seats": 3,
        "pair": "var-phragmen/sainte-lague",
        "election_sequence": got,
        "apportionment_sequence": want,
    }
    json.dumps(record)
    assert replay_record(record)["matches_recorded"]
    record["election_sequence"] = ["C", "C", "C"]
    assert not replay_record(record)["matches_recorded"]


def test_replay_rejects_unknown_kind():
    with pytest.raises(ValueError):
        replay_record({"kind": "mystery"})


def test_tampered_solver_record_detected(profile12, loads12_after_seat2):
    record = solver_instance_record(profile12, loads12_after_seat2, "a2")
    record["corrected"]["level"] = "1/2"
    assert not replay_record(record)["matches_recorded"]
