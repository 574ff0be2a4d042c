"""Acceptance suite: one test per release criterion.

Every criterion asserts at its stated tolerance (exact unless noted) and
prints one PASS/FAIL line; run ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they happen.
"""

import json
import random
from fractions import Fraction as F

from varphragmen import (
    Backend,
    Method,
    Mode,
    Profile,
    VoterType,
    apportion_sequence,
    check_closed_list_equivalence,
    monotonicity_probe,
    oracle_agreement_campaign,
    parse_profile,
    run_election,
    sweep_seat_share,
    two_party_family,
    verify_election,
)
from varphragmen.analysis import random_profile
from varphragmen.engine import seat_states
from varphragmen.cli import main as cli_main

from conftest import PROFILE_12, PROFILE_13, PROFILE_13_BUMPED

SEED = 20260810


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_corrected_trace_table(capsys, tmp_path):
    """Three-seat candidate election: winners a1, b, a2 with the corrected trace."""
    profile = parse_profile(PROFILE_12)
    result = run_election(profile, Method.VAR_PHRAGMEN, 3, mode=Mode.CANDIDATE)
    ok = result.winners == ("a1", "b", "a2")
    ok &= result.records[0].solution.x == (F(1, 10), F(1, 10), 0)
    ok &= result.records[1].solution.x == (0, F(7, 40), F(11, 40))
    ok &= result.records[2].solution.x == (F(1, 9), 0, 0)

    path = tmp_path / "p12.txt"
    path.write_text(PROFILE_12)
    code, out = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--mode", "candidate", "--trace", str(path),
    )
    lines = out.strip().splitlines()
    ok &= code == 0
    ok &= lines[1].split()[2:] == ["0.1000", "0.1000", "0.0000"]
    ok &= lines[2].split()[2:] == ["0.0000", "0.1750", "0.2750"]
    ok &= lines[3].split()[2:] == ["0.1111", "0.0000", "0.0000"]
    assert report(
        "criterion 1 (corrected trace table, rendered match at 4 decimals)", ok
    )


def test_criterion_2_uncorrected_trace_and_negativity_detector(capsys, tmp_path):
    """The raw seat-3 row shows 0.1175 / -0.0575 and only seat 3 trips the detector."""
    profile = parse_profile(PROFILE_12)
    result = run_election(profile, Method.VAR_PHRAGMEN, 3, mode=Mode.CANDIDATE)
    flags = [rec.solution.corrected for rec in result.records]
    ok = flags == [False, False, True]

    path = tmp_path / "p12.txt"
    path.write_text(PROFILE_12)
    code, out = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--show-uncorrected", str(path),
    )
    lines = out.strip().splitlines()
    ok &= code == 0
    ok &= lines[3].split() == ["3", "a2", "0.1175", "-0.0575", "0.0000", "*"]
    ok &= not lines[1].endswith("*")
    ok &= not lines[2].endswith("*")
    assert report(
        "criterion 2 (uncorrected seat-3 row, detector fires exactly once)", ok
    )


def test_criterion_3_party_counts_and_monotonicity(capsys):
    """Party-mode counts A=2/B=0/C=1, bumped first weight flips to 1/1/1, probe VIOLATED."""
    base = parse_profile(PROFILE_13)
    bumped = parse_profile(PROFILE_13_BUMPED)
    counts = [
        run_election(p, Method.VAR_PHRAGMEN, 3, mode=Mode.PARTY).seat_counts
        for p in (base, bumped)
    ]
    ok = counts == [{"A": 2, "B": 0, "C": 1}, {"A": 1, "B": 1, "C": 1}]
    probe = monotonicity_probe(base, "A", 3, F(1))
    ok &= probe.seats_before == 2 and probe.seats_after == 1 and probe.violated
    assert report("criterion 3 (party counts and monotonicity violation)", ok)


def test_criterion_4_closed_list_reduction():
    """200 random closed lists: variance method == Sainte-Laguë, max-load == D'Hondt."""
    report_data = check_closed_list_equivalence(seed=SEED, trials=200)
    ok = not report_data.findings and report_data.agreed == 200
    assert report(
        "criterion 4 (closed-list reduction)",
        ok,
        f"{report_data.agreed}/200 profiles, both method pairs",
    )


def test_criterion_5_oracle_triangle(tmp_path):
    """500 random elections: correction == water-filling == subset enumeration."""
    campaign = oracle_agreement_campaign(seed=SEED, trials=500)
    for idx, record in enumerate(campaign.findings, start=1):
        target = tmp_path / f"oracle-disagreement-{idx:03d}.json"
        target.write_text(json.dumps(record, indent=2))
        print(f"[acceptance] serialized disagreement: {target}")
    ok = report(
        "criterion 5 (solver agreement triangle)",
        not campaign.findings,
        f"{campaign.agreed}/{campaign.instances} instances "
        f"over {campaign.trials} trials",
    )
    assert campaign.agreed == campaign.instances, (
        "solver disagreement found; serialized records listed above"
    )
    assert ok


ELECTION_MATRIX = [
    (PROFILE_12, Method.VAR_PHRAGMEN, Mode.CANDIDATE, 3),
    (PROFILE_12, Method.SEQ_PHRAGMEN, Mode.CANDIDATE, 4),
    (PROFILE_13, Method.VAR_PHRAGMEN, Mode.PARTY, 5),
    (PROFILE_13_BUMPED, Method.VAR_PHRAGMEN, Mode.PARTY, 3),
    ("10 : A\n4 : B\n3 : C\n", Method.SAINTE_LAGUE, Mode.PARTY, 6),
    ("10 : A\n4 : B\n3 : C\n", Method.DHONDT, Mode.PARTY, 6),
]


def suite_elections():
    for text, method, mode, seats in ELECTION_MATRIX:
        profile = parse_profile(text)
        yield profile, run_election(profile, method, seats, mode=mode)
    rng = random.Random(SEED)
    for _ in range(25):
        profile = random_profile(rng, max_types=6, max_candidates=5)
        method = rng.choice([Method.VAR_PHRAGMEN, Method.SEQ_PHRAGMEN])
        mode = rng.choice([Mode.CANDIDATE, Mode.PARTY])
        cap = 5 if mode is Mode.PARTY else len(profile.candidates)
        seats = rng.randint(1, cap)
        yield profile, run_election(profile, method, seats, mode=mode)


def test_criterion_6_per_seat_invariants():
    """Unit seat mass, nonnegativity, common-level structure, load conservation,
    and winner optimality on every election in the suite."""
    count = 0
    for profile, result in suite_elections():
        verify_election(profile, result)
        count += 1
    assert report(
        "criterion 6 (per-seat invariants re-verified)", count >= 31,
        f"{count} elections verified",
    )


def test_criterion_7_variance_bookkeeping():
    """The recorded variance equals old squared-load mass + score - s*s/w, exactly."""
    checked = 0
    for profile, result in suite_elections():
        w = sum(t.weight for t in profile.types)
        for rec, loads, _ in seat_states(profile, result):
            old_sq = sum(
                t.weight * r * r for t, r in zip(profile.types, loads.values)
            )
            s = rec.seat_index
            assert rec.variance_after == old_sq + rec.solution.score - F(s * s) / w
            checked += 1
    assert report(
        "criterion 7 (variance bookkeeping identity)", checked > 0,
        f"{checked} seats checked",
    )


def test_criterion_8_sweep_smoke_and_control():
    """Float64 sweep at 1200 seats completes; exact zeta=0 control reproduces
    Sainte-Laguë shares sample by sample."""
    alphas = [F(k, 100) for k in range(101)]

    zeta = F(376, 1000)
    smoke = sweep_seat_share(
        two_party_family(zeta), alphas, seats=1200,
        backend=Backend.FLOAT64,
    )
    ok = len(smoke.points) == 101
    ok &= all(0 <= share <= 1 for share in smoke.shares)

    control_seats = 60
    control = sweep_seat_share(
        two_party_family(F(0)), alphas, seats=control_seats,
        backend=Backend.EXACT,
    )
    for alpha, share in control.points:
        votes = {
            name: weight
            for name, weight in (("A", alpha), ("B", 1 - alpha))
            if weight > 0
        }
        sequence = apportion_sequence(votes, control_seats, Method.SAINTE_LAGUE)
        ok &= share == F(sequence.count("A"), control_seats)
    assert report(
        "criterion 8 (sweep smoke + exact Sainte-Laguë control)", ok,
        "101 samples at 1200 seats; control at 60 seats",
    )


def test_criterion_9_scale_invariance():
    """Multiplying all weights by 2, 3 or 7/2 never changes a winner sequence."""
    rng = random.Random(SEED + 9)
    checked = 0
    for _ in range(50):
        profile = random_profile(rng, max_types=6, max_candidates=5)
        mode = rng.choice([Mode.CANDIDATE, Mode.PARTY])
        cap = 5 if mode is Mode.PARTY else len(profile.candidates)
        seats = rng.randint(1, cap)
        baseline = run_election(profile, Method.VAR_PHRAGMEN, seats, mode=mode).winners
        for c in (F(2), F(3), F(7, 2)):
            scaled = Profile(
                VoterType(t.weight * c, t.approvals) for t in profile.types
            )
            rerun = run_election(scaled, Method.VAR_PHRAGMEN, seats, mode=mode)
            assert rerun.winners == baseline
        checked += 1
    assert report(
        "criterion 9 (weight-scale invariance of winner sequences)",
        checked == 50,
        "50 profiles x 3 scale factors",
    )
