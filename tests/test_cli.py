import hashlib
import json
import random

import pytest

from varphragmen.analysis import random_profile
from varphragmen.cli import main
from varphragmen.model import parse_profile, render_profile

from conftest import PROFILE_12, PROFILE_13


@pytest.fixture
def p12_path(tmp_path):
    path = tmp_path / "p12.txt"
    path.write_text(PROFILE_12)
    return str(path)


@pytest.fixture
def p13_path(tmp_path):
    path = tmp_path / "p13.txt"
    path.write_text(PROFILE_13)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# elect

def test_elect_trace_table(capsys, p12_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--mode", "candidate", "--trace", p12_path,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].split() == ["1", "a1", "0.1000", "0.1000", "0.0000"]
    assert lines[2].split() == ["2", "b", "0.0000", "0.1750", "0.2750"]
    assert lines[3].split() == ["3", "a2", "0.1111", "0.0000", "0.0000"]


def test_elect_show_uncorrected(capsys, p12_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--show-uncorrected", p12_path,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[3].split() == ["3", "a2", "0.1175", "-0.0575", "0.0000", "*"]
    # the negativity marker appears at seat 3 and nowhere else
    assert not lines[1].endswith("*")
    assert not lines[2].endswith("*")


def test_elect_counts_table(capsys, p13_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--mode", "party", p13_path,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["A", "2"]
    assert lines[2].split() == ["B", "0"]
    assert lines[3].split() == ["C", "1"]


def test_elect_counts_csv(capsys, p13_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--mode", "party", "--format", "csv", p13_path,
    )
    assert code == 0
    assert out.splitlines()[0] == "Candidate,Seats"
    assert out.splitlines()[1] == "A,2"


def test_elect_trace_csv(capsys, p12_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--trace", "--format", "csv", p12_path,
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("Seat,Winner,")
    assert rows[3].startswith("3,a2,0.1111,0.0000,0.0000")


def test_elect_json_round_trip(capsys, p12_path, tmp_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--format", "json", p12_path,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "var-phragmen"
    assert payload["mode"] == "candidate"
    assert payload["seats"] == 3
    assert payload["counts"] == {"a1": 1, "a2": 1, "b": 1, "c": 0}
    rec3 = payload["records"][2]
    assert rec3["winner"] == "a2"
    assert rec3["x"] == ["1/9", "0", "0"]
    assert rec3["x_display"] == ["0.1111", "0.0000", "0.0000"]
    assert rec3["level"] == "19/90"
    assert rec3["score"] == "14/45"
    assert rec3["corrected"] is True
    assert payload["records"][0]["tied"] == ["a1", "a2"]

    # the embedded profile reproduces the identical run
    embedded = tmp_path / "embedded.txt"
    embedded.write_text(payload["profile"])
    code2, out2, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--format", "json", str(embedded),
    )
    assert code2 == 0
    assert json.loads(out2) == payload


def test_elect_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PROFILE_12))
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "1", "-",
    )
    assert code == 0
    assert "a1" in out


def test_elect_decimals_flag(capsys, p12_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--trace", "--decimals", "6", p12_path,
    )
    assert code == 0
    assert "0.111111" in out


def test_elect_exit_codes(capsys, p12_path, tmp_path):
    code, _, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "0", p12_path
    )
    assert code == 2
    assert "seats" in err

    code, _, err = run_cli(
        capsys, "probe", "--party", "a1", "--seats", "0", p12_path
    )
    assert code == 2
    assert "seats" in err

    code, _, err = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "0", "--alphas", "0:1:2"
    )
    assert code == 2
    assert "seats" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code, _, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "1", str(bad)
    )
    assert code == 2
    assert "line 1" in err

    code, _, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "1",
        str(tmp_path / "missing.txt"),
    )
    assert code == 2

    code, _, _ = run_cli(capsys, "elect", "--method", "bogus", "--seats", "1", p12_path)
    assert code == 2


# ---------------------------------------------------------------------------
# probe

def test_probe_violated(capsys, p13_path):
    code, out, _ = run_cli(
        capsys, "probe", "--party", "A", "--seats", "3", "--delta", "1", p13_path
    )
    assert code == 0
    assert "2 -> 1" in out
    assert "VIOLATED" in out


def test_probe_default_delta_and_ok(capsys, tmp_path):
    path = tmp_path / "closed.txt"
    path.write_text("10 : A\n5 : B\n")
    code, out, _ = run_cli(capsys, "probe", "--party", "A", "--seats", "2", str(path))
    assert code == 0
    assert "OK" in out
    assert "delta 1" in out


def test_probe_unknown_party(capsys, p13_path):
    code, _, err = run_cli(
        capsys, "probe", "--party", "Z", "--seats", "3", p13_path
    )
    assert code == 3
    assert "unknown party" in err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", "0:1:2",
        "--backend", "exact",
    )
    assert code == 0
    assert out.splitlines() == ["alpha,share", "0.0,0.0", "0.5,0.5", "1.0,1.0"]


def test_sweep_to_file(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--zeta", "0.5", "--seats", "3", "--alphas", "0:1:4",
        "--backend", "exact", "--out", str(target),
    )
    assert code == 0
    assert "5 samples" in out
    lines = target.read_text().splitlines()
    assert lines[0] == "alpha,share"
    assert len(lines) == 6


def test_sweep_malformed_alphas(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", "0..1"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", "1:0:5"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# check

def test_check_closed_list_equiv(capsys):
    code, out, _ = run_cli(
        capsys, "check", "closed-list-equiv", "--seed", "7", "--trials", "20"
    )
    assert code == 0
    assert "20/20 OK" in out


def test_check_oracle_agreement(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "check", "oracle-agreement", "--seed", "7", "--trials", "10",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "agree" in out
    assert list(tmp_path.iterdir()) == []  # nothing to save when all agree


def test_check_bogus_subcommand(capsys):
    assert run_cli(capsys, "check", "bogus")[0] == 2


def test_check_zero_trials(capsys):
    assert run_cli(capsys, "check", "closed-list-equiv", "--trials", "0")[0] == 2


def test_cli_output_is_deterministic(capsys, p12_path):
    args = ("elect", "--method", "var-phragmen", "--seats", "3", "--format",
            "json", p12_path)
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# golden bytes

#: SHA-256 over the ``elect`` runs of :func:`golden_runs`, pinned so that a
#: refactor cannot change any output byte, error text or exit code unnoticed.
GOLDEN_ELECT_SHA256 = (
    "de27742a9959dba70cd27d2199ba967265030cb1d41bd730614993aa188eb8cc"
)


def golden_runs(tmp_path):
    rng = random.Random(20260810)
    # the closed-list profile is the only one the highest-averages methods
    # accept; every other profile pins their exit-3 error text
    texts = [PROFILE_12, PROFILE_13, "10 : A\n5 : B\n3 : C\n2 : A\n"]
    texts += [render_profile(random_profile(rng)) for _ in range(5)]
    for idx, text in enumerate(texts):
        path = tmp_path / f"golden-{idx}.txt"
        path.write_text(text)
        n_candidates = len(parse_profile(text).candidates)
        for method in ("var-phragmen", "seq-phragmen", "sainte-lague", "dhondt"):
            for mode, seats in (("candidate", n_candidates), ("party", 6)):
                for backend in ("exact", "float64"):
                    for fmt in (
                        ("--format", "json"),
                        ("--trace", "--format", "csv"),
                        ("--show-uncorrected",),
                    ):
                        yield (
                            "elect", "--method", method, "--mode", mode,
                            "--seats", str(seats), "--backend", backend, *fmt,
                            str(path),
                        )


def test_elect_golden_bytes(capsys, tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for argv in golden_runs(tmp_path):
        code, out, err = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
        runs += 1
    assert runs == 8 * 4 * 2 * 2 * 3
    assert digest.hexdigest() == GOLDEN_ELECT_SHA256
