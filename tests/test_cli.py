import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import varphragmen.analysis
from varphragmen.analysis import random_closed_list_profile
from varphragmen.analysis import random_profile, replay_record
from varphragmen.cli import CAMPAIGNS, main
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


def test_a_byte_order_mark_reads_as_the_plain_profile(capsys, monkeypatch, tmp_path):
    # some Windows editors start a UTF-8 file with U+FEFF; the README's
    # profile.txt saved that way prints what the plain file prints
    text = readme_examples()[0]["profile.txt"]
    plain, marked = tmp_path / "profile.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    argv = ("elect", "--method", "var-phragmen", "--seats", "3", "--trace")
    expected = run_cli(capsys, *argv, str(plain))
    assert expected[0] == 0 and expected[1]
    assert run_cli(capsys, *argv, str(marked)) == expected
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
    assert run_cli(capsys, *argv, "-") == expected


def test_elect_decimals_flag(capsys, p12_path):
    code, out, _ = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--trace", "--decimals", "6", p12_path,
    )
    assert code == 0
    assert "0.111111" in out
    # past the interpreter's 4300-digit limit for int-to-str conversion
    code, out, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "2",
        "--trace", "--decimals", "4400", p12_path,
    )
    assert (code, err) == (0, "")
    rows = [line.split() for line in out.splitlines()[1:]]
    zeros = "0" * 4397
    assert rows[1][2:] == ["0.000" + zeros, "0.175" + zeros, "0.275" + zeros]


def test_elect_on_a_weight_past_the_int_digit_limit(capsys, tmp_path):
    path = tmp_path / "huge-weight.txt"
    path.write_text("1" * 5000 + " : a\n1 : a, b\n")
    code, out, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "2",
        "--format", "json", str(path),
    )
    assert (code, err) == (0, "")
    assert [rec["winner"] for rec in json.loads(out)["records"]] == ["a", "b"]


@pytest.mark.parametrize("output", [["--format", "json"], []])
def test_a_float64_score_that_overflows_exits_3(capsys, tmp_path, output):
    # the weight 1/10**300 and its reciprocal fit in float64, but the first
    # seat's share 10**300 squares to inf; the json run records the seat, the
    # default table counts it without a record, and both refuse it
    path = tmp_path / "tiny-weight.txt"
    path.write_text(f"1/{10**300} : a\n")
    code, out, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "1",
        "--backend", "float64", *output, str(path),
    )
    assert (code, out) == (3, "")
    assert err == "error: seat 1: float64 score is inf; use --backend exact\n"


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

    code, _, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "x", p12_path
    )
    assert code == 2
    assert "not an integer: 'x'" in err

    # numbers are ASCII digits: an Arabic-Indic three or half, a fullwidth
    # two, each refused with the message a non-number gets
    arabic = tmp_path / "arabic.txt"
    arabic.write_text("\u0663 : a\n", encoding="utf-8")
    for argv, message in [
        (("elect", "--method", "var-phragmen", "--seats", "1", str(arabic)),
         "line 1: weight must be an integer or p/q, got '\u0663'"),
        (("elect", "--method", "var-phragmen", "--seats", "\u0663", p12_path),
         "argument --seats: not an integer: '\u0663'"),
        (("elect", "--method", "var-phragmen", "--seats", "1", "--decimals", "\uff12",
          p12_path), "argument --decimals: not an integer: '\uff12'"),
        (("probe", "--party", "a1", "--seats", "1", "--delta", "\u0661/\u0662", p12_path),
         "argument --delta: not a rational number: '\u0661/\u0662'"),
        (("sweep", "--zeta", "0", "--seats", "2", "--alphas", "0:1:\u0663"),
         "argument --alphas: invalid literal for int() with base 10: '\u0663'"),
        (("sweep", "--zeta", "0", "--seats", "2", "--alphas", "0:1:x"),
         "argument --alphas: invalid literal for int() with base 10: 'x'"),
        (("sweep", "--zeta", "0.\u0663", "--seats", "2", "--alphas", "0:1:2"),
         "argument --zeta: not a rational number: '0.\u0663'"),
        (("check", "closed-list-equiv", "--seed", "\u0663", "--trials", "1"),
         "argument --seed: invalid int value: '\u0663'"),
        (("check", "oracle-agreement", "--seed", "x", "--trials", "1"),
         "argument --seed: invalid int value: 'x'"),
        (("check", "oracle-agreement", "--seed", "1", "--trials", "\u0663"),
         "argument --trials: not an integer: '\u0663'"),
        # integers follow parse_rational's rules: no underscores
        (("elect", "--method", "var-phragmen", "--seats", "1_0", p12_path),
         "argument --seats: not an integer: '1_0'"),
        (("elect", "--method", "var-phragmen", "--seats", "1", "--decimals", "1_0",
          p12_path), "argument --decimals: not an integer: '1_0'"),
        (("check", "oracle-agreement", "--seed", "1", "--trials", "1_0"),
         "argument --trials: not an integer: '1_0'"),
        (("check", "closed-list-equiv", "--seed", "1_0", "--trials", "1"),
         "argument --seed: invalid int value: '1_0'"),
        (("sweep", "--zeta", "0", "--seats", "2", "--alphas", "0:1:1_0"),
         "argument --alphas: invalid literal for int() with base 10: '1_0'"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv

    # a sign and surrounding whitespace still read, as in parse_rational
    signed = run_cli(capsys, "elect", "--method", "var-phragmen", "--seats", " +3 ", p12_path)
    assert signed == run_cli(capsys, "elect", "--method", "var-phragmen", "--seats", "3", p12_path)

    # JSON carries no uncorrected shares: a usage error, not a silent drop
    code, out, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "3",
        "--format", "json", "--show-uncorrected", p12_path,
    )
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert "--show-uncorrected" in line and "--format json" in line

    code, _, err = run_cli(
        capsys, "probe", "--party", "a1", "--seats", "1", "--delta", "abc", p12_path
    )
    assert code == 2
    assert "--delta" in err

    # float64 cannot represent these weights, their total, the reciprocal of
    # a subnormal weight (whichever name comes first), or the scores they
    # lead to
    zeros = "0" * 400
    huge = f"1{zeros[:308]}"
    party = ("--mode", "party")
    for text, seats, fmt in (
        (f"1{zeros} : a\n1 : b\n", "1", ()),
        (f"1/1{zeros} : a\n1 : b\n", "1", ()),
        (f"1/1{zeros[:320]} : a\n1 : b\n", "2", party),
        (f"1/1{zeros[:320]} : b\n1 : a\n", "2", party),
        (f"1/1{zeros[:300]} : a\n1 : b\n", "2", ("--format", "json")),
        (f"{huge} : a\n{huge} : b\n", "2", ("--format", "json")),
        (f"{huge} : a, b\n{huge} : a, b\n", "2", ()),
    ):
        path = tmp_path / "unrepresentable.txt"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "elect", "--method", "var-phragmen", "--seats", seats,
            "--backend", "float64", *fmt, str(path),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "--backend exact" in err


def test_process_exit_codes(p12_path, tmp_path):
    # the real process: entrypoint() and the __main__ guard turn main()'s
    # return value into the exit status
    src = str(Path(varphragmen.analysis.__file__).parents[1])

    def elect(*argv):
        return subprocess.run(
            [sys.executable, "-m", "varphragmen.cli", "elect",
             "--method", "var-phragmen", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
        ).returncode

    assert elect("--seats", "3", p12_path) == 0
    assert elect("--seats", "3", str(tmp_path / "missing.txt")) == 2
    assert elect("--seats", "9", p12_path) == 3


def test_elect_huge_values_render(capsys, tmp_path):
    path = tmp_path / "tiny-weight.txt"
    path.write_text("1/10000000000000000000000000000000000000000 : a\n")
    for fmt in (("--trace",), ("--format", "json")):
        code, out, err = run_cli(
            capsys, "elect", "--method", "var-phragmen", "--seats", "1", *fmt,
            str(path),
        )
        assert (code, err) == (0, "")
        assert "1" + "0" * 40 + ".0000" in out



def test_elect_json_past_the_int_digit_limit(capsys, tmp_path):
    # two 4001-digit weights make loads with 8000-digit numerators, past the
    # interpreter's default limit for converting an int to str
    n1, n2 = 10**4000 + 1, 10**4000 + 3
    path = tmp_path / "huge-denominators.txt"
    path.write_text(f"1/{n1} : a\n1/{n2} : a, b\n")
    code, out, err = run_cli(
        capsys, "elect", "--method", "var-phragmen", "--seats", "2",
        "--format", "json", str(path),
    )
    assert (code, err) == (0, "")
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        level = str(Fraction(n1 * n2, n1 + n2))
    finally:
        sys.set_int_max_str_digits(default)
    assert json.loads(out)["records"][0]["level"] == level


def readme_examples():
    """The README's profile files, by name, and its ``$ varphragmen`` commands.

    A ``text`` block whose first line reads ``# <name>: ...`` is the file
    ``<name>``.  Each ``elect`` or ``probe`` command comes with the lines
    shown under it, up to the next blank, comment or command line.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    files = {}
    for block in re.findall(r"```text\n(.*?)```", readme, re.S):
        files[block.split(":", 1)[0].removeprefix("# ")] = block
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith(("$ varphragmen elect", "$ varphragmen probe")):
                continue
            shown = []
            for out in lines[i + 1:]:
                if not out or out.startswith(("#", "$")):
                    break
                shown.append(out)
            commands.append((shlex.split(line)[2:], shown))
    return files, commands


def test_readme_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    files, commands = readme_examples()
    assert set(files) == {"profile.txt", "party.txt"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    shown = [(argv, lines) for argv, lines in commands if lines]
    assert len(shown) == 4
    for argv, lines in shown:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines, argv


def test_readme_library_examples_run_and_show_what_they_say(capsys):
    # the two python blocks of the Library section run in one namespace, in
    # order, and give the values their comments show
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    out = capsys.readouterr().out
    result = namespace["result"]
    assert result.winners == ("a1", "b", "a2")
    assert result.records[2].solution.x == (Fraction(1, 9), 0, 0)
    assert result.records[2].solution.corrected is True
    assert out.splitlines()[0].startswith("1 a1 {'a1': Fraction(1, 10), ")


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


def test_probe_delta_past_the_int_digit_limit(capsys, p12_path):
    ones = "1" * 5000
    argv = ["probe", "--party", "b", "--seats", "2", "--delta", f"1/{ones}", p12_path]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == f"b: 1 -> 1 of 2 seats (delta 1/{ones}) OK\n"


def test_probe_negative_delta_past_the_int_digit_limit(capsys, p12_path):
    ones = "1" * 5000
    argv = ["probe", "--party", "b", "--seats", "2", "--delta", f"-{ones}", p12_path]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"delta must be nonnegative, got -{ones}" in err


def test_probe_unknown_party(capsys, p13_path):
    code, _, err = run_cli(
        capsys, "probe", "--party", "Z", "--seats", "3", p13_path
    )
    assert code == 3
    assert "unknown party" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--party", "A", "--seats", "3", "--delta", "1_000", "PROFILE"],
        ["sweep", "--zeta", "0.37_6", "--seats", "2", "--alphas", "0:1:2"],
        ["sweep", "--zeta", "47 / 125", "--seats", "2", "--alphas", "0:1:2"],
    ],
    ids=["delta-underscore", "zeta-underscore", "zeta-spaced-slash"],
)
def test_rational_options_read_one_grammar_on_every_python(capsys, p13_path, argv):
    # Fraction reads underscores from Python 3.11 on, spaces around / from 3.12
    argv = [p13_path if arg == "PROFILE" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not a rational number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--zeta", "1e30000000", "--seats", "2", "--alphas", "0:1:1"],
        ["sweep", "--zeta", "0.5", "--seats", "2", "--alphas", "0:1e30000000:1"],
        ["probe", "--party", "A", "--seats", "3", "--delta", "1e30000000", "PROFILE"],
    ],
    ids=["zeta", "alphas", "delta"],
)
def test_a_long_exponent_exits_2_at_once(capsys, p13_path, argv):
    # 10**30000000 alone takes minutes: an exponent of more than four digits
    # is refused before any power is built
    argv = [p13_path if arg == "PROFILE" else arg for arg in argv]
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 1
    assert code == 2
    assert out == ""
    assert "not a rational number: '1e30000000'" in err


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


def test_sweep_zeta_decimal_past_the_int_digit_limit(capsys):
    zeta = "0." + "1" * 5000
    code, out, _ = run_cli(
        capsys, "sweep", "--zeta", zeta, "--seats", "2", "--alphas", "0:1:2"
    )
    assert code == 0
    assert out == "alpha,share\n0.0,0.0\n0.5,0.5\n1.0,1.0\n"


ONES = "1" * 5000


@pytest.mark.parametrize(
    "zeta, alphas, message",
    [
        (ONES, "0:1:2", f"zeta must lie in [0, 1), got {ONES}"),
        ("0", f"0:{ONES}:2", f"alpha must lie in [0, 1], got {ONES}"),
    ],
    ids=["zeta", "alphas"],
)
def test_sweep_out_of_range_past_the_int_digit_limit(capsys, zeta, alphas, message):
    code, _, err = run_cli(
        capsys, "sweep", "--zeta", zeta, "--seats", "2", "--alphas", alphas
    )
    assert code == 2
    assert message in err


def test_sweep_unwritable_out(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", "0:1:2",
        "--out", str(tmp_path / "missing" / "sweep.csv"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "sweep.csv" in err


def test_sweep_malformed_alphas(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", "0..1"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", "1:0:5"
    )
    assert code == 2
    for alphas in ("a:1:2", "0:1:0"):
        code, _, _ = run_cli(
            capsys, "sweep", "--zeta", "0", "--seats", "2", "--alphas", alphas
        )
        assert code == 2


# ---------------------------------------------------------------------------
# check

def test_check_closed_list_equiv(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "check", "closed-list-equiv", "--seed", "7", "--trials", "20",
        "--out", str(tmp_path / "records"),
    )
    assert (code, out) == (0, "closed-list-equiv: 20/20 OK\n")
    assert not (tmp_path / "records").exists()  # created only to save findings


def test_check_oracle_agreement(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "check", "oracle-agreement", "--seed", "7", "--trials", "10",
        "--out", str(tmp_path / "records"),
    )
    assert code == 0
    assert "agree" in out
    assert not (tmp_path / "records").exists()  # nothing to save when all agree


def skew_waterfill(monkeypatch):
    """Raise water-filling's level by one for candidate ``A``."""
    waterfill = varphragmen.analysis.waterfill_solution

    def skewed(sub):
        sol = waterfill(sub)
        return replace(sol, level=sol.level + 1) if sub.candidate == "A" else sol

    monkeypatch.setattr(varphragmen.analysis, "waterfill_solution", skewed)


def reverse_apportionment(monkeypatch):
    """Reverse every highest-averages sequence."""
    apportion = varphragmen.analysis.apportion_sequence
    monkeypatch.setattr(
        varphragmen.analysis,
        "apportion_sequence",
        lambda *args: apportion(*args)[::-1],
    )


#: Per campaign: how to force findings, the trials at seed 3, the exit code
#: on findings, the lines printed before the saved paths, and the stem of
#: each saved record's name.
FORCED_FINDINGS = {
    # a disagreement is a finding, not a failure
    "oracle-agreement": (skew_waterfill, "4", 0, [
        "oracle-agreement: 9/18 solver comparisons agree over 4 trials",
        "found 9 disagreement(s):",
    ], "oracle-disagreement"),
    "closed-list-equiv": (reverse_apportionment, "5", 1, [
        "closed-list-equiv: 0/5 OK, 9 failing sequence pair(s)",
    ], "closed-list-failure"),
}


@pytest.mark.parametrize("campaign", CAMPAIGNS)
def test_check_saves_findings(capsys, tmp_path, monkeypatch, campaign):
    perturb, trials, exit_code, head, stem = FORCED_FINDINGS[campaign]
    perturb(monkeypatch)
    code, out, _ = run_cli(
        capsys, "check", campaign, "--seed", "3", "--trials", trials,
        "--out", str(tmp_path),
    )
    assert code == exit_code
    saved = sorted(tmp_path.iterdir())
    assert [p.name for p in saved] == [f"{stem}-{idx:03d}.json" for idx in range(1, 10)]
    assert out.splitlines() == head + [f"saved {p}" for p in saved]
    records = [json.loads(p.read_text()) for p in saved]
    assert [p.read_text() for p in saved] == [json.dumps(r, indent=2) for r in records]
    assert all(replay_record(r)["matches_recorded"] for r in records)
    monkeypatch.undo()
    assert not any(replay_record(r)["matches_recorded"] for r in records)


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


#: SHA-256 over the runs of :func:`other_golden_runs` and the profiles drawn by
#: the random generators, pinning ``probe``, ``sweep``, ``check`` and the
#: campaign generators the way :data:`GOLDEN_ELECT_SHA256` pins ``elect``.
GOLDEN_OTHER_SHA256 = (
    "f025f4e7318eb8dc4bbd9dfcc528b8ff52cdf56d714b92d683a7443be166486b"
)


def other_golden_runs(tmp_path):
    path = tmp_path / "p13.txt"
    path.write_text(PROFILE_13)
    for delta in ("0", "1", "5/2"):
        yield ("probe", "--party", "A", "--seats", "3", "--delta", delta, str(path))
    for backend in ("exact", "float64"):
        yield ("sweep", "--zeta", "376/1000", "--seats", "40", "--alphas", "0:1:10",
               "--backend", backend)
    for campaign in ("closed-list-equiv", "oracle-agreement"):
        yield ("check", campaign, "--seed", "20260810", "--trials", "40",
               "--out", str(tmp_path / "records"))


def test_other_commands_golden_bytes(capsys, tmp_path):
    digest = hashlib.sha256()
    for argv in other_golden_runs(tmp_path):
        code, out, err = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    rng = random.Random(20260810)
    for draw in range(5):
        generate = random_closed_list_profile if draw % 2 else random_profile
        digest.update(render_profile(generate(rng)).encode())
    assert not (tmp_path / "records").exists()
    assert digest.hexdigest() == GOLDEN_OTHER_SHA256
