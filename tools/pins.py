"""CI's pinned runs: the recorded SHA-256 of each pinned CLI output, and the checks beside them.

Run from anywhere, with any of the groups ``campaigns``, ``sparse``,
``twoparty``, ``sweep`` and ``bench``:

    python tools/pins.py campaigns sparse twoparty

A *pin* is the SHA-256 of one command's output, recorded in ``PINS``.  Every
command runs as ``python -m varphragmen.cli ...`` in a child process with
``PYTHONPATH=src``, and its output is its stdout, or the file it writes with
``--out``.  The script prints one line per pin and per check, then one line
with the group's wall time, ``<group>: <seconds> s``, and exits 1 if any
failed.  It uses the standard library and the package in ``src`` only.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from varphragmen import parse_profile, parse_rational, render_profile, two_party_family  # noqa: E402

#: In a pin's argv, the path its input is written to, and the path a
#: command that writes its output with ``--out`` writes it to.  A command
#: with ``-`` in its argv reads its input on stdin instead.
IN, OUT = "{in}", "{out}"

SEATS = 1200
ALPHAS = (31, 37, 45)
CAMPAIGN_SEED = "20260810"
CLOSED_LINE = "closed-list-equiv: 500/500 OK"
ORACLE_LINE = "oracle-agreement: 5485/5485 solver comparisons agree over 500 trials"


@functools.cache
def _sparse_text() -> str:
    """perfbench's sparse profile, from perfbench's own recipe."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.sparse_profile_text(int(CAMPAIGN_SEED))


def _sparse_fractions_text() -> str:
    """The sparse profile with every odd line's weight ``w`` written as ``2w/2``."""
    lines = _sparse_text().splitlines()
    for i in range(0, len(lines), 2):
        weight, sep, approvals = lines[i].partition(" : ")
        lines[i] = f"{2 * int(weight)}/2{sep}{approvals}"
    return "\n".join(lines) + "\n"


def _twoparty_text(alpha: int) -> str:
    """The paper's two-party profile at zeta = 0.376 and the given alpha/100."""
    family = two_party_family(Fraction(376, 1000))
    return render_profile(family(Fraction(alpha, 100)))


#: Each input by name: the text a pin's command reads.
INPUTS = {
    "sparse": _sparse_text,
    "sparse-tabs": lambda: _sparse_text().replace(", ", "\t"),
    "sparse-fractions": _sparse_fractions_text,
    **{f"twoparty-{a}": functools.partial(_twoparty_text, a) for a in ALPHAS},
}


class Pin(NamedTuple):
    name: str
    group: str
    argv: tuple[str, ...]
    input: str | None
    sha256: str


def _elect(method: str, mode: str, seats: int, *backend: str, source: str = IN) -> tuple[str, ...]:
    return ("elect", "--method", method, "--mode", mode, "--seats", str(seats), *backend,
            "--format", "json", source)


def _sweep(backend: str) -> tuple[str, ...]:
    return ("sweep", "--zeta", "0.376", "--seats", str(SEATS), "--alphas", "0:1:100",
            "--backend", backend, "--out", OUT)


def _twoparty(alpha: int, backend: str, sha256: str) -> Pin:
    argv = _elect("var-phragmen", "party", SEATS, "--backend", backend)
    return Pin(f"twoparty-{alpha}-{backend}", "twoparty", argv, f"twoparty-{alpha}", sha256)


PINS = (
    # sparse: perfbench's profile (2000 voter types over c000..c199, weights
    # 1-100, 1-3 distinct approvals, random.Random(20260810)), 60 seats
    # elected by seq-Phragmen in candidate mode and by var-Phragmen in party
    # and in candidate mode, in both backends. The exact digests were
    # recorded from the eager selection, which solved every candidate at
    # every seat, so they pin the lazy selection, which skips the candidates
    # whose bound rules them out, byte for byte. The float64 runs pin to
    # every bit the bounds that a seat resets when it moves a supporter;
    # var-Phragmen in candidate mode is where those bounds skip the most
    # candidates. The tab run reads the profile on stdin with every ", "
    # turned into a tab, which must split into the same names, and the
    # fraction run reads it with every odd line's weight w written as 2w/2,
    # which must parse to the same reduced weights: the JSON's profile is
    # rendered from the parsed types, so both have sparse-seq's digest.
    # The same digests on 3.10.13, 3.11.7, 3.12.1 and 3.13. Each run takes
    # about 0.15 s on 3.11.7 (2 CPUs), the group about 1.4 s.
    Pin("sparse-seq", "sparse", _elect("seq-phragmen", "candidate", 60), "sparse",
        "ababdba8103aa107f6b201d0d45cfaa1a93f425dfebe0b47254d7c71a43d4606"),
    Pin("sparse-seq-tabs", "sparse", _elect("seq-phragmen", "candidate", 60, source="-"),
        "sparse-tabs", "ababdba8103aa107f6b201d0d45cfaa1a93f425dfebe0b47254d7c71a43d4606"),
    Pin("sparse-seq-fractions", "sparse", _elect("seq-phragmen", "candidate", 60), "sparse-fractions",
        "ababdba8103aa107f6b201d0d45cfaa1a93f425dfebe0b47254d7c71a43d4606"),
    Pin("sparse-var", "sparse", _elect("var-phragmen", "party", 60), "sparse",
        "1a6e8a6e57da34296190fb9eccf8496e9dc2a4233577431325d65562f7284b27"),
    Pin("sparse-var-candidate", "sparse", _elect("var-phragmen", "candidate", 60), "sparse",
        "d5db77487f7f0e68889c7e46e5d56f122797ac1b401f7d7e0bf5187361592507"),
    Pin("sparse-seq-float64", "sparse",
        _elect("seq-phragmen", "candidate", 60, "--backend", "float64"), "sparse",
        "4576fbbda2d1311e35827c7589e8828057d3b9cef991203226004bb68c4909ab"),
    Pin("sparse-var-float64", "sparse",
        _elect("var-phragmen", "party", 60, "--backend", "float64"), "sparse",
        "11dd3ac0e2ae86d839aa6faae741d7e627c96999fbd9b94163bb7ce4e8da9bae"),
    Pin("sparse-var-candidate-float64", "sparse",
        _elect("var-phragmen", "candidate", 60, "--backend", "float64"), "sparse",
        "11164ed3eb0f85e7754abbd10233cdfed6d7fba2242f67bba78b3ac24f6a6c1a"),
    # twoparty: 1200 seats of the two-party profile (zeta = 0.376, party
    # mode) at alpha = 31/100, 37/100 and 9/20, in both backends. The exact
    # rationals outgrow the interpreter's 4300-digit limit for int-to-str
    # conversion; the digests pin every exact rational and every float64 bit
    # of the float lane byte for byte, the same on 3.10.13, 3.11.7, 3.12.1
    # and 3.13. On 3.11.7 (2 CPUs) the exact runs take about 1.5, 2.6 and
    # 1.8 s, each float64 run about 0.17 s, the group with its checks about
    # 7 s.
    _twoparty(31, "exact", "7976f98d686a186668445233fe5254ef480d81ecebf11a7068cdc9ae8063d0ed"),
    _twoparty(37, "exact", "8cf3316aa764d69c83a2892303c1caf321f94ab96998b09c37b23be78f12cf9e"),
    _twoparty(45, "exact", "079c5acf4347f3fb5c0c6261749ad4aa5a2d11be6e751cff5c06da90717bfa46"),
    _twoparty(31, "float64", "17190a573d52d4009a462faa5dc4077b934545a5eb9f9a6e79f9732c9fbac70d"),
    _twoparty(37, "float64", "566384a93c35044299c48c5541c046ab9e6ff59bf9ebef98277d0fe00253db7f"),
    _twoparty(45, "float64", "fb8f7f1a77959b0054296dce66728fb0fbfec87ef3e5c4fe049d83b68ab4b3a8"),
    # sweep: the paper's seat-share curve (zeta = 0.376, party mode, 1200
    # seats) at every alpha = k/100, exact, recorded on 3.11.7; its runs
    # count the seats without recording them. The group, this run and the
    # float64 one it is compared with, took 18 s on 3.11.7 (2 CPUs), the
    # exact run 15 s of it.
    Pin("sweep-exact", "sweep", _sweep("exact"), None,
        "f2db1fd0f7c831545be84a455e3b895b28b15391d2ee740553cc47e749b4ed8d"),
)


def _cli(argv: tuple[str, ...], tmp: Path, text: str | None = None) -> tuple[int, bytes]:
    """Run ``varphragmen.cli`` on ``argv``; its exit code and its output."""
    path, out = tmp / "input.txt", tmp / "output"
    out.unlink(missing_ok=True)
    if text is not None and IN in argv:
        path.write_text(text)
    args = [str(path) if a == IN else str(out) if a == OUT else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "varphragmen.cli", *args],
        input=text.encode() if "-" in argv else None,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
    )
    if OUT in argv:
        return proc.returncode, out.read_bytes() if out.exists() else b""
    return proc.returncode, proc.stdout


def _report(name: str, ok: bool, why: str = "") -> bool:
    print(f"{name}: ok" if ok else f"{name}: FAIL {why}", flush=True)
    return ok


def run_pins(pins, tmp: Path) -> tuple[bool, dict[str, bytes]]:
    """Run each pin's command; whether every digest matched, and the outputs by name."""
    ok, outputs = True, {}
    for pin in pins:
        text = INPUTS[pin.input]() if pin.input else None
        code, outputs[pin.name] = _cli(pin.argv, tmp, text)
        got = hashlib.sha256(outputs[pin.name]).hexdigest()
        why = f"exit {code}" if code else f"got {got} expected {pin.sha256}"
        ok &= _report(pin.name, code == 0 and got == pin.sha256, why)
    return ok, outputs


def _check_twoparty(outputs: dict[str, bytes], tmp: Path) -> bool:
    """Both backends elect the same winners; the exact loads carry 1200 seats."""
    ok = True
    for alpha in ALPHAS:
        try:
            exact, float64 = (json.loads(outputs[f"twoparty-{alpha}-{b}"]) for b in ("exact", "float64"))
        except ValueError:
            ok = _report(f"twoparty-{alpha} checks", False, "an output is not JSON")
            continue
        winners = [[rec["winner"] for rec in run["records"]] for run in (exact, float64)]
        ok &= _report(f"twoparty-{alpha} winners", winners[0] == winners[1], "exact != float64")
        counted = sum(exact["counts"].values())
        ok &= _report(f"twoparty-{alpha} counts", counted == SEATS, f"sum to {counted}")
        # only the last record is parsed, as all 10,800 cells take seconds
        loads = [parse_rational(cell) for cell in exact["records"][-1]["loads_after"]]
        weights = [t.weight for t in parse_profile(INPUTS[f"twoparty-{alpha}"]()).types]
        mass = sum(u * r for u, r in zip(weights, loads, strict=True))
        ok &= _report(f"twoparty-{alpha} mass", mass == SEATS, f"{mass} != {SEATS}")
    return ok


def _check_sweep(outputs: dict[str, bytes], tmp: Path) -> bool:
    """The float64 sweep's CSV is byte-identical to the exact one."""
    code, float64 = _cli(_sweep("float64"), tmp)
    same = code == 0 and float64 == outputs["sweep-exact"]
    return _report("sweep exact == float64", same, f"exit {code}" if code else "CSVs differ")


def _check_campaigns(outputs: dict[str, bytes], tmp: Path) -> bool:
    """The closed-list claim and the three solvers' agreement (0.5 and 0.8 s on 3.11.7).

    The closed-list campaign runs var- and seq-Phragmen, with their
    bound-driven selection, against Sainte-Lague and D'Hondt, and exits 1 on
    a mismatch. The oracle campaign runs at a seed the tier-1 campaign does
    not use, and exits 0 on a disagreement. Each writes records only on a
    finding, into a directory under ``tmp``, so each passes only if it exits
    0, prints its line (all 500 trials, or all 5485 comparisons, agreeing)
    and writes no records.
    """
    ok = True
    for name, argv, line in (
        ("closed-list-equiv", ("--seed", CAMPAIGN_SEED), CLOSED_LINE),
        ("oracle-agreement", ("--seed", "7"), ORACLE_LINE),
    ):
        records = tmp / name
        code, stdout = _cli(("check", name, *argv, "--trials", "500", "--out", str(records)), tmp)
        agree = line in stdout.decode().splitlines()
        why = f"exit {code}, {stdout.decode().strip()!r}, records written: {records.exists()}"
        ok &= _report(name, (code, agree, records.exists()) == (0, True, False), why)
    return ok


def _check_bench(outputs: dict[str, bytes], tmp: Path) -> bool:
    """Every benchmark workload's output at full size against perfbench/reference.json
    (about 13 s on 3.11.7)."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--seconds", "1"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT)
    lines = proc.stdout.decode().splitlines()
    correct = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"] is True
    return _report("bench", correct, f"exit {proc.returncode}")


GROUPS = ("campaigns", "sparse", "twoparty", "sweep", "bench")

#: The checks a group runs after its pins; the sparse group has none.
CHECKS = {
    "campaigns": _check_campaigns,
    "twoparty": _check_twoparty,
    "sweep": _check_sweep,
    "bench": _check_bench,
}


def run_group(group: str) -> bool:
    """Run ``group``'s pins and checks, then print its wall time."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        ok, outputs = run_pins([pin for pin in PINS if pin.group == group], Path(tmp))
        check = CHECKS.get(group)
        ok = (check(outputs, Path(tmp)) if check else True) and ok
    print(f"{group}: {time.perf_counter() - start:.1f} s", flush=True)
    return ok


def main(argv: list[str]) -> int:
    if not argv or any(group not in GROUPS for group in argv):
        print(f"usage: python tools/pins.py GROUP...  (groups: {', '.join(GROUPS)})", file=sys.stderr)
        return 2
    results = [run_group(group) for group in argv]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
