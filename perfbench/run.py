"""Benchmark of the varphragmen package, driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-exact --seed 20260810 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures an
untraced and then a traced phase of equal length and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn, each in its own
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each workload runs in
one process and one thread, in a closed loop with a single caller.  Time
metrics are scaled to a fixed machine speed with a calibration kernel (see
``CALIBRATION_REF_S``); the unscaled wall times are printed too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from tracing import Tracer, per_layer_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed  # noqa: E402

#: An untraced run sets up at least ``SETUP_REPEATS`` times, and more while
#: set-up has taken under ``SETUP_BUDGET_S`` in total (at most
#: ``SETUP_MAX_REPEATS``), so that a cheap set-up gets a steady median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 20

#: Time metrics are given at a fixed machine speed: each measured time is
#: multiplied by ``CALIBRATION_REF_S`` over the time the calibration kernel
#: takes next to it.  The machine is shared, and its speed drifts by up to
#: 1.7x over tens of seconds; the unscaled wall times are printed and
#: recorded as well.
CALIBRATION_REF_S = 0.002
CALIBRATE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "seats_per_s": "seats/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MiB",
}


def load_package():
    """Import ``varphragmen`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "varphragmen" or n.startswith("varphragmen.")]:
        del sys.modules[name]
    pkg = importlib.import_module("varphragmen")
    importlib.import_module("varphragmen.cli")
    if src not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"varphragmen was imported from {pkg.__file__}, not {src}")
    return pkg


@dataclass
class Phase:
    """Outcome of the timed ops of one phase."""

    times: list[float] = field(default_factory=list)
    #: Per op, ``CALIBRATION_REF_S`` over the kernel time next to the op.
    factors: list[float] = field(default_factory=list)
    seats: int = 0
    failures: list[str] = field(default_factory=list)
    pass_digests: list[str] = field(default_factory=list)
    json_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.times, self.factors)]


def calibration_kernel():
    """Fixed stdlib work of the package's kind: small rationals, dicts, tuples, sorting."""
    acc = Fraction(0)
    table: dict[str, int] = {}
    rows = []
    for i in range(1, 500):
        acc += Fraction(i % 17 + 1, i % 23 + 1)
        key = f"c{i % 50:03d}"
        table[key] = table.get(key, 0) + i
        rows.append(tuple(range(i % 10)))
    rows.sort()
    return acc, sorted(table.items()), rows


def calibrate() -> float:
    """Median time of three runs of the calibration kernel: the machine's current speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run whole passes of ops, one after another, until ``seconds`` have passed.

    The calibration kernel runs before an op once ``CALIBRATE_EVERY_S`` have
    passed since it last ran, and after the last op; an op's factor uses the
    mean of the calibrations on either side of it.
    """
    phase = Phase()
    calibrations = [calibrate()]
    start = last = time.perf_counter()
    preceding: list[int] = []
    while True:
        workload.begin_pass()
        digest = hashlib.sha256()
        for i in range(workload.pass_length):
            gc.collect()
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                last = time.perf_counter()
            preceding.append(len(calibrations) - 1)
            if tracer is not None:
                tracer.op = phase.attempted
            t0 = time.perf_counter()
            try:
                out = workload.op(i)
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            phase.times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = -1
            if out is not None:
                try:
                    workload.check(i, out)
                except CheckFailed as exc:
                    error = str(exc)
                phase.json_bytes += workload.json_bytes(out)
                digest.update(workload.digest_bytes(out))
            if error is None:
                phase.seats += workload.seats(i, out)
            else:
                phase.failures.append(f"op {i}: {error}")
                digest.update(b"failed")
        phase.pass_digests.append(digest.hexdigest())
        if time.perf_counter() - start >= seconds:
            break
    gc.collect()
    calibrations.append(calibrate())
    phase.factors = [
        2 * CALIBRATION_REF_S / (calibrations[k] + calibrations[k + 1]) for k in preceding
    ]
    return phase


def setup(cls, seed: int):
    """Import the package, generate the inputs and run one untimed warm-up op.

    Returns the workload, the warm-up op's output, the set-up wall time and
    its machine-speed factor (see :func:`measure`).
    """
    gc.collect()
    before = calibrate()
    t0 = time.perf_counter()
    pkg = load_package()
    workload = cls(pkg, seed, OUT)
    workload.begin_pass()
    first = workload.op(0)
    elapsed = time.perf_counter() - t0
    gc.collect()
    return workload, first, elapsed, 2 * CALIBRATION_REF_S / (before + calibrate())


def verify(workload, first, failures: list[str]) -> dict:
    """Run the workload's untimed check; a failure is recorded, not raised."""
    try:
        return workload.verify(first)
    except Exception as exc:  # reported in the result; every op then fails its check
        failures.append(f"verify: {type(exc).__name__}: {exc}")
        return {}


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile_90(times: list[float]) -> float | None:
    """90th percentile, only where at least ten samples lie beyond it."""
    if len(times) < 100:
        return None
    return statistics.quantiles(times, n=10)[8]


def run_workload(args) -> dict:
    cls = WORKLOADS[args.workload]
    failures: list[str] = []
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
    workload = None
    setup_times: list[float] = []
    setup_scaled: list[float] = []
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        while len(setup_times) < repeats or (
            not args.trace
            and sum(setup_times) < SETUP_BUDGET_S
            and len(setup_times) < SETUP_MAX_REPEATS
        ):
            if workload is not None:
                workload.close()
            workload, first, elapsed, factor = setup(cls, args.seed)
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * factor)
        record["setup_times"] = setup_times
        pkg = workload.pkg
        if args.trace:
            tracer = Tracer()
            tracer.install(pkg)
            record.update(verify(workload, first, failures))
            tracer.uninstall()
            plain = measure(workload, args.seconds / 2)
            tracer.install(pkg)
            try:
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = (plain, traced)
            if set(plain.pass_digests) != set(traced.pass_digests):
                failures.append("traced outputs differ from untraced outputs")
            overhead = statistics.median(traced.scaled) / statistics.median(plain.scaled)
            metrics = tracer.metrics(traced.attempted, traced.json_bytes, overhead)
            units = per_layer_units()
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}")
            record["samples"] = {"untraced_ops": plain.attempted, "traced_ops": traced.attempted}
        else:
            record.update(verify(workload, first, failures))
            run = measure(workload, args.seconds)
            phases = (run,)
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "seats_per_s": run.seats / sum(run.scaled),
                "op_s_p50": statistics.median(run.scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            record["samples"] = {
                "setup_s": len(setup_times),
                "seats_per_s": run.attempted,
                "op_s_p50": run.attempted,
                "peak_rss_mb": 1,
            }
            record["wall"] = {
                "setup_s": statistics.median(setup_times),
                "seats_per_s": run.seats / sum(run.times),
                "op_s_p50": statistics.median(run.times),
            }
            record["op_s_p90"] = percentile_90(run.scaled)
            record["op_times"] = run.times
            record["op_factors"] = run.factors
    finally:
        if workload is not None:
            workload.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for phase in phases:
        failures.extend(phase.failures)
        if len(set(phase.pass_digests)) > 1:
            failures.append("passes over the same inputs gave different outputs")
    record.update(
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        failures=failures[:20],
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        samples = record["samples"].get(name)
        note = f" (n={samples})" if samples is not None else ""
        print(f"{args.workload} {name} {value:.6g} {units[name]}{note}")
    for name, value in record.get("wall", {}).items():
        print(f"{args.workload} {name} {value:.6g} {units[name]} (unscaled wall clock)")
    if record.get("op_s_p90") is not None:
        print(f"{args.workload} op_s_p90 {record['op_s_p90']:.6g} s (n={run.attempted})")
    print(f"{args.workload} failed_ratio {record['failed_ratio']:.6g} ({failed}/{attempted})")
    for line in failures[:20]:
        print(f"{args.workload} failure: {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def run_all(args) -> dict:
    """Each workload in its own process, so that ``peak_rss_mb`` is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
