"""Command-line front end.

Subcommands:

* ``elect``  — run an election, printing seat counts or a per-seat trace
  table (the same layout as the worked examples in the test suite).
* ``probe``  — support-monotonicity probe for one party.
* ``sweep``  — two-party seat-share sweep, emitted as ``alpha,share`` CSV.
* ``check``  — randomized campaigns: ``closed-list-equiv`` and
  ``oracle-agreement``.

Exit codes: 0 success (including reported findings), 1 a check campaign
found equivalence failures, 2 usage or profile parse errors, 3 infeasible
election configuration.  Findings and counterexamples are saved as
self-contained JSON files that replay with ``analysis.replay_record``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import (
    check_closed_list_equivalence,
    monotonicity_probe,
    oracle_agreement_campaign,
    sweep_seat_share,
    two_party_family,
)
from .engine import ElectionConfigError, MethodConfig, run_election
from .model import (
    Backend,
    LoadVector,
    Method,
    Mode,
    ProfileParseError,
    UnknownCandidateError,
    parse_profile,
    parse_rational,
    rational_str,
)
from .render import decimal_str, election_json, render_table, type_label
from .step import Subproblem, unconstrained_solution


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _alpha_range(text: str) -> tuple[Fraction, Fraction, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected from:to:steps, got {text!r}"
        )
    try:
        start, stop = parse_rational(parts[0]), parse_rational(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    if stop < start:
        raise argparse.ArgumentTypeError("alpha range must be nondecreasing")
    return start, stop, steps


def _read_profile(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _trace_rows(profile, result, decimals: int, show_uncorrected: bool) -> list[list[str]]:
    header = ["Seat", "Winner"]
    header += [type_label(profile, k) for k in range(len(profile.types))]
    if show_uncorrected:
        header.append("Negative")
    rows = [header]
    loads = LoadVector.zero(profile)
    for rec in result.records:
        sol = rec.solution
        if show_uncorrected:
            # the raw equality-constrained shares, before any clamping;
            # computed at the loads the election actually reached
            shares = unconstrained_solution(Subproblem(profile, loads, sol.candidate)).x
        else:
            shares = sol.x
        row = [str(rec.seat_index), sol.candidate]
        row += [decimal_str(v, decimals) for v in shares]
        if show_uncorrected:
            row.append("*" if sol.corrected else "")
        rows.append(row)
        loads = rec.loads_after
    return rows


def _counts_rows(profile, result) -> list[list[str]]:
    rows = [["Candidate", "Seats"]]
    for name in profile.candidates:
        rows.append([name, str(result.seat_counts.get(name, 0))])
    return rows


def _csv_dump(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_elect(args: argparse.Namespace) -> int:
    profile = parse_profile(_read_profile(args.profile))
    config = MethodConfig(
        method=Method(args.method),
        mode=Mode(args.mode),
        seats=args.seats,
        backend=Backend(args.backend),
    )
    result = run_election(profile, config)
    trace = args.trace or args.show_uncorrected
    if args.format == "json":
        payload = election_json(
            profile, result, backend=args.backend, decimals=args.decimals
        )
        print(json.dumps(payload, indent=2))
    elif trace:
        rows = _trace_rows(profile, result, args.decimals, args.show_uncorrected)
        if args.format == "csv":
            print(_csv_dump(rows), end="")
        else:
            print(render_table(rows))
    else:
        rows = _counts_rows(profile, result)
        if args.format == "csv":
            print(_csv_dump(rows), end="")
        else:
            print(render_table(rows))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    profile = parse_profile(_read_profile(args.profile))
    report = monotonicity_probe(profile, args.party, args.seats, args.delta)
    verdict = "VIOLATED" if report.violated else "OK"
    print(
        f"{report.party}: {report.seats_before} -> {report.seats_after} "
        f"of {report.seats} seats (delta {rational_str(report.delta)}) {verdict}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    start, stop, steps = args.alphas
    alphas = [start + (stop - start) * Fraction(k, steps) for k in range(steps + 1)]
    result = sweep_seat_share(
        two_party_family(args.zeta),
        alphas,
        args.seats,
        backend=Backend(args.backend),
        zeta=args.zeta,
    )
    lines = ["alpha,share"]
    lines += [f"{float(a)},{float(share)}" for a, share in result.points]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        print(text, end="")
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(result.points)} samples to {args.out}")
    return 0


def _save_records(records, directory: str, stem: str) -> list[Path]:
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, record in enumerate(records, start=1):
        path = target / f"{stem}-{idx:03d}.json"
        path.write_text(json.dumps(record, indent=2), encoding="utf-8")
        paths.append(path)
    return paths


def cmd_check_closed_list(args: argparse.Namespace) -> int:
    report = check_closed_list_equivalence(args.seed, args.trials)
    if report.passed:
        print(f"closed-list-equiv: {report.passes}/{report.trials} OK")
        return 0
    print(
        f"closed-list-equiv: {report.passes}/{report.trials} OK, "
        f"{len(report.failures)} failing sequence pair(s)"
    )
    for path in _save_records(report.failures, args.out, "closed-list-failure"):
        print(f"saved {path}")
    return 1


def cmd_check_oracle(args: argparse.Namespace) -> int:
    report = oracle_agreement_campaign(args.seed, args.trials)
    print(
        f"oracle-agreement: {report.agreements}/{report.instances} "
        f"solver comparisons agree over {report.trials} trials"
    )
    if report.disagreements:
        # a disagreement is a finding about the correction, not a failure
        print(f"found {len(report.disagreements)} disagreement(s):")
        for path in _save_records(report.disagreements, args.out, "oracle-disagreement"):
            print(f"saved {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varphragmen",
        description="Sequential approval elections with a variance criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    elect = sub.add_parser("elect", help="run an election on a profile file")
    elect.add_argument("profile", help="profile path, or - for stdin")
    elect.add_argument(
        "--method",
        required=True,
        choices=[m.value for m in Method],
    )
    elect.add_argument("--seats", type=_positive_int, required=True)
    elect.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.CANDIDATE.value
    )
    elect.add_argument(
        "--backend", choices=[b.value for b in Backend], default=Backend.EXACT.value
    )
    elect.add_argument("--format", choices=["table", "csv", "json"], default="table")
    elect.add_argument("--decimals", type=_positive_int, default=4)
    elect.add_argument("--trace", action="store_true", help="one row per seat")
    elect.add_argument(
        "--show-uncorrected",
        action="store_true",
        help="trace the raw shares before negativity correction (implies --trace)",
    )
    elect.set_defaults(func=cmd_elect)

    probe = sub.add_parser("probe", help="support-monotonicity probe")
    probe.add_argument("profile", help="profile path, or - for stdin")
    probe.add_argument("--party", required=True)
    probe.add_argument("--seats", type=_positive_int, required=True)
    probe.add_argument("--delta", type=_rational, default=Fraction(1))
    probe.set_defaults(func=cmd_probe)

    sweep = sub.add_parser("sweep", help="two-party seat-share sweep")
    sweep.add_argument("--zeta", type=_rational, required=True)
    sweep.add_argument("--seats", type=_positive_int, required=True)
    sweep.add_argument("--alphas", type=_alpha_range, required=True,
                       metavar="FROM:TO:STEPS")
    sweep.add_argument(
        "--backend", choices=[b.value for b in Backend], default=Backend.FLOAT64.value
    )
    sweep.add_argument("--out", default="-", help="CSV output path, or - for stdout")
    sweep.set_defaults(func=cmd_sweep)

    check = sub.add_parser("check", help="randomized verification campaigns")
    check_sub = check.add_subparsers(dest="campaign", required=True)

    equiv = check_sub.add_parser(
        "closed-list-equiv",
        help="election runs vs highest-averages on closed lists",
    )
    equiv.add_argument("--seed", type=int, default=0)
    equiv.add_argument("--trials", type=_positive_int, default=200)
    equiv.add_argument("--out", default=".", help="directory for failure records")
    equiv.set_defaults(func=cmd_check_closed_list)

    oracle = check_sub.add_parser(
        "oracle-agreement",
        help="clamp correction vs water-filling vs subset enumeration",
    )
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--trials", type=_positive_int, default=500)
    oracle.add_argument("--out", default=".", help="directory for disagreement records")
    oracle.set_defaults(func=cmd_check_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProfileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ElectionConfigError, UnknownCandidateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
