"""Command-line front end.

Subcommands:

* ``elect``  — run an election, printing seat counts or a per-seat trace
  table (the same layout as the worked examples in the test suite).
* ``probe``  — support-monotonicity probe for one party.
* ``sweep``  — two-party seat-share sweep, emitted as ``alpha,share`` CSV.
* ``check``  — randomized campaigns, one subcommand per row of the
  ``CAMPAIGNS`` table: ``closed-list-equiv`` and ``oracle-agreement``.

Exit codes: 0 success (including reported findings), 1 a check campaign
found equivalence failures, 2 usage, profile parse or output-file errors,
3 infeasible election configuration.  Findings and counterexamples are saved
as self-contained JSON files that replay with ``analysis.replay_record``.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import (
    CampaignReport,
    check_closed_list_equivalence,
    monotonicity_probe,
    oracle_agreement_campaign,
    sweep_seat_share,
    two_party_family,
)
from .engine import ElectionConfigError, _winners, run_election, seat_states
from .model import (
    Backend,
    Method,
    Mode,
    ProfileParseError,
    UnknownCandidateError,
    parse_profile,
    parse_rational,
    rational_str,
)
from .render import decimal_str, election_json, render_table, type_label, write_json
from .step import Subproblem, unconstrained_solution


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int(text: str) -> int:
    """An optionally signed run of ASCII digits, as in ``parse_rational``:
    ``int`` alone also reads underscores and any Unicode decimal digit."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _seed(text: str) -> int:
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = _int(text)
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
        steps = _int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    if stop < start:
        raise argparse.ArgumentTypeError("alpha range must be nondecreasing")
    return start, stop, steps


def _read_profile(path: str) -> str:
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")  # a byte-order mark, if any
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ProfileParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _trace_rows(profile, result, decimals: int, show_uncorrected: bool) -> list[list[str]]:
    header = ["Seat", "Winner"]
    header += [type_label(profile, k) for k in range(len(profile.types))]
    if show_uncorrected:
        header.append("Negative")
    rows = [header]
    for rec, loads, _ in seat_states(profile, result):
        sol = rec.solution
        if show_uncorrected:
            # the raw equality-constrained shares, before any clamping
            shares = unconstrained_solution(Subproblem(profile, loads, sol.candidate)).record().x
        else:
            shares = sol.x
        row = [str(rec.seat_index), sol.candidate]
        row += [decimal_str(v, decimals) for v in shares]
        if show_uncorrected:
            row.append("*" if sol.corrected else "")
        rows.append(row)
    return rows


def _counts_rows(profile, winners) -> list[list[str]]:
    counts = Counter(winners)
    rows = [["Candidate", "Seats"]]
    for name in profile.candidates:
        rows.append([name, str(counts[name])])
    return rows


def _csv_dump(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_elect(args: argparse.Namespace) -> int:
    if args.format == "json" and args.show_uncorrected:
        raise ValueError("--show-uncorrected applies to table and csv output, not --format json")
    profile = parse_profile(_read_profile(args.profile))
    election = (profile, args.method, args.seats)
    if args.format != "json" and not (args.trace or args.show_uncorrected):
        # the seat counts alone, from a run that records no seat
        rows = _counts_rows(profile, _winners(*election, args.mode, args.backend))
    else:
        result = run_election(*election, mode=args.mode, backend=args.backend)
        if args.format == "json":
            payload = election_json(
                profile, result, backend=args.backend, decimals=args.decimals
            )
            write_json(sys.stdout, payload)
            sys.stdout.write("\n")
            return 0
        rows = _trace_rows(profile, result, args.decimals, args.show_uncorrected)
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
    paths = [target / f"{stem}-{idx:03d}.json" for idx in range(1, len(records) + 1)]
    for path, record in zip(paths, records):
        with path.open("w", encoding="utf-8") as stream:
            write_json(stream, record)
    return paths


class Campaign(NamedTuple):
    """A ``check`` subcommand.  Its summary line, and the text added to it
    on findings, are formatted with the report's fields and ``found``."""

    run: Callable[[int, int], CampaignReport]
    trials: int
    help: str
    out_help: str
    stem: str
    exit_on_findings: int
    summary: str
    on_findings: str


CAMPAIGNS = {
    "closed-list-equiv": Campaign(
        check_closed_list_equivalence, 200, "election runs vs highest-averages on closed lists",
        "directory for failure records", "closed-list-failure", 1,
        "{agreed}/{trials} OK", ", {found} failing sequence pair(s)"),
    # a disagreement is a finding about the correction, not a failure
    "oracle-agreement": Campaign(
        oracle_agreement_campaign, 500, "clamp correction vs water-filling vs subset enumeration",
        "directory for disagreement records", "oracle-disagreement", 0,
        "{agreed}/{instances} solver comparisons agree over {trials} trials",
        "\nfound {found} disagreement(s):"),
}


def cmd_check(args: argparse.Namespace) -> int:
    campaign = CAMPAIGNS[args.campaign]
    report = campaign.run(args.seed, args.trials)
    line = campaign.summary + (campaign.on_findings if report.findings else "")
    print(f"{args.campaign}: " + line.format(found=len(report.findings), **vars(report)))
    if not report.findings:
        return 0
    for path in _save_records(report.findings, args.out, campaign.stem):
        print(f"saved {path}")
    return campaign.exit_on_findings


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
        help="trace the raw shares before negativity correction (implies --trace; "
        "table and csv output only)",
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

    for name, campaign in CAMPAIGNS.items():
        one = check_sub.add_parser(name, help=campaign.help)
        one.add_argument("--seed", type=_seed, default=0)
        one.add_argument("--trials", type=_positive_int, default=campaign.trials)
        one.add_argument("--out", default=".", help=campaign.out_help)
        one.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ElectionConfigError, UnknownCandidateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ProfileParseError is a ValueError, unreadable profiles included;
        # an OSError comes from writing output (a file, a records directory
        # or stdout)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
