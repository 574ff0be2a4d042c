"""Display rendering: fixed-decimal cells, plain-text tables, JSON payloads.

Underlying values stay exact; only the presentation rounds, using
half-to-even at the requested number of decimals (default 4, the precision
used throughout the trace tables).
"""

from __future__ import annotations

from typing import Sequence

from .model import (
    ElectionResult,
    Profile,
    Rational,
    rational_str,
    render_profile,
)


def decimal_str(value: Rational, decimals: int = 4) -> str:
    """Render a value with a fixed number of decimals, rounding half-to-even."""
    if decimals < 1:
        raise ValueError("decimals must be >= 1")
    # num/den rounded half-to-even in exact integer arithmetic; the sign comes
    # from num, so a negative value that rounds to zero still prints "-"
    num, den = value.as_integer_ratio()
    units, rest = divmod(num * 10**decimals, den)
    if 2 * rest > den or 2 * rest == den and units % 2:
        units += 1
    digits = str(abs(units)).rjust(decimals + 1, "0")
    return f"{'-' if num < 0 else ''}{digits[:-decimals]}.{digits[-decimals:]}"


def type_label(profile: Profile, index: int) -> str:
    t = profile.types[index]
    return f"{rational_str(t.weight)} : {', '.join(t.approvals)}"


def render_table(rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width table; the first two columns left-aligned, the rest right."""
    if not rows:
        return ""
    width = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.ljust(width[i]) if i < 2 else cell.rjust(width[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def election_json(
    profile: Profile,
    result: ElectionResult,
    *,
    backend: str,
    decimals: int = 4,
) -> dict:
    """JSON payload carrying both exact rationals and decimal renderings.

    The profile text is embedded so the payload is a self-contained
    reproduction of the run.  Every zero share renders as the one cell
    ``decimal_str(0)``, computed once: most shares of a sparse profile are
    the int ``0`` placeholders off the winner's active set.
    """
    zero = decimal_str(0, decimals)
    records = []
    for rec in result.records:
        sol = rec.solution
        records.append(
            {
                "seat": rec.seat_index,
                "winner": sol.candidate,
                "x": [rational_str(v) for v in sol.x],
                "x_display": [decimal_str(v, decimals) if v else zero for v in sol.x],
                "level": rational_str(sol.level),
                "level_display": decimal_str(sol.level, decimals),
                "score": rational_str(sol.score),
                "score_display": decimal_str(sol.score, decimals),
                "corrected": sol.corrected,
                "tied": list(rec.tied_with),
                "loads_after": [rational_str(v) for v in rec.loads_after.values],
                "variance_after": rational_str(rec.variance_after),
            }
        )
    return {
        "method": result.method.value,
        "mode": result.mode.value,
        "seats": len(result.records),
        "backend": backend,
        "profile": render_profile(profile),
        "records": records,
        "counts": {name: result.seat_counts.get(name, 0) for name in profile.candidates},
    }
