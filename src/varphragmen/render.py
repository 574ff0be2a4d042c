"""Display rendering: fixed-decimal cells, plain-text tables, JSON payloads.

Underlying values stay exact; only the presentation rounds, using
half-to-even at the requested number of decimals (default 4, the precision
used throughout the trace tables).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Sequence, TextIO

from .model import (
    ElectionResult,
    LoadVector,
    Profile,
    Rational,
    _int_str,
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
    digits = _int_str(abs(units)).rjust(decimals + 1, "0")
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


#: The bytes the C string encoder leaves as they are: printable ASCII but ``"``, ``\``.
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def write_json(stream: TextIO, value: object, indent: str = "") -> None:
    """Write ``json.dumps(value, indent=2)`` to ``stream``, in chunks.

    Before Python 3.13, ``json`` encodes indented output in pure Python.
    Here strings go through the C string encoder and every other scalar
    through ``json.dumps``.  A list of strings goes out in one piece: when
    its joined text holds only characters that encoder leaves as they are
    (``_PLAIN``), one more join places the quotes; otherwise each string is
    encoded.  Dict keys must be strings.
    ``indent`` is the indentation of the line ``value`` starts on.
    """
    write = stream.write
    inner = indent + "  "
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        separator = "{\n"
        for key, item in value.items():
            write(f"{separator}{inner}{encode_basestring_ascii(key)}: ")
            write_json(stream, item, inner)
            separator = ",\n"
        write(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)) and value:
        try:
            text = "".join(value)
        except TypeError:  # an item that is not a string
            separator = "[\n"
            for item in value:
                write(separator + inner)
                write_json(stream, item, inner)
                separator = ",\n"
            write(f"\n{indent}]")
        else:
            if text.isascii() and not text.encode("ascii").translate(None, _PLAIN):
                cells = '"' + f'",\n{inner}"'.join(value) + '"'
            else:
                cells = f",\n{inner}".join(map(encode_basestring_ascii, value))
            write(f"[\n{inner}{cells}\n{indent}]")
    else:
        write(json.dumps(value))


class _RecordDigits(dict):
    """The decimal digits of the integers one record renders, each converted once.

    One memo serves one record: kept for a whole long exact run, it would
    hold thousands of strings of over a thousand digits each.
    """

    def __missing__(self, n: int) -> str:
        text = self[n] = _int_str(n)
        return text

    def rational_str(self, value: Rational) -> str:
        """:func:`rational_str` of ``value``, its integers read from the memo."""
        if type(value) is not Fraction:
            return rational_str(value)
        num, den = value.as_integer_ratio()
        return self[num] if den == 1 else f"{self[num]}/{self[den]}"


def election_json(
    profile: Profile,
    result: ElectionResult,
    *,
    backend: str,
    decimals: int = 4,
) -> dict:
    """JSON payload carrying both exact rationals and decimal renderings.

    The profile text is embedded so the payload is a self-contained
    reproduction of the run.  Each distinct cell is rendered once:

    * the int ``0`` share placeholders off the winner's active set (most
      shares of a sparse profile) take the cells ``"0"`` and
      ``decimal_str(0)``, and every other zero share the latter;
    * a share that is the level object takes the level's cells;
    * a load that is the same object as in the previous record takes that
      record's cell, and a load equal to the level, of the same type, the
      level's cell (the supporters of a seat that needs no correction all end
      at its level);
    * every other value is rendered as :func:`rational_str` renders it, but
      the integers of a ``Fraction`` go through a memo kept for one record
      (:class:`_RecordDigits`), so each distinct integer of a record is
      converted once: in the paper's two-party runs ``score`` and
      ``variance_after`` share their denominator, and a share often has the
      level's.
    """
    placeholder, zero = rational_str(0), decimal_str(0, decimals)
    records = []
    loads = LoadVector.zero(profile).values
    load_cells = [placeholder] * len(loads)
    for rec in result.records:
        cell = _RecordDigits().rational_str
        sol = rec.solution
        level = sol.level
        level_cell, level_display = cell(level), decimal_str(level, decimals)
        x_cells = [placeholder] * len(sol.x)
        x_display = [zero] * len(sol.x)
        for k in compress(count(), map(is_not, sol.x, repeat(0))):
            v = sol.x[k]
            if v is level:
                x_cells[k], x_display[k] = level_cell, level_display
            else:
                x_cells[k] = cell(v)
                x_display[k] = decimal_str(v, decimals) if v else zero
        values = rec.loads_after.values
        if len(values) == len(loads):
            load_cells = load_cells.copy()
            moved = compress(count(), map(is_not, values, loads))
        else:
            load_cells = [""] * len(values)
            moved = range(len(values))
        for k in moved:
            v = values[k]
            # equal values of one type render alike, except 0.0 and -0.0
            if type(v) is type(level) and v == level and v:
                load_cells[k] = level_cell
            else:
                load_cells[k] = cell(v)
        loads = values
        records.append(
            {
                "seat": rec.seat_index,
                "winner": sol.candidate,
                "x": x_cells,
                "x_display": x_display,
                "level": level_cell,
                "level_display": level_display,
                "score": cell(sol.score),
                "score_display": decimal_str(sol.score, decimals),
                "corrected": sol.corrected,
                "tied": list(rec.tied_with),
                "loads_after": load_cells,
                "variance_after": cell(rec.variance_after),
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
