import io
import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from varphragmen.render import (
    decimal_str,
    election_json,
    render_table,
    type_label,
    write_json,
)
from varphragmen import (
    Backend,
    LoadVector,
    Method,
    Mode,
    Profile,
    VoterType,
    parse_profile,
    rational_str,
    render_profile,
    run_election,
)


def test_decimal_str_paper_table_cells():
    assert decimal_str(F(1, 10)) == "0.1000"
    assert decimal_str(F(7, 40)) == "0.1750"
    assert decimal_str(F(11, 40)) == "0.2750"
    assert decimal_str(F(1, 9)) == "0.1111"
    assert decimal_str(F(47, 400)) == "0.1175"
    assert decimal_str(F(-23, 400)) == "-0.0575"  # plain minus sign
    assert decimal_str(0) == "0.0000"


def test_decimal_str_rounds_half_to_even():
    assert decimal_str(F(25, 10000), 3) == "0.002"
    assert decimal_str(F(35, 10000), 3) == "0.004"
    assert decimal_str(F(1, 3), 6) == "0.333333"


def test_decimal_str_handles_floats():
    assert decimal_str(0.1175) == "0.1175"
    assert decimal_str(-0.0575) == "-0.0575"


def test_decimal_str_validates_decimals():
    with pytest.raises(ValueError):
        decimal_str(F(1, 2), 0)


def test_type_label_matches_profile_notation():
    profile = parse_profile("9: a1, a2\n1: a1, a2, b\n3: b, c\n")
    assert type_label(profile, 0) == "9 : a1, a2"
    assert type_label(profile, 2) == "3 : b, c"


def test_render_table_alignment():
    rows = [["Seat", "Winner", "x"], ["1", "a1", "0.1000"]]
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("Seat  Winner")
    assert lines[1].split() == ["1", "a1", "0.1000"]
    assert render_table([]) == ""


def test_decimal_str_is_exact():
    # more integer digits than any fixed working precision holds
    assert decimal_str(10**40) == "1" + "0" * 40 + ".0000"
    # one exact rounding, not a rounded quotient rounded again
    assert decimal_str(F(1, 20000) + F(1, 10**40)) == "0.0001"
    # a negative value that rounds to zero keeps its sign
    assert decimal_str(F(-1, 10**6)) == "-0.0000"


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("decimals", [4, 2])
def test_election_json_renders_each_share_as_decimal_str(backend, decimals):
    profile = parse_profile("9: a1, a2\n1: a1, a2, b\n3: b, c\n2: d\n1: d, e\n")
    result = run_election(profile, Method.VAR_PHRAGMEN, 3, backend=backend)
    # every kind of zero share next to nonzero ones of both lanes' types
    first = result.records[0]
    mixed = replace(first.solution, x=(0, F(0), 0.0, -0.0, F(1, 3)))
    records = (replace(first, solution=mixed), *result.records[1:])
    result = replace(result, records=records)
    payload = election_json(profile, result, backend=backend.value, decimals=decimals)
    shares = [rec.solution.x for rec in result.records]
    for x in shares[1:]:
        # the run's own records: int 0 placeholders next to nonzero shares
        assert 0 in [v for v in x if type(v) is int] and any(x)
    for rec, x in zip(payload["records"], shares):
        assert rec["x_display"] == [decimal_str(v, decimals) for v in x]


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**1000), max_value=10**1000)
    | st.floats()
    | st.text(),
    lambda children: st.lists(children)
    | st.lists(st.text())
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@given(json_values)
@example(["\x00\x1f\"\\\n\u00e9\u2028\U0001f600", "plain", ""])
@example({"": [-0.0, float("nan"), float("inf"), -float("inf")], "k": {}})
@example([[], {}, [[]], {"a": []}, True, False, None, -(10**500)])
@example(["a", 1, None, ["b"], {"c": "d"}])
# the edges of the one-join path: printable ASCII other than the quote and the backslash
@example(["\x7f"])
@example([" ", "~"])
@example(['a"b'])
@example(["a\\b"])
@example(["\u00e9"])
@example(["\u2028"])
@example(["", ""])
@example([f"{k}/{k + 1}" for k in range(1000)] + ["\n"] + [str(k) for k in range(1000)])
def test_write_json_matches_json_dumps(value):
    stream = io.StringIO()
    write_json(stream, value)
    assert stream.getvalue() == json.dumps(value, indent=2)


def plain_election_json(profile, result, backend, decimals=4):
    """``election_json`` with every cell rendered from its own value."""
    return {
        "method": result.method.value,
        "mode": result.mode.value,
        "seats": len(result.records),
        "backend": backend,
        "profile": render_profile(profile),
        "records": [
            {
                "seat": rec.seat_index,
                "winner": rec.solution.candidate,
                "x": [rational_str(v) for v in rec.solution.x],
                "x_display": [decimal_str(v, decimals) for v in rec.solution.x],
                "level": rational_str(rec.solution.level),
                "level_display": decimal_str(rec.solution.level, decimals),
                "score": rational_str(rec.solution.score),
                "score_display": decimal_str(rec.solution.score, decimals),
                "corrected": rec.solution.corrected,
                "tied": list(rec.tied_with),
                "loads_after": [rational_str(v) for v in rec.loads_after.values],
                "variance_after": rational_str(rec.variance_after),
            }
            for rec in result.records
        ],
        "counts": {name: result.seat_counts.get(name, 0) for name in profile.candidates},
    }


TWO_PARTY = "1443/6250 : A\n2457/6250 : B\n47/125 : A, B\n"


@pytest.mark.parametrize("decimals", [4, 2])
def test_election_json_reuses_cells_only_where_they_render_alike(decimals):
    float_profile = parse_profile("9: a1, a2\n1: a1, a2, b\n3: b, c\n2: d\n1: d, e\n")
    float_run = run_election(float_profile, Method.VAR_PHRAGMEN, 4, backend=Backend.FLOAT64)
    party_profile = parse_profile(TWO_PARTY)
    party_run = run_election(party_profile, Method.VAR_PHRAGMEN, 12, mode=Mode.PARTY)
    # the party run has both kinds of reuse: a load carried over as the same
    # object, and a load that equals the level
    pairs = list(zip(party_run.records, party_run.records[1:]))
    assert any(
        a is b for prev, rec in pairs
        for a, b in zip(prev.loads_after.values, rec.loads_after.values)
    )
    assert any(
        v == rec.solution.level for rec in party_run.records for v in rec.loads_after.values
    )
    # and integers that repeat within a record, which are converted once:
    # score and variance_after share a denominator, and a share that is not
    # the level object has the level's
    for rec in party_run.records:
        assert rec.solution.score.denominator == rec.variance_after.denominator
    assert any(
        v is not rec.solution.level and F(v).denominator == rec.solution.level.denominator
        for rec in party_run.records
        for v in rec.solution.x
        if v
    )
    # one score per seat, 1/u, of 4401 digits, past the limit of str() (the
    # profile of test_verify_election_prints_values_past_the_int_digit_limit)
    long_profile = Profile(
        [VoterType(F(1, 10**4400 + 1), ("a",)), VoterType(F(1, 10**4400 + 3), ("b",))]
    )
    long_run = run_election(long_profile, Method.VAR_PHRAGMEN, 2)
    assert all(len(rational_str(rec.solution.score)) > 4300 for rec in long_run.records)
    # loads that do not follow from x: equal to the level in another type,
    # equal to the previous load in another type, the same object as before,
    # float zeros of both signs at a zero level, and a vector of another
    # length
    first, second, third = party_run.records[:3]
    half, kept = F(1, 2), F(1, 7)
    hand_built = (
        replace(
            first,
            solution=replace(first.solution, level=half),
            loads_after=LoadVector((0.5, half + 0, kept), 1),
        ),
        replace(
            second,
            solution=replace(second.solution, level=half),
            loads_after=LoadVector((half, 0.5, kept), 2),
        ),
        replace(
            third,
            solution=replace(third.solution, level=0.0, x=(0.0, -0.0, 0)),
            loads_after=LoadVector((-0.0, 0.0, 0, 0), 3),
        ),
    )
    cases = [
        (float_profile, float_run, "float64"),
        (party_profile, party_run, "exact"),
        (party_profile, replace(party_run, records=hand_built), "exact"),
        (long_profile, long_run, "exact"),
    ]
    for profile, result, backend in cases:
        assert election_json(
            profile, result, backend=backend, decimals=decimals
        ) == plain_election_json(profile, result, backend, decimals)
