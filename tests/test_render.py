from dataclasses import replace
from fractions import Fraction as F

import pytest

from varphragmen.render import decimal_str, election_json, render_table, type_label
from varphragmen import Backend, Method, parse_profile, run_election


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
