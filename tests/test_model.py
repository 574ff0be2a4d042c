import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from varphragmen import (
    LoadVector,
    Profile,
    ProfileParseError,
    Subproblem,
    UnknownCandidateError,
    VoterType,
    merge_duplicate_types,
    parse_profile,
    parse_rational,
    rational_str,
    render_profile,
)
from varphragmen.model import _ratio

from conftest import PROFILE_12, PROFILE_13, float_profile, type_weights


def test_parse_profile_12():
    profile = parse_profile(PROFILE_12)
    assert len(profile.types) == 3
    assert [t.weight for t in profile.types] == [9, 1, 3]
    assert profile.candidates == ("a1", "a2", "b", "c")
    assert sum(t.weight for t in profile.types) == 13
    assert profile.types[1].approvals == ("a1", "a2", "b")


def test_parse_profile_13():
    profile = parse_profile(PROFILE_13)
    assert len(profile.types) == 5
    assert sum(t.weight for t in profile.types) == 20
    assert profile.candidates == ("A", "B", "C")


def test_profile_is_built_at_construction_and_keeps_its_repr_equality_and_hash():
    profile = parse_profile("3 : a, b\n1/2 : b\n")
    fresh = parse_profile("3 : a, b\n1/2 : b\n")
    assert profile.supporters("b") == (0, 1)
    assert sum(t.weight for t in profile.types) == Fraction(7, 2)
    assert profile == fresh and hash(profile) == hash(fresh)
    assert repr(profile) == repr(fresh) == (
        "Profile(types=(VoterType(weight=Fraction(3, 1), approvals=('a', 'b')), "
        "VoterType(weight=Fraction(1, 2), approvals=('b',))), "
        "candidates=('a', 'b'))"
    )
    assert profile != parse_profile("3 : a, b\n1/3 : b\n")


class _Unaddable(Fraction):
    """A weight that refuses to be added to anything."""

    def __add__(self, other):
        raise AssertionError("a weight was added")

    __radd__ = __add__


def test_building_a_profile_does_no_arithmetic_on_weights():
    # a total weight belongs to the code that reads it, which sums it
    types = [VoterType(_Unaddable(3), ("a", "b")), VoterType(_Unaddable(1, 2), ("b",))]
    profile = Profile(types)
    assert profile.candidates == ("a", "b")
    assert profile.supporters("b") == (0, 1)
    assert profile == Profile(types)


def test_parse_comments_blanks_and_separators():
    text = """
    # leading comment
    3/2 : x  # fractional weight, trailing comment
    2: y z   # whitespace-separated approvals

    1 : x, z
    """
    profile = parse_profile(text)
    assert [t.weight for t in profile.types] == [Fraction(3, 2), 2, 1]
    assert profile.types[1].approvals == ("y", "z")
    assert profile.candidates == ("x", "y", "z")
    assert sum(t.weight for t in profile.types) == Fraction(9, 2)


def _regex_approvals(text):
    """Each voter line's names as the regex ``[,\\s]+`` splits them: the reference."""
    approvals = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tail = line.partition(":")[2]
            approvals.append(tuple(tok for tok in re.split(r"[,\s]+", tail.strip()) if tok))
    return approvals


@pytest.mark.parametrize(
    "separator",
    ["\t", "\xa0", "\u2003", "\u3000", ",", ",,,", " , ", ",\t,\xa0", " \u3000, ,"],
)
def test_names_split_on_commas_and_whitespace_as_the_regex_splits_them(separator):
    text = (
        f"2 : a{separator}b\n"
        f"1 :{separator}c{separator}{separator}d{separator}# comment\n"
        f"3 : {separator}e, f {separator}\n"
    )
    approvals = [t.approvals for t in parse_profile(text).types]
    assert approvals == _regex_approvals(text) == [("a", "b"), ("c", "d"), ("e", "f")]


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x85", "\u2028"])
def test_line_breaking_whitespace_ends_the_line_before_names_are_split(separator):
    # str.splitlines breaks at these, so neither split ever sees them
    text = f"2 : a{separator}1 : b\n"
    approvals = [t.approvals for t in parse_profile(text).types]
    assert approvals == _regex_approvals(text) == [("a",), ("b",)]
    with pytest.raises(ProfileParseError, match="line 2"):
        parse_profile(f"2 : a{separator}b\n")


def test_the_whitespace_regex_class_is_str_isspace():
    # parse_profile splits names with str.split, which breaks at exactly the
    # characters for which str.isspace() holds; over every code point
    # (about 0.3 s) that is the set \s matches in a str pattern
    space = re.compile(r"\s").fullmatch
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if bool(space(c)) != c.isspace()] == []


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no voter types"),
        ("# only a comment\n", "no voter types"),
        ("3 a, b", "line 1"),
        ("w : a", "line 1"),
        ("0 : a", "positive"),
        ("-2 : a", "positive"),
        ("1/0 : a", "line 1"),
        ("2/00 : a", "zero denominator"),
        ("3 :", "empty approval"),
        ("3 : a, a", "duplicate"),
        ("3 : a?b", "invalid candidate name"),
        ("1 : a\n2 : b!\n", "line 2"),
        # a weight token read on an earlier line neither hides nor
        # renumbers a later line's error
        ("3 : a\n3 : b!", "line 2: invalid candidate name"),
        ("1/2 : a\n1/2 : a, a", "line 2: duplicate"),
        ("1/0 : a\n1/0 : b", "line 1: weight has zero denominator"),
        # weights are ASCII digits: an Arabic-Indic three, a fullwidth two
        ("\u0663 : a", "line 1: weight must be an integer or p/q, got '\u0663'"),
        ("2 : a\n1/\uff12 : b", "line 2: weight must be an integer or p/q"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ProfileParseError) as excinfo:
        parse_profile(text)
    assert fragment in str(excinfo.value)


_REFERENCE_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_REFERENCE_WEIGHT_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def _reference_voter_type(weight, approvals):
    """``VoterType``'s checks as they were before its sign test read the
    numerator: the reference.  Returns the weight the type keeps."""
    if isinstance(weight, int):
        # plain ints would leak true division (floats) into the exact lane
        weight = Fraction(weight)
    if not weight > 0:
        raise ValueError(
            f"voter type weight must be positive, got {rational_str(weight)}"
        )
    if not approvals:
        raise ValueError("empty approval list")
    if len(set(approvals)) != len(approvals):
        raise ValueError(f"duplicate candidate in approval set: {approvals}")
    for name in approvals:
        # any other name would be saved as one election and read back
        # as another
        if not _REFERENCE_NAME_RE.fullmatch(name):
            raise ValueError(f"invalid candidate name: {name!r}")
    return weight


def _reference_parse_profile(text):
    """``parse_profile`` as it was before it kept one ``Fraction`` per
    weight token, every line read in full: the reference."""
    types = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ProfileParseError(
                f"expected '<weight> : <name>[, <name>...]', got {raw.strip()!r}",
                line_no,
            )
        weight_token = head.strip()
        if not _REFERENCE_WEIGHT_RE.match(weight_token):
            raise ProfileParseError(
                f"weight must be an integer or p/q, got {weight_token!r}", line_no
            )
        names = tuple(tail.replace(",", " ").split())
        try:
            weight = _reference_voter_type(_ratio(weight_token), names)
        except ZeroDivisionError:
            raise ProfileParseError(
                f"weight has zero denominator: {weight_token!r}", line_no
            ) from None
        except ValueError as exc:
            # the weight's sign and the names are VoterType's to check
            raise ProfileParseError(str(exc), line_no) from None
        types.append(VoterType(weight, names))
    return Profile(types)


# tokens equal in value but not in text, a non-ASCII digit (rejected), and a
# token or line of every error kind
_weight_tokens = st.sampled_from(["2", "02", "2/1", "4/2", "1/2", "2/4", "7", "\u0663"])
_bad_weight_tokens = st.sampled_from(
    ["0", "-2", "-1/2", "0/3", "1/0", "2/00", "0/0", "w", "1.5", "", "1 / 2"]
)
# names reused across lines, so most lines meet names already checked
_profile_names = st.sampled_from(["a", "b", "c_1", "d-2", "_", "-"])
# an ASCII name beside invalid ones, one of them a letter and one a digit
# outside ASCII
_bad_profile_names = st.sampled_from(["a", "b", "b!", "a?b", "\xe9", "\u0663"])
_name_separators = st.sampled_from([", ", " ", "\t", ",", ",\xa0", " , "])
_comments = st.sampled_from(["", "  ", " # note", "# 1 : a", " #"])


@st.composite
def _profile_lines(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", "   ", "# only a comment"]))
    if kind == 1:
        # a line with an error, or likely to have one
        weight = draw(st.one_of(_weight_tokens, _bad_weight_tokens))
        names = draw(st.lists(_bad_profile_names, max_size=3))
        colon = " " if draw(st.integers(0, 7)) == 0 else ":"
    else:
        weight = draw(_weight_tokens)
        names = draw(st.lists(_profile_names, min_size=1, max_size=4, unique=True))
        colon = ":"
    tail = draw(_name_separators).join(names)
    return f"{weight} {colon}{draw(_name_separators)}{tail}{draw(_comments)}"


@example("")
@example("3 a, b")
@example("w : a")
@example("1/0 : a")
@example("0 : a\n0 : b")
@example("2 : a\n2 :")
@example("2 : a\n2/1 : a, a")
@example("1 : a, b\n1 : b, a, b")
@example("02 : a\n4/2 : b\n2 : b!")
@example("1 : a, b\n2 : b\n# a comment\n3 : a\n1 : a, b, b!")
@example("1 : a\n2 : a, _\n3 : -, a\n1/2 : \xe9")
@example("1 : _, -\n1 : a\n1 : -, \u0663, _")
@example("7 : a\n\u0663 : b")
@given(st.lists(_profile_lines(), max_size=8).map("\n".join))
def test_parse_profile_is_the_reference_parse(text):
    try:
        want = _reference_parse_profile(text)
    except ProfileParseError as exc:
        # twice: a name that failed must fail again, as no name a parse
        # meets outlives it
        for _ in range(2):
            with pytest.raises(ProfileParseError) as info:
                parse_profile(text)
            assert (str(info.value), info.value.line) == (str(exc), exc.line)
    else:
        got = parse_profile(text)
        assert got == want
        assert [repr(t.weight) for t in got.types] == [repr(t.weight) for t in want.types]
        # the parser builds its types without the constructor: each must be
        # the type the constructor builds, and as frozen
        for t in got.types:
            built = VoterType(t.weight, t.approvals)
            assert (t, hash(t), repr(t)) == (built, hash(built), repr(built))
            with pytest.raises(FrozenInstanceError):
                t.weight = Fraction(1)


class _Contrary(Fraction):
    """A weight whose ``>`` says the opposite of its value."""

    def __gt__(self, other):
        return not Fraction.__gt__(self, other)


@pytest.mark.parametrize(
    "weight",
    [0, -1, 2, True, False, Fraction(0), Fraction(-1, 3), Fraction(1, 3),
     _Unaddable(-1, 3), _Contrary(-1, 3), _Contrary(1, 3), 0.0, -0.0,
     float("nan"), float("inf"), float("-inf"), 5e-324],
    ids=repr,
)
def test_voter_type_sign_test_is_the_reference_comparison(weight):
    def outcome(check):
        try:
            return "accepted", repr(check())
        except ValueError as exc:
            return "rejected", str(exc)

    got = outcome(lambda: VoterType(weight, ("a",)).weight)
    assert got == outcome(lambda: _reference_voter_type(weight, ("a",)))


def test_parse_is_order_preserving():
    profile = parse_profile("1 : q\n1 : p\n1 : q, r\n")
    assert [t.approvals for t in profile.types] == [("q",), ("p",), ("q", "r")]
    assert profile.candidates == ("q", "p", "r")


def test_duplicate_approval_sets_kept_distinct():
    profile = parse_profile("2 : a\n3 : a\n")
    assert len(profile.types) == 2
    merged = merge_duplicate_types(profile)
    assert len(merged.types) == 1
    assert merged.types[0].weight == 5
    assert sum(t.weight for t in merged.types) == sum(t.weight for t in profile.types)


def test_merge_ignores_approval_order():
    profile = parse_profile("2 : a, b\n3 : b, a\n1 : a\n")
    merged = merge_duplicate_types(profile)
    assert [t.weight for t in merged.types] == [5, 1]
    assert merged.types[0].approvals == ("a", "b")


def _supporter_weight(profile, name):
    """The weight of ``name``'s supporters, added left to right over the index."""
    weight = 0
    for k in profile.supporters(name):
        weight = weight + profile.types[k].weight
    return weight


def test_supporters_profile12(profile12):
    assert profile12.supporters("a1") == (0, 1)
    assert _supporter_weight(profile12, "a1") == 10
    assert profile12.supporters("c") == (2,)
    assert _supporter_weight(profile12, "c") == 3


def test_supporters_profile13(profile13):
    assert profile13.supporters("B") == (1, 3, 4)
    assert _supporter_weight(profile13, "B") == 13


def test_supporters_unknown_candidate(profile12):
    with pytest.raises(UnknownCandidateError):
        profile12.supporters("nobody")


def test_voter_type_validation():
    with pytest.raises(ValueError):
        VoterType(Fraction(0), ("a",))
    with pytest.raises(ValueError):
        VoterType(Fraction(1), ())
    with pytest.raises(ValueError):
        VoterType(Fraction(1), ("a", "a"))


@pytest.mark.parametrize("name", ["a b", "x#y", "", "a\n"])
def test_voter_type_rejects_names_the_text_format_cannot_carry(name):
    # "1 : a b, c" would read back as three candidates, "x#y" as "x"
    with pytest.raises(ValueError, match="invalid candidate name") as info:
        VoterType(Fraction(1), (name, "c"))
    assert repr(name) in str(info.value)


def test_load_vector_add_skips_only_int_zero_shares():
    loads = LoadVector((0, 0, Fraction(1, 2), 0.5), seats_assigned=1)
    after = loads.add((0, 0.0, Fraction(0), Fraction(1, 4)))
    assert after.seats_assigned == 2
    # repr tells int 0, Fraction and float apart
    assert repr(after.values) == repr((0, 0.0, Fraction(1, 2), 0.75))
    after = loads.add((Fraction(0), 0, 0, 0))
    assert repr(after.values) == repr((Fraction(0), 0, Fraction(1, 2), 0.5))
    with pytest.raises(ValueError):
        loads.add((0, 0))


def test_int_weights_are_normalized_to_fractions():
    t = VoterType(3, ("a",))
    assert isinstance(t.weight, Fraction)


def test_rational_str_and_parse_rational():
    assert rational_str(Fraction(7, 40)) == "7/40"
    assert rational_str(Fraction(3)) == "3"
    for value in (0.1, 1e-300, 1e22, -0.0, 5e-324, float("inf")):
        assert rational_str(value) == repr(value)
    assert parse_rational("7/40") == Fraction(7, 40)
    assert parse_rational("0.376") == Fraction(47, 125)
    with pytest.raises(ValueError):
        parse_rational("1:2")
    # numbers are ASCII digits, in every part
    for text in ("\u0661/\u0662", "1/\u0662", "\u0663", "0.\u0663", "1e\u0663", "\uff11"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


@pytest.mark.parametrize("limit", [4300, 640])
def test_rational_str_past_the_int_digit_limit(limit):
    # a 20,000-bit denominator has 6021 digits; the low half of 10**6000 + 7
    # starts with zeros
    values = [Fraction(3**9000 + 1, 2**20000 + 1), Fraction(10**6000 + 7, 3), 10**6000 + 7]
    values += [-v for v in values]
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(v) for v in values]
        sys.set_int_max_str_digits(limit)
        for value in values:
            with pytest.raises(ValueError):
                str(value)
        got = [rational_str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(default)
    assert got == want


def test_weights_past_the_int_digit_limit_round_trip():
    # a 5000-digit weight renders in pieces below the limit and parses back
    huge = 10**4999 + 7
    profile = Profile(
        [VoterType(Fraction(huge, 3), ("a",)), VoterType(Fraction(1, huge), ("a", "b"))]
    )
    text = render_profile(profile)
    assert len(text) > 10_000
    assert parse_profile(text) == profile
    with pytest.raises(ProfileParseError, match="line 1: voter type weight must be"):
        parse_profile("-1" + "0" * 5000 + " : a\n")


def test_parse_rational_past_the_int_digit_limit():
    # rational_str writes p/q in pieces below the limit; parse_rational reads
    # them back
    huge = 10**4999 + 7
    for value in (Fraction(1, huge), Fraction(-huge, 3), Fraction(huge)):
        assert parse_rational(rational_str(value)) == value
    assert parse_rational(f" 1/{'1' * 5000} ") == Fraction(9, 10**5000 - 1)
    assert parse_rational("-12.5") == Fraction(-25, 2)
    for text in ("1/0", "1/" + "0" * 5000, "1/-2", "/3"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


def test_parse_rational_signed_and_decimal_past_the_int_digit_limit():
    ones = "1" * 5000
    whole = parse_rational(ones)
    assert parse_rational("+" + ones) == whole
    assert parse_rational(f"+{ones}/3") == whole / 3
    assert parse_rational(ones + ".5") == whole + Fraction(1, 2)
    decimal = parse_rational("0." + ones)
    assert decimal == Fraction(whole, 10**5000)
    assert parse_rational("-." + ones) == -decimal
    assert parse_rational(rational_str(decimal)) == decimal


def test_parse_rational_trailing_point_past_the_int_digit_limit():
    ones = "1" * 5000
    whole = parse_rational(ones)
    for text in (ones + ".", "+" + ones + ".", "-" + ones + "."):
        value = parse_rational(text)
        assert value == (-whole if text[0] == "-" else whole)
        assert parse_rational(rational_str(value)) == value


def test_parse_rational_exponent_past_the_int_digit_limit():
    ones = "1" * 5000
    whole = parse_rational(ones)
    cases = {
        ones + "e0": whole,
        ones + "E+2": whole * 100,
        "-" + ones + ".e-3": -whole / 1000,
        "." + ones + "e5000": whole,
        "1." + ones + "e-1": (10**5000 + whole) / 10**5001,
    }
    for text, want in cases.items():
        value = parse_rational(text)
        assert value == want
        assert parse_rational(rational_str(value)) == value


def test_parse_rational_exponents_take_at_most_four_digits():
    assert parse_rational("1e9999") == 10**9999
    assert parse_rational("-2.5E-9999") == Fraction(-25, 10**10000)
    for text in ("1e10000", "1e+10000", "1e-10000", "1e00001", "1e30000000"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


def test_parse_rational_reads_what_fraction_reads():
    for text in ("+3/4", "-12.5", "+.25", "0.376", "7.", "1e-3", " -0.0 ",
                 "3.", "1e2", "+7.e1", "-.5E-2", "0e0"):
        assert parse_rational(text) == Fraction(text)
    # Fraction reads underscores from Python 3.11 on, spaces around / from 3.12
    for text in ("+-1", "-+1", "1.2.3", ".", "+", "1./2", "0x10", "e5", ".e1", "1e", "1e+",
                 "1_000", "1 / 2", "0.37_6", "1e1_0"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


def test_render_profile_format(profile12):
    assert render_profile(profile12) == "9 : a1, a2\n1 : a1, a2, b\n3 : b, c\n"


names = st.sampled_from(["a1", "a2", "b", "c", "d_4", "e-5"])
voter_types = st.builds(
    VoterType,
    weight=st.fractions(min_value=Fraction(1, 97), max_value=1000),
    approvals=st.lists(names, min_size=1, max_size=5, unique=True).map(tuple),
)
profiles = st.lists(voter_types, min_size=1, max_size=6).map(Profile)


@given(profiles)
def test_render_parse_round_trip(profile):
    assert parse_profile(render_profile(profile)) == profile


@given(profiles, st.data())
def test_supporter_weights_sum_identity(profile, data):
    total = sum(_supporter_weight(profile, name) for name in profile.candidates)
    assert total == sum(t.weight * len(t.approvals) for t in profile.types)
    as_floats = float_profile(profile)
    m = len(profile.types)
    float_loads = data.draw(
        st.lists(st.floats(1 / 64, 64), min_size=m, max_size=m).map(tuple)
    )
    for prof, values in (
        (profile, (0,) * m), (as_floats, (0,) * m), (as_floats, float_loads)
    ):
        loads = LoadVector(values, 1)
        for name in prof.candidates:
            # the index agrees with a brute-force scan
            indices = prof.supporters(name)
            scan = [k for k, t in enumerate(prof.types) if name in t.approvals]
            assert list(indices) == sorted(indices) == scan
            # the subproblem adds strictly left to right, as on every Python
            # version: float64 bits included; its top is the first highest load
            weight = carried = 0
            top = values[indices[0]]
            for k in indices:
                weight = weight + prof.types[k].weight
                carried = carried + prof.types[k].weight * values[k]
                if values[k] > top:
                    top = values[k]
            sub = Subproblem(prof, type_weights(prof), loads, name)
            for got, expected in (
                (sub.supporter_weight, weight), (sub.carried, carried), (sub.top, top)
            ):
                assert type(got) is type(expected)
                assert repr(got) == repr(expected)
