from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varphragmen import (
    Profile,
    ProfileParseError,
    UnknownCandidateError,
    VoterType,
    merge_duplicate_types,
    parse_profile,
    parse_rational,
    rational_str,
    render_profile,
)

from conftest import PROFILE_12, PROFILE_13


def test_parse_profile_12():
    profile = parse_profile(PROFILE_12)
    assert len(profile.types) == 3
    assert [t.weight for t in profile.types] == [9, 1, 3]
    assert profile.candidates == ("a1", "a2", "b", "c")
    assert profile.total_weight == 13
    assert profile.types[1].approvals == ("a1", "a2", "b")


def test_parse_profile_13():
    profile = parse_profile(PROFILE_13)
    assert len(profile.types) == 5
    assert profile.total_weight == 20
    assert profile.candidates == ("A", "B", "C")


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
    assert profile.total_weight == Fraction(9, 2)


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
        ("3 :", "empty approval"),
        ("3 : a, a", "duplicate"),
        ("3 : a?b", "invalid candidate name"),
        ("1 : a\n2 : b!\n", "line 2"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ProfileParseError) as excinfo:
        parse_profile(text)
    assert fragment in str(excinfo.value)


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
    assert merged.total_weight == profile.total_weight


def test_merge_ignores_approval_order():
    profile = parse_profile("2 : a, b\n3 : b, a\n1 : a\n")
    merged = merge_duplicate_types(profile)
    assert [t.weight for t in merged.types] == [5, 1]
    assert merged.types[0].approvals == ("a", "b")


def test_supporters_profile12(profile12):
    assert profile12.supporters("a1") == ((0, 1), 10)
    assert profile12.supporters("c") == ((2,), 3)


def test_supporters_profile13(profile13):
    indices, weight = profile13.supporters("B")
    assert indices == (1, 3, 4)
    assert weight == 13


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


def test_int_weights_are_normalized_to_fractions():
    t = VoterType(3, ("a",))
    assert isinstance(t.weight, Fraction)


def test_rational_str_and_parse_rational():
    assert rational_str(Fraction(7, 40)) == "7/40"
    assert rational_str(Fraction(3)) == "3"
    assert parse_rational("7/40") == Fraction(7, 40)
    assert parse_rational("0.376") == Fraction(47, 125)
    with pytest.raises(ValueError):
        parse_rational("1:2")


def test_render_profile_format(profile12):
    assert render_profile(profile12) == "9 : a1, a2\n1 : a1, a2, b\n3 : b, c\n"


names = st.sampled_from(["a1", "a2", "b", "c", "d_4", "e-5"])
voter_types = st.builds(
    VoterType,
    weight=st.fractions(min_value=Fraction(1, 97), max_value=1000),
    approvals=st.lists(names, min_size=1, max_size=5, unique=True).map(tuple),
)
profiles = st.lists(voter_types, min_size=1, max_size=6).map(Profile.from_types)


@given(profiles)
def test_render_parse_round_trip(profile):
    assert parse_profile(render_profile(profile)) == profile


@given(profiles)
def test_supporter_weights_sum_identity(profile):
    total = sum(profile.supporters(name)[1] for name in profile.candidates)
    assert total == sum(t.weight * len(t.approvals) for t in profile.types)
    as_floats = Profile.from_types(
        VoterType(float(t.weight), t.approvals) for t in profile.types
    )
    for prof in (profile, as_floats):
        for name in prof.candidates:
            # the index agrees with a brute-force scan, float64 bits included
            indices, weight = prof.supporters(name)
            scan = [k for k, t in enumerate(prof.types) if name in t.approvals]
            assert list(indices) == sorted(indices) == scan
            expected = sum(prof.types[k].weight for k in indices)
            assert type(weight) is type(expected)
            assert repr(weight) == repr(expected)
