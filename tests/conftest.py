import warnings
from fractions import Fraction

import pytest

from varphragmen import LoadVector, Profile, VoterType, parse_profile

# hypothesis imports this module while it reports a failing example; with
# libcst installed, that import raises a DeprecationWarning (from
# mypy_extensions), which under ``-W error`` ends the whole session with
# INTERNALERROR instead of reporting the failure.  Importing it here, once,
# with that one warning ignored keeps ``-W error`` in force everywhere else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

PROFILE_12 = "9: a1, a2\n1: a1, a2, b\n3: b, c\n"
PROFILE_13 = "4: A\n1: B\n3: C\n9: A, B\n3: B, C\n"
PROFILE_13_BUMPED = "5: A\n1: B\n3: C\n9: A, B\n3: B, C\n"


def type_weights(profile):
    """The profile's own weights by type index, as a subproblem reads them."""
    return [t.weight for t in profile.types]


def float_profile(profile):
    """``profile`` with every weight converted to float64, as a profile: the
    reference that the float64 lane, which converts only its own copy of the
    weights, is compared with bit for bit."""
    return Profile(VoterType(float(t.weight), t.approvals) for t in profile.types)


@pytest.fixture
def profile12():
    return parse_profile(PROFILE_12)


@pytest.fixture
def profile13():
    return parse_profile(PROFILE_13)


@pytest.fixture
def profile13_bumped():
    return parse_profile(PROFILE_13_BUMPED)


@pytest.fixture
def loads12_after_seat1():
    # seat 1 goes to a1: both approving types move to the common level 1/10
    return LoadVector(values=(Fraction(1, 10), Fraction(1, 10), 0), seats_assigned=1)


@pytest.fixture
def loads12_after_seat2():
    # seat 2 goes to b: its supporters move to 11/40
    return LoadVector(
        values=(Fraction(1, 10), Fraction(11, 40), Fraction(11, 40)),
        seats_assigned=2,
    )
