from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from varphragmen import (
    LoadVector,
    MethodConfig,
    Method,
    Mode,
    NoSupportersError,
    Profile,
    Subproblem,
    VoterType,
    corrected_solution,
    merge_duplicate_types,
    parse_profile,
    run_election,
    subset_oracle,
    unconstrained_level,
    unconstrained_solution,
    waterfill_solution,
)
from varphragmen.step import _score


def sub_for(profile, loads, candidate):
    return Subproblem(profile, loads, candidate)


def zero(profile):
    return LoadVector.zero(profile)


def closed_form_score(sub):
    """``w_i*level**2 - sum(u*r**2)``: the score when no share is clamped."""
    level = unconstrained_level(sub)
    carried_sq = sum(u * r * r for _, u, r in sub.entries)
    return sub.supporter_weight * level * level - carried_sq


# ---------------------------------------------------------------------------
# unconstrained level and solution

def test_level_zero_loads_is_inverse_supporter_weight(profile12):
    loads = zero(profile12)
    assert unconstrained_level(sub_for(profile12, loads, "a1")) == F(1, 10)
    assert unconstrained_level(sub_for(profile12, loads, "b")) == F(1, 4)
    assert unconstrained_level(sub_for(profile12, loads, "c")) == F(1, 3)


def test_level_profile12_seat3(profile12, loads12_after_seat2):
    level = unconstrained_level(sub_for(profile12, loads12_after_seat2, "a2"))
    assert level == F(87, 400)  # 0.2175


def test_unconstrained_solution_can_go_negative(profile12, loads12_after_seat2):
    sol = unconstrained_solution(sub_for(profile12, loads12_after_seat2, "a2"))
    assert sol.x == (F(47, 400), F(-23, 400), 0)  # 0.1175, -0.0575
    assert sol.level == F(87, 400)
    assert not sol.corrected


def test_unconstrained_solution_zero_loads(profile12):
    x = unconstrained_solution(sub_for(profile12, zero(profile12), "a1")).x
    assert x == (F(1, 10), F(1, 10), 0)


def test_single_supporter_forced_solution():
    profile = parse_profile("4 : P\n")
    loads = LoadVector(values=(F(3, 7),), seats_assigned=0)
    x = unconstrained_solution(sub_for(profile, loads, "P")).x
    assert x == (F(1, 4),)


def test_no_supporters_rejected(profile12):
    with pytest.raises(Exception):
        Subproblem(profile12, zero(profile12), "ghost")


# ---------------------------------------------------------------------------
# scores

def test_score_interior_zero_loads(profile12):
    loads = zero(profile12)
    for name, score in (("a1", F(1, 10)), ("b", F(1, 4)), ("c", F(1, 3))):
        sub = sub_for(profile12, loads, name)
        assert unconstrained_solution(sub).score == score
        assert corrected_solution(sub).score == score
        assert closed_form_score(sub) == score


@pytest.mark.parametrize("prior_seats", [0, 1, 2, 3])
def test_score_interior_closed_list_divisor_form(prior_seats):
    # a single party at uniform load n/w scores (2n+1)/w: the Sainte-Laguë
    # quotient in disguise
    profile = parse_profile("4 : P\n")
    loads = LoadVector(values=(F(prior_seats, 4),), seats_assigned=prior_seats)
    sub = sub_for(profile, loads, "P")
    assert unconstrained_solution(sub).score == F(2 * prior_seats + 1, 4)
    assert corrected_solution(sub).score == F(2 * prior_seats + 1, 4)


def test_score_general_corrected_instance(profile12, loads12_after_seat2):
    sub = sub_for(profile12, loads12_after_seat2, "a2")
    assert _score(sub, (F(1, 9), 0, 0)) == F(14, 45)
    assert corrected_solution(sub).score == F(14, 45)


def test_score_general_single_type(profile12):
    sub = sub_for(profile12, zero(profile12), "c")
    assert _score(sub, (0, 0, F(1, 3))) == F(1, 3)
    assert corrected_solution(sub).score == F(1, 3)


def test_score_general_matches_interior_on_unconstrained(profile12, loads12_after_seat1):
    for name in ("a2", "b", "c"):
        sub = sub_for(profile12, loads12_after_seat1, name)
        sol = unconstrained_solution(sub)
        assert min(sol.x) >= 0
        assert sol.score == _score(sub, sol.x) == closed_form_score(sub)
        assert corrected_solution(sub) == sol


# ---------------------------------------------------------------------------
# corrected solution

def test_corrected_solution_profile12_seat3(profile12, loads12_after_seat2):
    sol = corrected_solution(sub_for(profile12, loads12_after_seat2, "a2"))
    assert sol.x == (F(1, 9), 0, 0)
    assert sol.level == F(19, 90)
    assert sol.score == F(14, 45)
    assert sol.corrected
    assert sol.clamp_rounds == (frozenset({1}),)


def test_corrected_solution_interior_case(profile12):
    sub = sub_for(profile12, zero(profile12), "a1")
    sol = corrected_solution(sub)
    assert sol == unconstrained_solution(sub)
    assert not sol.corrected
    assert sol.clamp_rounds == ()


def test_corrected_solution_two_clamp_rounds():
    # first solve clamps the load-1 type (level 43/240), the re-solve clamps
    # the 3/20 type (level 23/220), and the final level settles at 1/10
    profile = parse_profile("10 : z\n1 : z\n1 : z\n")
    loads = LoadVector(values=(0, F(3, 20), 1), seats_assigned=0)
    sol = corrected_solution(sub_for(profile, loads, "z"))
    assert sol.clamp_rounds == (frozenset({2}), frozenset({1}))
    assert sol.x == (F(1, 10), 0, 0)
    assert sol.level == F(1, 10)
    assert sol.corrected


# ---------------------------------------------------------------------------
# water-filling

def test_waterfill_profile12_seat3(profile12, loads12_after_seat2):
    sol = waterfill_solution(sub_for(profile12, loads12_after_seat2, "a2"))
    assert sol.level == F(19, 90)
    assert sol.x == (F(1, 9), 0, 0)
    assert sol.corrected


def test_waterfill_equal_loads():
    profile = parse_profile("2 : P\n3 : P\n")
    loads = LoadVector(values=(F(1, 2), F(1, 2)), seats_assigned=0)
    sol = waterfill_solution(sub_for(profile, loads, "P"))
    assert sol.level == F(1, 2) + F(1, 5)
    assert sol.x == (F(1, 5), F(1, 5))
    assert not sol.corrected


def test_waterfill_two_block_instance():
    profile = parse_profile("10 : z\n1 : z\n1 : z\n")
    loads = LoadVector(values=(0, F(3, 20), 1), seats_assigned=0)
    sol = waterfill_solution(sub_for(profile, loads, "z"))
    assert sol.level == F(1, 10)
    assert sol.x == (F(1, 10), 0, 0)


# ---------------------------------------------------------------------------
# subset oracle

def test_subset_oracle_profile12_seat3(profile12, loads12_after_seat2):
    sub = sub_for(profile12, loads12_after_seat2, "a2")
    assert subset_oracle(sub) == waterfill_solution(sub)


def test_subset_oracle_single_supporter():
    profile = parse_profile("4 : P\n")
    loads = LoadVector(values=(F(2, 5),), seats_assigned=0)
    sol = subset_oracle(sub_for(profile, loads, "P"))
    assert sol.x == (F(1, 4),)


def test_subset_oracle_two_clamp_instance():
    profile = parse_profile("10 : z\n1 : z\n1 : z\n")
    loads = LoadVector(values=(0, F(3, 20), 1), seats_assigned=0)
    sol = subset_oracle(sub_for(profile, loads, "z"))
    assert sol.x == (F(1, 10), 0, 0)
    assert sol.corrected


def test_subset_oracle_cap():
    lines = "\n".join("1 : z" for _ in range(13))
    profile = parse_profile(lines)
    sub = sub_for(profile, zero(profile), "z")
    with pytest.raises(ValueError, match="cap"):
        subset_oracle(sub)
    with pytest.raises(ValueError, match="cap"):
        subset_oracle(sub_for(parse_profile("1 : z\n2 : z\n"), zero(parse_profile("1 : z\n2 : z\n")), "z"), cap=1)
    assert subset_oracle(sub, cap=13).level == F(1, 13)


# ---------------------------------------------------------------------------
# properties

names = st.sampled_from(["A", "B", "C", "D", "E"])
voter_types = st.builds(
    VoterType,
    weight=st.integers(min_value=1, max_value=100).map(F),
    approvals=st.lists(names, min_size=1, max_size=5, unique=True).map(tuple),
)
profiles = st.lists(voter_types, min_size=1, max_size=6).map(Profile.from_types)


@st.composite
def election_states(draw):
    """A profile plus loads produced by a partial election run."""
    profile = draw(profiles)
    seats = draw(st.integers(min_value=0, max_value=5))
    loads = LoadVector.zero(profile)
    if seats:
        result = run_election(
            profile, MethodConfig(Method.VAR_PHRAGMEN, Mode.PARTY, seats)
        )
        loads = result.records[-1].loads_after
    candidate = draw(st.sampled_from(sorted(profile.candidates)))
    return profile, loads, candidate


@settings(deadline=None, max_examples=80)
@given(election_states())
def test_three_solvers_agree(state):
    profile, loads, candidate = state
    sub = Subproblem(profile, loads, candidate)
    a = corrected_solution(sub)
    b = waterfill_solution(sub)
    c = subset_oracle(sub)
    assert a.x == b.x == c.x
    assert a.level == b.level == c.level
    assert a.score == b.score == c.score
    assert a.corrected == b.corrected == c.corrected
    if not a.corrected:
        # interior case: the equality-constrained solve is already feasible,
        # and the closed-form score applies
        assert a == unconstrained_solution(sub)
        assert a.score == closed_form_score(sub)


@settings(deadline=None, max_examples=80)
@given(election_states(), st.data())
def test_waterfill_minimizes_over_random_feasible_points(state, data):
    profile, loads, candidate = state
    sub = Subproblem(profile, loads, candidate)
    best = waterfill_solution(sub)
    ticks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=len(sub.supporters),
            max_size=len(sub.supporters),
        ).filter(lambda ts: any(ts))
    )
    mass = sum(
        profile.types[k].weight * t for k, t in zip(sub.supporters, ticks)
    )
    x = [0] * len(profile.types)
    for k, t in zip(sub.supporters, ticks):
        x[k] = F(t) / mass
    assert sum(t.weight * xk for t, xk in zip(profile.types, x)) == 1
    assert _score(sub, x) >= best.score


@settings(deadline=None, max_examples=80)
@given(election_states())
def test_clamping_strictly_lowers_the_level(state):
    profile, loads, candidate = state
    sub = Subproblem(profile, loads, candidate)
    sol = corrected_solution(sub)
    if sol.corrected:
        assert sol.level < unconstrained_level(sub)
    else:
        assert sol.level == unconstrained_level(sub)


def test_merge_invariance_for_election_loads():
    profile = parse_profile("2 : a, b\n3 : a, b\n4 : b\n")
    result = run_election(profile, MethodConfig(Method.VAR_PHRAGMEN, Mode.PARTY, 3))
    loads = result.records[-1].loads_after
    # types with identical approval sets always carry identical loads
    assert loads.values[0] == loads.values[1]
    merged = merge_duplicate_types(profile)
    merged_loads = LoadVector(
        values=(loads.values[0], loads.values[2]), seats_assigned=loads.seats_assigned
    )
    for name in profile.candidates:
        orig = corrected_solution(Subproblem(profile, loads, name))
        comp = corrected_solution(Subproblem(merged, merged_loads, name))
        assert comp.level == orig.level
        assert comp.score == orig.score
        assert comp.x == (orig.x[0], orig.x[2])
        assert orig.x[0] == orig.x[1]


@settings(deadline=None, max_examples=60)
@given(election_states(), st.sampled_from([F(2), F(3), F(7, 2), F(1, 5)]))
def test_scaling_weights_scales_scores_inversely(state, c):
    profile, loads, candidate = state
    scaled_profile = Profile.from_types(
        VoterType(t.weight * c, t.approvals) for t in profile.types
    )
    scaled_loads = LoadVector(
        values=tuple(r / c for r in loads.values),
        seats_assigned=loads.seats_assigned,
    )
    base = corrected_solution(Subproblem(profile, loads, candidate))
    scaled = corrected_solution(Subproblem(scaled_profile, scaled_loads, candidate))
    assert scaled.score == base.score / c
    assert scaled.x == tuple(xk / c for xk in base.x)
