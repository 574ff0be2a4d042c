import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from varphragmen import (
    LoadVector,
    Method,
    Mode,
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
from varphragmen.analysis import oracle_agreement_campaign
from varphragmen.engine import _ExactLane
from varphragmen.model import Rational, StepSolution, left_sum
from varphragmen.step import SUBSET_ORACLE_CAP, _reduced, _score


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
    sol = unconstrained_solution(sub_for(profile12, loads12_after_seat2, "a2")).record()
    assert sol.x == (F(47, 400), F(-23, 400), 0)  # 0.1175, -0.0575
    assert sol.level == F(87, 400)
    assert not sol.corrected


def test_unconstrained_solution_zero_loads(profile12):
    x = unconstrained_solution(sub_for(profile12, zero(profile12), "a1")).record().x
    assert x == (F(1, 10), F(1, 10), 0)


def test_single_supporter_forced_solution():
    profile = parse_profile("4 : P\n")
    loads = LoadVector(values=(F(3, 7),), seats_assigned=0)
    x = unconstrained_solution(sub_for(profile, loads, "P")).record().x
    assert x == (F(1, 4),)


def test_no_supporters_rejected(profile12):
    with pytest.raises(Exception):
        Subproblem(profile12, zero(profile12), "ghost")
    short = LoadVector(values=(0, 0), seats_assigned=0)
    with pytest.raises(ValueError, match="length does not match"):
        Subproblem(profile12, short, "a1")


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
        sol = unconstrained_solution(sub).record()
        assert min(sol.x) >= 0
        assert sol.score == _score(sub, sol.x) == closed_form_score(sub)
        assert corrected_solution(sub).record() == sol


# ---------------------------------------------------------------------------
# corrected solution

def test_corrected_solution_profile12_seat3(profile12, loads12_after_seat2):
    sol = corrected_solution(sub_for(profile12, loads12_after_seat2, "a2")).record()
    assert sol.x == (F(1, 9), 0, 0)
    assert sol.level == F(19, 90)
    assert sol.score == F(14, 45)
    assert sol.corrected
    assert sol.clamp_rounds == (frozenset({1}),)


def test_corrected_solution_interior_case(profile12):
    sub = sub_for(profile12, zero(profile12), "a1")
    sol = corrected_solution(sub).record()
    assert sol == unconstrained_solution(sub).record()
    assert not sol.corrected
    assert sol.clamp_rounds == ()


def test_corrected_solution_two_clamp_rounds():
    # first solve clamps the load-1 type (level 43/240), the re-solve clamps
    # the 3/20 type (level 23/220), and the final level settles at 1/10
    profile = parse_profile("10 : z\n1 : z\n1 : z\n")
    loads = LoadVector(values=(0, F(3, 20), 1), seats_assigned=0)
    sol = corrected_solution(sub_for(profile, loads, "z")).record()
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


def test_waterfill_leaves_a_supporter_at_the_level_out():
    # after one seat: type 1 sits at the level 1, which is not a binding
    # constraint, so it stays off the active set with the int share 0 (the
    # subset oracle's larger tied subset gives it the Fraction level - 1);
    # only the repr tells the two apart
    profile = parse_profile("1 : z\n1 : z\n")
    loads = LoadVector(values=(F(0), F(1)), seats_assigned=1)
    sol = waterfill_solution(sub_for(profile, loads, "z"))
    assert repr(sol.x) == repr((F(1), 0))
    assert sol.corrected is False


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


def test_subset_oracle_cap(monkeypatch):
    lines = "\n".join("1 : z" for _ in range(13))
    profile = parse_profile(lines)
    sub = sub_for(profile, zero(profile), "z")
    with pytest.raises(ValueError, match="cap"):
        subset_oracle(sub)
    # the cap is read at call time
    monkeypatch.setattr("varphragmen.step.SUBSET_ORACLE_CAP", 1)
    with pytest.raises(ValueError, match="cap"):
        subset_oracle(sub_for(parse_profile("1 : z\n2 : z\n"), zero(parse_profile("1 : z\n2 : z\n")), "z"))
    monkeypatch.setattr("varphragmen.step.SUBSET_ORACLE_CAP", 13)
    assert subset_oracle(sub).level == F(1, 13)


def test_subset_oracle_keeps_a_supporter_at_the_level():
    # after one seat: {0} and {0, 1} both reach level 1 and score 1; type 1
    # sits at the level with a zero share, which is feasible, and the larger
    # subset wins the tie, so its share is the Fraction level - 1, not int 0
    profile = parse_profile("1 : z\n1 : z\n")
    loads = LoadVector(values=(F(0), F(1)), seats_assigned=1)
    sol = subset_oracle(sub_for(profile, loads, "z"))
    assert repr(sol.x) == repr((F(1), F(0)))
    assert sol.corrected is False


def fraction_subset_oracle(sub: Subproblem) -> StepSolution:
    """The subset oracle in ``Fraction`` arithmetic throughout: the reference
    that :func:`subset_oracle`'s integer enumeration matches in value and in
    ``repr``."""
    entries = sub.entries
    m = len(entries)
    if m > SUBSET_ORACLE_CAP:
        raise ValueError(
            f"candidate {sub.candidate!r} has {m} supporter types, "
            f"exceeding the subset-oracle cap of {SUBSET_ORACLE_CAP}"
        )
    best_key = None
    best: tuple[list[tuple[int, Rational, Rational]], Rational] | None = None
    for mask in range(1, 1 << m):
        chosen = [entries[j] for j in range(m) if mask >> j & 1]
        carried = sum(u * r for _, u, r in chosen)
        weight = sum(u for _, u, _ in chosen)
        level = (carried + 1) / weight
        if any(level - r < 0 for _, _, r in chosen):
            continue
        score = sum(u * (level - r) * (level + r) for _, u, r in chosen)
        key = (score, -len(chosen), tuple(k for k, _, _ in chosen))
        if best_key is None or key < best_key:
            best_key = key
            best = (chosen, level)
    assert best is not None  # the singleton of the min-load type is always feasible
    chosen, level = best
    return sub.solution(level, 0, chosen, corrected=len(chosen) != m).record()


def assert_same_as_fraction_oracle(sub):
    got, want = subset_oracle(sub), fraction_subset_oracle(sub)
    assert got == want
    assert repr(got) == repr(want)
    return got


def test_subset_oracle_is_the_fraction_oracle_over_a_campaign(monkeypatch):
    compared = []

    def both(sub):
        compared.append(sub)
        return assert_same_as_fraction_oracle(sub)

    monkeypatch.setattr("varphragmen.analysis.subset_oracle", both)
    report = oracle_agreement_campaign(seed=20261020, trials=150)
    assert not report.findings
    assert len(compared) == report.instances > 1000


def test_subset_oracle_is_the_fraction_oracle_on_skewed_loads():
    corrected = 0
    for sub in skewed_subproblems(random.Random(20260810), 250):
        corrected += assert_same_as_fraction_oracle(sub).corrected
    assert corrected >= 200


def fraction_waterfill_solution(sub: Subproblem) -> StepSolution:
    """Water-filling in ``Fraction`` arithmetic throughout: the reference
    that :func:`waterfill_solution`'s integer scan matches in value and in
    ``repr``."""
    entries = sorted(sub.entries, key=lambda e: (e[2], e[0]))
    blocks: list[list[tuple[int, Rational, Rational]]] = []
    for entry in entries:
        if blocks and blocks[-1][0][2] == entry[2]:
            blocks[-1].append(entry)
        else:
            blocks.append([entry])

    carried: Rational = 0
    weight: Rational = 0
    level: Rational = 0
    for pos, block in enumerate(blocks):
        carried += sum(u * r for _, u, r in block)
        weight += sum(u for _, u, _ in block)
        level = (carried + 1) / weight
        if pos + 1 == len(blocks) or level <= blocks[pos + 1][0][2]:
            break

    active = [(k, u, r) for k, u, r in entries if r < level]
    # r == level would leave the unconstrained solution at exactly zero,
    # which is not a binding constraint.
    corrected = any(r > level for _, _, r in entries)
    return sub.solution(level, 0, active, corrected=corrected).record()


def assert_same_as_fraction_waterfill(sub):
    got, want = waterfill_solution(sub), fraction_waterfill_solution(sub)
    assert got == want
    assert repr(got) == repr(want)
    return got


def test_waterfill_is_the_fraction_waterfill_over_a_campaign(monkeypatch):
    compared = []

    def both(sub):
        compared.append(sub)
        return assert_same_as_fraction_waterfill(sub)

    monkeypatch.setattr("varphragmen.analysis.waterfill_solution", both)
    report = oracle_agreement_campaign(seed=20261020, trials=150)
    assert not report.findings
    assert len(compared) == report.instances > 1000


def test_waterfill_is_the_fraction_waterfill_on_skewed_loads():
    corrected = 0
    for sub in skewed_subproblems(random.Random(20260810), 250):
        corrected += assert_same_as_fraction_waterfill(sub).corrected
    assert corrected >= 200


# ---------------------------------------------------------------------------
# properties

names = st.sampled_from(["A", "B", "C", "D", "E"])
voter_types = st.builds(
    VoterType,
    weight=st.integers(min_value=1, max_value=100).map(F),
    approvals=st.lists(names, min_size=1, max_size=5, unique=True).map(tuple),
)
profiles = st.lists(voter_types, min_size=1, max_size=6).map(Profile)


@st.composite
def election_states(draw):
    """A profile plus loads produced by a partial election run."""
    profile = draw(profiles)
    seats = draw(st.integers(min_value=0, max_value=5))
    loads = LoadVector.zero(profile)
    if seats:
        result = run_election(profile, Method.VAR_PHRAGMEN, seats, mode=Mode.PARTY)
        loads = result.records[-1].loads_after
    candidate = draw(st.sampled_from(sorted(profile.candidates)))
    return profile, loads, candidate


@settings(deadline=None, max_examples=80)
@given(election_states())
def test_three_solvers_agree(state):
    profile, loads, candidate = state
    sub = Subproblem(profile, loads, candidate)
    a = corrected_solution(sub).record()
    b = waterfill_solution(sub)
    c = subset_oracle(sub)
    assert a.x == b.x == c.x
    assert a.level == b.level == c.level
    assert a.score == b.score == c.score
    assert a.corrected == b.corrected == c.corrected
    if not a.corrected:
        # interior case: the equality-constrained solve is already feasible,
        # and the closed-form score applies
        assert a == unconstrained_solution(sub).record()
        assert a.score == closed_form_score(sub)
    # the exact lane's integer solver gives the share-by-share solution
    exact = _ExactLane(profile, Method.VAR_PHRAGMEN, loads).subproblem(candidate)
    assert corrected_solution(exact).record() == a


@settings(deadline=None, max_examples=80)
@given(election_states())
def test_subset_oracle_is_the_fraction_oracle(state):
    assert_same_as_fraction_oracle(Subproblem(*state))


@settings(deadline=None, max_examples=80)
@given(election_states())
def test_waterfill_is_the_fraction_waterfill(state):
    assert_same_as_fraction_waterfill(Subproblem(*state))


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


@st.composite
def reducible_fractions(draw):
    """``(num, den, radical)`` with ``num = k*g`` and ``den = m*g``, ``k/m`` in
    lowest terms and ``g`` a product of powers of ``radical``'s primes, which
    may exceed the powers in ``radical``: the precondition of
    :func:`_reduced`, and nothing more.  ``k = 0`` may come with any ``m``,
    whose primes ``radical`` need not cover."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 11, 19, 23, 4807, 3793]), unique=True))
    radical = math.prod(p ** draw(st.integers(1, 3)) for p in primes)
    g = math.prod(p ** draw(st.integers(0, 40)) for p in primes)
    k = draw(st.integers(-(10**40), 10**40))
    m = draw(st.integers(1, 10**40))
    assume(k == 0 or math.gcd(k, m) == 1)
    return k * g, m * g, radical


@settings(deadline=None, max_examples=300)
@given(reducible_fractions())
@example((0, 1, 1))
@example((0, 4807**3 * 6, 4807))
@example((0, 10**40 + 1, 2))
@example((-(2**300) * 7, 2**500 * 3, 6))
@example((5**20, 5**3, 5))
@example((-1, 10**50, 2))
@example((3 * 4 * 7**41, 5 * 4, 14))
def test_reduced_is_the_public_constructor_s_fraction(case):
    """The exact lane's reduction against ``radical`` builds the same
    ``Fraction`` as the public constructor, down to its slots, on every
    Python version: zero (over a denominator coprime to a small
    ``radical`` too), negative numerators, a factor that two rounds remove
    (``4`` against ``14``), and common powers past two rounds of
    ``radical``'s, which the public constructor removes, included."""
    num, den, radical = case
    got, want = _reduced(num, den, radical), F(num, den)
    assert type(got) is F
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)


def test_merge_invariance_for_election_loads():
    profile = parse_profile("2 : a, b\n3 : a, b\n4 : b\n")
    result = run_election(profile, Method.VAR_PHRAGMEN, 3, mode=Mode.PARTY)
    loads = result.records[-1].loads_after
    # types with identical approval sets always carry identical loads
    assert loads.values[0] == loads.values[1]
    merged = merge_duplicate_types(profile)
    merged_loads = LoadVector(
        values=(loads.values[0], loads.values[2]), seats_assigned=loads.seats_assigned
    )
    for name in profile.candidates:
        orig = corrected_solution(Subproblem(profile, loads, name)).record()
        comp = corrected_solution(Subproblem(merged, merged_loads, name)).record()
        assert comp.level == orig.level
        assert comp.score == orig.score
        assert comp.x == (orig.x[0], orig.x[2])
        assert orig.x[0] == orig.x[1]


@settings(deadline=None, max_examples=60)
@given(election_states(), st.sampled_from([F(2), F(3), F(7, 2), F(1, 5)]))
def test_scaling_weights_scales_scores_inversely(state, c):
    profile, loads, candidate = state
    scaled_profile = Profile(
        VoterType(t.weight * c, t.approvals) for t in profile.types
    )
    scaled_loads = LoadVector(
        values=tuple(r / c for r in loads.values),
        seats_assigned=loads.seats_assigned,
    )
    base = corrected_solution(Subproblem(profile, loads, candidate)).record()
    scaled = corrected_solution(Subproblem(scaled_profile, scaled_loads, candidate)).record()
    assert scaled.score == base.score / c
    assert scaled.x == tuple(xk / c for xk in base.x)


def skewed_subproblems(rng, profiles):
    """Subproblems of small random profiles at skewed random loads.

    The loads are squares of random rationals, about a third of them zero,
    so that many supporters start above the unconstrained level.  They need
    not come from an election: a subproblem only reads them.
    """
    names = [f"c{i}" for i in range(4)]
    for _ in range(profiles):
        profile = Profile(
            VoterType(F(rng.randint(1, 20)), tuple(rng.sample(names, rng.randint(1, 3))))
            for _ in range(rng.randint(2, 8))
        )
        values = tuple(
            0 if rng.random() < 0.3 else F(rng.randint(1, 40), rng.randint(1, 8)) ** 2 / 50
            for _ in profile.types
        )
        loads = LoadVector(values, rng.randint(0, 5))
        for name in profile.candidates:
            yield Subproblem(profile, loads, name)


def integer_subproblem(sub):
    """The exact lane's subproblem at ``sub``'s loads, whose ``carried``,
    ``squares`` and ``top`` must be a fraction scan of ``(sum(u*r),
    sum(u*r*r), max r)`` times ``(L*D, L*D*D, D)``."""
    values = [0] * len(sub.profile.types)
    for k, _, r in sub.entries:
        values[k] = r
    lane = _ExactLane(sub.profile, Method.VAR_PHRAGMEN, LoadVector(tuple(values), 0))
    exact = lane.subproblem(sub.candidate)
    unit = lane.multiplier * lane.denominator
    assert (exact.carried, exact.squares, exact.top) == (
        sum(u * r for _, u, r in sub.entries) * unit,
        sum(u * r * r for _, u, r in sub.entries) * unit * lane.denominator,
        max(r for _, _, r in sub.entries) * lane.denominator,
    )
    return exact


def test_closed_form_score_on_clamped_instances():
    instances = corrected = repeated = 0
    for sub in skewed_subproblems(random.Random(20260810), 250):
        sol = corrected_solution(integer_subproblem(sub)).record()
        assert sol.score == _score(sub, sol.x)
        for oracle in (waterfill_solution(sub), subset_oracle(sub)):
            assert (sol.x, sol.level, sol.score, sol.corrected) == (
                oracle.x, oracle.level, oracle.score, oracle.corrected
            )
        instances += 1
        corrected += sol.corrected
        repeated += len(sol.clamp_rounds) > 1
    assert instances > 800
    assert corrected >= 200
    assert repeated > 0


def plain_clamp_loop(sub):
    """The clamp loop with nothing carried: every round re-sums its active
    entries left to right, scans all of them and scores with ``_score``."""
    active = sub.entries
    rounds = []
    while True:
        weight = left_sum(u for _, u, _ in active)
        level = (left_sum(u * r for _, u, r in active) + 1) / weight
        negative = frozenset(k for k, _, r in active if r > level)
        if not negative:
            break
        rounds.append(negative)
        active = [entry for entry in active if entry[0] not in negative]
    x = [0] * len(sub.profile.types)
    for k, _, r in active:
        x[k] = level - r
    return StepSolution(
        sub.candidate, tuple(x), level, _score(sub, x), bool(rounds), tuple(rounds)
    )


def test_share_lane_is_the_plain_clamp_loop():
    instances = clamped = 0
    for sub in skewed_subproblems(random.Random(20260810), 250):
        values = [0] * len(sub.profile.types)
        for k, _, r in sub.entries:
            values[k] = r
        loads = LoadVector(tuple(values), 0)
        floats = Profile(
            VoterType(float(t.weight), t.approvals) for t in sub.profile.types
        )
        float_loads = LoadVector(tuple(float(r) for r in values), 0)
        # float64 bits, and the exact values of the share lane
        for profile, at in ((floats, float_loads), (sub.profile, loads)):
            share = Subproblem(profile, at, sub.candidate)
            assert repr(corrected_solution(share).record()) == repr(plain_clamp_loop(share))
        # the exact lane's integer solver
        want = plain_clamp_loop(sub)
        assert corrected_solution(integer_subproblem(sub)).record() == want
        instances += 1
        clamped += want.corrected
    assert instances > 800
    assert clamped >= 200
