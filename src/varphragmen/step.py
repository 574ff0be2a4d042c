"""Single-seat subproblem: distribute one new seat among a candidate's supporters.

Given current per-type loads ``r`` and a candidate ``i``, the seat shares
``x`` minimize ``sum_k u_k * (2*r_k*x_k + x_k**2)`` subject to

    x_k >= 0,   x_k = 0 for non-supporters,   sum_k u_k * x_k = 1.

Every solve is a light :class:`Solve`: the supporters of an active set move
to one common level, ``x_k = level - r_k``, and every other share is zero.
The solvers differ only in how they choose that level and that active set.
Only ``record`` builds a :class:`StepSolution`; the engine records winners.

One production solver elects: :func:`corrected_solution` solves with the
equality constraint alone, clamps every negative share to zero and re-solves
on the remaining supporters until all shares are feasible.

The subproblem's class is the arithmetic lane.  Every subproblem sums its
own supporters in one pass over the profile's supporter index (the profile
stores only who approves whom): ``supporter_weight``, ``carried =
sum(u*r)`` and ``top = max r`` for the solver's first round.  The
active-set loop is the same in both lanes; each lane supplies the level of
an active set, the bar a load is clamped above, and the score:

* :class:`Subproblem` puts the level at ``(sum(u*r) + 1)/sum(u)``, clamps a
  load above it, and scores share by share, ``u*(2*r*x + x*x)`` over the
  active set in supporter order, on the weights its caller hands it.  The
  float64 lane elects with it on its own floats, and it is the reference
  everywhere else; the two oracles read its entries (below).
  :func:`_score` is that sum over a dense share vector, for recorded shares.
* :class:`IntegerSubproblem`, the exact lane, works on integers: weights
  ``U = u*L`` over the lcm ``L`` of their denominators, loads ``N`` over one
  denominator ``D``, and a seat adds the int ``L*D``.  The engine's exact
  lane holds these integer loads, builds them and moves them on; the
  subproblem reads them.  With ``A = sum(U*N) + L*D`` and ``W = sum(U)``
  over the active set, the level is ``A/W``, the clamp test ``N*W > A``
  (``N > A//W``, as ``N`` is an integer) and the score, in closed form as
  every active supporter ends at the level, ``A*A/W - sum(U*N*N)``.  All
  of it is ``int`` arithmetic: the level ``p/q`` is ``A/W`` reduced by
  ``gcd(A, W)`` and the score ``(p*A - S*q)/q`` by its ``gcd`` with ``q``,
  and both are built as fractions by setting their slots (:func:`_fraction`).
  ``W`` is small, so deciding a seat takes no big ``gcd`` and no
  ``Fraction`` operator; only a recorded solve is reduced to fractions of
  big denominators.  Where the primes its denominators can share with its
  numerators are few, as in long two-party runs, that is by remainders
  against them (:func:`_reduced`), not a gcd of two big integers.

Zero terms cost nothing in either lane: a supporter with zero load moves
straight to ``level`` (``level - 0 == level`` in value and type, float bits
included).

The equality-constrained solve on its own is :func:`unconstrained_solution`:
every supporter ends at the common level of :func:`unconstrained_level`, and
shares go negative for supporters whose load already exceeds it.  The
max-load rule (seq-Phragmén) elects by this level through the production
solver, whose first round is this solve; the engine asserts that it never
clamps.  The CLI's ``--show-uncorrected`` trace prints the raw shares.

Two oracles verify the production solver and never elect; each chooses its
level and active set independently, and returns it recorded.  They read only
a subproblem's ``entries``, its ``candidate`` and the number of its
profile's types, so either takes a :class:`Subproblem` or the entries-only
:class:`OracleInstance` of :func:`oracle_instance`, which sums nothing:

* :func:`waterfill_solution` — exact minimizer by water-filling: raise the
  lowest loads to a common level until the unit budget is spent.
* :func:`subset_oracle` — brute force over all supporter subsets, each
  mask's sums carried from the mask with its lowest bit cleared, scored
  share by share and compared by cross-multiplication.

Both solve on integers over their own common denominators, read from each
supporter's ``as_integer_ratio()`` (``U = u*L``, ``N = r*D``, a seat adds
``L*D``), independently of the exact lane, and build fractions only for the
solve they return, scored share by share: ``level = A/(D*W)``, ``x = (A -
N*W)/(D*W)`` on the active set and int ``0`` off it, the values and types
that :meth:`Subproblem.record` gives.

The three agree on every instance seen so far; the analysis module runs
randomized campaigns that would surface and serialize any divergence.
All functions are pure; callers may evaluate candidates in parallel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import (
    CandidateId,
    LoadVector,
    Profile,
    Rational,
    StepSolution,
    left_sum,
)


class Subproblem:
    """A candidate's seat-distribution subproblem at the current loads.

    One pass over the profile's supporter index builds the ``(k, weights[k],
    load)`` entries, sums ``supporter_weight`` and ``carried = sum(u*r)``
    left to right, in :func:`left_sum`'s order and float bits, and finds
    ``top``, the first highest load.  A name outside the profile raises
    ``UnknownCandidateError`` from :meth:`Profile.supporters`; every other
    has a supporter.  A seat carries one unit of load.
    """

    __slots__ = ("profile", "candidate", "supporters", "supporter_weight", "entries", "carried",
                 "top")

    def __init__(self, profile: Profile, weights: Sequence[Rational], loads: LoadVector,
                 candidate: CandidateId):
        supporters = profile.supporters(candidate)
        values = loads.values
        if len(values) != len(profile.types):
            raise ValueError("load vector length does not match profile")
        if len(weights) != len(values):
            raise ValueError("weight sequence length does not match profile")
        self.profile = profile
        self.candidate = candidate
        self.supporters = supporters
        entries = []
        carried = weight = 0
        top = values[supporters[0]]
        for k in supporters:
            u, r = weights[k], values[k]
            entries.append((k, u, r))
            carried += u * r
            weight += u
            if r > top:
                top = r
        self.entries = tuple(entries)
        self.supporter_weight, self.carried, self.top = weight, carried, top

    def level(self, carried: Rational, weight: Rational) -> tuple[Rational, Rational]:
        """The common level ``(carried + 1)/weight`` of an active set with
        ``sum(u*r) = carried`` and ``sum(u) = weight``, twice: it is also the
        bar a load is clamped above."""
        level = (carried + 1) / weight
        return level, level

    def solution(
        self,
        level: Rational,
        carried: Rational,
        active: Sequence[tuple[int, Rational, Rational]],
        clamp_rounds: tuple[frozenset[int], ...] = (),
        corrected: bool = False,
    ) -> Solve:
        """Move ``active`` to ``level``; score its shares one by one, in
        supporter order (``carried`` is the exact lane's)."""
        score: Rational = 0
        for _, u, r in active:
            x = level - r if r else level
            score += u * (2 * r * x + x * x)
        return Solve(self.candidate, level, score, corrected, clamp_rounds, active, self)

    def record(self, solve: Solve) -> StepSolution:
        """``solve`` with its shares over every type: ``level - r`` on the
        active set, int ``0`` off it; a zero load shares the level object."""
        x: list[Rational] = [0] * len(self.profile.types)
        for k, _, r in solve.active:
            x[k] = solve.level - r if r else solve.level
        return StepSolution(
            solve.candidate, tuple(x), solve.level, solve.score, solve.corrected, solve.clamp_rounds
        )


class OracleInstance(NamedTuple):
    """What the oracles read of a subproblem: ``entries`` are
    :class:`Subproblem`'s ``(type index, weight, load)`` triples, the same
    weight and load objects in supporter order, with none of its sums."""

    profile: Profile
    candidate: CandidateId
    entries: tuple[tuple[int, Rational, Rational], ...]


def oracle_instance(profile: Profile, loads: LoadVector, candidate: CandidateId) -> OracleInstance:
    """``candidate``'s :class:`OracleInstance` at ``loads``, refused as
    :class:`Subproblem` refuses it."""
    supporters = profile.supporters(candidate)
    types, values = profile.types, loads.values
    if len(values) != len(types):
        raise ValueError("load vector length does not match profile")
    return OracleInstance(
        profile, candidate, tuple([(k, types[k].weight, values[k]) for k in supporters])
    )


class IntegerSubproblem:
    """The exact lane's subproblem (see the module docstring), read from the
    integer loads that ``lane`` (the engine's exact lane) holds: ``carried =
    sum(U*N)``, ``squares = sum(U*N*N)`` and ``top = max N``, zero loads
    skipped.  It keeps the lane's denominator ``D``, the ints ``unit = L*D``
    and ``ldd = L*D*D``, and ``radical`` at the time, as a seat moves the
    lane's on, and the number of types, not the lane.  Its level ``A/W`` is
    ``D`` times the common level, and its score ``L*D*D`` times the score.

    ``radical`` is divisible by every prime of ``L`` and ``D``, and that is
    all :meth:`record` needs to reduce by it.  A solve's level ``p/q`` and
    score ``s/t`` are in lowest terms, so a prime that the numerator and the
    denominator of a recorded value share divides ``D`` (the level ``p/(q*D)``
    and a share ``(p - N*q)/(q*D)``) or ``L*D`` (the score ``s/(t*L*D*D)``).
    """

    __slots__ = ("candidate", "entries", "supporter_weight", "carried", "squares", "top", "unit",
                 "ldd", "denominator", "radical", "size")

    def __init__(self, lane, candidate: CandidateId):
        weights, numerators = lane.weights, lane.numerators
        entries = []
        weight = carried = squares = top = 0
        for k in lane.profile.supporters(candidate):
            u, n = weights[k], numerators[k]
            entries.append((k, u, n))
            weight += u
            if n:
                carried += u * n
                squares += u * (n * n)  # squaring n alone is the fast big-int path
                if n > top:
                    top = n
        self.candidate = candidate
        self.entries = tuple(entries)
        self.supporter_weight, self.carried, self.squares, self.top = weight, carried, squares, top
        self.size = len(weights)
        self.denominator, self.radical = lane.denominator, lane.radical
        self.unit, self.ldd = lane.unit, lane.ldd

    def level(self, carried: int, weight: int) -> tuple[Fraction, int]:
        """The level ``A/W`` of an active set with ``sum(U*N) = carried`` and
        ``sum(U) = weight``, in lowest terms, and the bar ``A//W``: ``N*W >
        A`` is ``N > A//W`` for an integer ``N``."""
        total = carried + self.unit
        g = math.gcd(total, weight)
        return _fraction(total // g, weight // g), total // weight

    def solution(
        self,
        level: Fraction,
        carried: int,
        active: Sequence,
        clamp_rounds: tuple = (),
        corrected: bool = False,
    ) -> Solve:
        """Move ``active`` to ``level = p/q``; score ``A*A/W - S = (p*A -
        S*q)/q`` over it, ``S = sum(U*N*N)``, reduced by a ``gcd`` with the
        small ``q``."""
        if not clamp_rounds:  # the first round: ``active`` is every supporter
            squares = self.squares
        else:
            squares = sum(u * (n * n) for _, u, n in active)
        p, q = level.numerator, level.denominator
        s = p * (carried + self.unit) - squares * q
        g = math.gcd(s, q)
        score = _fraction(s // g, q // g)
        return Solve(self.candidate, level, score, corrected, clamp_rounds, active, self)

    def record(self, solve: Solve) -> StepSolution:
        """``solve`` in reduced fractions, its shares over every type."""
        p, q = solve.level.numerator, solve.level.denominator
        scale, radical = q * self.denominator, self.radical
        level = _reduced(p, scale, radical)
        x: list[Rational] = [0] * self.size
        for k, _, n in solve.active:
            x[k] = _reduced(p - n * q, scale, radical) if n else level
        score = _reduced(solve.score.numerator, solve.score.denominator * self.ldd, radical)
        return StepSolution(
            solve.candidate, tuple(x), level, score, solve.corrected, solve.clamp_rounds
        )


def _reduced(num: int, den: int, radical: int) -> Fraction:
    """``num/den`` in lowest terms, for ``den > 0`` and a ``radical`` that
    every prime of ``gcd(num, den)`` divides; ``num == 0`` is ``0`` over any
    ``den``.

    Each round divides out ``h``, the common divisor of ``num`` and ``den``
    among the primes of the last round's ``h``; the first round's ``h`` is
    taken from ``radical``.  A prime of both leaves ``h`` only once it has
    left ``num`` or ``den``, so a round whose ``h`` is 1 leaves them
    coprime.  Every such ``gcd`` has a small operand, ``radical`` or ``h``,
    and the result is built by :func:`_fraction`, without the public
    constructor's ``gcd`` of ``num`` and ``den``.

    The public constructor, whose one ``gcd`` then costs no more, takes the
    rest: a ``radical`` of a quarter of ``den``'s bits or more (a profile of
    many types, whose seats bring many distinct primes), and a common
    factor left after two rounds.  A round removes at most ``radical``'s
    power of each prime, so that factor is a high power: past the 400th in
    the two-party runs at alpha = 31/100, where it is most of ``den`` and
    the ``gcd`` is short, instead of a round per power.
    """
    if 4 * radical.bit_length() >= den.bit_length():
        return Fraction(num, den)
    if not num:
        return Fraction(0)
    h = math.gcd(math.gcd(num, radical), den)
    rounds = 0
    while h > 1 and rounds < 2:
        num //= h
        den //= h
        h = math.gcd(math.gcd(h, num), den)
        rounds += 1
    if h > 1:
        return Fraction(num, den)
    return _fraction(num, den)


def _fraction(num: int, den: int) -> Fraction:
    """The ``Fraction`` ``num/den`` for coprime ``num`` and ``den > 0``: the
    one the public constructor would normalize to, built by setting its
    slots, without its type checks and its ``gcd``.  This is the only code
    that sets a ``Fraction``'s slots."""
    result = object.__new__(Fraction)
    result._numerator, result._denominator = num, den
    return result


class Solve(NamedTuple):
    """A solve of ``sub``, either lane's subproblem: ``active`` moves to the
    common ``level``.  In the share lane ``level`` and ``score`` are the
    values themselves; in the exact lane they are ``D`` and ``L*D*D`` times
    them, fractions in lowest terms that the lane's ``int`` arithmetic
    built, each with a denominator dividing ``W``, so they compare exactly
    without a big ``gcd``."""

    candidate: CandidateId
    level: Rational
    score: Rational
    corrected: bool
    clamp_rounds: tuple[frozenset[int], ...]
    active: Sequence[tuple[int, Rational, Rational]]
    sub: Subproblem | IntegerSubproblem

    def record(self) -> StepSolution:
        """The :class:`StepSolution` of this solve, by its subproblem's ``record``."""
        return self.sub.record(self)


def unconstrained_level(sub: Subproblem) -> Rational:
    """Common post-seat load of all supporters when negativity is ignored.

    Equals ``(sum of supporter weight*load + 1) / supporter_weight``.  This
    is also the winning score of the max-load sequential method, which moves
    every supporter to exactly this level.
    """
    return (sub.carried + 1) / sub.supporter_weight


def unconstrained_solution(sub: Subproblem) -> Solve:
    """The equality-constrained solve: every supporter moves to the common level.

    Shares may be negative for supporters whose load already exceeds
    :func:`unconstrained_level`; no constraint is enforced, so ``corrected``
    is false.
    """
    return sub.solution(unconstrained_level(sub), sub.carried, sub.entries)


def _score(sub: Subproblem, x: Sequence[Rational]) -> Rational:
    """Objective ``sum(u*(2*r*x + x*x))`` of the dense shares ``x``, share by share.

    The reference score of recorded shares: independent of the level, the
    active set and any cached product.
    """
    return left_sum(u * (2 * r * x[k] + x[k] * x[k]) for k, u, r in sub.entries)


def corrected_solution(sub: Subproblem | IntegerSubproblem) -> Solve:
    """Clamp-and-resolve iteration for the nonnegativity constraint.

    Solves on the current supporter subset; whenever shares come out
    negative, all currently-negative types are fixed to zero (recorded in
    ``clamp_rounds``) and the solve repeats on the remainder.  Terminates
    because each round strictly shrinks the active set and the minimum-load
    supporter always keeps a positive share.

    The subproblem's lane supplies each round's level and the bar a load is
    clamped above: the level itself in the share lane, ``A//W`` on the
    exact lane's integers.  The first round reads ``sub.carried`` and scans
    the supporters only if ``sub.top`` exceeds the bar.  After a clamp,
    ``sum(u*r)`` and ``sum(u)`` are re-summed over the active entries, and
    every later round scans: ``top`` exceeds the lowered bar.  The lane
    also scores the :class:`Solve`, in closed form on integers
    (:class:`IntegerSubproblem`) or share by share (:class:`Subproblem`).
    """
    active: Sequence[tuple[int, Rational, Rational]] = sub.entries
    weight = sub.supporter_weight
    carried, top = sub.carried, sub.top
    rounds: list[frozenset[int]] = []
    while True:
        level, bar = sub.level(carried, weight)
        negative = [k for k, _, r in active if r > bar] if top > bar else ()
        if not negative:
            return sub.solution(level, carried, active, tuple(rounds), bool(rounds))
        rounds.append(frozenset(negative))
        active = [entry for entry in active if entry[0] not in rounds[-1]]
        carried = left_sum(u * r for _, u, r in active)
        weight = left_sum(u for _, u, _ in active)


def _scaled(sub: Subproblem | OracleInstance) -> tuple[list[tuple[int, int, int]], int, int]:
    """``sub``'s supporters on integers over an oracle's own common
    denominators: ``(k, U, N)`` entries in supporter order, with ``U = u*L``
    and ``N = r*D`` for ``L`` the lcm of the weight denominators and ``D``
    that of the load denominators, and ``L`` and ``D``.  A seat adds
    ``L*D``."""
    ratios = [(u.as_integer_ratio(), r.as_integer_ratio()) for _, u, r in sub.entries]
    multiplier = math.lcm(*(q for (_, q), _ in ratios))
    denominator = math.lcm(*(d for _, (_, d) in ratios))
    scaled = [
        (k, p * (multiplier // q), n * (denominator // d))
        for (k, _, _), ((p, q), (n, d)) in zip(sub.entries, ratios)
    ]
    return scaled, multiplier, denominator


def _recorded(
    sub: Subproblem | OracleInstance,
    active: Sequence[tuple[int, int, int]],
    total: int,
    weight: int,
    multiplier: int,
    denominator: int,
    corrected: bool,
) -> StepSolution:
    """The solve moving the integer entries ``active`` to the level
    ``A/(D*W)``, recorded: ``x = (A - N*W)/(D*W)`` on the active set, a zero
    load sharing the level object, and int ``0`` off it; the score is
    ``T/(L*D*D*W*W)``, ``T = sum(U*(A - N*W)*(A + N*W))`` share by share.
    These are :meth:`Subproblem.record`'s values and types."""
    scale = denominator * weight
    level = Fraction(total, scale)
    x: list[Rational] = [0] * len(sub.profile.types)
    scaled_score = 0
    for k, u, n in active:
        gap = total - n * weight
        x[k] = Fraction(gap, scale) if n else level
        scaled_score += u * gap * (total + n * weight)
    score = Fraction(scaled_score, multiplier * denominator * scale * weight)
    return StepSolution(sub.candidate, tuple(x), level, score, corrected, ())


def waterfill_solution(sub: Subproblem | OracleInstance) -> StepSolution:
    """Exact minimizer computed by water-filling.

    Supporters are sorted by load and grouped into blocks of equal load (the
    grouping removes any ambiguity between tied loads).  Scanning blocks in
    ascending order, the common level solving
    ``sum_{r_k < level} u_k*(level - r_k) = 1`` on the prefix is accepted as
    soon as it does not reach the next block's load.  The objective is
    strictly convex on the feasible set, so this level is the unique
    minimizer's.

    The scan runs on integers over the oracle's own common denominators
    (see :func:`subset_oracle`): with ``W = sum(U)`` and ``A = sum(U*N) +
    L*D`` over the prefix, the level ``A/(D*W)`` is accepted once ``A <=
    N*W`` for the next supporter's ``N``.  That test never passes inside a
    block: a level above ``N`` stays above it as a supporter at ``N``
    joins.  The active set is ``N*W < A``, and the solve is corrected if a
    supporter has ``N*W > A``.  Only the returned solve is built as
    fractions.
    """
    scaled, multiplier, denominator = _scaled(sub)
    entries = sorted(scaled, key=lambda e: (e[2], e[0]))
    m = len(entries)
    total, weight = multiplier * denominator, 0
    for pos, (_, u, n) in enumerate(entries, start=1):
        total += u * n
        weight += u
        if pos == m or total <= entries[pos][2] * weight:
            break

    active = [e for e in entries if e[2] * weight < total]
    # N*W == A would leave the unconstrained solution at exactly zero,
    # which is not a binding constraint.
    corrected = any(n * weight > total for _, _, n in entries)
    return _recorded(sub, active, total, weight, multiplier, denominator, corrected)


#: Enumerating more supporter types than this is rejected (2**12 subsets).
SUBSET_ORACLE_CAP = 12


def _tie_key(chosen: Sequence[tuple[int, int, int]]) -> tuple[int, tuple[int, ...]]:
    """Among equal scores the lowest key wins: the larger subset, then the
    lexicographically smallest tuple of type indices."""
    return -len(chosen), tuple(k for k, _, _ in chosen)


def subset_oracle(sub: Subproblem | OracleInstance) -> StepSolution:
    """Brute-force minimizer by exhaustive active-set enumeration.

    Every nonempty subset of supporter types is solved at its common level;
    subsets producing a negative share are discarded and the feasible
    solution with the minimal score wins.  Ties prefer the larger subset,
    then the lexicographically smallest index tuple, so the result is
    deterministic even on degenerate instances.

    The enumeration runs on integers over the oracle's own common
    denominators: weights ``U = u*L`` (``L`` the lcm of the weight
    denominators) and loads ``N = r*D`` (``D`` that of the load
    denominators).  A subset's ``W = sum(U)`` and ``A = sum(U*N) + L*D`` put
    its level at ``A/(D*W)``; it is infeasible if its largest ``N`` has
    ``N*W > A``, and it scores ``T/(W*W)``, ``T = sum(U*(A - N*W)*(A +
    N*W))`` share by share.  Both are the fraction values times a positive
    constant shared by every subset, so the order and the ties are theirs;
    scores compare by cross-multiplication, and the tie key is built only
    on an exact tie.  Masks are enumerated in increasing order, and each
    mask's ``W``, ``A``, largest ``N`` and members are its lower mask's (its
    lowest bit cleared) plus that bit's supporter, whose entry goes before
    the lower mask's members: so they stay in ascending index order, and
    the tie key and the returned solve read them without a scan of the
    entries.  Scoring stays share by share.  Only the winning subset is
    built as fractions.
    """
    m = len(sub.entries)
    if m > SUBSET_ORACLE_CAP:
        raise ValueError(
            f"candidate {sub.candidate!r} has {m} supporter types, "
            f"exceeding the subset-oracle cap of {SUBSET_ORACLE_CAP}"
        )
    scaled, multiplier, denominator = _scaled(sub)
    size = 1 << m
    weights, totals, tops = [0] * size, [multiplier * denominator] * size, [0] * size
    members: list[tuple[tuple[int, int, int], ...]] = [()] * size
    # the best score T/(W*W) starts at 1/0, above every subset's
    best_mask, best_score, best_weight = 0, 1, 0
    for mask in range(1, size):
        low = mask & -mask
        lower = mask ^ low
        entry = scaled[low.bit_length() - 1]
        _, u, n = entry
        chosen = members[mask] = (entry,) + members[lower]
        weight = weights[mask] = weights[lower] + u
        total = totals[mask] = totals[lower] + u * n
        top = tops[mask] = n if n > tops[lower] else tops[lower]
        if top * weight > total:
            continue
        score = 0
        for _, u, n in chosen:
            score += u * (total - n * weight) * (total + n * weight)
        lhs, rhs = score * best_weight * best_weight, best_score * weight * weight
        if lhs < rhs or lhs == rhs and _tie_key(chosen) < _tie_key(members[best_mask]):
            best_mask, best_score, best_weight = mask, score, weight
    assert best_mask  # the singleton of the min-load type is always feasible
    return _recorded(
        sub, members[best_mask], totals[best_mask], best_weight, multiplier, denominator,
        best_mask != size - 1,
    )
