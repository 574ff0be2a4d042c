"""Single-seat subproblem: distribute one new seat among a candidate's supporters.

Given current per-type loads ``r`` and a candidate ``i``, the seat shares
``x`` minimize ``sum_k u_k * (2*r_k*x_k + x_k**2)`` subject to

    x_k >= 0,   x_k = 0 for non-supporters,   sum_k u_k * x_k = 1.

Every solver returns the same shape of solution, assembled in one place by
:func:`_solution`: the supporters of an active set move to one common level,
``x_k = level - r_k``, and every other share is zero.  The solvers differ
only in how they choose that level and that active set.

One production solver elects: :func:`corrected_solution` solves with the
equality constraint alone, clamps every negative share to zero and re-solves
on the remaining supporters until all shares are feasible.

The equality-constrained solve on its own is :func:`unconstrained_solution`:
every supporter ends at the common level of :func:`unconstrained_level`, and
shares go negative for supporters whose load already exceeds it.  The max-load
rule (seq-Phragmén) elects by this level, and the CLI's ``--show-uncorrected``
trace prints its raw shares.

Two oracles verify the production solver and never elect; each chooses its
level and active set independently:

* :func:`waterfill_solution` — exact minimizer by water-filling: raise the
  lowest loads to a common level until the unit budget is spent.
* :func:`subset_oracle` — brute force over all supporter subsets.

The three agree on every instance seen so far; the analysis module runs
randomized campaigns that would surface and serialize any divergence.
All functions are pure; callers may evaluate candidates in parallel.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    CandidateId,
    LoadVector,
    Profile,
    Rational,
    StepSolution,
)


class Subproblem:
    """A candidate's seat-distribution subproblem at the current loads.

    Resolves the supporter index set, its combined weight and the
    ``(type index, weight, load)`` entries of the supporters once, up front.
    Every candidate of a profile has at least one supporter; a name outside
    the profile raises ``UnknownCandidateError`` from :meth:`Profile.supporters`.
    """

    __slots__ = ("profile", "candidate", "supporters", "supporter_weight", "entries")

    def __init__(self, profile: Profile, loads: LoadVector, candidate: CandidateId):
        supporters, weight = profile.supporters(candidate)
        if len(loads.values) != len(profile.types):
            raise ValueError("load vector length does not match profile")
        self.profile = profile
        self.candidate = candidate
        self.supporters = supporters
        self.supporter_weight = weight
        self.entries = tuple(
            (k, profile.types[k].weight, loads.values[k]) for k in supporters
        )


def unconstrained_level(sub: Subproblem) -> Rational:
    """Common post-seat load of all supporters when negativity is ignored.

    Equals ``(sum of supporter weight*load + 1) / supporter_weight``.  This
    is also the winning score of the max-load sequential method, which moves
    every supporter to exactly this level.
    """
    carried = sum(u * r for _, u, r in sub.entries)
    return (carried + 1) / sub.supporter_weight


def unconstrained_solution(sub: Subproblem) -> StepSolution:
    """The equality-constrained solve: every supporter moves to the common level.

    Shares may be negative for supporters whose load already exceeds
    :func:`unconstrained_level`; no constraint is enforced, so ``corrected``
    is false.
    """
    return _solution(sub, unconstrained_level(sub), sub.entries, corrected=False)


def _score(sub: Subproblem, x: Sequence[Rational]) -> Rational:
    """Objective ``sum(u*(2*r*x + x*x))`` of the shares ``x``, share by share."""
    return sum(u * (2 * r * x[k] + x[k] * x[k]) for k, u, r in sub.entries)


def _solution(
    sub: Subproblem,
    level: Rational,
    active: Iterable[tuple[int, Rational, Rational]],
    corrected: bool,
    clamp_rounds: tuple[frozenset[int], ...] = (),
) -> StepSolution:
    """Move the ``active`` entries to ``level``; every other share is int ``0``."""
    x: list[Rational] = [0] * len(sub.profile.types)
    for k, _, r in active:
        x[k] = level - r
    return StepSolution(
        candidate=sub.candidate,
        x=tuple(x),
        level=level,
        score=_score(sub, x),
        corrected=corrected,
        clamp_rounds=clamp_rounds,
    )


def corrected_solution(sub: Subproblem) -> StepSolution:
    """Clamp-and-resolve iteration for the nonnegativity constraint.

    Solves on the current supporter subset; whenever shares come out
    negative, all currently-negative types are fixed to zero (recorded in
    ``clamp_rounds``) and the solve repeats on the remainder.  Terminates
    because each round strictly shrinks the active set and the minimum-load
    supporter always keeps a positive share.
    """
    active = list(sub.entries)
    rounds: list[frozenset[int]] = []
    while True:
        carried = sum(u * r for _, u, r in active)
        weight = sum(u for _, u, _ in active)
        level = (carried + 1) / weight
        negative = frozenset(k for k, _, r in active if level - r < 0)
        if not negative:
            break
        rounds.append(negative)
        active = [(k, u, r) for k, u, r in active if k not in negative]
    return _solution(sub, level, active, bool(rounds), tuple(rounds))


def waterfill_solution(sub: Subproblem) -> StepSolution:
    """Exact minimizer computed by water-filling.

    Supporters are sorted by load and grouped into blocks of equal load (the
    grouping removes any ambiguity between tied loads).  Scanning blocks in
    ascending order, the common level solving
    ``sum_{r_k < level} u_k*(level - r_k) = 1`` on the prefix is accepted as
    soon as it does not reach the next block's load.  The objective is
    strictly convex on the feasible set, so this level is the unique
    minimizer's.
    """
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
    return _solution(sub, level, active, any(r > level for _, _, r in entries))


#: Enumerating more supporter types than this is rejected (2**12 subsets).
SUBSET_ORACLE_CAP = 12


def subset_oracle(sub: Subproblem, cap: int = SUBSET_ORACLE_CAP) -> StepSolution:
    """Brute-force minimizer by exhaustive active-set enumeration.

    Every nonempty subset of supporter types is solved at its common level;
    subsets producing a negative share are discarded and the feasible
    solution with the minimal score wins.  Ties prefer the larger subset,
    then the lexicographically smallest index tuple, so the result is
    deterministic even on degenerate instances.
    """
    entries = sub.entries
    m = len(entries)
    if m > cap:
        raise ValueError(
            f"candidate {sub.candidate!r} has {m} supporter types, "
            f"exceeding the subset-oracle cap of {cap}"
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
    return _solution(sub, level, chosen, corrected=len(chosen) != m)
