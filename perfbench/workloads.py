"""Seeded workloads: input generators, the op each run repeats, and output checks.

A workload builds its inputs from the seed alone and hands the package only
those inputs.  An *op* is the workload's unit of work; a *pass* is the fixed
sequence of ops that a run repeats whole, so that every run of a seed times
the same set of ops.  Ops look up package functions through the module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

#: Campaign seed of the ROADMAP; reference outputs are recorded at this seed.
DEFAULT_SEED = 20260810

#: Overlap mass of the source paper's two-party family.
ZETA = Fraction(376, 1000)

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


class CheckFailed(Exception):
    """An op's output, or the run's reference result, is wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sparse_profile_text(seed: int) -> str:
    """2000 voter types over c000..c199: weight 1..100, then 1-3 distinct approvals."""
    rng = random.Random(seed)
    names = [f"c{i:03d}" for i in range(200)]
    lines = []
    for _ in range(2000):
        weight = rng.randint(1, 100)
        approvals = rng.sample(names, rng.randint(1, 3))
        lines.append(f"{weight} : {', '.join(approvals)}")
    return "\n".join(lines) + "\n"


def twoparty_profile_text(pkg, seed: int) -> str:
    """The paper's two-party profile at alpha = 37/100, voter types in seeded order.

    The default seed keeps ``render_profile`` order.  Other seeds shuffle the
    three type lines: that changes every output byte but not the arithmetic,
    whereas a seeded alpha would not do.  Op time depends strongly on alpha
    (0.52 s at 31/100 against 0.88 s at 37/100 on a 2-CPU machine), so a
    seeded alpha would make runs of different seeds incomparable.
    """
    family = pkg.analysis.TwoPartyFamily(alpha=Fraction(37, 100), zeta=ZETA)
    lines = pkg.model.render_profile(family.profile()).splitlines()
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(lines)
    return "\n".join(lines) + "\n"


def sweep_alphas(seed: int) -> list[Fraction]:
    """The grid k/100, k = 0..100, or 101 sorted seeded draws of k/1000."""
    if seed == DEFAULT_SEED:
        return [Fraction(k, 100) for k in range(101)]
    rng = random.Random(seed)
    return sorted(Fraction(rng.randint(0, 1000), 1000) for _ in range(101))


def oracle_instances(candidates: int, seats: int, party_mode: bool) -> int:
    """Solver comparisons one trial makes: every eligible candidate at every seat."""
    if party_mode:
        return seats * candidates
    return sum(candidates - s for s in range(seats))


class Workload:
    """Interface the runner drives; see the module docstring for op and pass."""

    name: str
    why: str
    pass_length: int = 1

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed

    def begin_pass(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        """Raise :class:`CheckFailed` when op ``i`` returned a wrong output."""
        raise NotImplementedError

    def seats(self, i: int, out) -> int:
        raise NotImplementedError

    def digest_bytes(self, out) -> bytes:
        """Canonical bytes of an output, hashed into the pass digest."""
        return repr(out).encode()

    def json_bytes(self, out) -> int:
        return 0

    def verify(self, first) -> dict:
        """Untimed check of the run's first output; returns run-record facts."""
        return {}

    def close(self) -> None:
        pass


class CliElection(Workload):
    """In-process ``varphragmen elect ... --format json`` on a generated file."""

    mode = "candidate"
    seats_per_op = 0

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.text = self.profile_text()
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"{self.name}-seed{seed}.profile"
        self.path.write_text(self.text, encoding="utf-8")
        self.argv = [
            "elect", str(self.path), "--method", "var-phragmen",
            "--mode", self.mode, "--seats", str(self.seats_per_op), "--format", "json",
        ]
        self.expected_digest = None

    def profile_text(self) -> str:
        raise NotImplementedError

    def op(self, i):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.pkg.cli.main(self.argv)
        return code, buffer.getvalue().encode("utf-8")

    def check(self, i, out):
        code, stdout = out
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if sha256(stdout) != self.expected_digest:
            raise CheckFailed("stdout digest differs from the verified result's")

    def seats(self, i, out):
        return self.seats_per_op

    def digest_bytes(self, out):
        return out[1]

    def json_bytes(self, out):
        return len(out[1])

    def verify(self, first):
        # Rebuild the election from the JSON the CLI printed, check every
        # per-seat invariant, and render it back to the same bytes; each op
        # must then print those bytes.  At the default seed they must also
        # match the digest recorded when the benchmark was made.
        code, stdout = first
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        model, engine = self.pkg.model, self.pkg.engine
        payload = json.loads(stdout)
        profile = model.parse_profile(self.text)
        result = model.ElectionResult(
            method=model.Method(payload["method"]),
            mode=model.Mode(payload["mode"]),
            records=tuple(
                model.SeatRecord(
                    seat_index=rec["seat"],
                    solution=model.StepSolution(
                        candidate=rec["winner"],
                        x=tuple(Fraction(v) for v in rec["x"]),
                        level=Fraction(rec["level"]),
                        score=Fraction(rec["score"]),
                        corrected=rec["corrected"],
                    ),
                    loads_after=model.LoadVector(
                        tuple(Fraction(v) for v in rec["loads_after"]), rec["seat"]
                    ),
                    variance_after=Fraction(rec["variance_after"]),
                    tied_with=tuple(rec["tied"]),
                )
                for rec in payload["records"]
            ),
            seat_counts=payload["counts"],
        )
        if len(result.records) != self.seats_per_op:
            raise CheckFailed(f"{len(result.records)} seats, expected {self.seats_per_op}")
        winners = Counter(result.winners)
        if any(winners[name] != count for name, count in result.seat_counts.items()):
            raise CheckFailed("seat counts do not match the winners")
        engine.verify_election(profile, result)
        rendered = self.pkg.render.election_json(profile, result, backend="exact")
        if (json.dumps(rendered, indent=2) + "\n").encode("utf-8") != stdout:
            raise CheckFailed("stdout is not the rendering of the election it describes")
        digest = sha256(stdout)
        if self.seed == DEFAULT_SEED and digest != REFERENCE[self.name]:
            raise CheckFailed("stdout differs from the recorded reference")
        self.expected_digest = digest
        loads = result.records[-1].loads_after.values
        return {
            "max_den_bits": max(v.denominator.bit_length() for v in loads),
            "json_sha256": digest,
        }

    def close(self):
        self.path.unlink(missing_ok=True)


class SparseExact(CliElection):
    name = "sparse-exact"
    why = (
        "2000 types x 200 candidates: the only workload where supporter lookup, "
        "per-seat rescoring and the variance recompute dominate"
    )
    seats_per_op = 20

    def profile_text(self):
        return sparse_profile_text(self.seed)


class TwopartyExact(CliElection):
    name = "twoparty-exact"
    why = (
        "3 types, 2 candidates, 400 party-mode seats: Fraction arithmetic on "
        "~4800-bit denominators and few huge rationals to render"
    )
    mode = "party"
    seats_per_op = 400

    def profile_text(self):
        return twoparty_profile_text(self.pkg, self.seed)


class SweepFloat(Workload):
    name = "sweep-float"
    why = (
        "one 1200-seat float64 point of the two-party sweep: per-seat Python "
        "overhead with no lookup cost and no bigints"
    )
    seats_per_op = 1200

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.alphas = sweep_alphas(seed)
        self.pass_length = len(self.alphas)
        self.family = pkg.analysis.two_party_family(ZETA)

    def op(self, i):
        result = self.pkg.analysis.sweep_seat_share(
            self.family, [self.alphas[i]], self.seats_per_op,
            backend=self.pkg.model.Backend.FLOAT64,
        )
        return result.points[0][1]

    def check(self, i, share):
        if not 0 <= share <= 1:
            raise CheckFailed(f"share {share} outside [0, 1]")
        if self.seed == DEFAULT_SEED:
            want = REFERENCE[self.name][i]
            if share * self.seats_per_op != want:
                raise CheckFailed(f"alpha {self.alphas[i]}: {share} != {want} seats")

    def seats(self, i, share):
        return self.seats_per_op


class OracleCampaign(Workload):
    name = "oracle-campaign"
    why = (
        "the seed's 500 oracle-agreement trials: tiny elections where call "
        "overhead and the water-filling and subset oracles dominate"
    )
    trials = 500

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.caps = pkg.analysis.CampaignCaps()
        self.pass_length = self.trials
        self.rng = None

    def begin_pass(self):
        self.rng = random.Random(self.seed)

    def op(self, i):
        # One trial exactly as ``oracle_agreement_campaign`` draws it.
        analysis, Mode = self.pkg.analysis, self.pkg.model.Mode
        profile = analysis.random_profile(
            self.rng, self.caps.max_types, self.caps.max_candidates
        )
        mode = Mode.PARTY if i % 2 else Mode.CANDIDATE
        cap = self.caps.max_seats
        if mode is Mode.CANDIDATE:
            cap = min(cap, len(profile.candidates))
        seats = self.rng.randint(1, cap)
        instances, disagreements = analysis.compare_solvers_over_election(
            profile, seats, mode
        )
        return len(profile.candidates), mode is Mode.PARTY, seats, instances, len(
            disagreements
        )

    def check(self, i, out):
        candidates, party_mode, seats, instances, disagreements = out
        if disagreements:
            raise CheckFailed(f"trial {i}: {disagreements} solver disagreement(s)")
        want = oracle_instances(candidates, seats, party_mode)
        if instances != want:
            raise CheckFailed(f"trial {i}: {instances} instances, expected {want}")

    def seats(self, i, out):
        return out[2]


WORKLOADS = {
    cls.name: cls for cls in (SparseExact, TwopartyExact, SweepFloat, OracleCampaign)
}
