"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    OracleCampaign,
    TwopartyExact,
    oracle_instances,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


class ShortTwoparty(TwopartyExact):
    """The two-party CLI op at 20 seats, to keep the tests quick."""

    seats_per_op = 20


class CorruptingTwoparty(ShortTwoparty):
    def op(self, i):
        code, stdout = super().op(i)
        return code, stdout[:100] + bytes([stdout[100] ^ 1]) + stdout[101:]


@pytest.mark.parametrize("cls, failures", [(ShortTwoparty, 0), (CorruptingTwoparty, 1)])
def test_corrupted_stdout_byte_is_a_failed_op(pkg, tmp_path, cls, failures):
    workload = cls(pkg, 7, tmp_path)
    workload.verify(ShortTwoparty.op(workload, 0))
    phase = run.measure(workload, 0)
    workload.close()
    assert phase.attempted == 1
    assert len(phase.failures) == failures


def test_trial_loop_matches_the_campaign(pkg, tmp_path):
    for seed in (DEFAULT_SEED, 3):
        workload = OracleCampaign(pkg, seed, tmp_path)
        workload.begin_pass()
        outs = [workload.op(i) for i in range(12)]
        for i, out in enumerate(outs):
            workload.check(i, out)
        report = pkg.analysis.oracle_agreement_campaign(seed, 12)
        assert sum(out[3] for out in outs) == report.instances


def test_instance_count_formula():
    assert oracle_instances(4, 3, party_mode=False) == 4 + 3 + 2
    assert oracle_instances(4, 3, party_mode=True) == 12


def test_generators_are_deterministic(pkg, tmp_path):
    for seed in (DEFAULT_SEED, 11):
        assert workloads.sparse_profile_text(seed) == workloads.sparse_profile_text(seed)
        assert workloads.twoparty_profile_text(pkg, seed) == workloads.twoparty_profile_text(
            pkg, seed
        )
        assert workloads.sweep_alphas(seed) == workloads.sweep_alphas(seed)
        campaign = OracleCampaign(pkg, seed, tmp_path)
        passes = []
        for _ in range(2):
            campaign.begin_pass()
            passes.append([campaign.op(i) for i in range(5)])
        assert passes[0] == passes[1]
    assert workloads.sparse_profile_text(1) != workloads.sparse_profile_text(2)
    assert workloads.sweep_alphas(1) != workloads.sweep_alphas(2)


def test_tracer_wraps_every_binding_and_restores_it(pkg, tmp_path):
    solve = pkg.step.corrected_solution
    bindings = [
        (module, key)
        for module in tracing._package_modules()
        for key, value in vars(module).items()
        if value is solve
    ]
    assert len(bindings) >= 3  # step, engine, analysis and the package itself
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        assert all(getattr(module, key) is not solve for module, key in bindings)
        workload = ShortTwoparty(pkg, DEFAULT_SEED, tmp_path)
        tracer.op = 0
        code, _ = workload.op(0)
        tracer.op = -1
        workload.close()
    finally:
        tracer.uninstall()
    assert code == 0
    assert all(getattr(module, key) is solve for module, key in bindings)
    metrics = tracer.metrics(ops=1, json_bytes=0, overhead=1.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["engine.select_winner.calls"] == 20
    assert metrics["engine.candidates_per_seat"] == 2
    assert metrics["step.corrected_solution.calls"] == 40
    assert metrics["model.Profile.supporters.calls"] == 40
    assert all(value >= 0 for value in metrics.values())


def test_spec_names_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_at_another_seed(name):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
