"""tools/pins.py, the script that runs CI's pinned outputs: its table, and a
pin that fails when its recorded digest is wrong."""

import importlib.util
import re
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "pins.py"


@pytest.fixture(scope="module")
def pins():
    spec = importlib.util.spec_from_file_location("pins", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_table_holds_fifteen_distinct_pins(pins):
    assert len(pins.PINS) == 15
    assert len({pin.name for pin in pins.PINS}) == 15
    assert all(re.fullmatch("[0-9a-f]{64}", pin.sha256) for pin in pins.PINS)
    assert {pin.group for pin in pins.PINS} <= set(pins.GROUPS)


def test_a_pin_with_a_wrong_digest_fails_and_is_named(pins, tmp_path, capsys):
    (pin,) = [pin for pin in pins.PINS if pin.name == "sparse-seq"]
    wrong = pin._replace(sha256="0" * 64)
    ok, outputs = pins.run_pins([wrong], tmp_path)
    assert not ok
    line = capsys.readouterr().out.strip()
    assert line == f"sparse-seq: FAIL got {pin.sha256} expected {'0' * 64}"


def test_the_workflow_runs_each_group_once(pins):
    # a group in the table that no CI step names would never run in CI
    workflow = PATH.parent.parent / ".github" / "workflows" / "tests.yml"
    groups = []
    for line in workflow.read_text().splitlines():
        if line.lstrip().startswith("#"):
            continue
        step = re.search(r"\brun:\s*python3? tools/pins\.py\s+(.*)", line)
        if step:
            groups += step.group(1).split()
    # each group once: the table's groups are distinct
    assert sorted(groups) == sorted(pins.GROUPS)


def test_a_group_ends_with_its_wall_time(pins, monkeypatch, capsys):
    # after its pins and checks, a group prints one line with its wall time
    monkeypatch.setattr(pins, "PINS", ())
    assert pins.run_group("sparse")
    assert re.fullmatch(r"sparse: [0-9]+\.[0-9] s", capsys.readouterr().out.strip())
