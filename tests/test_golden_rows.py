"""Golden row pins: the simulator's absolute behaviour.

``tests/golden/rows.json`` holds, for every built-in scenario at seed 1
with 20 flows per cell, each cell's ``events_processed``, the SHA-256 of its
canonical ``ResultRow`` JSON and its ``ExperimentConfig.fingerprint()``.  Any
change to the simulated physics, to a digest payload, to the engine's event
count or to the config serialization behind sweep-cache and work-queue keys
shows up here.  Re-record with
``python3 tests/golden/make_golden.py`` only for a deliberate change, and
review the diff.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

GOLDEN = Path(__file__).resolve().parent / "golden"


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDEN = _make_golden()
PINS = json.loads(MAKE_GOLDEN.ROWS.read_text())
PINNED_CELLS = [(name, label) for name in sorted(PINS) for label in sorted(PINS[name])]


def test_every_pinned_scenario_has_exactly_its_pinned_cells():
    differ = {}
    for name in sorted(PINS):
        labels = set(MAKE_GOLDEN.golden_configs(name))
        if labels != set(PINS[name]):
            differ[name] = {
                "unpinned": sorted(labels - set(PINS[name])),
                "gone": sorted(set(PINS[name]) - labels),
            }
    assert not differ, f"cells differ from the golden pins: {differ}"


@pytest.mark.parametrize(
    "name,label", PINNED_CELLS, ids=[f"{name}/{label}" for name, label in PINNED_CELLS]
)
def test_every_cell_matches_its_golden_pin(name, label):
    config = MAKE_GOLDEN.golden_configs(name).get(label)
    assert config is not None, f"{name}: {label}: pinned cell is no longer produced"
    assert MAKE_GOLDEN.cell_pin(label, config) == PINS[name][label]


def test_every_cell_keeps_its_pinned_fingerprint():
    # No simulation: a moved fingerprint turns every warm sweep cache and
    # every queued task file cold, so it is named on its own.
    moved = {
        f"{name}/{label}": config.fingerprint()
        for name in sorted(PINS)
        for label, config in MAKE_GOLDEN.golden_configs(name).items()
        if label in PINS[name] and config.fingerprint() != PINS[name][label]["fingerprint"]
    }
    assert not moved, f"config fingerprints moved: {moved}"


def test_every_builtin_scenario_is_pinned():
    # A fresh interpreter: other tests register scenarios of their own.
    src = str(Path(repro.__file__).resolve().parents[1])
    listed = subprocess.run(
        [sys.executable, "-c", "from repro.api import list_scenarios; print(list_scenarios())"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    builtin = ast.literal_eval(listed.strip())
    assert sorted(builtin) == sorted(PINS)



def test_pins_ignore_a_last_bit_float_difference():
    # Python 3.12's sum() rounds a float mean differently from 3.10/3.11
    # in the last bit: sum([0.1] * 10) is 1.0 there, 0.9999999999999999 here.
    naive = 0.0
    for _ in range(10):
        naive += 0.1
    assert naive != 1.0
    assert MAKE_GOLDEN.canonical({"avg": [naive], "n": 10}) == {"avg": [1.0], "n": 10}
