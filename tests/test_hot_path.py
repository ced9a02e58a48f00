"""Guard on the cost of one switch hop, in Python calls.

Counts the Python-level function calls made in ``repro`` modules while one
fixed fig8 cell runs, divided by the packets its switches forwarded.  The
count is deterministic and independent of the machine, so it can be held
to a tight ceiling: a change that adds a Python frame to the per-hop path
(``Switch.receive`` -> ``OutputPort.kick`` -> ``_start_batch`` ->
``Switch.next_packet``, plus the arrival push) moves it by about one.
"""

import os
import sys

import repro
from repro.experiments.runner import run_experiment
from repro.experiments.spec import scenario

#: fig8 "IRN (without PFC) +none", seed 1, 60 flows: 11,568 packets
#: forwarded.  The flattened path measures 11.79 calls per hop; the
#: unflattened one (helper methods, ``schedule_at`` per arrival) was 20.6.
CELL = "IRN (without PFC) +none"
CALLS_PER_HOP_CEILING = 11.8


def calls_per_forwarded_packet() -> float:
    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    config = scenario("fig8").configs(seed=1, num_flows=60)[CELL]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_experiment(config)
    finally:
        sys.setprofile(previous)
    assert result.packets_forwarded > 0
    return calls / result.packets_forwarded


def test_calls_per_switch_hop_stay_under_the_ceiling():
    per_hop = calls_per_forwarded_packet()
    assert per_hop <= CALLS_PER_HOP_CEILING, (
        f"{per_hop:.2f} Python calls in repro per forwarded packet "
        f"(ceiling {CALLS_PER_HOP_CEILING}): something added a frame to the per-hop path"
    )
