"""Record the correctness pins: each cell's row digest and packet-hop count
at the pinned seed, for every simulation workload.

Run from the root of a checkout after a deliberate change of the simulated
physics, and review the diff of ``perfbench/pins.json``::

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import PINNED_SEED, PINS, base_label, row_digest  # noqa: E402
from sims import SCENARIOS, sweep_pass  # noqa: E402


def main() -> int:
    from repro.api import load_scenario

    pins = {}
    for workload, scenario in SCENARIOS.items():
        sweep = sweep_pass(load_scenario(scenario), PINNED_SEED, {})
        if sweep.error:
            raise SystemExit(f"{workload}: {sweep.error}")
        pins[workload] = {
            base_label(row.label): {"digest": row_digest(row), "pkt_hops": row.packets_forwarded}
            for row, _seconds in sweep.cells
        }
        print(f"{workload}: {len(pins[workload])} cells pinned")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
