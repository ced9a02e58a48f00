"""Record the golden row pins: for every registered scenario at seed 1 with
20 flows per cell, each cell's ``events_processed``, the SHA-256 of its
canonical ``ResultRow`` JSON (``events_processed`` and every digest
included; floats at ``FLOAT_DIGITS`` significant digits) and its
``ExperimentConfig.fingerprint()`` -- the sweep-cache and work-queue key, so
a change of config serialization that would cold every warm cache shows up
as a moved pin.

``tests/test_golden_rows.py`` recomputes the pins and compares them.  Run
this from the root of a checkout only after a deliberate change of the
simulated physics (or of the engine's event count), review the diff of
``tests/golden/rows.json``, and give the reason in the change's
description::

    python3 tests/golden/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional

HERE = Path(__file__).resolve().parent
ROWS = HERE / "rows.json"

#: Every cell is pinned at this seed and flow count (~10 s for all cells).
GOLDEN_OVERRIDES = {"seed": 1, "num_flows": 20}


#: Floats are pinned at this many significant digits.  From Python 3.12 on,
#: ``sum()`` adds floats with compensated (Neumaier) summation, so a mean
#: such as ``avg_slowdown`` can differ in its last bit from 3.10/3.11; 12
#: digits absorb that and still catch any change of the simulated physics.
FLOAT_DIGITS = 12


def canonical(value):
    """``value`` (JSON-shaped) with every float rounded to ``FLOAT_DIGITS``."""
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def row_sha256(row) -> str:
    """SHA-256 of a ``ResultRow``'s canonical JSON (floats rounded to
    ``FLOAT_DIGITS``, sorted keys, no spaces)."""
    text = json.dumps(canonical(row.to_dict()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_configs(name: str) -> dict:
    """``cell label -> ExperimentConfig`` of scenario ``name`` at the golden
    seed and flow count."""
    from repro.experiments.spec import scenario

    return scenario(name).configs(**GOLDEN_OVERRIDES)


def cell_pin(label: str, config) -> dict:
    """``{"sha256", "events_processed", "fingerprint"}`` of one cell, run
    from scratch."""
    from repro.experiments.results import ResultRow
    from repro.experiments.runner import run_experiment

    row = ResultRow.from_result(run_experiment(config), label=label)
    return {
        "sha256": row_sha256(row),
        "events_processed": row.events_processed,
        "fingerprint": config.fingerprint(),
    }


def compute_pins(names: Optional[Iterable[str]] = None) -> Dict[str, Dict[str, dict]]:
    """``scenario -> cell label -> {"sha256", "events_processed",
    "fingerprint"}`` for ``names`` (default: every registered scenario)."""
    from repro.api import list_scenarios

    return {
        name: {label: cell_pin(label, config) for label, config in golden_configs(name).items()}
        for name in (list_scenarios() if names is None else names)
    }


def main() -> int:
    pins = compute_pins()
    ROWS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"{sum(len(cells) for cells in pins.values())} cells in {len(pins)} scenarios pinned")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
