"""Helpers shared by the benchmark's workloads: paths, digests, set-up
probes and the cache hook that timestamps every finished cell."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for result caches and the count ledger (git-ignored).
WORK = ROOT / ".perfbench-work"
PINS = Path(__file__).resolve().parent / "pins.json"

#: The seed the correctness pins were recorded at.
PINNED_SEED = 1
#: Overrides of ``--size tiny`` (the self-test): a handful of flows per cell.
TINY_OVERRIDES = {"num_flows": 12}


def row_digest(row) -> str:
    """SHA-256 prefix of a ``ResultRow``'s canonical JSON.

    ``events_processed`` is left out: it is simulator cost (reported as
    ``sim.engine.events``), not a simulated statistic, so an engine change
    that saves events must not read as a result change.
    """
    payload = row.to_dict()
    payload.pop("events_processed")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def base_label(label: str) -> str:
    """A cell label without its `` [seed=N]`` replica suffix."""
    return label.split(" [seed=")[0]


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`WORK`, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_child(code: str, timeout: float = 60.0) -> float:
    """Wall seconds for a fresh interpreter to run ``code`` to completion."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=child_env(), check=True, timeout=timeout,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def make_timed_cache(directory: Path):
    """A ``ResultCache`` that timestamps each row as the sweep stores it.

    ``run_sweep`` stores every row the moment its cell finishes, so the gaps
    between stamps are per-cell host times (simulation plus the cache
    write), measured without touching the sweep itself.  Each stamp is
    ``(row, end, resume)``: ``resume`` is taken after ``on_put`` returns, so
    the hook's own time is charged to no cell.
    """
    from repro.experiments.sweep import ResultCache

    class TimedCache(ResultCache):
        def __init__(self, path: Path) -> None:
            super().__init__(path)
            self.stamps: List[tuple] = []
            self.put_s = 0.0
            self.on_put = None

        def put(self, row) -> None:
            start = time.perf_counter()
            super().put(row)
            end = time.perf_counter()
            self.put_s += end - start
            if self.on_put is not None:
                self.on_put(row)
            self.stamps.append((row, end, time.perf_counter()))

    return TimedCache(directory)
