"""Per-layer self time from a profile of the traced sweep.

A layer is a module of ``repro``: ``sim.<module>`` inside the simulator
package, the top-level package name everywhere else (``core``,
``congestion``, ``metrics``, ``faults`` ...).  The profiler hook is switched
on from the benchmark around the public sweep call, so ``src/`` carries no
tracing.  Each function's own time is charged to its layer; time in code
that belongs to no layer (builtins, the standard library, the benchmark's
own wrappers) is charged to the layers of its callers, in proportion to the
time each caller spent in it -- the same charge a span at each layer
boundary would give.
"""

from __future__ import annotations

import functools
import os
import pstats
from typing import Dict, Optional, Tuple

FuncKey = Tuple[str, int, str]

#: Layers reported by name; all others are summed into ``other``.
NAMED_LAYERS = (
    "sim.engine", "sim.switch", "sim.link", "sim.routing", "sim.host",
    "core", "congestion", "faults", "metrics",
)


@functools.lru_cache(maxsize=None)
def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    root = _package_root()
    if not filename.startswith(root):
        return None
    parts = filename[len(root):].split(os.sep)
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[0] == "sim" and len(parts) > 1:
        return "sim." + parts[1]
    return parts[0]


class LayerProfile:
    """Self time and inbound call counts per layer, from ``pstats`` data."""

    def __init__(self, profile) -> None:
        self.stats: Dict[FuncKey, tuple] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
        self._shares: Dict[FuncKey, Dict[str, float]] = {}

    def _share(self, key: FuncKey) -> Dict[str, float]:
        """Fractions of ``key``'s own time owed to each layer."""
        cached = self._shares.get(key)
        if cached is not None:
            return cached
        layer = layer_of(key[0])
        if layer is not None:
            share = {layer: 1.0}
        else:
            self._shares[key] = {"other": 1.0}  # cycle guard
            callers = self.stats[key][4]
            weights = {caller: entry[2] for caller, entry in callers.items() if caller in self.stats}
            total = sum(weights.values())
            if not weights:
                share = {"other": 1.0}
            else:
                share = {}
                for caller, weight in weights.items():
                    fraction = weight / total if total > 0 else 1.0 / len(weights)
                    for name, part in self._share(caller).items():
                        share[name] = share.get(name, 0.0) + fraction * part
        self._shares[key] = share
        return share

    def self_seconds(self) -> Dict[str, float]:
        """Own time per layer; layers outside :data:`NAMED_LAYERS` -> ``other``."""
        totals: Dict[str, float] = {name: 0.0 for name in NAMED_LAYERS}
        totals["other"] = 0.0
        for key, (_cc, _nc, tottime, _ct, _callers) in self.stats.items():
            for name, part in self._share(key).items():
                bucket = name if name in totals else "other"
                totals[bucket] += tottime * part
        return totals

    def inbound_calls(self, layer: str) -> int:
        """Calls into ``layer``'s functions from code outside the layer."""
        calls = 0
        for key, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if layer_of(key[0]) != layer:
                continue
            for caller, entry in callers.items():
                if layer_of(caller[0]) != layer:
                    calls += entry[0]
        return calls
