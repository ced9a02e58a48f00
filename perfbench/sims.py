"""The simulation workloads: serial sweeps of one registered scenario.

Every pass sweeps every cell of ``load_scenario(name).with_seeds([seed])``
with ``workers=1`` into a fresh result cache.  Passes repeat until the run's
time is spent; each cell's host time is the median over passes.  A short
calibration sample runs before the first cell and after every cell, and
each cell's time is calibrated by the two samples around it.

Cell sizes change with the seed (the heavy-tailed flow sizes are drawn from
it), so each cell's time is scaled to the cell's size at the pinned seed:
``t * pinned_pkt_hops / pkt_hops``.  Packet hops (packets forwarded by
switches) are fixed by the simulated physics, not by the engine, so a change
that saves events or time per event moves the scaled figures exactly as it
moves the raw ones.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import resource
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from calibration import bracket_factor, calibrate
from common import (
    PINNED_SEED,
    TINY_OVERRIDES,
    base_label,
    make_timed_cache,
    row_digest,
    scratch_dir,
    time_child,
)

#: Benchmark workload -> registered scenario.
SCENARIOS = {
    "paper_matrix": "fig8",
    "wan_cross_dc": "cross_dc",
    "flap_recovery": "availability_flap",
}

#: Set-up probes per run; the first only warms the byte-code cache.
SETUP_PROBES = 7


class Pass:
    """One serial sweep: per-cell ``(row, seconds)`` plus any error."""

    def __init__(
        self, cells: List[Tuple[object, float]], error: Optional[str], seconds: float, put_s: float
    ) -> None:
        self.cells = cells
        self.error = error
        self.seconds = seconds
        #: Host seconds inside ``ResultCache.put``.
        self.put_s = put_s


def sweep_pass(spec, seed: int, overrides: Dict[str, object], on_put=None) -> Pass:
    with scratch_dir("cache-") as directory:
        cache = make_timed_cache(directory)
        cache.on_put = on_put
        error = None
        start = time.perf_counter()
        try:
            spec.with_seeds([seed]).sweep(workers=1, cache=cache, **overrides)
        except Exception as exc:  # a failing cell is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    cells = []
    previous = start
    for row, end, resume in cache.stamps:
        cells.append((row, end - previous))
        previous = resume
    return Pass(cells, error, seconds, cache.put_s)


class CellCheck:
    """Expected digests: the pins at the pinned seed, else the first pass."""

    def __init__(self, labels: List[str], pins: Optional[Dict[str, Dict[str, object]]]) -> None:
        self.labels = labels
        self.expected: Dict[str, str] = {}
        if pins is not None:
            self.expected = {label: str(pins[base_label(label)]["digest"]) for label in labels}

    def failures(self, sweep: Pass) -> List[str]:
        """Labels of cells that raised, never ran, or digest differently."""
        seen = {}
        for row, _seconds in sweep.cells:
            seen[row.label] = row_digest(row)
        failed = []
        for label in self.labels:
            digest = seen.get(label)
            if digest is None:
                failed.append(label)
                continue
            expected = self.expected.setdefault(label, digest)
            if digest != expected:
                failed.append(label)
        return failed


def _prepare(workload: str, seed: int, size: str, pins_path):
    from repro.api import load_scenario

    scenario = SCENARIOS[workload]
    spec = load_scenario(scenario)
    overrides = TINY_OVERRIDES if size == "tiny" else {}
    labels = list(spec.with_seeds([seed]).replicated(**overrides))
    pins = None
    reference: Dict[str, Dict[str, object]] = {}
    if size == "full":
        reference = json.loads(pins_path.read_text())[workload]
        if seed == PINNED_SEED:
            pins = reference
    return scenario, spec, overrides, labels, CellCheck(labels, pins), reference


def _setup_seconds(scenario: str, seed: int, overrides: Dict[str, object]) -> float:
    """Median wall time of a fresh interpreter importing the package,
    resolving the scenario and expanding (and fingerprinting) its cells."""
    code = (
        "from repro.api import load_scenario\n"
        f"cells = load_scenario({scenario!r}).with_seeds([{seed}]).replicated(**{overrides!r})\n"
        "[config.fingerprint() for config in cells.values()]\n"
    )
    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES + 1):
        probe_s = time_child(code)
        after = calibrate()
        times.append(probe_s * bracket_factor(before, after))
        before = after
    return median(times[1:])


def _scale(row, reference: Dict[str, Dict[str, object]]) -> float:
    pinned = reference.get(base_label(row.label))
    if pinned is None or not row.packets_forwarded:
        return 1.0
    return float(pinned["pkt_hops"]) / row.packets_forwarded


def run(workload: str, seed: int, seconds: float, size: str, pins_path) -> dict:
    """The untraced run: every end-to-end metric."""
    scenario, spec, overrides, labels, check, reference = _prepare(workload, seed, size, pins_path)
    setup_s = _setup_seconds(scenario, seed, overrides)
    deadline = time.perf_counter() + seconds

    passes: List[Pass] = []
    samples: Dict[str, List[float]] = {label: [] for label in labels}
    factors: List[float] = []
    failed: List[str] = []
    while True:
        # Calibrate around every cell: the machine's speed drifts within a pass.
        gauge = [calibrate()]
        sweep = sweep_pass(spec, seed, overrides, on_put=lambda _row: gauge.append(calibrate()))
        passes.append(sweep)
        for (row, cell_s), before, after in zip(sweep.cells, gauge, gauge[1:]):
            factors.append(bracket_factor(before, after))
            samples[row.label].append(cell_s * factors[-1] * _scale(row, reference))
        failed.extend(check.failures(sweep))
        if sweep.error:
            print(f"pass {len(passes)}: {sweep.error}")
        if time.perf_counter() + sweep.seconds > deadline:
            break

    per_cell = [median(values) for values in samples.values() if values]
    if not per_cell:
        raise SystemExit(f"error: no cell of {workload} completed")
    wall_s = sum(per_cell)
    for row, cell_s in passes[0].cells:
        print(f"cell {row_digest(row)} {row.label}: {cell_s:.3f} s, "
              f"{row.events_processed} events, {row.packets_forwarded} pkt hops")
    print(f"{len(passes)} passes, raw pass seconds {[round(p.seconds, 3) for p in passes]}; "
          f"cell latencies: median over passes of {len(per_cell)} cells; calibration factors per cell "
          f"{min(factors):.3f}-{max(factors):.3f}, median {median(factors):.4f}")

    return {
        "attempted": len(labels) * len(passes),
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Too few cells for a true 99th percentile: the slowest cell.
            "req_p50_ms": median(per_cell) * 1e3,
            "req_p99_ms": max(per_cell) * 1e3,
            "req_per_s": len(per_cell) / wall_s,
        },
    }


class _BoundaryTimer:
    """Wraps the topology and workload registries' builders (public entry
    points into those layers) and reads fabric counters off each network."""

    def __init__(self) -> None:
        self.build_s = 0.0
        self.generate_s = 0.0
        self.network = None
        self.counts = {"batches": 0, "link_pkts": 0, "cancelled": 0}

    def install(self) -> None:
        from repro.topology import TOPOLOGIES
        from repro.workload import WORKLOADS

        for name in TOPOLOGIES.names():
            builder = TOPOLOGIES.get(name)
            TOPOLOGIES.register(
                name, dataclasses.replace(builder, build=self._timed_build(builder.build)), replace=True
            )
        for name in WORKLOADS.names():
            WORKLOADS.register(name, self._timed_generate(WORKLOADS.get(name)), replace=True)

    def _timed_build(self, build):
        def timed(sim, config, switch_config):
            start = time.perf_counter()
            network = build(sim, config, switch_config)
            self.build_s += time.perf_counter() - start
            self.network = network
            return network
        return timed

    def _timed_generate(self, generate):
        def timed(config, hosts):
            start = time.perf_counter()
            flows = generate(config, hosts)
            self.generate_s += time.perf_counter() - start
            return flows
        return timed

    def on_put(self, row) -> None:
        """Called as each cell's row is stored: harvest its network."""
        network, self.network = self.network, None
        if network is None:
            return
        for port in network.output_ports():
            self.counts["batches"] += port.batches_sent
            self.counts["link_pkts"] += port.link.packets_sent
        self.counts["cancelled"] += network.sim.events_cancelled


def run_traced(workload: str, seed: int, size: str, pins_path) -> dict:
    """The traced run: one untraced pass for reference, one profiled pass."""
    from layers import NAMED_LAYERS, LayerProfile

    _scenario, spec, overrides, labels, check, _reference = _prepare(workload, seed, size, pins_path)
    plain = sweep_pass(spec, seed, overrides)
    failed = check.failures(plain)

    boundary = _BoundaryTimer()
    boundary.install()
    profile = cProfile.Profile()
    profile.enable()
    traced = sweep_pass(spec, seed, overrides, on_put=boundary.on_put)
    profile.disable()

    # Wrapping must not change results: the traced rows, event counts
    # included, must equal the untraced ones.
    traced_failed = set(check.failures(traced))
    plain_rows = {row.label: row for row, _ in plain.cells}
    rows = [row for row, _ in traced.cells]
    for row in rows:
        other = plain_rows.get(row.label)
        if other is None or other.to_dict() != row.to_dict():
            traced_failed.add(row.label)
            print(f"traced row differs from the untraced one: {row.label}")
    failed += sorted(traced_failed)
    for row, _seconds in traced.cells:
        print(f"cell {row_digest(row)} {row.label}")

    layers = LayerProfile(profile)
    self_s = layers.self_seconds()
    events = sum(row.events_processed for row in rows)
    hops = sum(row.packets_forwarded for row in rows)
    data = sum(row.data_packets_sent for row in rows)
    counts = boundary.counts
    metrics = {f"{name}.self_s": value for name, value in self_s.items()}
    metrics.update({
        "sim.engine.events": events,
        "sim.engine.events_cancelled": counts["cancelled"],
        "sim.engine.events_per_pkt_hop": events / hops if hops else 0.0,
        "sim.switch.pkt_hops": hops,
        "sim.switch.drops": sum(row.packets_dropped for row in rows),
        "sim.link.batches": counts["batches"],
        "sim.link.pkts_per_batch": counts["link_pkts"] / counts["batches"] if counts["batches"] else 0.0,
        "sim.pfc.pause_frames": sum(row.pause_frames for row in rows),
        "core.data_pkts": data,
        "core.retx_frac": sum(row.retransmissions for row in rows) / data if data else 0.0,
        "core.timeouts": sum(row.timeouts for row in rows),
        "congestion.calls": layers.inbound_calls("congestion"),
        "faults.injected_drops": sum(row.fault_injected_drops for row in rows),
        "topology.build_s": boundary.build_s,
        "workload.generate_s": boundary.generate_s,
        "experiments.cache_put_s": traced.put_s,
        # A sweep reads no cache signature and serves nothing.
        "experiments.cache_signature_s": 0.0,
        "serve.service_s": 0.0,
        "serve.http_s": 0.0,
        "serve.aggregate_recomputes": 0,
        "trace.overhead_frac": traced.seconds / plain.seconds - 1.0,
        # Named layers only: ``other`` takes whatever no named layer covers.
        "trace.accounted_frac": sum(self_s[name] for name in NAMED_LAYERS) / traced.seconds,
    })
    return {"attempted": 2 * len(labels), "failed": failed, "metrics": metrics}
