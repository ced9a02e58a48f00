#!/usr/bin/env python3
"""Incast with background storage traffic (§4.4.3 of the paper).

A distributed storage read stripes a response across many servers that all
answer the same client at once -- the canonical best case for PFC, since only
the genuinely congestion-causing flows get paused.  This example runs the
incast with and without cross traffic and reports the request completion time
(RCT) and the impact on the background workload.

All scenarios (two fan-ins x two transports, plus the cross-traffic pair)
are independent, so they execute as one parallel sweep.

Run with::

    python examples/incast_storage_workload.py
"""

from repro.api import load_scenario as scenario
from repro.experiments.sweep import run_sweep
from repro.metrics.report import format_incast_table


def incast(fan_in: int, total_bytes: int, start_time: float = 0.0) -> dict:
    """One striped read of ``total_bytes`` from ``fan_in`` servers to h0."""
    return {"total_bytes": total_bytes, "fan_in": fan_in,
            "destination": "h0", "start_time": start_time}


def main() -> None:
    # Pure incast: vary the fan-in (Figure 9's x axis).  Cross-traffic
    # scenarios ride along in the same sweep under a label prefix.
    fan_ins = (5, 10)
    configs = scenario("fig9").with_rows({
        f"M={fan_in}": {"incast": incast(fan_in, 2_000_000)} for fan_in in fan_ins
    }).configs()
    configs.update({
        "cross-traffic " + label: config
        for label, config in scenario("incast_cross_traffic").configs(
            incast=incast(8, 1_500_000, start_time=1e-4), num_flows=80
        ).items()
    })
    sweep = run_sweep(configs)

    print("Pure incast (no cross traffic): RCT of the striped request")
    print(f"{'scheme':<14} {'RCT (ms)':>10}")
    for fan_in in fan_ins:
        for transport in ("RoCE", "IRN"):
            label = f"{transport} M={fan_in}"
            print(f"{label:<14} {sweep[label].incast_rct_s * 1e3:>10.3f}")
    for fan_in in fan_ins:
        ratio = sweep[f"IRN M={fan_in}"].incast_rct_s / sweep[f"RoCE M={fan_in}"].incast_rct_s
        print(f"  fan-in {fan_in}: IRN/RoCE RCT ratio = {ratio:.3f} "
              f"(paper: within a few percent of 1.0)")

    print()
    print(format_incast_table(
        "Incast with cross traffic (50% background load)",
        {label: row for label, row in sweep.rows.items() if label.startswith("cross-traffic")},
    ))


if __name__ == "__main__":
    main()
