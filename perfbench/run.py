"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer metric
(each workload reports the layers it does not exercise as 0).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer counts that must repeat exactly across runs of the same code.
EXACT_COUNTS = (
    "sim.engine.events",
    "sim.engine.events_cancelled",
    "sim.engine.events_per_pkt_hop",
    "sim.switch.pkt_hops",
    "sim.switch.drops",
    "sim.link.batches",
    "sim.link.pkts_per_batch",
    "sim.pfc.pause_frames",
    "core.data_pkts",
    "core.retx_frac",
    "core.timeouts",
    "congestion.calls",
    "faults.injected_drops",
    "serve.aggregate_recomputes",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few flows per cell and no pins (the benchmark's self-test)",
    )
    return parser.parse_args(argv)


def _check_exact_counts(workload: str, args, metrics) -> bool:
    """Compare the deterministic counts with the last traced run of the same
    code, workload, size and seed; record them when there is none."""
    from repro.experiments.sweep import code_fingerprint

    from common import WORK

    bench = hashlib.sha256(b"".join(path.read_bytes() for path in sorted(HERE.glob("*.py")))).hexdigest()
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    ledger = WORK / "exact-counts" / f"{workload}-{args.size}-seed{args.seed}.json"
    key = {"code": code_fingerprint(), "bench": bench}
    if ledger.is_file():
        previous = json.loads(ledger.read_text())
        if previous["key"] == key:
            differ = {name: (previous["counts"][name], value) for name, value in counts.items()
                      if previous["counts"].get(name) != value}
            for name, (old, new) in differ.items():
                print(f"exact count differs from the previous traced run: {name} {old} -> {new}")
            if not differ:
                print(f"exact counts repeat the previous traced run ({ledger.name})")
            return not differ
    ledger.parent.mkdir(parents=True, exist_ok=True)
    ledger.write_text(json.dumps({"key": key, "counts": counts}, indent=1, sort_keys=True))
    print(f"exact counts recorded for the next traced run ({ledger.name})")
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import serving
    import sims
    from common import PINS

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in definition["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads}", file=sys.stderr)
        return 2

    if args.workload == "serve_reads":
        result = serving.run_traced(args.seed, args.size) if args.trace else serving.run(
            args.seed, args.seconds, args.size)
    elif args.trace:
        result = sims.run_traced(args.workload, args.seed, args.size, PINS)
    else:
        result = sims.run(args.workload, args.seed, args.seconds, args.size, PINS)

    declared = definition["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    names = {entry["name"] for entry in declared}
    missing, unexpected = sorted(names - set(metrics)), sorted(set(metrics) - names)
    if missing or unexpected:
        raise SystemExit(f"error: workload {args.workload} did not measure {missing}; "
                         f"measured undeclared {unexpected}")

    correct = not result["failed"]
    if args.trace:
        correct = _check_exact_counts(args.workload, args, metrics) and correct
    attempted = result["attempted"]
    failed = len(result["failed"])
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    out = {}
    for entry in declared:
        value = metrics[entry["name"]]
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
