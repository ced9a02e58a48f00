"""Self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

1. a perturbed correctness pin is reported as a failed cell (and that the
   unperturbed pins pass, so the check is not vacuous);
2. every workload runs at a tiny size, untraced and traced, and prints every
   metric of ``BENCHMARK.json`` by name with its unit;
3. the traced run's exact counts repeat across two traced runs;
4. without ``src/repro`` the benchmark exits non-zero and prints no result.

Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import sims  # noqa: E402
from common import PINS, WORK, base_label, scratch_dir  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args: str, cwd: Path = ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(completed) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"benchmark exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_perturbed_pin() -> None:
    good = _result(_run("--workload", "wan_cross_dc", "--seed", "1", "--seconds", "0.1", "--trace", "0"))
    assert good["correct"] and good["failed"] == 0, f"unperturbed pins must pass: {good}"
    pins = json.loads(PINS.read_text())
    first = sorted(pins["wan_cross_dc"])[0]
    pins["wan_cross_dc"][first]["digest"] = "0" * 16
    with scratch_dir("pins-") as directory:
        perturbed = directory / "pins.json"
        perturbed.write_text(json.dumps(pins))
        bad = sims.run("wan_cross_dc", 1, 0.1, "full", perturbed)
    failed = [base_label(label) for label in bad["failed"]]
    assert failed == [first], f"a perturbed pin must fail exactly its cell: {bad['failed']}"
    print(f"ok: perturbed pin for {first!r} reported as 1 failed cell")


def check_tiny_runs() -> None:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in definition["workloads"]):
        for trace, declared in ((0, definition["end_to_end"]), (1, definition["per_layer"])):
            repeats = 2 if trace else 1
            for _ in range(repeats):
                completed = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                                 "--trace", str(trace), "--size", "tiny")
                result = _result(completed)
                assert result["correct"], f"{workload} trace={trace}: {completed.stdout[-2000:]}"
                assert result["attempted"] >= 1 and result["failed"] == 0, result
                lines = completed.stdout.splitlines()
                for entry in declared:
                    name, unit = entry["name"], entry["unit"]
                    assert result["metrics"][name]["unit"] == unit, (workload, name)
                    assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), (
                        f"{workload}: no printed line for {name} [{unit}]")
            if trace:
                assert "exact counts repeat" in completed.stdout, f"{workload}: counts not compared"
        print(f"ok: {workload} prints every metric at tiny size; traced counts repeat")


def check_bare_directory() -> None:
    WORK.mkdir(exist_ok=True)
    with scratch_dir("bare-") as directory:
        shutil.copy(ROOT / "BENCHMARK.json", directory / "BENCHMARK.json")
        shutil.copytree(HERE, directory / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wan_cross_dc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=directory, capture_output=True, text=True, timeout=180,
        )
    assert completed.returncode != 0, "must fail without src/repro"
    assert '"correct"' not in completed.stdout, "must print no result without src/repro"
    print("ok: without src/repro the benchmark exits non-zero and prints no result")


def main() -> int:
    check_perturbed_pin()
    check_tiny_runs()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
