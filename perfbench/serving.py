"""The ``serve_reads`` workload: a closed loop against ``repro serve``.

Set-up fills a result cache with a few scenarios at the run's seed.  The
untraced run then serves it from a ``python -m repro serve`` subprocess; one
client sends one request at a time, the next only after the previous answer
has been read, cycling through every read path.  The server speaks HTTP/1.0,
so each request opens its own connection.  Client and server are pinned to
one CPU together.  On a shared VM a hand-off across CPUs waits for the idle
virtual CPU to be woken; under host contention that wait set the p99, which
doubled with the host's load when client and server sat on separate CPUs.

Every answer is checked against the offline rendering of the same cache:
``spec.aggregate(spec.sweep(cache=...))`` for aggregate JSON, the
:mod:`repro.metrics.report` renderer for text, the stored digests for tail
CDFs and the cached row for ``/cells``.  A non-200 status or a differing body
counts as a failed request.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional, Tuple

from calibration import bracket_factor, calibrate
from common import ROOT, TINY_OVERRIDES, child_env, row_digest, scratch_dir

#: Scenarios whose cached rows are served.
SERVED = ("fig1", "fig9", "wan_incast")
#: ``--size tiny`` serves one small scenario.
TINY_SERVED = ("fig1",)

#: Server start-ups per run; set-up time is their median.
SETUPS = 3
#: Passes between calibration samples in the untraced loop (~0.3 s; a
#: sample takes ~0.03 s).  Each block's latencies are calibrated by the
#: samples around it.
BLOCK_PASSES = 10
#: Passes over every path in each half of the traced run.
TRACE_PASSES = 30


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _json_check(extract: Callable[[dict], object], expected) -> Callable[[bytes], bool]:
    want = _canonical(json.loads(json.dumps(expected)))
    return lambda body: _canonical(extract(json.loads(body))) == want


def build_checks(cache_dir: str, seed: int, served, overrides) -> Dict[str, Callable[[bytes], bool]]:
    """Path -> verifier of the response body, from offline renderings."""
    from repro.api import ResultCache, catalog_entries, load_scenario
    from repro.metrics.report import load_cached_rows, render_rows_report

    checks: Dict[str, Callable[[bytes], bool]] = {}
    entries = catalog_entries()
    checks["/scenarios"] = _json_check(lambda doc: doc, {"scenarios": entries, "count": len(entries)})
    cached = load_cached_rows(cache_dir)
    for name in served:
        spec = load_scenario(name)
        records = spec.aggregate(spec.with_seeds([seed]).sweep(workers=1, cache=cache_dir, **overrides))
        checks[f"/scenarios/{name}/aggregate"] = _json_check(lambda doc: doc["records"], records)
        names = {config.name for config in spec.configs().values()}
        rows = {label: row for label, row in cached.items() if row.name in names}
        text = (render_rows_report(rows, cache_dir) + "\n").encode("utf-8")
        checks[f"/scenarios/{name}/aggregate?format=text"] = text.__eq__
        cdf_cells = [
            {
                "label": label,
                "name": row.name,
                "fingerprint": row.fingerprint,
                "count": digest.count,
                "points": [list(point) for point in digest.tail_cdf(0.90, 12)],
            }
            for label, row in rows.items()
            for digest in [row.single_packet_distribution]
            if digest is not None and digest.count
        ]
        if cdf_cells:
            checks[f"/scenarios/{name}/cdf"] = _json_check(lambda doc: doc["cells"], cdf_cells)
    for entry in ResultCache(cache_dir).scan():
        checks[f"/cells/{entry.fingerprint}"] = _json_check(
            lambda doc: (doc["fingerprint"], doc["row"]), (entry.fingerprint, entry.row.to_dict())
        )
    return checks


class Client:
    """One client, one request at a time; remembers verified bodies."""

    def __init__(self, port: int, checks: Dict[str, Callable[[bytes], bool]]) -> None:
        self.port = port
        self.checks = checks
        self._verified: Dict[str, bytes] = {}
        self.latencies: List[float] = []
        self.failed: List[str] = []

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def request(self, path: str) -> None:
        start = time.perf_counter()
        try:
            status, body = self.get(path)
        except (OSError, http.client.HTTPException) as exc:
            status, body = 0, str(exc).encode()
        self.latencies.append(time.perf_counter() - start)
        if status != 200 or not self._body_ok(path, body):
            self.failed.append(path)
            print(f"request failed: {path} -> {status} {body[:200]!r}")

    def _body_ok(self, path: str, body: bytes) -> bool:
        if self._verified.get(path) == body:
            return True
        try:
            ok = self.checks[path](body)
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            self._verified[path] = body
        return ok

    def one_pass(self) -> float:
        start = time.perf_counter()
        for path in self.checks:
            self.request(path)
        return time.perf_counter() - start


def _fill(cache_dir: str, seed: int, served, overrides) -> None:
    from repro.api import load_scenario

    for name in served:
        sweep = load_scenario(name).with_seeds([seed]).sweep(workers=1, cache=cache_dir, **overrides)
        for row in sweep.rows.values():
            print(f"cell {row_digest(row)} {name}: {row.label}")


def _wait_healthy(port: int, deadline: float) -> None:
    while True:
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            finally:
                connection.close()
        except OSError:
            if time.perf_counter() > deadline:
                raise
        time.sleep(0.002)


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, cache_dir: str, cpus: Optional[set] = None) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", cache_dir, "--port", "0", "--quiet"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        if cpus:
            os.sched_setaffinity(self.process.pid, cpus)
        line = self.process.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _one_cpu() -> Optional[set]:
    """Pin this (client) process to one CPU and return it for the server."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpu)
    return cpu


def _served(size: str):
    return (TINY_SERVED, TINY_OVERRIDES) if size == "tiny" else (SERVED, {})


def run(seed: int, seconds: float, size: str) -> dict:
    """The untraced run: every end-to-end metric."""
    served, overrides = _served(size)
    with scratch_dir("serve-") as directory:
        cache_dir = str(directory)
        _fill(cache_dir, seed, served, overrides)
        checks = build_checks(cache_dir, seed, served, overrides)

        server_cpus = _one_cpu()
        setups: List[float] = []
        server: Optional[ServerProcess] = None
        warmup = Client(0, checks)
        try:
            before = calibrate()
            for index in range(SETUPS):
                start = time.perf_counter()
                server = ServerProcess(cache_dir, server_cpus)
                _wait_healthy(server.port, start + 60)
                warmup.port = server.port
                warmup.one_pass()
                setup_s = time.perf_counter() - start
                if index < SETUPS - 1:
                    server.stop()
                    server = None
                after = calibrate()
                setups.append(setup_s * bracket_factor(before, after))
                before = after

            client = Client(server.port, checks)
            passes: List[float] = []
            factors: List[float] = []  # one per request
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                first = len(client.latencies)
                block = [client.one_pass() for _ in range(BLOCK_PASSES)]
                after = calibrate()
                factor = bracket_factor(before, after)
                before = after
                passes.extend(pass_s * factor for pass_s in block)
                factors.extend([factor] * (len(client.latencies) - first))
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()

    latencies = [latency * factor for latency, factor in zip(client.latencies, factors)]
    print(f"{len(checks)} paths, {len(passes)} passes, {len(latencies)} requests; "
          f"set-ups {[round(value, 3) for value in setups]}; calibration factors per block "
          f"{min(factors):.3f}-{max(factors):.3f}, median {median(factors):.4f}")
    return {
        "attempted": len(latencies) + len(warmup.latencies),
        "failed": client.failed + warmup.failed,
        "metrics": {
            "setup_s": median(setups),
            "wall_s": median(passes),
            "peak_rss_mb": rss,
            "req_p50_ms": median(latencies) * 1e3,
            "req_p99_ms": quantiles(latencies, n=100, method="inclusive")[98] * 1e3,
            "req_per_s": len(latencies) / sum(passes),
        },
    }


class _ServiceTimer:
    """Times the public ``ResultsService`` methods and the cache-signature
    check from outside, and counts aggregates recomputed instead of reused."""

    METHODS = ("index", "catalog", "aggregate", "aggregate_text", "cdf", "cdf_text", "cell")

    def __init__(self) -> None:
        self.service_s = 0.0
        self.signature_s = 0.0
        self.recomputes = 0
        self._depth = threading.local()
        self._lock = threading.Lock()

    def install(self) -> None:
        from repro.api import ResultCache, ResultsService

        for name in self.METHODS:
            setattr(ResultsService, name, self._timed_method(getattr(ResultsService, name)))
        signature = ResultCache.signature

        def timed_signature(cache):
            start = time.perf_counter()
            try:
                return signature(cache)
            finally:
                with self._lock:
                    self.signature_s += time.perf_counter() - start

        ResultCache.signature = timed_signature

    def _timed_method(self, method):
        def timed(service, *args, **kwargs):
            depth = getattr(self._depth, "value", 0)
            self._depth.value = depth + 1
            start = time.perf_counter()
            try:
                result = method(service, *args, **kwargs)
            finally:
                self._depth.value = depth
                if depth == 0:
                    with self._lock:
                        self.service_s += time.perf_counter() - start
            if method.__name__ == "aggregate" and not result.get("warm", True):
                with self._lock:
                    self.recomputes += 1
            return result
        return timed


def run_traced(seed: int, size: str) -> dict:
    """The traced run: the server in-process, untraced then traced passes."""
    from layers import NAMED_LAYERS
    from repro.api import make_server

    served, overrides = _served(size)
    with scratch_dir("serve-") as directory:
        cache_dir = str(directory)
        _fill(cache_dir, seed, served, overrides)
        checks = build_checks(cache_dir, seed, served, overrides)
        server = make_server(cache_dir, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(server.server_address[1], checks)
            client.one_pass()  # warm-up
            plain_s = sum(client.one_pass() for _ in range(TRACE_PASSES))
            timer = _ServiceTimer()
            timer.install()
            first = len(client.latencies)
            traced_s = sum(client.one_pass() for _ in range(TRACE_PASSES))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)

    request_s = sum(client.latencies[first:])
    # The read path simulates nothing: every simulator layer reads 0.
    metrics = {f"{name}.self_s": 0.0 for name in (*NAMED_LAYERS, "other")}
    metrics.update(dict.fromkeys((
        "sim.engine.events", "sim.engine.events_cancelled", "sim.switch.pkt_hops", "sim.switch.drops",
        "sim.link.batches", "sim.pfc.pause_frames", "core.data_pkts", "core.timeouts",
        "congestion.calls", "faults.injected_drops",
    ), 0))
    metrics.update(dict.fromkeys((
        "sim.engine.events_per_pkt_hop", "sim.link.pkts_per_batch", "core.retx_frac",
        "topology.build_s", "workload.generate_s", "experiments.cache_put_s",
    ), 0.0))
    metrics.update({
        "serve.service_s": timer.service_s,
        "serve.http_s": request_s - timer.service_s,
        "serve.aggregate_recomputes": timer.recomputes,
        "experiments.cache_signature_s": timer.signature_s,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        # ``serve.http_s`` is the remainder of each request, so only the
        # directly timed service layer counts as accounted.
        "trace.accounted_frac": timer.service_s / traced_s,
    })
    return {"attempted": len(client.latencies), "failed": client.failed, "metrics": metrics}
