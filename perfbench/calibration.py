"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts: over one hour on a
2-vCPU VM the same simulation cell took 0.52 s in one stretch and 0.92 s in
another, and everything slowed alike, imports included.  Under a busy host
the speed also swings within seconds (a 120k-event run of the fixed loop
below took 0.14-0.25 s within one 8 s stretch).  Timed metrics are
therefore reported in *reference seconds*: each measured span (a cell, a
set-up probe, a block of requests) is multiplied by :func:`bracket_factor`
of the calibration samples taken just before and just after it.  A sample
runs a fixed workload that uses no ``repro`` code, so a change to ``repro``
cannot move it: such a change moves the reported figures exactly as it
moves the raw ones, while a machine that is 1.8x slower for a while moves
both and the ratio cancels it.

The fixed workload is a small discrete-event loop of the same shape as the
simulator's hot path: a heap of timed callbacks, ports with packet deques,
a forwarding table and attribute-heavy objects.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque

#: Calibration seconds on the machine the benchmark was written on (2-vCPU
#: shared VM, 2.1 GHz, CPython 3.11.7) in a quiet stretch: 120k events took
#: 0.125 s there.  It only fixes the unit: reported times read as seconds on
#: that machine.
REFERENCE_S = 0.125 * 30_000 / 120_000

PORTS = 1024
#: Events in one sample; a sample takes ~0.03 s.
EVENTS = 30_000


class _Port:
    __slots__ = ("queue", "free_at", "sent")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.free_at = 0.0
        self.sent = 0


def calibrate() -> float:
    """Seconds to run the fixed event loop once."""
    heap: list = []
    ports = [_Port() for _ in range(PORTS)]
    table = {key: (key * 2654435761) % PORTS for key in range(4 * PORTS)}
    state = {"now": 0.0, "seq": 0}

    def schedule(at: float, fn, *args) -> None:
        state["seq"] += 1
        heapq.heappush(heap, (at, state["seq"], fn, args))

    def arrive(port: _Port, packet: tuple) -> None:
        port.queue.append(packet)
        if port.free_at <= state["now"]:
            depart(port)

    def depart(port: _Port) -> None:
        if not port.queue:
            return
        flow, hops = port.queue.popleft()
        port.sent += 1
        port.free_at = state["now"] + 1.2e-6
        if hops:
            target = ports[table[(flow + port.sent) % (4 * PORTS)]]
            schedule(port.free_at + 1e-6, arrive, target, (flow, hops - 1))
        schedule(port.free_at, depart, port)

    for flow in range(2 * PORTS):
        schedule(flow * 1e-8, arrive, ports[flow % PORTS], (flow, 1 << 30))
    # The garbage collector stays off while timing: samples run between
    # cells, and a full collection of the last cell's garbage would be
    # charged to the sample.  The loop's state is freed on the way out, since
    # the closures form a cycle that would otherwise keep it alive, on top of
    # the next cell's heap, until the next full collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(EVENTS):
            at, _seq, fn, args = heapq.heappop(heap)
            state["now"] = at
            fn(*args)
        return time.perf_counter() - start
    finally:
        heap.clear()
        ports.clear()
        if enabled:
            gc.enable()


def bracket_factor(before: float, after: float) -> float:
    """Reference seconds per measured second for a span between two samples
    that took ``before`` and ``after`` seconds."""
    return REFERENCE_S / ((before + after) / 2)
