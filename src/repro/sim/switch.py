"""Input-queued switches with virtual output queues, PFC and ECN marking.

The paper's simulator models "input-queued switches with virtual output
ports, scheduled using round-robin", with per-input-port buffers whose
occupancy drives PFC pause/resume.  This module reproduces that model:

* every incoming link owns an input port with a fixed buffer,
* each input port keeps one virtual output queue (VOQ) per output port,
* each output port serves its VOQs round-robin across input ports,
* when PFC is enabled an input port that crosses its pause threshold sends an
  X-OFF frame to the upstream node; when it drains it sends X-ON,
* when PFC is disabled packets that do not fit in the buffer are dropped,
* ECN marking (RED-style for DCQCN, step marking for DCTCP) is applied based
  on the per-output queue depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.sim.link import Link, OutputPort
from repro.sim.packet import Packet, PacketType
from repro.sim.pfc import PfcConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.routing import Routing

_DATA = PacketType.DATA
_PFC_PAUSE = PacketType.PFC_PAUSE
_PFC_RESUME = PacketType.PFC_RESUME


@dataclass
class EcnConfig:
    """ECN marking configuration (RED-like, per DCQCN's recommended setup)."""

    enabled: bool = False
    kmin_bytes: int = 20_000
    kmax_bytes: int = 80_000
    pmax: float = 0.2
    #: When True, mark deterministically above ``kmin_bytes`` (DCTCP-style).
    step_marking: bool = False


@dataclass
class SwitchConfig:
    """Per-switch configuration.

    ``buffer_bytes_per_port`` is the per-input-port buffer (the paper sizes it
    at twice the network BDP, 240KB in the default scenario).
    """

    buffer_bytes_per_port: int = 240_000
    pfc: PfcConfig = field(default_factory=PfcConfig)
    ecn: EcnConfig = field(default_factory=EcnConfig)


class _InputPort:
    """Buffer, VOQs and upstream pause state for one incoming link."""

    def __init__(self, link: Link, buffer_bytes: int, pfc_config: PfcConfig) -> None:
        self.link = link
        self.buffer_bytes = buffer_bytes
        self.occupancy = 0
        #: One VOQ per output port, created by the first packet queued for it.
        self.voqs: Dict[OutputPort, Deque[Packet]] = {}
        #: True between the X-OFF and the X-ON this port sent upstream.
        self.upstream_paused = False
        # Thresholds are pure functions of the (fixed) buffer size; computed
        # once here instead of per received packet.
        self.pause_threshold = pfc_config.pause_threshold(buffer_bytes)
        self.resume_threshold = pfc_config.resume_threshold(buffer_bytes)


class Switch:
    """An input-queued switch.

    The PFC and ECN settings of ``config`` are read once, at construction.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        config: Optional[SwitchConfig] = None,
        routing: Optional["Routing"] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or SwitchConfig()
        self._pfc_enabled = self.config.pfc.enabled
        self._ecn: Optional[EcnConfig] = self.config.ecn if self.config.ecn.enabled else None

        self.output_ports: Dict[str, OutputPort] = {}   # neighbor name -> port
        self.input_ports: Dict[Link, _InputPort] = {}   # incoming link -> input port
        self._in_port_list: List[_InputPort] = []       # stable scan order for RR
        #: Forwarding table ``(dst, flow_id) -> OutputPort``, filled from the
        #: routing on a miss when the routing is per-flow.
        self._fib: Dict[Tuple[str, int], OutputPort] = {}
        self.routing = routing

        # Statistics
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        self.packets_marked = 0
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0
        #: Optional observability probe (duck-typed ``.add(bytes)``): when
        #: attached (``ExperimentConfig.fabric_digests``), the enqueueing
        #: input port's buffer occupancy is sampled after every accepted
        #: packet -- the §4.4 congestion-spreading queue-depth distribution.
        self.queue_depth_digest = None

    @property
    def routing(self) -> Optional["Routing"]:
        """The routing strategy; assigning it clears the forwarding table."""
        return self._routing

    @routing.setter
    def routing(self, routing: Optional["Routing"]) -> None:
        self._routing = routing
        self._fib.clear()
        # Only a per-flow choice may be remembered: a per-packet strategy
        # (spraying) must be asked again for every packet.
        self._fib_per_flow = routing is not None and routing.per_flow

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_output_link(self, link: Link) -> OutputPort:
        """Attach an outgoing link; returns the created output port."""
        port = OutputPort(self.sim, link, source=self)
        self.output_ports[link.dst.name] = port
        return port

    def add_input_link(self, link: Link) -> None:
        """Register an incoming link (creates its input-port buffer)."""
        in_port = _InputPort(link, self.config.buffer_bytes_per_port, self.config.pfc)
        self.input_ports[link] = in_port
        self._in_port_list.append(in_port)

    def port_towards(self, neighbor_name: str) -> OutputPort:
        """The output port facing ``neighbor_name``."""
        return self.output_ports[neighbor_name]

    def neighbors(self) -> List[str]:
        """Names of nodes reachable over one of this switch's output links."""
        return list(self.output_ports.keys())

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link) -> None:
        """Handle a frame arriving on ``link``."""
        ptype = packet.ptype
        if ptype is _PFC_PAUSE or ptype is _PFC_RESUME:
            self._handle_pfc(ptype, link)
            return

        in_port = self.input_ports.get(link)
        if in_port is None:
            raise RuntimeError(f"{self.name}: packet arrived on unregistered link {link.name}")

        out_port = self._fib.get((packet.dst, packet.flow_id))
        if out_port is None:
            out_port = self._route(packet)

        size = packet.size_bytes
        occupancy = in_port.occupancy + size
        if occupancy > in_port.buffer_bytes:
            # Buffer overrun.  With correctly-configured PFC this should not
            # happen; without PFC this is a normal congestion drop.
            self.packets_dropped += 1
            self.bytes_dropped += size
            return

        if self._ecn is not None and ptype is _DATA:
            self._mark_ecn(packet, out_port.queued_bytes)

        voqs = in_port.voqs
        queue = voqs.get(out_port)
        if queue is None:
            queue = voqs[out_port] = deque()
        queue.append(packet)
        in_port.occupancy = occupancy
        out_port.queued_bytes += size

        if self.queue_depth_digest is not None:
            self.queue_depth_digest.add(occupancy)

        # X-OFF once the occupancy reaches the pause threshold.
        if occupancy >= in_port.pause_threshold and self._pfc_enabled and not in_port.upstream_paused:
            in_port.upstream_paused = True
            self.pause_frames_sent += 1
            self._send_pfc(link, _PFC_PAUSE)

        out_port.kick()

    # ------------------------------------------------------------------
    # Transmit path (PacketSource protocol)
    # ------------------------------------------------------------------
    def next_packet(self, port: OutputPort) -> Optional[Packet]:
        """Round-robin over input ports with traffic queued for ``port``."""
        if not port.queued_bytes:
            # Nothing queued for this output anywhere: O(1) miss.  Departure
            # batching probes until the source runs dry, so misses are as
            # frequent as batches and must not scan every input port.
            return None
        in_ports = self._in_port_list
        count = len(in_ports)
        idx = port.rr_index
        for _ in range(count):
            in_port = in_ports[idx]
            idx += 1
            if idx == count:
                idx = 0
            queue = in_port.voqs.get(port)
            if queue:
                packet = queue.popleft()
                size = packet.size_bytes
                occupancy = in_port.occupancy - size
                in_port.occupancy = occupancy
                port.queued_bytes -= size
                port.rr_index = idx
                self.packets_forwarded += 1
                # X-ON once the occupancy drops strictly below the resume
                # threshold (only a paused port has anything to resume).
                if in_port.upstream_paused and occupancy < in_port.resume_threshold:
                    in_port.upstream_paused = False
                    self.resume_frames_sent += 1
                    self._send_pfc(in_port.link, _PFC_RESUME)
                return packet
        return None

    def total_queued_bytes(self) -> int:
        """Bytes currently buffered in the switch."""
        return sum(p.occupancy for p in self.input_ports.values())

    def total_queued_packets(self) -> int:
        """Packets currently buffered in the switch (all VOQs).

        Used by the verify harness's conservation invariant: at drain,
        injected == delivered + dropped + still-queued, fabric-wide.
        """
        return sum(
            len(queue)
            for in_port in self.input_ports.values()
            for queue in in_port.voqs.values()
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _route(self, packet: Packet) -> OutputPort:
        """Forwarding-table miss: ask the routing, remember per-flow answers."""
        routing = self._routing
        if routing is None:
            raise RuntimeError(f"{self.name}: no routing configured")
        next_hop = routing.next_hop(self, packet)
        out_port = self.output_ports.get(next_hop)
        if out_port is None:
            raise RuntimeError(f"{self.name}: no port towards {next_hop} for {packet}")
        if self._fib_per_flow:
            self._fib[(packet.dst, packet.flow_id)] = out_port
        return out_port

    def _mark_ecn(self, packet: Packet, depth: int) -> None:
        """Mark a data packet given its output queue ``depth`` (bytes)."""
        ecn = self._ecn
        if ecn.step_marking:
            if depth >= ecn.kmin_bytes:
                packet.ecn = True
                self.packets_marked += 1
            return
        if depth <= ecn.kmin_bytes:
            return
        if depth >= ecn.kmax_bytes:
            probability = 1.0
        else:
            span = max(1, ecn.kmax_bytes - ecn.kmin_bytes)
            probability = ecn.pmax * (depth - ecn.kmin_bytes) / span
        if self.sim.rng.random() < probability:
            packet.ecn = True
            self.packets_marked += 1

    def _send_pfc(self, congested_link: Link, ptype: PacketType) -> None:
        """Send a pause/resume frame to the node feeding ``congested_link``."""
        upstream_name = congested_link.src.name
        reverse_port = self.output_ports.get(upstream_name)
        if reverse_port is None:
            # ``Network.connect`` wires both directions, so this is a wiring
            # bug; a frame sent any other way could not reach the sender.
            raise RuntimeError(f"{self.name}: no output port back towards {upstream_name}")
        frame = Packet(
            ptype=ptype,
            flow_id=-1,
            src=self.name,
            dst=upstream_name,
        )
        reverse_port.send_control_direct(frame)

    def _handle_pfc(self, ptype: PacketType, link: Link) -> None:
        """Pause or resume our output port facing the pause frame's sender."""
        port = self.output_ports.get(link.src.name)
        if port is None:  # pragma: no cover - defensive
            return
        if ptype is _PFC_PAUSE:
            port.pause()
        else:
            port.resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name})"
