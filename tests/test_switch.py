"""Tests for the input-queued switch: forwarding, drops, PFC, ECN."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.pfc import PfcConfig
from repro.sim.switch import EcnConfig, SwitchConfig
from repro.topology.fattree import FatTreeParams, build_fat_tree
from repro.topology.simple import build_star


def make_star(num_hosts=3, pfc_enabled=True, buffer_bytes=10_000, headroom=3_000,
              ecn=None, bandwidth=8e9, delay=1e-6):
    sim = Simulator(seed=1)
    config = SwitchConfig(
        buffer_bytes_per_port=buffer_bytes,
        pfc=PfcConfig(enabled=pfc_enabled, headroom_bytes=headroom),
        ecn=ecn or EcnConfig(enabled=False),
    )
    network = build_star(sim, num_hosts, bandwidth_bps=bandwidth, link_delay_s=delay,
                         switch_config=config)
    return sim, network


def data_packet(flow_id, src, dst, psn=0, payload=1000):
    return Packet(PacketType.DATA, flow_id, src, dst, psn=psn, payload_bytes=payload,
                  header_bytes=0)


class TestForwarding:
    def test_packet_is_forwarded_to_destination_host(self):
        sim, network = make_star()
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        switch.receive(data_packet(1, "h0", "h1"), in_link)
        sim.run_until_idle()
        assert network.hosts["h1"].data_packets_received == 1
        assert switch.packets_forwarded == 1

    def test_unknown_destination_raises(self):
        sim, network = make_star()
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        with pytest.raises(KeyError):
            switch.receive(data_packet(1, "h0", "h99"), in_link)

    def test_round_robin_across_input_ports(self):
        sim, network = make_star(num_hosts=4)
        switch = network.switches["s0"]
        # Two senders, one destination: enqueue bursts from both inputs.
        for psn in range(5):
            switch.receive(data_packet(1, "h0", "h3", psn), network.link_between("h0", "s0"))
            switch.receive(data_packet(2, "h1", "h3", psn), network.link_between("h1", "s0"))
        sim.run_until_idle()
        assert network.hosts["h3"].data_packets_received == 10
        assert switch.packets_dropped == 0

    def test_total_queued_bytes_drains_to_zero(self):
        sim, network = make_star()
        switch = network.switches["s0"]
        for psn in range(3):
            switch.receive(data_packet(1, "h0", "h1", psn), network.link_between("h0", "s0"))
        assert switch.total_queued_bytes() >= 0
        sim.run_until_idle()
        assert switch.total_queued_bytes() == 0


class TestDropsWithoutPfc:
    def test_buffer_overflow_drops_packets(self):
        sim, network = make_star(pfc_enabled=False, buffer_bytes=3_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(10):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        assert switch.packets_dropped > 0
        assert switch.bytes_dropped == switch.packets_dropped * 1000
        sim.run_until_idle()
        # The packets that were accepted are all delivered.
        assert network.hosts["h1"].data_packets_received == 10 - switch.packets_dropped

    def test_no_pause_frames_when_pfc_disabled(self):
        sim, network = make_star(pfc_enabled=False, buffer_bytes=3_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(10):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        sim.run_until_idle()
        assert switch.pause_frames_sent == 0


class TestPfcBehaviour:
    def test_pause_frame_sent_when_threshold_crossed(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=5_000, headroom=2_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(4):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        assert switch.pause_frames_sent == 1

    def test_resume_frame_sent_after_draining(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=5_000, headroom=2_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(4):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        sim.run_until_idle()
        assert switch.resume_frames_sent >= 1

    def test_pause_frame_pauses_upstream_host(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=5_000, headroom=2_000)
        switch = network.switches["s0"]
        host = network.hosts["h0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(4):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        # Deliver the pause frame.
        sim.run(until=3e-6)
        assert host.uplink_port.paused or host.uplink_port.pause_count > 0

    def test_pfc_prevents_drops_under_burst(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=6_000, headroom=3_000)
        switch = network.switches["s0"]
        host = network.hosts["h0"]

        class BurstSender:
            flow_id = 1

            def __init__(self):
                self.sent = 0

            def next_packet(self, now):
                if self.sent >= 30:
                    return None
                packet = data_packet(1, "h0", "h1", self.sent)
                self.sent += 1
                return packet

            def on_control(self, packet, now):
                pass

        host.register_sender(BurstSender())
        sim.run_until_idle()
        assert switch.packets_dropped == 0
        assert network.hosts["h1"].data_packets_received == 30


class TestEcnMarking:
    def test_step_marking_above_threshold(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=2_000, kmax_bytes=4_000, step_marking=True)
        sim, network = make_star(buffer_bytes=50_000, ecn=ecn)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        packets = [data_packet(1, "h0", "h1", psn) for psn in range(8)]
        for packet in packets:
            switch.receive(packet, in_link)
        assert any(packet.ecn for packet in packets)
        # The first packets (queue below kmin) must not be marked.
        assert not packets[0].ecn
        assert not packets[1].ecn

    def test_red_marking_is_probabilistic_and_bounded(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=1_000, kmax_bytes=3_000, pmax=1.0)
        sim, network = make_star(buffer_bytes=50_000, ecn=ecn)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        packets = [data_packet(1, "h0", "h1", psn) for psn in range(10)]
        for packet in packets:
            switch.receive(packet, in_link)
        # Deep in the queue (>= kmax) marking probability reaches 1.
        assert packets[-1].ecn

    def test_control_packets_never_marked(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=0, kmax_bytes=1, pmax=1.0)
        sim, network = make_star(buffer_bytes=50_000, ecn=ecn)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        ack = Packet(PacketType.ACK, 1, "h0", "h1")
        switch.receive(data_packet(1, "h0", "h1", 0), in_link)
        switch.receive(ack, in_link)
        assert not ack.ecn

    def test_no_marking_when_disabled(self):
        sim, network = make_star(buffer_bytes=50_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        packets = [data_packet(1, "h0", "h1", psn) for psn in range(10)]
        for packet in packets:
            switch.receive(packet, in_link)
        assert not any(packet.ecn for packet in packets)
        assert switch.packets_marked == 0


def packet_of(size, flow_id=1, src="h0", dst="h1", psn=0):
    return Packet(PacketType.DATA, flow_id, src, dst, psn=psn, payload_bytes=size, header_bytes=0)


def voq_bytes(switch, port):
    return sum(p.size_bytes for in_port in switch.input_ports.values() for p in in_port.voqs.get(port, ()))


class TestForwardingTable:
    UPLINKS = ("agg_p0_0", "agg_p0_1")

    def fat_tree_edge(self):
        sim = Simulator(seed=1)
        network = build_fat_tree(sim, FatTreeParams(k=4))
        return sim, network, network.switches["edge_p0_0"], network.link_between("h0", "edge_p0_0")

    def uplink_packets(self, network, switch):
        return {name: switch.port_towards(name).link.packets_sent for name in self.UPLINKS}

    def test_ecmp_flow_stays_on_one_uplink(self):
        sim, network, switch, in_link = self.fat_tree_edge()
        for psn in range(32):
            switch.receive(data_packet(7, "h0", "h15", psn), in_link)
        sim.run_until_idle()
        sent = self.uplink_packets(network, switch)
        assert sorted(sent.values()) == [0, 32]
        assert set(switch._fib) == {("h15", 7)}

    def test_spray_replaces_the_cached_entries_and_spreads_one_flow(self):
        sim, network, switch, in_link = self.fat_tree_edge()
        switch.receive(data_packet(7, "h0", "h15", 0), in_link)
        sim.run_until_idle()
        assert switch._fib
        network.build_routing(packet_spray=True)
        assert all(not s._fib for s in network.switches.values())
        before = self.uplink_packets(network, switch)
        for psn in range(1, 65):
            switch.receive(data_packet(7, "h0", "h15", psn), in_link)
        sim.run_until_idle()
        after = self.uplink_packets(network, switch)
        assert all(after[name] > before[name] for name in self.UPLINKS)
        # Per-packet routing is never cached.
        assert not switch._fib

    def test_queued_bytes_match_the_voqs(self):
        sim, network = make_star(num_hosts=4, pfc_enabled=False, buffer_bytes=3_500)
        switch = network.switches["s0"]
        ports = [switch.port_towards(h) for h in ("h2", "h3")]
        for port in ports:
            port.pause()  # hold everything in the VOQs
        sizes = [700, 1300, 900, 1500, 400, 1100]
        for i, size in enumerate(sizes):
            src = ("h0", "h1")[i % 2]
            dst = ("h2", "h3")[(i // 2) % 2]
            switch.receive(packet_of(size, i, src, dst), network.link_between(src, "s0"))
        assert switch.packets_dropped > 0
        for port in ports:
            assert port.queued_bytes == voq_bytes(switch, port)
        assert switch.next_packet(ports[0]) is not None
        assert switch.next_packet(ports[1]) is not None
        for port in ports:
            assert port.queued_bytes == voq_bytes(switch, port)
        assert switch.total_queued_bytes() == sum(port.queued_bytes for port in ports)
        for port in ports:
            while switch.next_packet(port) is not None:
                pass
            assert port.queued_bytes == 0
        assert switch.total_queued_bytes() == 0


class TestPfcEdges:
    """Pause at occupancy == threshold, resume strictly below it."""

    def held_star(self):
        # Pause (and resume) threshold 3,000 bytes; the output towards h1 is
        # held paused so the test decides when packets leave.
        sim, network = make_star(pfc_enabled=True, buffer_bytes=10_000, headroom=7_000)
        switch = network.switches["s0"]
        out_port = switch.port_towards("h1")
        out_port.pause()
        return sim, network, switch, out_port, network.link_between("h0", "s0")

    def test_pause_at_exactly_the_threshold(self):
        sim, network, switch, out_port, in_link = self.held_star()
        switch.receive(packet_of(1_000), in_link)
        switch.receive(packet_of(1_999), in_link)
        assert switch.pause_frames_sent == 0  # 2,999 bytes
        switch.receive(packet_of(1), in_link)
        assert switch.pause_frames_sent == 1  # 3,000 bytes
        switch.receive(packet_of(1_000), in_link)
        assert switch.pause_frames_sent == 1  # paused once until resumed

    def test_resume_strictly_below_the_threshold(self):
        sim, network, switch, out_port, in_link = self.held_star()
        for size in (1_000, 2_000, 1_000):
            switch.receive(packet_of(size), in_link)
        assert switch.pause_frames_sent == 1
        switch.next_packet(out_port)  # 3,000 bytes left: still paused
        assert switch.resume_frames_sent == 0
        switch.next_packet(out_port)  # 1,000 bytes left
        assert switch.resume_frames_sent == 1
        switch.next_packet(out_port)
        assert switch.resume_frames_sent == 1

    def test_frames_reach_the_upstream_host(self):
        sim, network, switch, out_port, in_link = self.held_star()
        uplink = network.hosts["h0"].uplink_port
        for size in (1_000, 2_000):
            switch.receive(packet_of(size), in_link)
        sim.run(until=sim.now + 1e-3)
        assert uplink.paused and uplink.pause_count == 1
        switch.next_packet(out_port)
        sim.run(until=sim.now + 1e-3)
        assert not uplink.paused and uplink.resume_count == 1

    def test_missing_reverse_port_raises(self):
        sim, network, switch, out_port, in_link = self.held_star()
        del switch.output_ports["h0"]  # one-way wiring
        switch.receive(packet_of(1_000), in_link)
        with pytest.raises(RuntimeError, match="no output port back towards h0"):
            switch.receive(packet_of(2_000), in_link)
