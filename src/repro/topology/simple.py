"""Small topologies used for unit tests, examples and incast experiments.

These are not part of the paper's evaluation fabric but exercise the same
switch, PFC and transport code paths at a scale where behaviour is easy to
reason about (and fast to simulate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.network import Network
from repro.sim.switch import SwitchConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


def build_star(
    sim: "Simulator",
    num_hosts: int,
    bandwidth_bps: float = 10e9,
    link_delay_s: float = 1e-6,
    switch_config: Optional[SwitchConfig] = None,
) -> Network:
    """A single switch with ``num_hosts`` hosts attached (incast testbed).

    Hosts are named ``h0 .. h<n-1>``; the switch is ``s0``.
    """
    if num_hosts < 2:
        raise ValueError("a star topology needs at least two hosts")
    network = Network(sim)
    network.add_switch("s0", config=switch_config)
    for i in range(num_hosts):
        name = f"h{i}"
        network.add_host(name)
        network.connect(name, "s0", bandwidth_bps, link_delay_s)
    network.build_routing()
    return network


def build_dumbbell(
    sim: "Simulator",
    hosts_per_side: int,
    bandwidth_bps: float = 10e9,
    bottleneck_bps: Optional[float] = None,
    link_delay_s: float = 1e-6,
    switch_config: Optional[SwitchConfig] = None,
    bottleneck_delay_s: Optional[float] = None,
) -> Network:
    """Two switches joined by a (possibly slower, possibly longer) bottleneck.

    Left hosts are ``h0 .. h<n-1>`` on switch ``s0``; right hosts are
    ``h<n> .. h<2n-1>`` on switch ``s1``.  ``bottleneck_delay_s`` overrides
    the propagation delay of the s0--s1 link only (the WAN case); ``None``
    keeps the fabric homogeneous.
    """
    if hosts_per_side < 1:
        raise ValueError("need at least one host per side")
    bottleneck_bps = bottleneck_bps or bandwidth_bps
    if bottleneck_delay_s is None:
        bottleneck_delay_s = link_delay_s
    network = Network(sim)
    network.add_switch("s0", config=switch_config)
    network.add_switch("s1", config=switch_config)
    network.connect("s0", "s1", bottleneck_bps, bottleneck_delay_s)
    for i in range(hosts_per_side):
        name = f"h{i}"
        network.add_host(name)
        network.connect(name, "s0", bandwidth_bps, link_delay_s)
    for i in range(hosts_per_side, 2 * hosts_per_side):
        name = f"h{i}"
        network.add_host(name)
        network.connect(name, "s1", bandwidth_bps, link_delay_s)
    network.build_routing()
    return network


def build_parking_lot(
    sim: "Simulator",
    num_switches: int = 3,
    hosts_per_switch: int = 2,
    bandwidth_bps: float = 10e9,
    link_delay_s: float = 1e-6,
    switch_config: Optional[SwitchConfig] = None,
) -> Network:
    """A chain of switches, each with local hosts (multi-hop congestion).

    This shape is the canonical demonstration of PFC congestion spreading: a
    pause at the last hop propagates back along the chain and head-of-line
    blocks traffic that never crosses the congested link.
    """
    if num_switches < 2:
        raise ValueError("a parking lot needs at least two switches")
    network = Network(sim)
    for s in range(num_switches):
        network.add_switch(f"s{s}", config=switch_config)
    for s in range(num_switches - 1):
        network.connect(f"s{s}", f"s{s + 1}", bandwidth_bps, link_delay_s)
    host_index = 0
    for s in range(num_switches):
        for _ in range(hosts_per_switch):
            name = f"h{host_index}"
            network.add_host(name)
            network.connect(name, f"s{s}", bandwidth_bps, link_delay_s)
            host_index += 1
    network.build_routing()
    return network


# ---------------------------------------------------------------------------
# Registry entries (the experiment layer resolves topologies by name)
# ---------------------------------------------------------------------------
from repro.topology.registry import register_topology  # noqa: E402


@register_topology(
    "star",
    max_hop_count=2,
    switch_radix=lambda config: config.num_hosts,
)
def _build_star_from_config(sim: "Simulator", config, switch_config) -> Network:
    return build_star(
        sim,
        config.num_hosts,
        config.link_bandwidth_bps,
        config.link_delay_s,
        switch_config,
    )


@register_topology("dumbbell", max_hop_count=3, switch_radix=4)
def _build_dumbbell_from_config(sim: "Simulator", config, switch_config) -> Network:
    return build_dumbbell(
        sim,
        max(1, config.num_hosts // 2),
        config.link_bandwidth_bps,
        link_delay_s=config.link_delay_s,
        switch_config=switch_config,
    )


@register_topology(
    "wan_dumbbell",
    max_hop_count=3,
    switch_radix=4,
    path_delay_s=lambda config: 2.0 * config.link_delay_s + config.wan_delay_s,
)
def _build_wan_dumbbell_from_config(sim: "Simulator", config, switch_config) -> Network:
    """A dumbbell whose s0--s1 bottleneck is a long-haul link: host links keep
    the intra-DC ``link_delay_s`` while the bottleneck carries ``wan_delay_s``
    (1000x longer by default), the smallest fabric with propagation-scale
    delay heterogeneity."""
    return build_dumbbell(
        sim,
        max(1, config.num_hosts // 2),
        config.link_bandwidth_bps,
        link_delay_s=config.link_delay_s,
        switch_config=switch_config,
        bottleneck_delay_s=config.wan_delay_s,
    )


@register_topology("parking_lot", max_hop_count=4, switch_radix=4)
def _build_parking_lot_from_config(sim: "Simulator", config, switch_config) -> Network:
    return build_parking_lot(
        sim,
        bandwidth_bps=config.link_bandwidth_bps,
        link_delay_s=config.link_delay_s,
        switch_config=switch_config,
    )
