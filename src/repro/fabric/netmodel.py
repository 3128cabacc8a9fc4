"""Inter-card network model: topology + link constants → transfer time.

The fabric's message rounds (:mod:`repro.fabric.messages`) are pure
traffic records; this module is the *only* place they meet bandwidth,
latency and topology — mirroring how :mod:`repro.core.perf` is the only
place event counts meet cycle costs.  A :class:`NetProfile` names a link
technology and a topology; :func:`model_rounds` charges each round

    ``latency * max_hops  +  bottleneck_bytes / bandwidth``

where the bottleneck is the most-loaded *resource* in the round:

``host-star``
    Every card hangs off the host (PCIe).  All messages in a round
    serialize over the shared host link: bottleneck = total bytes.
``switch``
    A non-blocking switch; each card has one full-duplex NIC.  The
    bottleneck is the busiest NIC direction (max over endpoints of
    bytes in / bytes out).
``ring``
    Dedicated card-to-card serial links (Aurora-style) in a ring;
    messages take the shorter arc and occupy every link on the path.
    Bottleneck = the most-loaded directed link.
``torus2d``
    Same, on an ``r x c`` torus with XY routing.

All four are deterministic functions of the round's message list, so
modelled communication time is byte-stable across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .messages import HOST, SyncRound

__all__ = [
    "NET_PROFILES",
    "NetProfile",
    "NetworkCostReport",
    "RoundCost",
    "get_net_profile",
    "list_net_profiles",
    "model_rounds",
    "round_seconds",
]

TOPOLOGIES = ("host-star", "switch", "ring", "torus2d")


@dataclass(frozen=True)
class NetProfile:
    """One inter-card interconnect configuration."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float
    topology: str
    summary: str = ""

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"one of {', '.join(TOPOLOGIES)}"
            )
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")


#: built-in profiles; ``pcie3`` matches the pre-fabric exchange model's
#: 12 GB/s host link, ``aurora`` the FPGA-to-FPGA serial links
#: multi-FPGA systems like GraVF-M use
NET_PROFILES: dict[str, NetProfile] = {
    p.name: p
    for p in (
        NetProfile("pcie3", 12e9, 2e-6, "host-star",
                   "PCIe 3 x16 through the host (shared root link)"),
        NetProfile("pcie4", 24e9, 1.5e-6, "host-star",
                   "PCIe 4 x16 through the host (shared root link)"),
        NetProfile("eth100g", 12.5e9, 1e-6, "switch",
                   "100 GbE NIC per card behind a non-blocking switch"),
        NetProfile("aurora", 5e9, 0.5e-6, "ring",
                   "direct card-to-card serial links in a ring"),
        NetProfile("aurora2d", 5e9, 0.5e-6, "torus2d",
                   "direct card-to-card serial links, 2-D torus"),
    )
}


def get_net_profile(name: str) -> NetProfile:
    """The named profile; ``ValueError`` lists the known names."""
    try:
        return NET_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown net profile {name!r}; available: "
            f"{', '.join(sorted(NET_PROFILES))}"
        ) from None


def list_net_profiles() -> tuple[str, ...]:
    """Names accepted by :func:`get_net_profile`, sorted."""
    return tuple(sorted(NET_PROFILES))


def _torus_dims(num_cards: int) -> tuple[int, int]:
    r = max(int(np.sqrt(num_cards)), 1)
    while r > 1 and num_cards % r:
        r -= 1
    return r, num_cards // r


def _ring_path(src: int, dst: int, n: int):
    """Directed links of the shorter arc, as ``(node, direction)``."""
    if n <= 1 or src == dst:
        return []
    fwd = (dst - src) % n
    if fwd <= n - fwd:
        return [((src + k) % n, +1) for k in range(fwd)]
    return [((src - k) % n, -1) for k in range((n - fwd))]


def _torus_path(src: int, dst: int, rows: int, cols: int):
    """XY (row-first) wrap-aware routing; links as (node, axis, dir)."""
    sr, sc = divmod(src, cols)
    dr, dc = divmod(dst, cols)
    links = []
    # move along the row (columns axis) first
    fwd = (dc - sc) % cols
    step = +1 if fwd <= cols - fwd else -1
    c = sc
    while c != dc:
        links.append(((sr, c), "x", step))
        c = (c + step) % cols
    fwd = (dr - sr) % rows
    step = +1 if fwd <= rows - fwd else -1
    r = sr
    while r != dr:
        links.append(((r, dc), "y", step))
        r = (r + step) % rows
    return links


def _endpoint(node: int) -> int:
    """Host traffic enters the fabric at card 0's port."""
    return 0 if node == HOST else node


def round_seconds(
    profile: NetProfile, rnd: SyncRound, num_cards: int
) -> float:
    """Modelled wall time of one synchronization round."""
    if not rnd.messages:
        return 0.0
    bw = profile.bandwidth_bytes_per_s
    if profile.topology == "host-star":
        # one shared root link; host<->card crosses it once, card<->card
        # twice (up to the host, back down)
        total = sum(
            m.nbytes * (1 if HOST in (m.src, m.dst) else 2)
            for m in rnd.messages
        )
        max_hops = max(
            1 if HOST in (m.src, m.dst) else 2 for m in rnd.messages
        )
        return profile.latency_s * max_hops + total / bw
    if profile.topology == "switch":
        out: dict[int, int] = {}
        inb: dict[int, int] = {}
        for m in rnd.messages:
            s, d = _endpoint(m.src), _endpoint(m.dst)
            out[s] = out.get(s, 0) + m.nbytes
            inb[d] = inb.get(d, 0) + m.nbytes
        bottleneck = max(list(out.values()) + list(inb.values()))
        return profile.latency_s * 2 + bottleneck / bw
    load: dict = {}
    max_hops = 0
    if profile.topology == "ring":
        for m in rnd.messages:
            path = _ring_path(
                _endpoint(m.src), _endpoint(m.dst), num_cards)
            max_hops = max(max_hops, len(path))
            for link in path:
                load[link] = load.get(link, 0) + m.nbytes
    else:  # torus2d
        rows, cols = _torus_dims(num_cards)
        for m in rnd.messages:
            path = _torus_path(
                _endpoint(m.src), _endpoint(m.dst), rows, cols)
            max_hops = max(max_hops, len(path))
            for link in path:
                load[link] = load.get(link, 0) + m.nbytes
    if not load:  # every message was a self-send (single card)
        return profile.latency_s
    return profile.latency_s * max(max_hops, 1) + max(load.values()) / bw


@dataclass(frozen=True)
class RoundCost:
    """One round's traffic and modelled time under a profile."""

    label: str
    messages: int
    bytes: int
    seconds: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "messages": self.messages,
            "bytes": self.bytes,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class NetworkCostReport:
    """Modelled communication cost of a full fabric run."""

    profile: str
    topology: str
    rounds: tuple[RoundCost, ...]

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.rounds)

    @property
    def scatter_seconds(self) -> float:
        return sum(r.seconds for r in self.rounds
                   if r.label == "scatter")

    @property
    def reduce_seconds(self) -> float:
        return sum(r.seconds for r in self.rounds
                   if r.label != "scatter")

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.rounds)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "topology": self.topology,
            "total_seconds": self.total_seconds,
            "scatter_seconds": self.scatter_seconds,
            "reduce_seconds": self.reduce_seconds,
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "rounds": [r.to_dict() for r in self.rounds],
        }


def model_rounds(
    profile: NetProfile,
    rounds: tuple[SyncRound, ...],
    num_cards: int,
) -> NetworkCostReport:
    """Charge every round under the profile's topology."""
    costs = tuple(
        RoundCost(
            label=rnd.label,
            messages=rnd.num_messages,
            bytes=rnd.total_bytes,
            seconds=round_seconds(profile, rnd, num_cards),
        )
        for rnd in rounds
    )
    return NetworkCostReport(
        profile=profile.name, topology=profile.topology, rounds=costs)
