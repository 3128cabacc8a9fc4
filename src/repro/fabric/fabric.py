"""The fabric engine: sharded local phase + message-passing merge.

Execution follows the multi-FPGA structure of GraVF-M rather than the
pre-fabric "one process loops over cards" model:

1. **Scatter** (round 0) — the host ships every card its edge shard
   (one :class:`~repro.fabric.messages.ShardScatter` per card).  Shards
   come from one of the partitioners in :mod:`repro.fabric.partition`
   and form an exact partition of the edge set.
2. **Local phase** — each card runs the full AMST simulator on its
   shard and keeps only its local minimum spanning forest.  Cards are
   modelled: the local runs execute one after another in the calling
   process, and the modelled local time is the slowest card's.
3. **Reduce** (rounds 1..⌈log2 C⌉) — a binomial reduction tree: in each
   round, card ``lo + stride`` ships its surviving forest to card
   ``lo`` (:class:`ForestShard` + :class:`BoundaryEdges` for the records
   straddling a vertex-ownership boundary) and gets a
   :class:`ComponentMerges` acknowledgement back.  The receiver merges
   the two forests with the repo-wide ``(weight, edge id)`` tie-break,
   so after the last round card 0 holds the global forest.  The tree
   pairs ``(lo, lo + stride)`` for any card count — non-powers of two
   simply leave some cards unpaired in some rounds.

Every round's messages are counted and sized; the network model
(:mod:`repro.fabric.netmodel`) turns them into modelled transfer time,
which is attached to the merge run's :class:`~repro.core.perf.PerfReport`.

Correctness is double-checked at runtime: the reduction-tree forest
must equal the forest produced by one authoritative AMST merge run over
the union of local MSFs (the MST-composability path the oracle gates).
A mismatch raises :class:`FabricError` instead of returning silently
wrong data.

One card is one plain simulator run over the whole graph: no scatter,
no reduce rounds and no merge run, so its modelled time, energy and
result equal ``Amst(cfg).run(graph)``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.accelerator import Amst, AmstOutput
from ..core.config import AmstConfig
from ..graph.builders import from_arrays
from ..graph.csr import CSRGraph
from ..mst.result import MSTResult
from ..obs.context import current_telemetry
from .messages import (
    HOST,
    BoundaryEdges,
    ComponentMerges,
    ForestShard,
    ShardScatter,
    SyncRound,
    traffic_summary,
)
from .netmodel import NetProfile, NetworkCostReport, get_net_profile, model_rounds
from .partition import PartitionPlan, plan_edges

__all__ = ["FabricError", "FabricRun", "run_fabric"]


class FabricError(RuntimeError):
    """A fabric-level invariant was violated (e.g. merge disagreement)."""


def _edge_subgraph(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    keep: np.ndarray,
) -> CSRGraph:
    """Subgraph over the edge ids ``keep`` of the canonical endpoint arrays.

    Vertex ids are preserved (isolated vertices are fine for the
    simulator); the subgraph's edge id ``e`` is ``keep[e]`` in the input.
    """
    return from_arrays(num_vertices, u[keep], v[keep], w[keep])


def _forest_union(
    eids: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Kruskal over a candidate edge-id set, repo ``(weight, id)`` order.

    Sparse union-find (dict over touched vertices only) — the reduction
    tree calls this once per merge over forest-sized sets, so an O(n)
    per-call relabel would dominate at high card counts.
    """
    eids = np.asarray(eids, dtype=np.int64)
    order = np.lexsort((eids, w[eids]))
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    kept = []
    for e in eids[order]:
        e = int(e)
        ru, rv = find(int(u[e])), find(int(v[e]))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            kept.append(e)
    return np.sort(np.asarray(kept, dtype=np.int64))


def _reduce_rounds(
    msf_eids: list[np.ndarray],
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    vertex_card: np.ndarray,
    num_cards: int,
) -> tuple[np.ndarray, tuple[SyncRound, ...]]:
    """Binomial reduction of per-card forests down to card 0.

    Returns ``(global_forest_eids, rounds)``; works for any card count
    (cards without a partner in a round just wait).
    """
    forests = {card: np.asarray(msf_eids[card], dtype=np.int64)
               for card in range(num_cards)}
    rounds: list[SyncRound] = []
    stride, level = 1, 0
    while stride < num_cards:
        messages = []
        for lo in range(0, num_cards, 2 * stride):
            hi = lo + stride
            if hi >= num_cards:
                continue
            sender = forests.pop(hi)
            boundary = (
                int((vertex_card[u[sender]]
                     != vertex_card[v[sender]]).sum())
                if sender.size else 0
            )
            merged = _forest_union(
                np.concatenate([forests[lo], sender]), u, v, w)
            absorbed = int(np.isin(merged, sender,
                                   assume_unique=True).sum())
            messages.append(ForestShard(
                src=hi, dst=lo, records=int(sender.size) - boundary))
            if boundary:
                messages.append(BoundaryEdges(
                    src=hi, dst=lo, records=boundary))
            messages.append(ComponentMerges(
                src=lo, dst=hi, records=absorbed))
            forests[lo] = merged
        rounds.append(SyncRound(
            index=level + 1, label=f"reduce-{level}",
            messages=tuple(messages)))
        stride *= 2
        level += 1
    return forests[0], tuple(rounds)


@dataclass(frozen=True)
class FabricRun:
    """Everything one fabric execution produced."""

    result: MSTResult
    plan: PartitionPlan
    profile: NetProfile
    local_outputs: tuple  # per-card AmstOutput
    merge_output: AmstOutput
    forest_eids: np.ndarray  # global edge ids of the final forest
    rounds: tuple[SyncRound, ...]  # scatter + reduce rounds
    network: NetworkCostReport
    boundary_edges: int  # records shipped as BoundaryEdges
    host_phase1_seconds: float

    @property
    def local_seconds(self) -> float:
        return max(o.report.seconds for o in self.local_outputs)

    @property
    def merge_seconds(self) -> float:
        """Merge-run compute; 0.0 for one card, which has no merge run."""
        if self.plan.num_cards == 1:
            return 0.0
        return self.merge_output.report.seconds

    @property
    def modelled_seconds(self) -> float:
        """Local compute + scatter + reduce + merge compute."""
        return (self.local_seconds + self.network.total_seconds
                + self.merge_seconds)

    @property
    def energy_joules(self) -> float:
        """Energy of every simulator run: the cards plus the merge run."""
        runs = self.local_outputs
        if self.plan.num_cards > 1:
            runs += (self.merge_output,)
        return sum(o.report.energy_joules for o in runs)


def _record_gauges(run: FabricRun) -> None:
    tel = current_telemetry()
    if tel is None:
        return
    g = tel.metrics
    g.set_gauge("fabric.cards", run.plan.num_cards)
    g.set_gauge("fabric.rounds", len(run.rounds))
    g.set_gauge("fabric.messages", run.network.total_messages)
    g.set_gauge("fabric.bytes", run.network.total_bytes)
    g.set_gauge("fabric.cut_edges", run.plan.stats.cut_edges)
    g.set_gauge("fabric.boundary_edges", run.boundary_edges)
    g.set_gauge("fabric.merge_edges", run.merge_output.report.num_edges)


def run_fabric(
    graph: CSRGraph,
    num_cards: int,
    config: AmstConfig | None = None,
    *,
    partitioner: str = "range",
    net_profile: str = "pcie3",
) -> FabricRun:
    """Run the sharded multi-card pipeline over ``graph``.

    The forest is byte-identical to a serial ``Amst(cfg).run(graph)``
    for every partitioner and card count (enforced by tests *and* by
    the runtime reduction-vs-merge cross-check below).  The card count,
    partitioner and network profile are validated for every card
    count, one included.
    """
    cfg = config if config is not None else AmstConfig.full()
    profile = get_net_profile(net_profile)
    tel = current_telemetry()

    def phase(name, category="phase"):
        if tel is not None:
            return tel.spans.span(name, category=category)
        return nullcontext()

    with phase("fabric.partition"):
        u, v, w = graph.edge_endpoints()
        plan = plan_edges(graph.num_vertices, u, v, num_cards,
                          partitioner=partitioner)
        sorted_eids, bounds = plan.shards()
    num_cards = plan.num_cards  # validated int

    if num_cards == 1:
        t0 = time.perf_counter()
        with phase("fabric.local"):
            out = Amst(cfg).run(graph)
        run = FabricRun(
            result=out.result,
            plan=plan,
            profile=profile,
            local_outputs=(out,),
            merge_output=out,
            forest_eids=out.result.edge_ids,
            rounds=(),
            network=model_rounds(profile, (), 1),
            boundary_edges=0,
            host_phase1_seconds=time.perf_counter() - t0,
        )
        _record_gauges(run)
        return run

    scatter = SyncRound(
        index=0, label="scatter",
        messages=tuple(
            ShardScatter(src=HOST, dst=card,
                         records=int(bounds[card + 1] - bounds[card]))
            for card in range(num_cards)
        ),
    )

    # ---- local phase: one simulator run per card, in-process
    t0 = time.perf_counter()
    local_outputs, msf_eids = [], []
    with phase("fabric.local"):
        for card in range(num_cards):
            keep = sorted_eids[bounds[card]:bounds[card + 1]]
            with phase(f"task:fabric.card{card}", category="task"):
                out = Amst(cfg).run(_edge_subgraph(
                    graph.num_vertices, u, v, w, keep))
                if tel is not None:
                    tel.metrics.inc("fabric.worker.runs")
                    tel.metrics.inc("fabric.worker.shard_edges",
                                    int(keep.size))
                    tel.metrics.inc("fabric.worker.msf_edges",
                                    int(out.result.edge_ids.size))
            local_outputs.append(out)
            # a card ships only its surviving forest records
            msf_eids.append(keep[out.result.edge_ids])
    host_phase1 = time.perf_counter() - t0

    # ---- reduce: binomial message-passing merge of the local forests
    with phase("fabric.reduce"):
        reduced, reduce_rounds = _reduce_rounds(
            msf_eids, u, v, w, plan.vertex_card, num_cards)

    # ---- authoritative merge: one AMST run over the union of MSFs
    # (the same composable-edge-set path the oracle verifies), keeping
    # merge-phase compute modelled in simulator cycles
    with phase("fabric.merge"):
        merge_eids = np.unique(np.concatenate(
            [np.asarray(e, dtype=np.int64) for e in msf_eids]))
        merge_graph = _edge_subgraph(graph.num_vertices, u, v, w,
                                     merge_eids)
        merge_out = Amst(cfg).run(merge_graph)
    final_eids = merge_eids[merge_out.result.edge_ids]

    if not np.array_equal(reduced, final_eids):
        raise FabricError(
            f"reduction-tree forest disagrees with the merge run "
            f"({reduced.size} vs {final_eids.size} edges) — "
            f"partitioner={plan.name!r}, cards={num_cards}"
        )

    rounds = (scatter,) + reduce_rounds
    network = model_rounds(profile, rounds, num_cards)
    boundary_edges = sum(
        m.records
        for rnd in reduce_rounds for m in rnd.messages
        if m.kind == "boundary"
    )
    merge_out.report.attach_network({
        **network.to_dict(),
        "traffic": traffic_summary(rounds),
        "partitioner": plan.name,
        "partition_stats": plan.stats.to_dict(),
    })

    result = MSTResult(
        edge_ids=final_eids,
        total_weight=float(w[final_eids].sum()),
        num_components=graph.num_vertices - final_eids.size,
        iterations=merge_out.result.iterations,
        extras={
            "num_cards": num_cards,
            "partitioner": plan.name,
            "net_profile": profile.name,
        },
    )
    run = FabricRun(
        result=result,
        plan=plan,
        profile=profile,
        local_outputs=tuple(local_outputs),
        merge_output=merge_out,
        forest_eids=final_eids,
        rounds=rounds,
        network=network,
        boundary_edges=int(boundary_edges),
        host_phase1_seconds=host_phase1,
    )
    _record_gauges(run)
    return run
