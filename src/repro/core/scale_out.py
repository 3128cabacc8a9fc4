"""Multi-card scale-out: ``run_scale_out`` over ``repro.fabric``.

The paper's motivation is graphs that outgrow one card (UK-Union's 9.4B
edges exceed the U280's 8 GB HBM).  The remedy is the two-phase
partitioned Borůvka: shard the edges across cards, run AMST per shard,
then merge the local minimum spanning forests (MST composability keeps
the result exact; tests pin it against Kruskal).

The actual execution lives in :mod:`repro.fabric` — modelled cards run
in-process over their edge shards, typed inter-card messages in
synchronization rounds, pluggable partitioners, and an explicit network
model.  This module keeps the historical ``run_scale_out`` surface:
:class:`ScaleOutReport` keeps its original fields and adds the fabric's
message/round/network figures with defaults, so recorded manifests and
the benchmark-trajectory scripts keep reading it.

``exchange_seconds`` is now the *modelled reduce-phase network time*
under the chosen profile (rounds of forest/boundary/merge messages)
instead of the flat one-shot PCIe estimate; ``scatter_seconds`` charges
the host→card shard distribution separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..fabric.partition import validate_num_cards
from ..graph.csr import CSRGraph
from ..mst.result import MSTResult
from ..obs.context import current_telemetry
from .accelerator import Amst, AmstOutput
from .config import AmstConfig

__all__ = ["ScaleOutReport", "ScaleOutResult", "run_scale_out"]


@dataclass(frozen=True)
class ScaleOutReport:
    """Modelled timing of a partitioned run."""

    num_cards: int
    local_seconds: float  # max over cards (they run in parallel)
    exchange_seconds: float  # modelled reduce-phase network time
    merge_seconds: float
    cut_edges: int
    local_outputs: tuple  # per-card AmstOutput
    merge_output: AmstOutput
    host_phase1_seconds: float = 0.0  # host wall clock of phase 1 (not
    #                                   modelled time; varies run-to-run)
    # -- fabric figures (defaults keep pre-fabric constructors working) --
    partitioner: str = "range"
    net_profile: str = "pcie3"
    num_rounds: int = 0  # scatter + reduce synchronization rounds
    messages: int = 0
    message_bytes: int = 0
    boundary_edges: int = 0  # forest records straddling an ownership cut
    scatter_seconds: float = 0.0  # modelled host->card shard distribution
    network: dict = field(default_factory=dict)  # NetworkCostReport.to_dict()
    partition_stats: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.local_seconds + self.exchange_seconds + self.merge_seconds

    @property
    def energy_joules(self) -> float:
        local = sum(o.report.energy_joules for o in self.local_outputs)
        return local + self.merge_output.report.energy_joules


@dataclass(frozen=True)
class ScaleOutResult:
    result: MSTResult
    report: ScaleOutReport


def run_scale_out(
    graph: CSRGraph,
    num_cards: int,
    config: AmstConfig | None = None,
    *,
    partitioner: str = "range",
    net_profile: str = "pcie3",
) -> ScaleOutResult:
    """Compute the minimum spanning forest across ``num_cards`` cards.

    ``partitioner`` selects a registered strategy (``range``, ``hash``,
    ``edge-cut``, ``grid2d``).  The per-card runs execute in-process;
    ``report.host_phase1_seconds`` is their real wall clock.
    """
    cfg = config if config is not None else AmstConfig.full()
    num_cards = validate_num_cards(num_cards)
    tel = current_telemetry()

    if num_cards == 1:
        t0 = time.perf_counter()
        out = Amst(cfg).run(graph)
        report = ScaleOutReport(
            num_cards=1,
            local_seconds=out.report.seconds,
            exchange_seconds=0.0,
            merge_seconds=0.0,
            cut_edges=0,
            local_outputs=(out,),
            merge_output=out,
            host_phase1_seconds=time.perf_counter() - t0,
            partitioner=partitioner,
            net_profile=net_profile,
        )
        if tel is not None:
            tel.metrics.set_gauge("scaleout.cards", 1)
            tel.metrics.set_gauge("scaleout.cut_edges", 0)
        return ScaleOutResult(result=out.result, report=report)

    from ..fabric.fabric import run_fabric

    run = run_fabric(
        graph, num_cards, cfg,
        partitioner=partitioner, net_profile=net_profile,
    )

    if tel is not None:
        tel.metrics.set_gauge("scaleout.cards", num_cards)
        tel.metrics.set_gauge("scaleout.cut_edges",
                              run.plan.stats.cut_edges)
        tel.metrics.set_gauge("scaleout.merge_edges",
                              run.merge_output.report.num_edges)

    report = ScaleOutReport(
        num_cards=num_cards,
        local_seconds=run.local_seconds,
        exchange_seconds=run.network.reduce_seconds,
        merge_seconds=run.merge_seconds,
        cut_edges=run.plan.stats.cut_edges,
        local_outputs=run.local_outputs,
        merge_output=run.merge_output,
        host_phase1_seconds=run.host_phase1_seconds,
        partitioner=run.plan.name,
        net_profile=run.profile.name,
        num_rounds=len(run.rounds),
        messages=run.network.total_messages,
        message_bytes=run.network.total_bytes,
        boundary_edges=run.boundary_edges,
        scatter_seconds=run.network.scatter_seconds,
        network=run.network.to_dict(),
        partition_stats=run.plan.stats.to_dict(),
    )
    return ScaleOutResult(result=run.result, report=report)
