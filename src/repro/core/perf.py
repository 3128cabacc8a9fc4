"""Analytical performance model: event counts → cycles → seconds/joules.

The functional simulator produces exact operation counts; this module is
the *only* place those counts meet latency/bandwidth constants.  Modelling
decisions (all per-iteration, per-module):

* compute and DRAM streams of a module overlap (the RTL pipelines loads
  against processing), so module time is ``max(compute, dram)`` plus a
  fixed controller overhead;
* per-PE throughput is 1 op/cycle and each PE owns one HBM channel, so
  both terms divide by ``parallelism`` — except atomic MinEdge conflicts,
  which serialize at the writer and are charged undivided (that is the
  communication overhead the sorting network removes, Section IV-C);
* random HBM blocks cost ``dram_random_block`` cycles, streamed blocks
  ``dram_seq_block``.

Energy = modelled runtime × a board-power model (idle + per-PE dynamic),
matching how the paper measures with ``xbutil`` (board power × time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import AmstConfig
from .events import EventLog, IterationEvents

__all__ = ["ModuleCycles", "PerfReport", "iteration_cycles", "build_report",
           "fpga_power_watts"]

# ledger keys holding DRAM block counts, by module and access type
_MEM_KEYS = {
    "fm": {
        "random": ("mem.fm_parent_blocks", "mem.fm_minedge_blocks",
                   "mem.fm_iv_flag_blocks", "mem.fm_minedge_wb_blocks",
                   "mem.fm_edge_blocks", "mem.fm_ie_writeback_blocks"),
        "seq": ("mem.sched_offset_blocks", "mem.sched_parent_blocks"),
    },
    "rape": {
        "random": ("mem.rape_minedge_blocks", "mem.rape_parent_blocks",
                   "mem.rape_parent_wb_blocks"),
        "seq": ("mem.rape_root_blocks", "mem.rape_mst_blocks"),
    },
    "cm": {
        "random": ("mem.cm_parent_blocks", "mem.cm_parent_wb_blocks"),
        "seq": ("mem.cm_ldv_stream_blocks", "mem.cm_ldv_wb_blocks",
                "mem.cm_root_wb_blocks"),
    },
}


@dataclass(frozen=True)
class ModuleCycles:
    """Cycle estimate of one module in one iteration."""

    compute: float
    dram: float
    serialized: float = 0.0  # atomic conflicts etc. — not divided by P

    @property
    def total(self) -> float:
        return max(self.compute, self.dram) + self.serialized


def _dram_cycles(ev: IterationEvents, module: str, cfg: AmstConfig) -> float:
    c = cfg.costs
    rnd = sum(ev.get(k) for k in _MEM_KEYS[module]["random"])
    seq = sum(ev.get(k) for k in _MEM_KEYS[module]["seq"])
    return (rnd * c.dram_random_block + seq * c.dram_seq_block) / cfg.parallelism


def _fm_work(ev: IterationEvents, cfg: AmstConfig) -> float:
    """Per-PE-parallelizable FM work in cycle units (before dividing)."""
    c = cfg.costs
    return (
        ev.get("fm.tasks") * c.task_dispatch
        + ev.get("fm.flag_checks") * c.flag_check
        + (ev.get("fm.parent_lookups") + ev.get("fm.stale_hops"))
        * c.cache_access
        + ev.get("fm.parent_compares") * c.compare
        + ev.get("fm.weight_compares") * c.compare
        + ev.get("fm.minedge_reads") * c.cache_access
        + ev.get("fm.ie_marks") * c.compare
    )


def _fm_cycles(ev: IterationEvents, cfg: AmstConfig) -> ModuleCycles:
    c = cfg.costs
    compute = _fm_work(ev, cfg) / cfg.parallelism
    # The MinEdge cache has a single write port (Section V-F-2), so the
    # writer's read-modify-write stream serializes at one update per
    # cycle — the residual conflict the paper blames for sub-linear
    # scaling (Fig 14).  The bitonic network itself is pipelined and
    # overlapped with FM compute (one batch per cycle), so its only
    # effect here is shrinking the writer stream; without it, every
    # batch-local duplicate additionally pays a serialized atomic retry.
    serialized = (
        ev.get("fm.minedge_writer_reads") * c.cache_access
        + ev.get("net.atomic_conflicts") * c.atomic_conflict
    )
    return ModuleCycles(compute, _dram_cycles(ev, "fm", cfg), serialized)


def _rape_work(ev: IterationEvents, cfg: AmstConfig) -> float:
    c = cfg.costs
    return (
        ev.get("rape.tasks") * c.task_dispatch
        + ev.get("rape.minedge_reads") * c.cache_access
        + ev.get("rape.parent_reads") * c.cache_access
        + ev.get("rape.compares") * c.compare
        + ev.get("rape.parent_writes") * c.cache_access
    )


def _rape_cycles(ev: IterationEvents, cfg: AmstConfig) -> ModuleCycles:
    c = cfg.costs
    compute = _rape_work(ev, cfg) / cfg.parallelism
    # MST output and Root updates drain through a single FIFO writer.
    serialized = ev.get("rape.appends") * c.cache_access
    return ModuleCycles(compute, _dram_cycles(ev, "rape", cfg), serialized)


def _cm_work(ev: IterationEvents, cfg: AmstConfig) -> tuple[float, float]:
    """(root-phase work, leaf-phase work) in cycle units."""
    c = cfg.costs
    root_ops = (
        ev.get("cm.root_tasks") * c.task_dispatch
        + ev.get("cm.root.parent_reads") * c.cache_access
        + ev.get("cm.root_tasks") * c.cache_access  # write-back
    )
    leaf_ops = (
        (ev.get("cm.leaf_hdv_tasks") + ev.get("cm.leaf_ldv_tasks"))
        * c.task_dispatch
        + ev.get("cm.leaf_hdv.parent_reads") * c.cache_access
        + ev.get("cm.leaf_ldv.parent_reads") * c.cache_access
        + ev.get("cm.leaf_writes") * c.cache_access
    )
    return root_ops, leaf_ops


def _cm_cycles(ev: IterationEvents, cfg: AmstConfig) -> tuple[ModuleCycles, float]:
    """Returns (module cycles, leaf-phase share of the module's cycles)."""
    root_ops, leaf_ops = _cm_work(ev, cfg)
    compute = (root_ops + leaf_ops) / cfg.parallelism
    total_ops = root_ops + leaf_ops
    leaf_share = leaf_ops / total_ops if total_ops else 0.0
    return ModuleCycles(compute, _dram_cycles(ev, "cm", cfg)), leaf_share


def iteration_cycles(
    ev: IterationEvents, cfg: AmstConfig
) -> dict[str, ModuleCycles]:
    cm, leaf_share = _cm_cycles(ev, cfg)
    out = {
        "fm": _fm_cycles(ev, cfg),
        "rape": _rape_cycles(ev, cfg),
        "cm": cm,
    }
    out["_cm_leaf_share"] = leaf_share  # type: ignore[assignment]
    return out


@dataclass
class PerfReport:
    """Modelled performance of one accelerator run."""

    cfg: AmstConfig
    num_iterations: int
    num_edges: int
    module_cycles: dict[str, float]  # summed over iterations
    total_cycles: float
    overlap_cycles_hidden: float
    dram_blocks: int
    dram_random_blocks: int
    compute_work: float  # cycle-weighted operation count (Fig 13's metric)
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.cfg.cycles_to_seconds(self.total_cycles)

    @property
    def meps(self) -> float:
        """Throughput in Million Edges Per Second (the paper's metric)."""
        s = self.seconds
        return self.num_edges / s / 1e6 if s > 0 else 0.0

    @property
    def power_watts(self) -> float:
        return fpga_power_watts(self.cfg.parallelism)

    def attach_network(self, network: dict) -> None:
        """Record modelled inter-card communication cost on this report.

        ``network`` is a :meth:`repro.fabric.netmodel.NetworkCostReport.
        to_dict` payload (plus traffic/partition annotations); the fabric
        attaches it to the merge run so scale-out reports surface
        communication cost next to compute cycles.
        """
        self.extra["network"] = dict(network)

    @property
    def network_seconds(self) -> float:
        """Modelled inter-card transfer time (0.0 for single-card runs)."""
        return float(self.extra.get("network", {}).get(
            "total_seconds", 0.0))

    @property
    def energy_joules(self) -> float:
        return self.seconds * self.power_watts

    def summary(self) -> dict[str, float]:
        return {
            "iterations": self.num_iterations,
            "cycles": self.total_cycles,
            "seconds": self.seconds,
            "meps": self.meps,
            "dram_blocks": self.dram_blocks,
            "energy_j": self.energy_joules,
        }


def fpga_power_watts(parallelism: int) -> float:
    """U280 board power: static + HBM + per-PE dynamic (≈45 W at P=16)."""
    return 25.0 + 1.25 * parallelism


def build_report(log: EventLog, cfg: AmstConfig, num_edges: int) -> PerfReport:
    """Apply the pipeline schedule of Fig 6 and sum cycles.

    * serial (Fig 6a): iteration time = FM + RM + AM + CM back-to-back;
      an unmerged RM/AM costs one extra module pass of controller
      overhead (its extra reads are already in the event counts);
    * optimized (Fig 6b): RM∥AM merge collapses the extra pass, and
      FM(i+1) overlaps CM(i)'s leaf phase.  The hidden portion is
      ``min(CM_leaf_i, FM_{i+1}) * readiness_i`` where readiness is the
      fraction of iteration-i parent updates done early (roots + HDV
      leaves) — the bit-marking event trigger of Section V-B-2.
    """
    c = cfg.costs
    per_iter: list[dict] = [iteration_cycles(ev, cfg) for ev in log.iterations]
    module_sums = {"fm": 0.0, "rape": 0.0, "cm": 0.0}
    total = 0.0
    for it in per_iter:
        for m in module_sums:
            module_sums[m] += it[m].total
        total += it["fm"].total + it["rape"].total + it["cm"].total
        total += 3 * c.iteration_overhead  # FM / RAPE / CM passes
        if not cfg.merge_rm_am:
            total += c.iteration_overhead  # separate RM and AM passes

    hidden = 0.0
    if cfg.overlap_fm_cm:
        # The event trigger (Section V-B-2) releases FM(i+1) as soon as
        # CM(i) has refreshed the HDV root parents, so everything past
        # that point — the remaining roots and both leaf pipelines —
        # executes under FM(i+1)'s shadow.  The 0.9 efficiency factor
        # absorbs the FIFO-retry cost of tasks whose it_idx check fails.
        for i in range(len(per_iter) - 1):
            cm_after_trigger = 0.9 * per_iter[i]["cm"].total
            fm_next = per_iter[i + 1]["fm"].total
            hidden += min(cm_after_trigger, fm_next)
        total -= hidden

    totals = log.grand_totals()
    dram_blocks = sum(v for k, v in totals.items() if k.startswith("mem."))
    rnd_keys = {k for mod in _MEM_KEYS.values() for k in mod["random"]}
    dram_random = sum(totals.get(k, 0) for k in rnd_keys)
    c = cfg.costs
    compute_work = 0.0
    for ev in log.iterations:
        root_w, leaf_w = _cm_work(ev, cfg)
        compute_work += (
            _fm_work(ev, cfg)
            + _rape_work(ev, cfg)
            + root_w
            + leaf_w
            + (ev.get("fm.minedge_writer_reads")
               + ev.get("fm.minedge_writer_commits")) * c.cache_access
            + ev.get("net.atomic_conflicts") * c.atomic_conflict
        )
    return PerfReport(
        cfg=cfg,
        num_iterations=log.num_iterations,
        num_edges=num_edges,
        module_cycles=module_sums,
        total_cycles=float(max(total, 1.0)),
        overlap_cycles_hidden=float(hidden),
        dram_blocks=int(dram_blocks),
        dram_random_blocks=int(dram_random),
        compute_work=float(compute_work),
    )
