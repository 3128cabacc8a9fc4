"""AMST top level: the Top Controller (Section V-A, Fig 5).

:class:`Amst` wires preprocessing, the per-iteration module sequence
(FM → RAPE → CM), the caches and the HBM model together, iterates until
no component finds an external edge, and returns both the minimum
spanning forest (an :class:`~repro.mst.result.MSTResult`, bitwise
comparable with the reference algorithms) and a
:class:`~repro.core.perf.PerfReport` with the modelled cycles, DRAM
traffic and energy.

Typical use::

    from repro import Amst, AmstConfig
    from repro.graph import rmat

    g = rmat(16, 16, rng=7)
    amst = Amst(AmstConfig.full(parallelism=16))
    out = amst.run(g)
    print(out.result.total_weight, out.report.meps)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.preprocess import PreprocessResult, preprocess
from ..mst.result import MSTResult
from ..obs.context import current_telemetry
from ..obs.spans import SpanRecorder
from .config import AmstConfig
from .compressing import run_compressing
from .events import EventLog
from .finding import run_finding
from .perf import PerfReport, build_report
from .rape import run_rape
from .selfcheck import check_report_consistency
from .state import SimState
from .timing import (
    CACHE_METHODS,
    HBM_METHODS,
    TimedSubsystem,
    fold_host_timing,
)

__all__ = ["Amst", "AmstOutput"]


@dataclass(frozen=True)
class AmstOutput:
    """Everything one accelerator run produces."""

    result: MSTResult  # forest in the *original* vertex/edge id space
    report: PerfReport
    log: EventLog
    preprocess: PreprocessResult
    state: SimState  # final simulator state (caches, flags, parents)


class Amst:
    """The AMST accelerator simulator.

    Parameters
    ----------
    config:
        Architecture configuration; defaults to the paper's shipping
        16-PE configuration with every optimization enabled.
    """

    def __init__(self, config: AmstConfig | None = None) -> None:
        self.config = config if config is not None else AmstConfig.full()

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        *,
        preprocessed: PreprocessResult | None = None,
        max_iterations: int | None = None,
        telemetry=None,
    ) -> AmstOutput:
        """Compute the minimum spanning forest of ``graph``.

        ``preprocessed`` lets callers share one preprocessing pass across
        several configurations (the ablation benchmarks do this); it must
        have been produced from the same graph with reordering and edge
        sorting consistent with the configuration.

        Every run records a run → iteration → stage → subsystem span
        tree; ``report.extra["host_timing"]`` is its fold
        (``timing.py``).  The spans go to ``telemetry`` (a
        :class:`~repro.obs.telemetry.Telemetry`, or the ambient one
        installed with :func:`repro.obs.activate` when None) and to a
        private recorder without one.  Recording is strictly
        read-only: the result is byte-identical with telemetry on or
        off.
        """
        tel = telemetry if telemetry is not None else current_telemetry()
        spans = tel.spans if tel is not None else SpanRecorder()
        with spans.span(
            "amst.run", category="run",
            n=graph.num_vertices, m=graph.num_edges,
            parallelism=self.config.parallelism,
        ) as run_span:
            return self._run(graph, preprocessed, max_iterations, spans,
                             run_span.id)

    def _run(
        self,
        graph: CSRGraph,
        preprocessed: PreprocessResult | None,
        max_iterations: int | None,
        spans: SpanRecorder,
        run_id: int,
    ) -> AmstOutput:
        cfg = self.config
        first_span = len(spans.spans)
        if preprocessed is None:
            with spans.span("preprocess", category="stage"):
                preprocessed = preprocess(
                    graph,
                    reorder="sort" if cfg.use_hdc else "identity",
                    sort_edges_by_weight=cfg.sort_edges_by_weight,
                )
        g = preprocessed.graph
        state = SimState.initial(g, cfg)
        # Route cache/HBM calls through span proxies so the host profile
        # attributes simulator time per subsystem (timing.py).
        raw = (state.parent_cache, state.minedge_cache, state.hbm)
        state.spans = spans
        state.parent_cache = TimedSubsystem(
            state.parent_cache, spans, "sub.cache.parent", CACHE_METHODS)
        state.minedge_cache = TimedSubsystem(
            state.minedge_cache, spans, "sub.cache.minedge", CACHE_METHODS)
        state.hbm = TimedSubsystem(state.hbm, spans, "sub.hbm", HBM_METHODS)
        log = EventLog()
        mst_chunks: list[np.ndarray] = []
        total_weight = 0.0
        limit = (
            max_iterations
            if max_iterations is not None
            else 2 * max(g.num_vertices, 1)
        )

        completed = 0
        while state.iteration < limit:
            ev = log.new_iteration()
            with spans.span(f"iteration {ev.iteration}", category="iteration"):
                with spans.span("stage.fm", category="stage"):
                    found = run_finding(state, ev)
                ev.parent_cache_utilization = (
                    state.parent_cache.utilization())
                ev.minedge_cache_utilization = (
                    state.minedge_cache.utilization())
                if found.num_candidates == 0:
                    # Termination probe: the hardware discovers
                    # completion by running FM and finding no external
                    # edge; the pass stays in the log (its cycles and
                    # traffic are real) but does not count as a Borůvka
                    # iteration.
                    break
                with spans.span("stage.rm_am", category="stage"):
                    rape = run_rape(state, ev)
                mst_chunks.append(rape.appended_eids)
                total_weight += rape.appended_weight
                state.iteration += 1
                completed += 1
                with spans.span("stage.cm", category="stage"):
                    run_compressing(state, ev, rape.hooked_roots)
                state.reset_minedge()
                ev.parent_cache_utilization = (
                    state.parent_cache.utilization())
                ev.minedge_cache_utilization = (
                    state.minedge_cache.utilization())
                if cfg.self_check:
                    state.check_invariants(log)

        edge_ids = (
            np.concatenate(mst_chunks)
            if mst_chunks
            else np.empty(0, np.int64)
        )
        # Edge ids are preserved by permutation/sorting, so they already
        # live in the input graph's eid space; only vertices were renamed.
        result = MSTResult(
            edge_ids=edge_ids,
            total_weight=total_weight,
            num_components=g.num_vertices - edge_ids.size,
            iterations=completed,
            extras={"config": cfg},
        )
        report = build_report(log, cfg, g.num_edges)
        if cfg.self_check:
            state.check_invariants(log)
            check_report_consistency(log, report)
        # Detach the recorder: it does not pickle, and AmstOutput must
        # (pool workers return it).
        state.parent_cache, state.minedge_cache, state.hbm = raw
        state.spans = None
        report.extra["host_timing"] = fold_host_timing(
            spans.spans[first_span:], run_id)
        return AmstOutput(
            result=result,
            report=report,
            log=log,
            preprocess=preprocessed,
            state=state,
        )
