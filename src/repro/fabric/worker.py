"""Per-card local phase: one shard, one local MSF.

Cards are modelled, not host processes: :func:`card_task` runs in the
calling process.  Each card materializes its shard subgraph from the
graph's canonical ``(u, v, w)`` endpoint arrays and runs the full AMST
simulator over it.  The returned pair is ``(AmstOutput,
global_edge_ids_of_local_msf)``, mirroring how a real card would ship
just its surviving forest records.

Telemetry uses *counters* (``inc``), which sum over cards;
:func:`~repro.fabric.run_fabric` wraps every card in a
``task:fabric.card<N>`` span.
"""

from __future__ import annotations

import numpy as np

from ..core.accelerator import Amst
from ..core.config import AmstConfig
from ..graph.builders import from_arrays
from ..graph.csr import CSRGraph
from ..obs.context import current_telemetry

__all__ = ["card_task", "edge_subgraph"]


def edge_subgraph(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    keep: np.ndarray,
) -> CSRGraph:
    """Subgraph over the selected undirected edge ids.

    ``u/v/w`` are the graph's canonical endpoint arrays (computed once
    by the caller); vertex ids are preserved (isolated vertices are fine
    for the simulator) and the subgraph's edge id ``e`` maps back to
    ``keep[e]`` in the input graph.
    """
    keep = np.asarray(keep, dtype=np.int64)
    return from_arrays(num_vertices, u[keep], v[keep], w[keep])


def card_task(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    keep: np.ndarray,
    num_vertices: int,
    cfg: AmstConfig,
) -> tuple:
    """One card's local phase over its edge-id shard ``keep``.

    Returns ``(AmstOutput, global_edge_ids_of_local_msf)``.
    """
    sub = edge_subgraph(num_vertices, u, v, w, keep)
    out = Amst(cfg).run(sub)
    tel = current_telemetry()
    if tel is not None:
        tel.metrics.inc("fabric.worker.runs")
        tel.metrics.inc("fabric.worker.shard_edges", int(keep.size))
        tel.metrics.inc("fabric.worker.msf_edges",
                        int(out.result.edge_ids.size))
    return out, keep[out.result.edge_ids]
