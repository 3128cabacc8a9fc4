"""Filter-Kruskal (Osipov, Sanders & Singler, ALENEX'09).

The strongest practical sequential MST algorithm on CPUs and a common
software baseline in the FPGA-accelerator literature.  It quick-select
partitions edges around a pivot weight, recurses on the light half, and
*filters* the heavy half — edges whose endpoints were already connected
by the light half never get sorted at all.  Included as an additional
comparator for the evaluation (the paper compares against MASTIFF, which
cites Filter-Kruskal as the sequential state of the art).

The partitioning is vectorized; the base case is one bulk union-find
pass (:meth:`UnionFind.union_all`) over a small sorted edge batch.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .result import MSTResult
from .union_find import UnionFind

__all__ = ["filter_kruskal"]

# below this many edges, plain sort + Kruskal beats partitioning
_BASE_CASE = 1024


def filter_kruskal(graph: CSRGraph) -> MSTResult:
    """Minimum spanning forest via Filter-Kruskal."""
    n = graph.num_vertices
    u, v, w = graph.edge_endpoints()
    dsu = UnionFind(n)
    chosen: list[int] = []
    total = 0.0

    def base(eids: np.ndarray) -> None:
        nonlocal total
        order = eids[np.lexsort((eids, w[eids]))]
        accepted = order[dsu.union_all(u[order].tolist(), v[order].tolist())]
        chosen.extend(accepted.tolist())
        for x in w[accepted].tolist():
            total += x

    def recurse(eids: np.ndarray) -> None:
        if dsu.num_components == 1 or eids.size == 0:
            return
        if eids.size <= _BASE_CASE:
            base(eids)
            return
        pivot = float(np.median(w[eids]))
        light = eids[w[eids] <= pivot]
        heavy = eids[w[eids] > pivot]
        if light.size == eids.size:  # degenerate pivot: everything equal
            base(eids)
            return
        recurse(light)
        # filter: drop heavy edges already intra-component
        labels = dsu.component_labels()
        recurse(heavy[labels[u[heavy]] != labels[v[heavy]]])

    recurse(np.arange(graph.num_edges, dtype=np.int64))
    return MSTResult(
        edge_ids=np.array(chosen, dtype=np.int64),
        total_weight=total,
        num_components=dsu.num_components,
    )
