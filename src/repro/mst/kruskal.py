"""Kruskal's algorithm — the repo's ground truth.

Sorting is vectorized; the union loop is scalar but touches each edge at
most once, so it stays fast enough to validate every simulator run.
Ties are broken by undirected edge id, matching the tie-break used by the
Borůvka implementations, so on duplicate weights all algorithms agree on
total weight (and on the exact edge set when weights are unique).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .result import MSTResult
from .union_find import UnionFind

__all__ = ["kruskal"]


def kruskal(graph: CSRGraph) -> MSTResult:
    """Minimum spanning forest via Kruskal (the repo ground truth)."""
    n = graph.num_vertices
    u, v, w = graph.edge_endpoints()
    order = np.lexsort((np.arange(u.size), w))
    dsu = UnionFind(n)
    chosen: list[int] = []
    total = 0.0
    for e in order:
        if dsu.union(int(u[e]), int(v[e])):
            chosen.append(int(e))
            total += float(w[e])
            if dsu.num_components == 1:
                break
    return MSTResult(
        edge_ids=np.array(chosen, dtype=np.int64),
        total_weight=total,
        num_components=dsu.num_components,
    )
