"""Kruskal's algorithm — the repo's ground truth.

One stable sort by weight, then one bulk union-find pass over the sorted
endpoint lists (:meth:`UnionFind.union_all`), fast enough to validate
every simulator run.  Ties are broken by undirected edge id, matching
the tie-break used by the Borůvka implementations, so on duplicate
weights all algorithms agree on total weight (and on the exact edge set
when weights are unique).  The total is a left-to-right sum over the
accepted weights in acceptance order; ``sum()`` (compensated on Python
3.12+) or ``np.sum`` (pairwise) would change its last digits.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .result import MSTResult
from .union_find import UnionFind

__all__ = ["kruskal"]


def kruskal(graph: CSRGraph) -> MSTResult:
    """Minimum spanning forest via Kruskal (the repo ground truth)."""
    u, v, w = graph.edge_endpoints()
    order = np.argsort(w, kind="stable")  # ties by edge id
    dsu = UnionFind(graph.num_vertices)
    chosen = order[dsu.union_all(u[order].tolist(), v[order].tolist())]
    total = 0.0
    for x in w[chosen].tolist():
        total += x
    return MSTResult(
        edge_ids=chosen,
        total_weight=total,
        num_components=dsu.num_components,
    )
