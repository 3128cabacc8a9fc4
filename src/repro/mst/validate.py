"""Validation of minimum spanning forests.

Checks three things independently of how a forest was produced:

1. *Forest shape*: the selected edges are acyclic and their count equals
   ``n - num_components``.
2. *Spanning*: every connected component of the input graph is covered by
   exactly one tree.
3. *Minimality*: total weight equals Kruskal's (always) and the edge set
   equals Kruskal's when weights are unique.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .kruskal import kruskal
from .result import MSTResult
from .union_find import UnionFind

__all__ = ["is_spanning_forest", "validate_mst", "forest_weight"]


def forest_weight(graph: CSRGraph, edge_ids: np.ndarray) -> float:
    """Total weight of a set of undirected edge ids."""
    _, _, w = graph.edge_endpoints()
    return float(w[np.asarray(edge_ids, dtype=np.int64)].sum())


def is_spanning_forest(graph: CSRGraph, edge_ids: np.ndarray) -> bool:
    """True iff ``edge_ids`` forms a spanning forest of ``graph``."""
    n = graph.num_vertices
    u, v, _ = graph.edge_endpoints()
    eids = np.asarray(edge_ids, dtype=np.int64)
    if eids.size and (eids.min() < 0 or eids.max() >= graph.num_edges):
        return False
    dsu = UnionFind(n)
    if len(dsu.union_all(u[eids].tolist(), v[eids].tolist())) != eids.size:
        return False  # cycle (or an edge left over once one tree spans)
    # Spanning: no graph edge may join two of the forest's trees.
    labels = dsu.component_labels()
    return bool(np.array_equal(labels[u], labels[v]))


def validate_mst(
    graph: CSRGraph, result: MSTResult, *, reference: MSTResult | None = None
) -> None:
    """Raise ``AssertionError`` with a precise message on any violation."""
    if reference is None:
        reference = kruskal(graph)
    if not is_spanning_forest(graph, result.edge_ids):
        raise AssertionError("result is not a spanning forest")
    expected_edges = graph.num_vertices - reference.num_components
    if result.num_edges != expected_edges:
        raise AssertionError(
            f"forest has {result.num_edges} edges, expected {expected_edges}"
        )
    if result.num_components != reference.num_components:
        raise AssertionError(
            f"forest has {result.num_components} components, expected "
            f"{reference.num_components}"
        )
    recomputed = forest_weight(graph, result.edge_ids)
    if not np.isclose(recomputed, result.total_weight, rtol=1e-9):
        raise AssertionError(
            f"claimed weight {result.total_weight} != recomputed {recomputed}"
        )
    if not np.isclose(result.total_weight, reference.total_weight, rtol=1e-9):
        raise AssertionError(
            f"forest weight {result.total_weight} is not minimal "
            f"(Kruskal: {reference.total_weight})"
        )
