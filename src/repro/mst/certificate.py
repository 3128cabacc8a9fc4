"""Full minimality certification of a spanning forest.

`validate_mst` proves a forest's weight equals Kruskal's — convincing, but
circular if Kruskal itself were wrong.  This module certifies minimality
from first principles via the **cycle property**: a spanning forest F of
G is minimum iff for every non-forest edge (u, v, w), w is at least the
maximum edge weight on F's unique u–v path.  (With ties broken by edge
id, the strict form also certifies *the* canonical MST.)

The check runs in O(m · h) where h is the forest height after rooting —
fine for test-scale graphs, and entirely independent of every MST
implementation in this repo: it never calls union-find.  Acyclicity and
spanning come from the rooting BFS itself (edge count against tree
count, and every graph edge inside one tree).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["certify_minimum_forest", "max_edge_on_path"]


def _root_forest(
    graph: CSRGraph, tree_edges: np.ndarray
) -> tuple[list[int], list[float], list[int], list[int]]:
    """BFS-root every tree of the forest.

    Returns ``(parent, parent_weight, depth, root)`` as lists indexed by
    vertex: ``parent[v]`` is v's parent in its rooted tree (or v itself
    for roots), ``parent_weight[v]`` the weight of the edge to the
    parent and ``root[v]`` the root of v's tree.  The BFS visits every
    vertex once, so on an edge set with a cycle it still terminates; the
    caller detects the cycle by counting (see
    :func:`certify_minimum_forest`).
    """
    n = graph.num_vertices
    u, v, w = graph.edge_endpoints()
    tree = np.asarray(tree_edges, dtype=np.int64)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, ww in zip(u[tree].tolist(), v[tree].tolist(),
                        w[tree].tolist()):
        adj[a].append((b, ww))
        adj[b].append((a, ww))

    parent = list(range(n))
    parent_weight = [0.0] * n
    depth = [-1] * n
    root = list(range(n))
    for start in range(n):
        if depth[start] >= 0:
            continue
        depth[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            dy = depth[x] + 1
            for y, ww in adj[x]:
                if depth[y] < 0:
                    depth[y] = dy
                    parent[y] = x
                    parent_weight[y] = ww
                    root[y] = start
                    queue.append(y)
    return parent, parent_weight, depth, root


def max_edge_on_path(
    a: int,
    b: int,
    parent: Sequence[int],
    parent_weight: Sequence[float],
    depth: Sequence[int],
) -> float:
    """Maximum edge weight on the rooted-forest path a..b.

    Returns ``-inf`` when ``a == b`` and raises if the endpoints live in
    different trees (no path).
    """
    best = float("-inf")
    x, y = a, b
    while depth[x] > depth[y]:
        best = max(best, parent_weight[x])
        x = parent[x]
    while depth[y] > depth[x]:
        best = max(best, parent_weight[y])
        y = parent[y]
    while x != y:
        if parent[x] == x and parent[y] == y:
            raise ValueError("endpoints are in different trees")
        best = max(best, parent_weight[x], parent_weight[y])
        x = parent[x]
        y = parent[y]
    return best


def certify_minimum_forest(
    graph: CSRGraph, edge_ids: np.ndarray
) -> None:
    """Raise AssertionError unless ``edge_ids`` is a minimum spanning
    forest of ``graph`` (independent first-principles proof)."""
    n, m = graph.num_vertices, graph.num_edges
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if edge_ids.size and (edge_ids.min() < 0 or edge_ids.max() >= m):
        raise AssertionError("not a spanning forest")
    in_forest = np.zeros(m, dtype=bool)
    in_forest[edge_ids] = True
    parent, parent_weight, depth, root = _root_forest(graph, edge_ids)
    # acyclic: distinct ids, and a forest on n vertices with r trees has
    # exactly n - r edges (a cycle or self-loop leaves one edge too many)
    if (int(in_forest.sum()) != edge_ids.size
            or edge_ids.size != n - depth.count(0)):
        raise AssertionError("not a spanning forest")
    # spanning: no graph edge joins two trees
    u, v, w = graph.edge_endpoints()
    labels = np.array(root, dtype=np.int64)
    if not np.array_equal(labels[u], labels[v]):
        raise AssertionError("not a spanning forest")
    rest = np.flatnonzero(~in_forest)
    for i, (a, b, we) in enumerate(zip(u[rest].tolist(), v[rest].tolist(),
                                       w[rest].tolist())):
        path_max = max_edge_on_path(a, b, parent, parent_weight, depth)
        if we < path_max:
            raise AssertionError(
                f"cycle property violated: non-tree edge {rest[i]} "
                f"({a}-{b}, w={we}) is lighter than the path maximum "
                f"{path_max}"
            )
