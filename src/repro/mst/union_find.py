"""Disjoint-set union (union-find).

Used by Kruskal, Filter-Kruskal, the spanning-forest validator and the
incremental engine's forest rebuild.  ``parent`` and ``rank`` are plain
Python lists, so the scalar interface (:meth:`UnionFind.find`,
:meth:`UnionFind.union`) and the bulk pass (:meth:`UnionFind.union_all`)
never box a NumPy scalar per access.  Every caller feeds its edges
through the one bulk pass, union by rank with path halving.
:meth:`UnionFind.find_many` and :meth:`UnionFind.component_labels` still
return int64 arrays for the vectorized callers; :func:`pointer_jump` is
Stage 4's path compression in vectorized form.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["UnionFind", "pointer_jump"]


class UnionFind:
    """List-backed DSU over ``n`` elements."""

    __slots__ = ("parent", "rank", "_num_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = list(range(n))
        self.rank = [0] * n
        self._num_components = n

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def num_components(self) -> int:
        return self._num_components

    def find(self, x: int) -> int:
        """Root of ``x`` with path halving."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns False if already one.

        The one-pair reference for :meth:`union_all`.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self._num_components -= 1
        return True

    def union_all(self, us: Sequence[int], vs: Sequence[int]) -> list[int]:
        """Union each pair ``(us[i], vs[i])`` in order.

        Returns the positions ``i`` whose union merged two sets, in
        order.  Stops once one component remains: every later pair would
        be a no-op, so a caller that needs every pair merged compares the
        returned length with the input length.  ``us`` and ``vs`` should
        hold plain ints (``ndarray.tolist()``).
        """
        p, rank = self.parent, self.rank
        left = self._num_components
        merged: list[int] = []
        if left <= 1:
            return merged
        for i, (a, b) in enumerate(zip(us, vs)):
            while p[a] != a:
                p[a] = p[p[a]]
                a = p[a]
            while p[b] != b:
                p[b] = p[p[b]]
                b = p[b]
            if a == b:
                continue
            ra, rb = rank[a], rank[b]
            if ra < rb:
                a, b = b, a
            p[b] = a
            if ra == rb:
                rank[a] += 1
            merged.append(i)
            left -= 1
            if left == 1:
                break
        self._num_components = left
        return merged

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized find (no compression writes; read-only batch)."""
        return self.component_labels()[np.asarray(xs, dtype=np.int64)]

    def component_labels(self) -> np.ndarray:
        """Root id of every element (fully compressed snapshot)."""
        return pointer_jump(np.fromiter(
            self.parent, dtype=np.int64, count=len(self.parent)))


def pointer_jump(parent: np.ndarray) -> np.ndarray:
    """Iterated ``parent = parent[parent]`` until a fixed point.

    This is exactly Stage 4's path compression (Algorithm 1, line 23) in
    vectorized form; each round halves the depth of every tree, so the
    loop runs O(log depth) times.  The input array is modified in place
    and returned.
    """
    parent = np.asarray(parent)
    if parent.dtype.kind not in "iu":
        raise TypeError("parent must be an integer array")
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        np.copyto(parent, nxt)
