"""Compressed-sparse-row graph container.

The paper (Section II-A) represents graphs in standard CSR with an edge
array of ``(dest, weight)`` entries and an offset array indexed by source
vertex.  We mirror that layout exactly: an undirected graph with ``m``
edges is stored as ``2m`` directed half-edges, and every half-edge carries
the *undirected* edge id of its mate (``eid``) so MST output can be
reported as a canonical set of undirected edges.

All arrays are immutable (``writeable=False``); transformations return new
graphs.  Index arrays are ``int64`` and weights ``float64`` throughout,
matching the repo-wide dtype policy.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["CSRGraph"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class CSRGraph:
    """An immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[n + 1]`` offsets into the half-edge arrays; vertex ``v``
        owns half-edges ``indptr[v]:indptr[v + 1]``.
    dst:
        ``int64[2m]`` destination vertex of each half-edge.
    weight:
        ``float64[2m]`` weight of each half-edge (both mates carry the
        same weight).
    eid:
        ``int64[2m]`` undirected edge id in ``[0, m)``; the two mates of an
        undirected edge share one id.
    """

    __slots__ = ("indptr", "dst", "weight", "eid", "_src_cache", "_rank_cache")

    def __init__(
        self,
        indptr: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        eid: np.ndarray,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        eid = np.asarray(eid, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        if indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != dst.size:
            raise ValueError(
                f"indptr[-1] ({int(indptr[-1])}) must equal the number of "
                f"half-edges ({dst.size})"
            )
        if not (dst.size == weight.size == eid.size):
            raise ValueError("dst, weight and eid must have equal length")
        n = indptr.size - 1
        if dst.size and (dst.min() < 0 or dst.max() >= n):
            raise ValueError("dst contains out-of-range vertex ids")
        if not np.isfinite(weight).all():
            # NaN compares false both ways: the simulator would drop the
            # edge while the reference MSTs keep it; ±inf sums to NaN or
            # to -inf + inf in the forest weight
            raise ValueError("edge weights must be finite (no NaN or ±inf)")
        self.indptr = _freeze(indptr)
        self.dst = _freeze(dst)
        self.weight = _freeze(weight)
        self.eid = _freeze(eid)
        self._src_cache: np.ndarray | None = None
        self._rank_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_half_edges(self) -> int:
        return self.dst.size

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges."""
        return 0 if self.eid.size == 0 else int(self.eid.max()) + 1

    def degrees(self) -> np.ndarray:
        """``int64[n]`` out-degree (== undirected degree) per vertex."""
        return np.diff(self.indptr)

    def src_expanded(self) -> np.ndarray:
        """``int64[2m]`` source vertex of each half-edge (cached)."""
        if self._src_cache is None:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees()
            )
            self._src_cache = _freeze(src)
        return self._src_cache

    def edge_rank(self) -> np.ndarray:
        """``int64[m]`` position of each undirected edge in the global
        ``(weight, eid)`` order (cached).

        The SEW sort and the Finding Module's MinEdge commit compare
        these integers instead of re-sorting by ``(weight, eid)``.
        Raises ``ValueError`` when the two half-edges of one eid carry
        different weights.
        """
        if self._rank_cache is None:
            m = self.num_edges
            w = np.zeros(m, dtype=np.float64)
            w[self.eid] = self.weight
            if not np.array_equal(w[self.eid], self.weight):
                # the half-edge order would follow each mate's own weight
                # while edge_endpoints (and so Kruskal) keeps only one
                raise ValueError(
                    "the two half-edges of an edge must carry equal weights"
                )
            # the stable order of w, at the cost of an unstable float sort
            # plus one int64 sort by (run of equal weights, eid)
            order = np.argsort(w)
            ws = w[order]
            run_start = np.ones(m, dtype=bool)
            run_start[1:] = ws[1:] != ws[:-1]
            order = np.sort((np.cumsum(run_start) - 1) * m + order) % m
            rank = np.empty(m, dtype=np.int64)
            rank[order] = np.arange(m, dtype=np.int64)
            self._rank_cache = _freeze(rank)
        return self._rank_cache

    def _with_rank_of(self, graph: "CSRGraph") -> "CSRGraph":
        """``self`` sharing ``graph``'s already-computed edge rank (edge
        ids and their weights are unchanged by the transformation)."""
        self._rank_cache = graph._rank_cache
        return self

    # ------------------------------------------------------------------
    # per-vertex access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.dst[s:e]

    def edges_of(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dst, weight, eid)`` slices for vertex ``v``."""
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.dst[s:e], self.weight[s:e], self.eid[s:e]

    def iter_edges(self) -> Iterator[tuple[int, int, float, int]]:
        """Yield each undirected edge once as ``(u, v, w, eid)`` with u <= v."""
        seen = np.zeros(self.num_edges, dtype=bool)
        src = self.src_expanded()
        for k in range(self.num_half_edges):
            e = int(self.eid[k])
            if not seen[e]:
                seen[e] = True
                u, v = int(src[k]), int(self.dst[k])
                if u > v:
                    u, v = v, u
                yield u, v, float(self.weight[k]), e

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edge list ``(u, v, w)`` indexed by eid.

        ``u[i] <= v[i]`` for every undirected edge id ``i``.
        """
        m = self.num_edges
        u = np.zeros(m, dtype=np.int64)
        v = np.zeros(m, dtype=np.int64)
        w = np.zeros(m, dtype=np.float64)
        src = self.src_expanded()
        lo = np.minimum(src, self.dst)
        hi = np.maximum(src, self.dst)
        u[self.eid] = lo
        v[self.eid] = hi
        w[self.eid] = self.weight
        return u, v, w

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``v`` is ``perm[v]``.

        Used by degree-based grouping (Section IV-A).  Half-edges of the
        relabelled graph are regrouped by new source id; the relative order
        of a vertex's own edges is preserved.
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = self.num_vertices
        if perm.shape != (n,):
            raise ValueError("perm must have one entry per vertex")
        check = np.zeros(n, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ValueError("perm is not a permutation")
        new_src = perm[self.src_expanded()]
        new_dst = perm[self.dst]
        order = np.argsort(new_src, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_src, minlength=n), out=indptr[1:])
        return CSRGraph(
            indptr, new_dst[order], self.weight[order], self.eid[order]
        )._with_rank_of(self)

    def sort_edges(self, by_weight: bool) -> "CSRGraph":
        """Return a copy with each vertex's half-edges sorted.

        ``by_weight=True`` implements the SEW preprocessing (Section
        IV-B-3): within each vertex, edges ordered by ascending
        ``(weight, eid)`` — the eid tie-break matches the global minimum-
        edge order used by every MST implementation in this repo, which
        is what makes mirror detection by eid equality sound.
        ``by_weight=False`` sorts by destination id, the canonical
        adjacency order.

        The weight order is one int64 argsort of ``src * m + rank[eid]``
        (:meth:`edge_rank`): the same graph as a ``(src, weight, eid)``
        lexsort, at integer-sort cost.  Keys tie only for the two mates of
        a self loop, which are identical entries.
        """
        src = self.src_expanded()
        if by_weight:
            order = np.argsort(src * self.num_edges
                               + self.edge_rank()[self.eid])
        else:
            order = np.lexsort((self.weight, self.dst, src))
        return CSRGraph(
            self.indptr, self.dst[order], self.weight[order], self.eid[order]
        )._with_rank_of(self)

    def reweight(self, weight: np.ndarray) -> "CSRGraph":
        """Return a copy with new per-undirected-edge weights.

        ``weight`` is indexed by undirected edge id (length ``num_edges``).
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (self.num_edges,):
            raise ValueError("weight must have one entry per undirected edge")
        return CSRGraph(self.indptr, self.dst, weight[self.eid], self.eid)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"half_edges={self.num_half_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
            and np.array_equal(self.eid, other.eid)
        )

    def __hash__(self) -> int:
        return hash(
            (self.num_vertices, self.num_half_edges, self.weight.sum())
        )
