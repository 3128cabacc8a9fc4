"""Mutable edge-list view over a CSR graph: batched inserts/deletes.

The static pipeline is built around the immutable
:class:`~repro.graph.csr.CSRGraph`; dynamic workloads (ROADMAP item 4a)
need the opposite — a graph that absorbs edge insertions and deletions
in small batches without paying an O(m) rebuild per change.
:class:`DynamicGraph` keeps the undirected edge list in growable arrays
with a liveness mask and two id spaces:

* **internal ids** are append-order positions in the growable arrays and
  are *stable forever* — a deletion never renumbers anything;
* **compact ids** are the rank of an internal id among the currently
  alive edges, i.e. exactly the ``eid`` the materialized CSR assigns
  (:func:`~repro.graph.builders.from_arrays` numbers edges in passed
  order).  Because the compact map is monotone, comparing two alive
  edges by ``(weight, internal_id)`` is equivalent to comparing them by
  ``(weight, eid)`` in the materialized graph — which is what lets the
  incremental engine reproduce the repo-wide tie-break byte-for-byte.

Materialization (:meth:`DynamicGraph.to_csr`) is lazy and cached; update
streams that never materialize pay only O(batch) per batch.  Each
applied :class:`UpdateBatch` advances a cheap *state fingerprint* chain
``fp_{i+1} = H(fp_i | batch_fp)`` seeded with the base graph's content
fingerprint, so cache keys for "this graph after these updates" need no
materialization (see docs/INCREMENTAL.md, "Cache keys").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..bench.runcache import graph_fingerprint
from ..graph.builders import from_arrays
from ..graph.csr import CSRGraph

__all__ = ["UpdateBatch", "AppliedBatch", "DynamicGraph"]


class _GrowArray:
    """Amortized-O(1) append buffer over a NumPy array."""

    __slots__ = ("_data", "size")

    def __init__(self, initial: np.ndarray) -> None:
        initial = np.ascontiguousarray(initial)
        self._data = initial.copy()
        self.size = initial.size

    @property
    def view(self) -> np.ndarray:
        """The live prefix (a view — do not hold across appends)."""
        return self._data[: self.size]

    def append(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._data.dtype).ravel()
        need = self.size + values.size
        if need > self._data.size:
            cap = max(16, self._data.size)
            while cap < need:
                cap *= 2
            grown = np.empty(cap, dtype=self._data.dtype)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        self._data[self.size : need] = values
        self.size = need


@dataclass(frozen=True)
class UpdateBatch:
    """One batch of edge updates against a :class:`DynamicGraph`.

    ``insert_u``/``insert_v``/``insert_w`` list new undirected edges in
    *insertion order* (order is significant: it fixes the internal —
    and therefore compact — ids the new edges receive).  ``delete_eids``
    are **compact** edge ids of the pre-batch graph; deletion is
    set-like, so they are canonicalized to sorted-unique form.
    """

    insert_u: np.ndarray
    insert_v: np.ndarray
    insert_w: np.ndarray
    delete_eids: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.insert_u, dtype=np.int64).ravel()
        v = np.asarray(self.insert_v, dtype=np.int64).ravel()
        w = np.asarray(self.insert_w, dtype=np.float64).ravel()
        d = np.asarray(self.delete_eids, dtype=np.int64).ravel()
        if not (u.shape == v.shape == w.shape):
            raise ValueError("insert_u/insert_v/insert_w lengths differ")
        if not np.isfinite(w).all():
            raise ValueError("insert weights must be finite (no NaN or ±inf)")
        if d.size:
            d = np.sort(d)
            if d[0] < 0:
                raise ValueError("delete_eids must be non-negative")
            if (d[1:] == d[:-1]).any():
                raise ValueError("delete_eids contains duplicates")
        object.__setattr__(self, "insert_u", u)
        object.__setattr__(self, "insert_v", v)
        object.__setattr__(self, "insert_w", w)
        object.__setattr__(self, "delete_eids", d)

    @classmethod
    def of(cls, inserts=(), deletes=()) -> "UpdateBatch":
        """Build from ``[(u, v, w), ...]`` inserts and an eid iterable."""
        rows = list(inserts)
        u = np.array([r[0] for r in rows], dtype=np.int64)
        v = np.array([r[1] for r in rows], dtype=np.int64)
        w = np.array([r[2] for r in rows], dtype=np.float64)
        return cls(insert_u=u, insert_v=v, insert_w=w,
                   delete_eids=np.array(list(deletes), dtype=np.int64))

    @property
    def num_inserts(self) -> int:
        return int(self.insert_u.size)

    @property
    def num_deletes(self) -> int:
        return int(self.delete_eids.size)

    def __len__(self) -> int:
        return self.num_inserts + self.num_deletes

    def canonical_bytes(self) -> bytes:
        """Order-sensitive (inserts) / canonicalized (deletes) encoding."""
        return b"|".join((
            b"ins", self.insert_u.tobytes(), self.insert_v.tobytes(),
            self.insert_w.tobytes(), b"del", self.delete_eids.tobytes(),
        ))

    def fingerprint(self) -> str:
        """BLAKE2b content hash of the batch (hex, 32 chars)."""
        return hashlib.blake2b(self.canonical_bytes(),
                               digest_size=16).hexdigest()

    def to_json(self) -> dict:
        """JSON-ready view (the serve ``update`` job payload shape)."""
        return {
            "inserts": [[int(a), int(b), float(c)] for a, b, c in zip(
                self.insert_u, self.insert_v, self.insert_w)],
            "deletes": [int(e) for e in self.delete_eids],
        }


@dataclass(frozen=True)
class AppliedBatch:
    """Internal ids a bulk :meth:`DynamicGraph.apply` touched."""

    deleted_internal: np.ndarray
    inserted_internal: np.ndarray


def _chain_fingerprint(state_fp: str, batch_fp: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(state_fp.encode())
    h.update(b"|")
    h.update(batch_fp.encode())
    return h.hexdigest()


class DynamicGraph:
    """A CSR graph plus an append-only undirected edge ledger.

    All mutation goes through either the granular pair
    (:meth:`resolve_deletes` + :meth:`kill` / :meth:`append`, closed by
    :meth:`finish_batch`) used by the incremental engine to process one
    edge at a time, or the bulk :meth:`apply` used when nobody needs
    per-edge sequencing.  Both routes leave identical state — same
    arrays, same state-fingerprint chain.
    """

    def __init__(self, graph: CSRGraph) -> None:
        u, v, w = graph.edge_endpoints()
        self._num_vertices = graph.num_vertices
        self._eu = _GrowArray(u)
        self._ev = _GrowArray(v)
        self._ew = _GrowArray(w)
        self._alive = _GrowArray(np.ones(u.size, dtype=bool))
        self._num_alive = int(u.size)
        # the seed CSR is a valid materialization of the initial ledger
        # (edge_endpoints() is eid-indexed), so cache it as-is
        self._csr: CSRGraph | None = graph
        self._compact: np.ndarray | None = None
        self._state_fp = graph_fingerprint(graph)
        self._in_batch = False

    # -- basic views ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Currently alive undirected edges (== materialized ``m``)."""
        return self._num_alive

    @property
    def total_edges(self) -> int:
        """Ledger length including dead edges (== internal id bound)."""
        return self._eu.size

    @property
    def eu(self) -> np.ndarray:
        """``int64[total_edges]`` first endpoint, by internal id."""
        return self._eu.view

    @property
    def ev(self) -> np.ndarray:
        """``int64[total_edges]`` second endpoint, by internal id."""
        return self._ev.view

    @property
    def ew(self) -> np.ndarray:
        """``float64[total_edges]`` weight, by internal id."""
        return self._ew.view

    @property
    def alive(self) -> np.ndarray:
        """``bool[total_edges]`` liveness, by internal id."""
        return self._alive.view

    @property
    def state_fingerprint(self) -> str:
        """Cheap chained fingerprint of (base graph, applied batches)."""
        return self._state_fp

    # -- id mapping ----------------------------------------------------
    def compact_to_internal(self) -> np.ndarray:
        """``int64[num_edges]`` internal id of each compact eid (cached)."""
        if self._compact is None:
            self._compact = np.flatnonzero(self._alive.view)
        return self._compact

    def internal_to_compact(self, internal: np.ndarray) -> np.ndarray:
        """Compact eids of alive internal ids (monotone, vectorized)."""
        table = self.compact_to_internal()
        internal = np.asarray(internal, dtype=np.int64)
        pos = np.searchsorted(table, internal)
        if pos.size and (pos >= table.size).any():
            raise ValueError("internal id is not alive")
        if not np.array_equal(table[pos], internal):
            raise ValueError("internal id is not alive")
        return pos

    # -- granular mutation (engine-driven sequencing) ------------------
    def resolve_deletes(self, delete_eids: np.ndarray) -> np.ndarray:
        """Internal ids of compact ``delete_eids`` (pre-batch mapping)."""
        d = np.asarray(delete_eids, dtype=np.int64)
        if d.size and (d.min() < 0 or d.max() >= self._num_alive):
            raise ValueError(
                f"delete eid out of range [0, {self._num_alive})")
        return self.compact_to_internal()[d]

    def kill(self, internal: int) -> None:
        """Mark one alive edge dead."""
        alive = self._alive.view
        if not alive[internal]:
            raise ValueError(f"edge {internal} is already dead")
        alive[internal] = False
        self._num_alive -= 1
        self._invalidate()

    def append(self, u: int, v: int, w: float) -> int:
        """Append one new undirected edge; returns its internal id."""
        if not (0 <= u < self._num_vertices
                and 0 <= v < self._num_vertices):
            raise ValueError(
                f"edge endpoint out of range [0, {self._num_vertices})")
        internal = self._eu.size
        self._eu.append(np.array([u], dtype=np.int64))
        self._ev.append(np.array([v], dtype=np.int64))
        self._ew.append(np.array([w], dtype=np.float64))
        self._alive.append(np.array([True], dtype=bool))
        self._num_alive += 1
        self._invalidate()
        return internal

    def finish_batch(self, batch: UpdateBatch) -> None:
        """Advance the state-fingerprint chain after granular mutation."""
        self._state_fp = _chain_fingerprint(self._state_fp,
                                            batch.fingerprint())

    def _invalidate(self) -> None:
        self._csr = None
        self._compact = None

    # -- bulk mutation -------------------------------------------------
    def apply(self, batch: UpdateBatch) -> AppliedBatch:
        """Apply a whole batch structurally (deletes, then inserts)."""
        doomed = self.resolve_deletes(batch.delete_eids)
        for internal in doomed.tolist():
            self.kill(internal)
        inserted = np.empty(batch.num_inserts, dtype=np.int64)
        for i, (u, v, w) in enumerate(zip(batch.insert_u.tolist(),
                                          batch.insert_v.tolist(),
                                          batch.insert_w.tolist())):
            inserted[i] = self.append(u, v, w)
        self.finish_batch(batch)
        return AppliedBatch(deleted_internal=doomed,
                            inserted_internal=inserted)

    # -- materialization -----------------------------------------------
    def to_csr(self) -> CSRGraph:
        """The current graph as an immutable CSR (lazy, cached).

        Alive edges are packed in internal-id order, so the produced
        ``eid`` space is exactly the compact id space.
        """
        if self._csr is None:
            keep = self._alive.view
            self._csr = from_arrays(
                self._num_vertices, self._eu.view[keep],
                self._ev.view[keep], self._ew.view[keep])
        return self._csr

    def csr_fingerprint(self) -> str:
        """Content fingerprint of the materialized graph (forces build)."""
        return graph_fingerprint(self.to_csr())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DynamicGraph(n={self.num_vertices}, "
                f"m={self.num_edges}, ledger={self.total_edges})")
