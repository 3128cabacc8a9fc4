"""Conventional set-associative LRU cache model.

Section III-A argues that *"traditional cache strategies face
difficulties in managing data"* for MST's mixed access patterns — this
model exists to test that claim quantitatively rather than take it on
faith.  It implements a ``ways``-associative LRU cache over vertex-id
addresses with the same batch API as the HDV caches, so the cache-
organization sweep can put LRU, direct-HDV and hash-HDV side by side at
equal capacity (``sweep_cache_organization``, LRU row on by default).

The replacement state is exact (per-set LRU stamps), processed in stream
order; a cache this size would be unbuildable in BRAM with multi-port
access — which is the paper's other argument against it — so the sweep
reports its hit rate as an upper bound, not a design point.

Two implementations share the model:

* :class:`LRUCache` — the production model, replaying each batch with
  :func:`lru_replay`.  Accesses are grouped by set (`np.argsort`,
  stable) and each set's stream is replayed in lockstep *rounds*: round
  ``r`` applies the ``r``-th access of every active set at once with
  NumPy ops, so the Python-level loop length is the longest per-set
  stream, not the total access count.  Per-access clocks are assigned
  in original stream order, so tags, stamps and the clock are
  byte-identical to the scalar model (accesses to different sets are
  independent; only the in-set order matters for behaviour).
* :class:`ScalarLRUCache` — the original one-access-at-a-time model,
  retained as the equivalence-test oracle
  (``tests/memory/test_lru_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from .stats import CacheStats

__all__ = ["LRUCache", "ScalarLRUCache", "lru_replay"]


def lru_replay(ids, tags, stamps, clock):
    """Replay one access batch in lockstep rounds (see module docstring).

    ``tags`` / ``stamps`` are the ``(sets, ways)`` cache state, mutated
    in place; returns ``(hits, evictions, clock)``, byte-identical to
    :class:`ScalarLRUCache` replaying the same batch.
    """
    n = ids.shape[0]
    hits = np.empty(n, dtype=bool)
    if n == 0:
        return hits, 0, clock
    base = clock
    clock += n
    set_of = ids % tags.shape[0]
    order = np.argsort(set_of, kind="stable")  # keeps in-set order
    ids_s = ids[order]
    clk_s = base + 1 + order  # exact scalar per-access clocks
    set_s = set_of[order]

    # per-set segments in the sorted stream
    k = np.arange(n, dtype=np.int64)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(set_s[1:], set_s[:-1], out=is_start[1:])
    seg_start = k[is_start]
    seg_idx = np.cumsum(is_start) - 1  # owning segment per element
    counts = np.diff(np.concatenate((seg_start, [n])))
    # longest streams first so each round's active rows are a prefix
    by_len = np.argsort(-counts, kind="stable")
    rank = np.empty(by_len.size, dtype=np.int64)
    rank[by_len] = np.arange(by_len.size, dtype=np.int64)
    su = set_s[seg_start][by_len]
    counts = counts[by_len]
    num_rows = su.size
    num_rounds = int(counts[0])

    # round-major padded layout: element k of the sorted stream lands at
    # (its in-set position, row of its set), so round r is the
    # contiguous slice vals[r, :active]
    row = rank[seg_idx]
    col = k - seg_start[seg_idx]
    vals = np.empty((num_rounds, num_rows), dtype=np.int64)
    vals[col, row] = ids_s
    clks = np.empty((num_rounds, num_rows), dtype=np.int64)
    clks[col, row] = clk_s
    hit_mat = np.empty((num_rounds, num_rows), dtype=bool)
    # active rows per round (counts descending => prefix); padded cells
    # sit at inactive rows, so they are never read or written
    active = np.searchsorted(
        -counts, -np.arange(num_rounds, dtype=np.int64), side="left"
    )

    wtags = tags[su]  # (active sets, ways) working copies
    wstamps = stamps[su]
    ways = wtags.shape[1]
    tags_flat = wtags.reshape(-1)
    stamps_flat = wstamps.reshape(-1)
    row_base = np.arange(num_rows, dtype=np.int64) * ways
    cmp_buf = np.empty((num_rows, ways), dtype=bool)
    evictions = 0
    for r in range(num_rounds):
        a = active[r]
        v = vals[r, :a]
        hit_rows = np.equal(wtags[:a], v[:, None], out=cmp_buf[:a])
        is_hit = hit_rows.any(axis=1)
        # hit: refresh the matching way; miss: evict the min-stamp way
        # (argmax/argmin take the first index, matching the scalar
        # model's flatnonzero[0] / argmin tie-breaks)
        way = np.where(
            is_hit, hit_rows.argmax(axis=1), wstamps[:a].argmin(axis=1)
        )
        flat = row_base[:a] + way
        evictions += int(np.count_nonzero(~is_hit & (tags_flat[flat] >= 0)))
        tags_flat[flat] = v
        stamps_flat[flat] = clks[r, :a]
        hit_mat[r, :a] = is_hit

    tags[su] = wtags
    stamps[su] = wstamps
    hits[order] = hit_mat[col, row]
    return hits, evictions, clock


class _LRUBase:
    """State, validation and batch-API boilerplate shared by both models."""

    def __init__(self, capacity: int, ways: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ways <= 0 or capacity % ways:
            raise ValueError("capacity must be a positive multiple of ways")
        self.capacity = capacity
        self.ways = ways
        self.sets = capacity // ways
        self._tags = np.full((self.sets, ways), -1, dtype=np.int64)
        self._stamp = np.zeros((self.sets, ways), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        hits = self._replay(ids)
        nh = int(np.count_nonzero(hits))
        self.stats.accesses += ids.size
        self.stats.hits += nh
        self.stats.misses += ids.size - nh
        return hits

    def write(self, ids: np.ndarray) -> np.ndarray:
        """Write-allocate: every write lands in the cache."""
        ids = np.asarray(ids, dtype=np.int64)
        self._replay(ids)
        self.stats.writes += ids.size
        self.stats.cache_writes += ids.size
        return np.ones(ids.size, dtype=bool)

    def mark_dead(self, ids: np.ndarray) -> None:
        """LRU has no liveness concept; dead lines age out naturally."""
        self.stats.invalidations += np.asarray(ids).size

    def contains(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        return (self._tags[ids % self.sets] == ids[:, None]).any(axis=1)

    def utilization(self) -> float:
        return float(np.count_nonzero(self._tags >= 0)) / self.capacity

    def reset(self) -> None:
        self._tags[:] = -1
        self._stamp[:] = 0
        self._clock = 0
        self.stats = CacheStats()

    def _replay(self, ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LRUCache(_LRUBase):
    """Set-associative LRU over vertex ids (allocate-on-read-and-write).

    Vectorized replay: see the module docstring for the algorithm and
    :class:`ScalarLRUCache` for the behavioural reference.
    """

    def _replay(self, ids: np.ndarray) -> np.ndarray:
        hits, evictions, self._clock = lru_replay(
            ids, self._tags, self._stamp, self._clock
        )
        self.stats.evictions += evictions
        return hits


class ScalarLRUCache(_LRUBase):
    """One-access-at-a-time reference model (the equivalence oracle)."""

    def _touch(self, vid: int) -> bool:
        """One access in stream order; returns hit flag and allocates."""
        s = vid % self.sets
        tags = self._tags[s]
        self._clock += 1
        hit_way = np.flatnonzero(tags == vid)
        if hit_way.size:
            self._stamp[s, hit_way[0]] = self._clock
            return True
        victim = int(np.argmin(self._stamp[s]))
        if self._tags[s, victim] >= 0:
            self.stats.evictions += 1
        self._tags[s, victim] = vid
        self._stamp[s, victim] = self._clock
        return False

    def _replay(self, ids: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._touch(int(v)) for v in ids), dtype=bool, count=ids.size
        )

    def contains(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros(ids.size, dtype=bool)
        for i, v in enumerate(ids):
            s = int(v) % self.sets
            out[i] = bool((self._tags[s] == v).any())
        return out
