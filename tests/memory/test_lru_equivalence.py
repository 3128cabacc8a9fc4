"""Property-based equivalence: vectorized LRU vs the scalar oracle.

The vectorized :class:`LRUCache` claims *byte-identical* behaviour to
:class:`ScalarLRUCache` (same tags, same LRU stamps, same clock, same
stats) for any interleaving of the batch API.  Hypothesis drives random
op streams over a grid of geometries; every step compares the returned
hit vectors and the full internal state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import LRUCache, ScalarLRUCache
from repro.memory.lru_cache import lru_replay

_OPS = ("lookup", "write", "contains", "mark_dead")


def _assert_same_state(vec: LRUCache, ref: ScalarLRUCache) -> None:
    np.testing.assert_array_equal(vec._tags, ref._tags)
    np.testing.assert_array_equal(vec._stamp, ref._stamp)
    assert vec._clock == ref._clock
    assert vec.stats == ref.stats
    assert vec.utilization() == ref.utilization()


def _run_stream(capacity, ways, ops):
    vec = LRUCache(capacity, ways=ways)
    ref = ScalarLRUCache(capacity, ways=ways)
    for kind, ids in ops:
        got = getattr(vec, kind)(ids)
        want = getattr(ref, kind)(ids)
        if got is not None or want is not None:
            np.testing.assert_array_equal(got, want, err_msg=kind)
        _assert_same_state(vec, ref)


@given(
    ways=st.sampled_from([1, 2, 4, 8]),
    sets=st.sampled_from([1, 2, 3, 16]),
    spread=st.sampled_from([1, 4, 64]),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_random_streams_byte_identical(ways, sets, spread, seed, n_ops):
    capacity = ways * sets
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = _OPS[int(rng.integers(len(_OPS)))]
        size = int(rng.integers(0, 120))
        # spread=1 forces heavy conflict/eviction churn; 64 is sparse
        ids = rng.integers(0, spread * capacity + 1, size=size)
        ops.append((kind, ids.astype(np.int64)))
    _run_stream(capacity, ways, ops)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lru_replay_matches_scalar_model(data):
    """The bare replay function, from an empty cache, against the
    scalar model's hit flags and eviction count."""
    ways = data.draw(st.sampled_from([2, 4]))
    capacity = data.draw(st.sampled_from([8, 16]))
    k = data.draw(st.integers(0, 40))
    ids = np.array(
        data.draw(st.lists(st.integers(0, 3 * capacity),
                           min_size=k, max_size=k)),
        dtype=np.int64,
    )
    ref = ScalarLRUCache(capacity, ways=ways)
    want = ref.lookup(ids)
    tags = np.full((capacity // ways, ways), -1, dtype=np.int64)
    stamps = np.zeros((capacity // ways, ways), dtype=np.int64)
    hits, evictions, clock = lru_replay(ids, tags, stamps, 0)
    np.testing.assert_array_equal(hits, want)
    assert evictions == ref.stats.evictions
    assert clock == ref._clock


def test_single_set_worst_case():
    """Everything maps to one set — the vectorized path degenerates to
    one row replayed for the whole stream length."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 40, size=3000).astype(np.int64) * 4  # set 0 only
    _run_stream(16, ways=4, ops=[("lookup", ids), ("write", ids[::-1])])


def test_empty_and_singleton_batches():
    _run_stream(8, ways=2, ops=[
        ("lookup", np.empty(0, dtype=np.int64)),
        ("lookup", np.array([5])),
        ("contains", np.empty(0, dtype=np.int64)),
        ("write", np.array([5])),
    ])


def test_duplicate_ids_in_one_batch():
    """Repeats within a batch must see each other's allocations."""
    ids = np.array([3, 3, 11, 3, 11, 19, 3], dtype=np.int64)  # one set
    vec = LRUCache(8, ways=2)
    ref = ScalarLRUCache(8, ways=2)
    np.testing.assert_array_equal(vec.lookup(ids), ref.lookup(ids))
    _assert_same_state(vec, ref)
