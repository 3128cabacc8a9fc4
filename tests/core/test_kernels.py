"""Tests of the simulator's hot-loop kernels against scalar references.

Each hot loop has one NumPy implementation, inline in its caller; the
LRU replay is the one with an independent one-access-at-a-time model
(:class:`~repro.memory.ScalarLRUCache`) to check it against.
"""

import numpy as np

from repro.memory import LRUCache, ScalarLRUCache


class TestLRUCacheWiring:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        ids = rng.integers(0, 64, 300)
        vec, ref = LRUCache(32, ways=4), ScalarLRUCache(32, ways=4)
        np.testing.assert_array_equal(
            vec.lookup(ids), ref.lookup(ids))
        assert vec.stats.evictions == ref.stats.evictions
