"""Byte-identity of the content-addressed run cache.

The run cache must be *invisible* in the outputs: ``run_oracle`` with a
cold or warm :class:`~repro.bench.runcache.RunCache` returns the same
entries and the byte-identical formatted report as without one, on the
adversarial graph strategies.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.bench.runcache import RunCache
from repro.core import AmstConfig
from repro.verify import run_oracle
from repro.verify.strategies import graphs

CACHED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ORACLE_CONFIGS = {
    "full": AmstConfig.full(4, cache_vertices=16),
    "no-hdc": AmstConfig(parallelism=2, cache_vertices=16,
                         use_hdc=False, hash_cache=False),
}


class TestOracleCacheIdentity:
    @CACHED
    @given(graphs(max_vertices=14, max_edges=30))
    def test_cached_oracle_matches_uncached(self, g):
        plain = run_oracle(g, ORACLE_CONFIGS)
        cache = RunCache()
        cold = run_oracle(g, ORACLE_CONFIGS, cache=cache)
        warm = run_oracle(g, ORACLE_CONFIGS, cache=cache)
        for other in (cold, warm):
            assert list(other.entries) == list(plain.entries)
            for name in plain.entries:
                np.testing.assert_array_equal(
                    other.entries[name].edge_ids,
                    plain.entries[name].edge_ids)
                assert other.entries[name].exact_weight == \
                    plain.entries[name].exact_weight
            assert other.format() == plain.format()
        assert cache.stats()["hits"] > 0  # the warm pass actually reused work
