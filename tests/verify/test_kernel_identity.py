"""End-to-end byte-identity of the NumPy hot loops against references.

The ``python`` tier swaps the pure-Python one-access-at-a-time
:class:`~repro.memory.ScalarLRUCache` in for the vectorized
:class:`~repro.memory.LRUCache` wherever the simulator builds one.  A
run on that tier must serialize to the same bytes as the default run:
the same forest, cycle count, DRAM traffic and per-iteration counts, and
for the golden suite the blessed files themselves.  Cases whose
configuration builds no LRU cache run unchanged, which pins each golden
case's bytes on its own.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Amst, AmstConfig
from repro.core import state as state_mod
from repro.memory import ScalarLRUCache
from repro.verify.golden import (
    GOLDEN_CASES,
    compute_golden_record,
    golden_dir,
    serialize_record,
)
from repro.verify.strategies import graphs

TIERS = ["python"]

RUNS = settings(max_examples=20, deadline=None)

END_TO_END_CONFIGS = (
    AmstConfig.full(4, cache_vertices=16),
    AmstConfig(parallelism=2, cache_vertices=16,
               use_hdc=False, hash_cache=False),
    AmstConfig.full(4, cache_vertices=16).with_(
        lru_cache=True, hash_cache=False),
)


@contextmanager
def _tier(name):
    """Build the simulator's caches from the ``name`` tier's models."""
    assert name == "python"
    with mock.patch.object(state_mod, "LRUCache", ScalarLRUCache):
        yield


@pytest.mark.parametrize("tier", TIERS)
class TestEndToEndIdentity:
    @given(g=graphs(), cfg=st.sampled_from(END_TO_END_CONFIGS))
    @RUNS
    def test_full_run(self, tier, g, cfg):
        ref = Amst(cfg).run(g)
        with _tier(tier):
            got = Amst(cfg).run(g)
        if cfg.lru_cache and cfg.use_hdc:
            cache = got.state.parent_cache
            assert isinstance(getattr(cache, "_inner", cache),
                              ScalarLRUCache)
        np.testing.assert_array_equal(
            got.result.edge_ids, ref.result.edge_ids)
        assert got.result.total_weight == ref.result.total_weight
        assert got.result.num_components == ref.result.num_components
        assert got.report.total_cycles == ref.report.total_cycles
        assert got.report.dram_blocks == ref.report.dram_blocks
        assert len(got.log.iterations) == len(ref.log.iterations)
        for a, b in zip(got.log.iterations, ref.log.iterations):
            assert a.counts == b.counts

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_bytes(self, tier, name):
        blessed = (golden_dir() / f"{name}.json").read_text()
        with _tier(tier):
            record = compute_golden_record(name)
        assert serialize_record(record) == blessed
