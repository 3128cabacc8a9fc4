"""Micro-benchmarks of the library's own kernels.

Unlike the figure benchmarks (single-shot experiment reproductions),
these use pytest-benchmark's statistical timing to track the *library's*
performance across commits: the reference MST algorithms, preprocessing,
the simulator, and the vectorized primitives they share.
"""

import numpy as np
import pytest

from repro.bench import sweep_cache_organization
from repro.core import Amst, AmstConfig, SimState
from repro.core.utils import (
    concat_ranges,
    count_distinct,
    segment_first,
    segment_offsets,
    segmented_prefix_minima_mask,
)
from repro.graph import preprocess, rmat
from repro.memory import LRUCache, ScalarLRUCache
from repro.mst import boruvka, filter_kruskal, kruskal, prim


@pytest.fixture(scope="module")
def graph():
    return rmat(12, 16, rng=7)


@pytest.fixture(scope="module")
def preprocessed(graph):
    return preprocess(graph, reorder="sort", sort_edges_by_weight=True)


def bench_kernel_kruskal(benchmark, graph):
    result = benchmark(kruskal, graph)
    assert result.num_edges > 0


def bench_kernel_filter_kruskal(benchmark, graph):
    result = benchmark(filter_kruskal, graph)
    assert result.num_edges > 0


def bench_kernel_boruvka(benchmark, graph):
    result = benchmark(boruvka, graph)
    assert result.num_edges > 0


def bench_kernel_prim_small(benchmark):
    g = rmat(9, 8, rng=7)  # Prim is scalar-heap: keep it small
    result = benchmark(prim, g)
    assert result.num_edges > 0


def bench_kernel_preprocess(benchmark, graph):
    pp = benchmark(
        lambda: preprocess(graph, reorder="sort",
                           sort_edges_by_weight=True))
    assert pp.graph.num_edges == graph.num_edges


def bench_kernel_amst_simulation(benchmark, graph, preprocessed):
    cfg = AmstConfig.full(16, cache_vertices=1024)
    result = benchmark(
        lambda: Amst(cfg).run(graph, preprocessed=preprocessed))
    assert result.result.num_edges > 0


def bench_primitive_concat_ranges(benchmark):
    rng = np.random.default_rng(0)
    starts = rng.integers(0, 1000, 100_000)
    ends = starts + rng.integers(0, 30, 100_000)
    out = benchmark(concat_ranges, starts, ends)
    assert out.size == (ends - starts).sum()


def bench_primitive_segment_first(benchmark):
    rng = np.random.default_rng(1)
    lens = rng.integers(0, 30, 50_000)
    offsets = segment_offsets(lens)
    mask = rng.random(int(lens.sum())) < 0.1
    out = benchmark(segment_first, mask, offsets)
    assert out.size == 50_000


def bench_primitive_prefix_minima(benchmark):
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 1_000_000, 200_000)
    group = rng.integers(0, 5_000, 200_000)
    out = benchmark(segmented_prefix_minima_mask, keys, group)
    assert out.any()


def bench_primitive_count_distinct(benchmark):
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 60_000, 500_000)
    n = benchmark(count_distinct, ids, 60_000)
    assert n == np.unique(ids).size


# ----------------------------------------------------------------------
# LRU cache replay: the vectorized model must beat the scalar oracle by
# >= 10x on a 1M-access stream (ISSUE acceptance bar).  The scalar side
# runs a shortened stream so the benchmark suite stays usable; the
# explicit ratio check below times one full-length shot of each.
# ----------------------------------------------------------------------
_LRU_STREAM = 1_000_000


def _lru_stream(n=_LRU_STREAM, spread=65_536):
    return np.random.default_rng(11).integers(
        0, spread, n).astype(np.int64)


def bench_lru_lookup_vectorized_1m(benchmark):
    ids = _lru_stream()

    def run():
        c = LRUCache(4096, ways=8)
        return c.lookup(ids)

    hits = benchmark(run)
    assert hits.size == ids.size


def bench_lru_lookup_scalar_50k(benchmark):
    ids = _lru_stream(50_000)

    def run():
        c = ScalarLRUCache(4096, ways=8)
        return c.lookup(ids)

    hits = benchmark(run)
    assert hits.size == ids.size


def bench_lru_vectorized_speedup_over_scalar():
    """Single-shot 1M-access comparison: >= 10x and identical results."""
    import time

    ids = _lru_stream()
    vec, ref = LRUCache(4096, ways=8), ScalarLRUCache(4096, ways=8)
    t0 = time.perf_counter()
    hv = vec.lookup(ids)
    t_vec = time.perf_counter() - t0
    t0 = time.perf_counter()
    hr = ref.lookup(ids)
    t_ref = time.perf_counter() - t0
    np.testing.assert_array_equal(hv, hr)
    np.testing.assert_array_equal(vec._tags, ref._tags)
    np.testing.assert_array_equal(vec._stamp, ref._stamp)
    assert vec.stats == ref.stats
    speedup = t_ref / t_vec
    print(f"\nLRU replay 1M accesses: vectorized {t_vec * 1e3:.1f} ms, "
          f"scalar {t_ref * 1e3:.1f} ms -> {speedup:.1f}x")
    assert speedup >= 10.0


def bench_resolve_roots_memoized(benchmark, graph):
    st = SimState.initial(graph, AmstConfig.full(16, cache_vertices=1024))
    # build frozen chains like SIV leaves behind: blocks of 64 vertices
    # pointing one step toward their block head
    n = graph.num_vertices
    p = (np.arange(n, dtype=np.int64) // 64) * 64
    p[::64] = np.arange(0, n, 64)
    st.parent = p

    def run():
        st.write_parent(np.array([1]), np.array([0]))  # invalidate memo
        return st.resolve_roots()

    roots = benchmark(run)
    assert (roots[roots] == roots).all()


def bench_sweep_cache_organization_with_lru(benchmark):
    g = rmat(9, 10, rng=5)
    res = benchmark(lambda: sweep_cache_organization(
        g, cache_vertices=256, parallelism=8))
    assert res.column("Organization") == ["none", "direct", "hash", "lru"]
