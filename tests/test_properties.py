"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.baselines import counted_boruvka
from repro.core import Amst, AmstConfig, SimState, bitonic_sort_pairs
from repro.core.events import IterationEvents
from repro.core.finding import _commit_minedge
from repro.core.sorting_network import bitonic_stage_count
from repro.core.utils import segmented_prefix_minima_mask
from repro.graph import CSRGraph, from_edges
from repro.memory import BankedParentCache, HashHDVCache
from repro.mst import (
    UnionFind,
    boruvka,
    certify_minimum_forest,
    filter_kruskal,
    kruskal,
    pointer_jump,
    prim,
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_n=24, max_m=60):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    u = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dup_w = draw(st.booleans())
    if dup_w:
        w = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        w = [float(x) for x in w]
    else:
        w = list(np.random.default_rng(draw(st.integers(0, 99)))
                 .permutation(m) + 1.0)
    return from_edges(n, np.array(u, int), np.array(v, int),
                      np.array(w, float))


class TestMstAgreement:
    @SLOW
    @given(random_graphs())
    def test_all_implementations_agree_on_weight(self, g):
        expected = kruskal(g)
        for algo in (prim, boruvka, filter_kruskal):
            assert algo(g).same_forest_weight(expected)
        for flt in (True, False):
            result, _ = counted_boruvka(g, filter_intra=flt)
            assert result.same_forest_weight(expected)

    @SLOW
    @given(random_graphs())
    def test_kruskal_certified_from_first_principles(self, g):
        # independent proof via the cycle property, no union-find involved
        certify_minimum_forest(g, kruskal(g).edge_ids)

    @SLOW
    @given(random_graphs(), st.sampled_from([1, 4]),
           st.booleans(), st.booleans())
    def test_amst_simulator_is_minimal(self, g, p, sew, siv):
        cfg = AmstConfig.full(p, cache_vertices=8).with_(
            sort_edges_by_weight=sew, skip_intra_vertices=siv)
        out = Amst(cfg).run(g)
        assert out.result.same_forest_weight(kruskal(g))


class TestUnionFind:
    @SLOW
    @given(st.integers(1, 30),
           st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                    max_size=50))
    def test_component_count_invariant(self, n, unions):
        dsu = UnionFind(n)
        for a, b in unions:
            dsu.union(a % n, b % n)
        labels = dsu.component_labels()
        assert np.unique(labels).size == dsu.num_components
        # every element's find agrees with its label
        for i in range(n):
            assert dsu.find(i) == labels[i]

    @SLOW
    @given(st.integers(0, 12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                    max_size=40))
    @example(0, [])
    @example(1, [(0, 0), (0, 0)])
    @example(3, [(0, 0), (0, 1), (1, 2), (2, 0), (1, 1)])  # early exit
    def test_union_all_matches_scalar_unions(self, n, pairs):
        pairs = [(a % n, b % n) for a, b in pairs] if n else []
        bulk, ref = UnionFind(n), UnionFind(n)
        merged = bulk.union_all([a for a, _ in pairs], [b for _, b in pairs])
        assert merged == [i for i, (a, b) in enumerate(pairs)
                          if ref.union(a, b)]
        assert bulk.num_components == ref.num_components
        assert np.array_equal(bulk.component_labels(),
                              ref.component_labels())

    @SLOW
    @given(st.lists(st.integers(0, 19), min_size=1, max_size=20))
    def test_pointer_jump_fixpoint(self, raw):
        n = len(raw)
        parent = np.array([min(p, i) for i, p in enumerate(raw)],
                          dtype=np.int64)  # acyclic: parent <= self
        out = pointer_jump(parent.copy())
        assert np.array_equal(out[out], out)  # fixed point reached


class TestSortingNetwork:
    @SLOW
    @given(st.integers(0, 5),
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=0, max_size=32))
    def test_bitonic_matches_lexsort(self, pad_pow, pairs):
        size = 1 << pad_pow
        pairs = pairs[:size] + [(99, 99)] * (size - len(pairs))
        addrs = np.array([p[0] for p in pairs])
        vals = np.array([p[1] for p in pairs])
        sa, sv = bitonic_sort_pairs(addrs, vals)
        order = np.lexsort((vals, addrs))
        assert np.array_equal(sa, addrs[order])
        assert np.array_equal(sv, vals[order])


class TestBankedCache:
    @SLOW
    @given(st.integers(1, 4).map(lambda k: 1 << k), st.integers(1, 64),
           st.lists(st.tuples(st.integers(0, 63), st.integers(0, 999)),
                    max_size=40))
    def test_matches_flat_array(self, ports, depth, writes):
        cache = BankedParentCache(depth, ports)
        flat = np.full(depth, -1, dtype=np.int64)
        for addr, val in writes:
            addr %= depth
            cache.write(addr % ports, np.array([addr]), np.array([val]))
            flat[addr] = val
        assert np.array_equal(cache.read(np.arange(depth)), flat)


class TestHashCache:
    @SLOW
    @given(st.integers(1, 6).map(lambda k: 1 << k),
           st.lists(st.tuples(st.sampled_from(["read", "write", "dead"]),
                              st.integers(0, 255)), max_size=60))
    def test_reads_never_return_stale_owner(self, capacity, ops):
        """After any op sequence, a hit implies the id is the slot owner."""
        cache = HashHDVCache(capacity, 256)
        owners = {s: s for s in range(min(capacity, 256))}
        for op, vid in ops:
            slot = vid % capacity
            if op == "read":
                hit = bool(cache.lookup(np.array([vid]))[0])
                assert hit == (owners.get(slot) == vid)
            elif op == "write":
                wrote = bool(cache.write(np.array([vid]))[0])
                if slot not in owners:
                    owners[slot] = vid
                    assert wrote
                else:
                    assert wrote == (owners[slot] == vid)
            else:
                if owners.get(vid % capacity) == vid:
                    del owners[vid % capacity]
                cache.mark_dead(np.array([vid]))


class TestPrefixMinima:
    @SLOW
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 99)),
                    max_size=60))
    def test_matches_sequential_filter(self, items):
        group = np.array([g for g, _ in items], dtype=np.int64)
        keys = np.array([k for _, k in items], dtype=np.int64)
        mask = segmented_prefix_minima_mask(keys, group)
        best = {}
        for i, (g, k) in enumerate(items):
            expect = g not in best or k < best[g]
            assert bool(mask[i]) == expect
            if expect:
                best[g] = k


@st.composite
def permutations(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    perm = np.arange(n)
    np.random.default_rng(draw(st.integers(0, 99))).shuffle(perm)
    return n, perm


class TestGraphTransforms:
    @SLOW
    @given(random_graphs(max_n=16), st.integers(0, 99))
    def test_permute_preserves_mst_weight(self, g, seed):
        perm = np.arange(g.num_vertices)
        np.random.default_rng(seed).shuffle(perm)
        assert np.isclose(
            kruskal(g).total_weight, kruskal(g.permute(perm)).total_weight
        )

    @SLOW
    @given(random_graphs(max_n=16), st.booleans())
    def test_sort_edges_preserves_edge_multiset(self, g, by_weight):
        s = g.sort_edges(by_weight=by_weight)
        assert set(g.iter_edges()) == set(s.iter_edges())

    @SLOW
    @given(random_graphs(max_n=16))
    def test_npz_round_trip_exact(self, g):
        import tempfile, os
        from repro.graph import load_npz, save_npz

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "g.npz")
            save_npz(g, path)
            assert load_npz(path) == g

    @SLOW
    @given(random_graphs(max_n=14), st.integers(1, 4))
    def test_scale_out_matches_kruskal(self, g, cards):
        from repro.core import AmstConfig, run_scale_out

        cfg = AmstConfig.full(4, cache_vertices=8)
        r = run_scale_out(g, cards, cfg)
        assert r.result.same_forest_weight(kruskal(g))

    @SLOW
    @given(random_graphs(max_n=16))
    def test_connected_components_agree_with_forest(self, g):
        from repro.graph.connectivity import connected_components

        labels = connected_components(g)
        assert np.unique(labels).size == kruskal(g).num_components


# ----------------------------------------------------------------------
# Edge-rank keys vs the (weight, eid) lexsorts they replaced
# ----------------------------------------------------------------------
_BOUNDARY_WEIGHTS = [-1.0, -0.0, 0.0, 1.0, 2.0]


@st.composite
def boundary_graphs(draw, max_n=16, max_m=40):
    """Graphs with tied and signed-zero weights, isolated vertices,
    ``m = 0``, and (``dedup=False``) self loops / multi-edges; each
    half-edge of weight zero may carry either sign.  Infinite weights
    are rejected at construction (see ``TestNonFiniteWeights``)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    u = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        w = [draw(st.sampled_from(_BOUNDARY_WEIGHTS))] * m  # all equal
    else:
        w = draw(st.lists(st.sampled_from(_BOUNDARY_WEIGHTS),
                          min_size=m, max_size=m))
    g = from_edges(n, np.array(u, int), np.array(v, int),
                   np.array(w, float), dedup=draw(st.booleans()))
    flip = np.array(draw(st.lists(st.booleans(), min_size=g.dst.size,
                                  max_size=g.dst.size)), dtype=bool)
    weight = np.where(flip & (g.weight == 0), -0.0, g.weight)
    return CSRGraph(g.indptr, g.dst, weight, g.eid)


def _lexsort_sew(g):
    """The SEW sort as a 3-key ``(src, weight, eid)`` lexsort."""
    order = np.lexsort((g.eid, g.weight, g.src_expanded()))
    return CSRGraph(g.indptr, g.dst[order], g.weight[order], g.eid[order])


def _lexsort_commit_minedge(state, ev, comp, w, eid, target):
    """The MinEdge commit with (weight, eid) lexsort keys: three
    lexsorts over the candidate stream plus ``np.unique``."""
    cfg = state.cfg
    if comp.size == 0:
        return np.empty(0, dtype=np.int64)
    p = cfg.parallelism
    m = comp.size
    rank = np.empty(m, dtype=np.int64)
    rank[np.lexsort((eid, w))] = np.arange(m, dtype=np.int64)
    batch = np.arange(m, dtype=np.int64) // p
    order = np.lexsort((rank, batch, comp))
    c_s, b_s, r_s = comp[order], batch[order], rank[order]
    grp_start = np.ones(m, dtype=bool)
    grp_start[1:] = (c_s[1:] != c_s[:-1]) | (b_s[1:] != b_s[:-1])
    grp_idx_sorted = np.cumsum(grp_start) - 1
    gmin = r_s[grp_start]
    gcomp = c_s[grp_start]
    seg_start = np.ones(gmin.size, dtype=bool)
    seg_start[1:] = gcomp[1:] != gcomp[:-1]
    seg_id = np.cumsum(seg_start) - 1
    span = np.int64(m + 1)
    inc = np.minimum.accumulate(gmin - seg_id * span) + seg_id * span
    big = np.iinfo(np.int64).max
    excl = np.empty_like(inc)
    excl[0] = big
    excl[1:] = np.where(seg_start[1:], big, inc[:-1])
    fwd_sorted = r_s < excl[grp_idx_sorted]
    n_forward = int(np.count_nonzero(fwd_sorted))
    ev.add("fm.candidates_filtered", m - n_forward)
    ev.add("fm.candidates_forwarded", n_forward)
    winners = int(np.count_nonzero(grp_start & fwd_sorted))
    merged = n_forward - winners
    num_batches = int(batch[-1]) + 1
    if cfg.use_sorting_network:
        ev.add("net.batches", num_batches)
        ev.add("net.conflicts_merged", merged)
        ev.add("net.stages", num_batches * bitonic_stage_count(p))
        writer_inputs = winners
    else:
        ev.add("net.atomic_conflicts", merged)
        writer_inputs = n_forward
    ev.add("fm.minedge_writer_reads", writer_inputs)
    ev.add("fm.minedge_writer_commits", winners)
    updated = np.unique(comp)
    ev.add("fm.minedge_updates", updated.size)
    wrote = state.minedge_cache.write(updated)
    dram_w = int(np.count_nonzero(~np.asarray(wrote)))
    ev.add("mem.fm_minedge_wb_blocks",
           state.hbm.access_random("fm.minedge_wb", dram_w,
                                   cfg.minedge_bytes))
    order = np.lexsort((eid, w, comp))
    c = comp[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = c[1:] != c[:-1]
    win = order[first]
    win = win[w[win] < state.me_weight[comp[win]]]
    state.me_weight[comp[win]] = w[win]
    state.me_eid[comp[win]] = eid[win]
    state.me_target[comp[win]] = target[win]
    return updated


class TestNonFiniteWeights:
    @given(boundary_graphs(), st.sampled_from([-np.inf, np.inf]),
           st.integers(0, 1 << 16))
    def test_infinite_weight_is_rejected(self, g, bad, pick):
        # an accepted ±inf made the simulator, Kruskal and the oracle
        # disagree (-inf forests, NaN totals, fsum errors)
        assume(g.num_edges > 0)
        u, v, w = g.edge_endpoints()
        w = w.copy()
        w[pick % w.size] = bad
        with pytest.raises(ValueError, match="finite"):
            from_edges(g.num_vertices, u, v, w)
        half = g.weight.copy()
        half[g.eid == pick % w.size] = bad
        with pytest.raises(ValueError, match="finite"):
            CSRGraph(g.indptr, g.dst, half, g.eid)


class TestEdgeRankKeys:
    @SLOW
    @given(boundary_graphs())
    def test_sew_sort_matches_lexsort(self, g):
        assert g.sort_edges(by_weight=True) == _lexsort_sew(g)

    @SLOW
    @given(boundary_graphs(max_n=20, max_m=60), st.integers(1, 8),
           st.integers(0, 2**16), st.sampled_from([1, 4, 16, 1 << 14]),
           st.booleans())
    def test_commit_minedge_matches_lexsort(self, g, num_comps, seed, p,
                                            network):
        # the FM's candidate stream: external half-edges under a random
        # component labelling (roots are vertex ids), each carrying its
        # source component — so an eid can reach two components, never
        # twice the same one.  Widths are powers of two (bitonic network);
        # 4 leaves partial batches, 1 << 14 exceeds every stream.
        rng = np.random.default_rng(seed)
        roots = rng.integers(0, g.num_vertices, num_comps)
        label = roots[rng.integers(0, num_comps, g.num_vertices)]
        src_comp = label[g.src_expanded()]
        ext = np.flatnonzero(src_comp != label[g.dst])
        stream = rng.permutation(ext)[:rng.integers(0, ext.size + 1)]
        comp, eid = src_comp[stream], g.eid[stream]
        w, target = g.weight[stream], label[g.dst[stream]]

        cfg = AmstConfig.full(p, cache_vertices=8).with_(
            use_sorting_network=network)
        new, ref = SimState.initial(g, cfg), SimState.initial(g, cfg)
        ev_new, ev_ref = IterationEvents(0), IterationEvents(0)
        comps = _commit_minedge(new, ev_new, comp, g.edge_rank()[eid],
                                w, eid, target)
        expected = _lexsort_commit_minedge(ref, ev_ref, comp, w, eid,
                                           target)
        np.testing.assert_array_equal(comps, expected)
        assert ev_new.counts == ev_ref.counts
        for name in ("me_weight", "me_eid", "me_target"):
            np.testing.assert_array_equal(getattr(new, name),
                                          getattr(ref, name))
