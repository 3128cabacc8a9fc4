"""Unit tests for the CSR graph container."""

import pickle

import numpy as np
import pytest

from repro.bench.datasets import SUITE, load
from repro.core import Amst, AmstConfig
from repro.graph import (
    CSRGraph,
    from_edges,
    paper_example,
    path_graph,
    preprocess,
    rmat,
)
from repro.mst import (
    boruvka,
    certify_minimum_forest,
    filter_kruskal,
    kruskal,
    prim,
    validate_mst,
)


def _simple():
    return from_edges(
        4,
        np.array([0, 1, 2, 0]),
        np.array([1, 2, 3, 3]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


class TestConstruction:
    def test_basic_counts(self):
        g = _simple()
        assert g.num_vertices == 4
        assert g.num_edges == 4
        assert g.num_half_edges == 8

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="indptr\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0]), np.array([1.0]),
                     np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]),
                     np.array([1.0, 2.0]), np.array([0, 1]))

    def test_indptr_must_match_edge_count(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            CSRGraph(np.array([0, 3]), np.array([0]), np.array([1.0]),
                     np.array([0]))

    def test_dst_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(np.array([0, 1]), np.array([5]), np.array([1.0]),
                     np.array([0]))

    def test_mismatched_array_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRGraph(np.array([0, 1]), np.array([0]),
                     np.array([1.0, 2.0]), np.array([0]))

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([np.nan, np.nan]), np.array([0, 0]))

    def test_nan_bridge_rejected_by_from_edges(self):
        # NaN compares false both ways: accepted, this bridge makes the
        # simulator return [0, 2] (weight 3.0) and Kruskal [0, 1, 2]
        with pytest.raises(ValueError, match="NaN"):
            from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                       np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([bad, bad]), np.array([0, 0]))

    def test_infinite_weights_rejected_by_from_edges(self):
        # accepted, Amst.run returned a 1-edge forest of weight -inf with
        # 3 components, Kruskal 3 edges of weight NaN, and run_oracle
        # raised "-inf + inf in fsum"
        with pytest.raises(ValueError, match="finite"):
            from_edges(4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 2]),
                       np.array([np.inf, -np.inf, np.inf, np.inf]))

    def test_arrays_are_immutable(self):
        g = _simple()
        with pytest.raises(ValueError):
            g.dst[0] = 3
        with pytest.raises(ValueError):
            g.weight[0] = 9.0

    def test_empty_graph(self):
        g = CSRGraph(np.zeros(1, np.int64), np.empty(0, np.int64),
                     np.empty(0), np.empty(0, np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0


class TestAccessors:
    def test_degrees(self):
        g = _simple()
        assert g.degrees().tolist() == [2, 2, 2, 2]

    def test_src_expanded_matches_indptr(self):
        g = paper_example()
        src = g.src_expanded()
        for v in range(g.num_vertices):
            s, e = g.indptr[v], g.indptr[v + 1]
            assert (src[s:e] == v).all()

    def test_src_expanded_cached(self):
        g = _simple()
        assert g.src_expanded() is g.src_expanded()

    def test_neighbors(self):
        g = _simple()
        assert set(g.neighbors(0).tolist()) == {1, 3}

    def test_edges_of_returns_aligned_slices(self):
        g = _simple()
        dst, w, eid = g.edges_of(1)
        assert dst.shape == w.shape == eid.shape

    def test_iter_edges_yields_each_edge_once(self):
        g = _simple()
        edges = list(g.iter_edges())
        assert len(edges) == g.num_edges
        assert len({e[3] for e in edges}) == g.num_edges
        for u, v, _, _ in edges:
            assert u <= v

    def test_edge_endpoints_canonical(self):
        g = paper_example()
        u, v, w = g.edge_endpoints()
        assert (u <= v).all()
        assert u.shape == (g.num_edges,)
        # endpoints must agree with iter_edges
        for a, b, ww, e in g.iter_edges():
            assert u[e] == a and v[e] == b and w[e] == ww


class TestTransforms:
    def test_permute_preserves_edge_multiset(self):
        g = paper_example()
        perm = np.array([3, 2, 5, 0, 4, 1])
        h = g.permute(perm)
        gu, gv, gw = g.edge_endpoints()
        hu, hv, hw = h.edge_endpoints()
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b]), c)
                  for a, b, c in zip(gu, gv, gw)}
        got = set(zip(hu.tolist(), hv.tolist(), hw.tolist()))
        assert mapped == got

    def test_permute_rejects_non_permutation(self):
        g = _simple()
        with pytest.raises(ValueError, match="not a permutation"):
            g.permute(np.array([0, 0, 1, 2]))

    def test_permute_rejects_wrong_length(self):
        g = _simple()
        with pytest.raises(ValueError, match="one entry per vertex"):
            g.permute(np.array([0, 1]))

    def test_sort_edges_by_weight(self):
        g = paper_example().sort_edges(by_weight=True)
        for v in range(g.num_vertices):
            _, w, _ = g.edges_of(v)
            assert (np.diff(w) >= 0).all()

    def test_sort_edges_by_weight_breaks_ties_by_eid(self):
        g = from_edges(3, np.array([0, 0]), np.array([1, 2]),
                       np.array([5.0, 5.0]))
        s = g.sort_edges(by_weight=True)
        _, _, eid = s.edges_of(0)
        assert eid.tolist() == sorted(eid.tolist())

    def test_sort_edges_by_dst(self):
        g = paper_example().sort_edges(by_weight=False)
        for v in range(g.num_vertices):
            dst, _, _ = g.edges_of(v)
            assert (np.diff(dst) >= 0).all()

    def test_sort_preserves_graph(self):
        g = paper_example()
        s = g.sort_edges(by_weight=True)
        assert set(g.iter_edges()) == set(s.iter_edges())

    def test_reweight(self):
        g = _simple()
        new_w = np.array([10.0, 20.0, 30.0, 40.0])
        h = g.reweight(new_w)
        _, _, w = h.edge_endpoints()
        assert np.array_equal(w, new_w)

    def test_reweight_rejects_wrong_length(self):
        g = _simple()
        with pytest.raises(ValueError, match="one entry per undirected"):
            g.reweight(np.array([1.0]))


def _lexsort_rank(g):
    """Edge rank the slow way: a (weight, eid) lexsort of the eid list."""
    _, _, w = g.edge_endpoints()
    rank = np.empty(w.size, dtype=np.int64)
    rank[np.lexsort((np.arange(w.size), w))] = np.arange(w.size)
    return rank


def _mismatched_mates():
    # one undirected edge 0-1 whose two half-edges disagree on its weight
    return CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                    np.array([1.0, 2.0]), np.array([0, 0]))


class TestEdgeRank:
    def test_rank_is_weight_then_eid_order(self):
        g = from_edges(4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]),
                       np.array([3.0, 1.0, 3.0, 1.0]), dedup=False)
        assert g.edge_rank().tolist() == [2, 0, 3, 1]

    def test_rank_is_cached_and_read_only(self):
        g = _simple()
        assert g.edge_rank() is g.edge_rank()
        with pytest.raises(ValueError):
            g.edge_rank()[0] = 5

    def test_empty_graph_has_empty_rank(self):
        g = CSRGraph(np.zeros(3, np.int64), np.empty(0, np.int64),
                     np.empty(0), np.empty(0, np.int64))
        assert g.edge_rank().size == 0

    def test_mismatched_mate_weights_rejected(self):
        with pytest.raises(ValueError, match="equal weights"):
            _mismatched_mates().edge_rank()

    def test_mismatched_mate_weights_rejected_by_preprocess(self):
        with pytest.raises(ValueError, match="equal weights"):
            preprocess(_mismatched_mates())

    def test_mismatched_mate_weights_rejected_by_non_sew_run(self):
        with pytest.raises(ValueError, match="equal weights"):
            Amst(AmstConfig.baseline(cache_vertices=8)).run(
                _mismatched_mates())

    def test_signed_zero_mates_are_equal_weights(self):
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([0.0, -0.0]), np.array([0, 0]))
        assert g.edge_rank().tolist() == [0]

    def test_preprocess_graph_keeps_the_sort_rank(self):
        pp = preprocess(rmat(7, 4, rng=3))
        # computed once on the reordered graph, handed to the sorted one
        assert pp.graph.edge_rank() is pp.reorder.graph.edge_rank()

    def test_permute_passes_rank_along(self):
        g = rmat(6, 4, rng=1)
        perm = np.random.default_rng(0).permutation(g.num_vertices)
        rank = g.edge_rank()
        assert g.permute(perm).edge_rank() is rank
        assert g.sort_edges(by_weight=False).edge_rank() is rank

    def test_permute_without_rank_computes_its_own(self):
        g = rmat(6, 4, rng=1)
        perm = np.random.default_rng(0).permutation(g.num_vertices)
        p = g.permute(perm)
        assert np.array_equal(p.edge_rank(), g.edge_rank())

    def test_pickle_round_trip_keeps_rank(self):
        g = preprocess(rmat(7, 4, rng=5)).graph
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert np.array_equal(h.edge_rank(), g.edge_rank())

    def test_references_never_read_the_rank(self, monkeypatch):
        # the references keep their own (weight, eid) sorts, so a wrong
        # rank cannot make the simulator and its checks agree
        g = preprocess(rmat(7, 4, rng=2)).graph
        sim = Amst(AmstConfig.full(4, cache_vertices=8)).run(g).result

        def boom(self):
            raise AssertionError("a reference read edge_rank")

        monkeypatch.setattr(CSRGraph, "edge_rank", boom)
        ref = kruskal(g)
        for algo in (prim, boruvka, filter_kruskal):
            assert np.array_equal(algo(g).edge_ids, ref.edge_ids)
        validate_mst(g, sim, reference=ref)
        certify_minimum_forest(g, ref.edge_ids)

    @pytest.mark.parametrize("key", [d.key for d in SUITE])
    def test_matches_lexsort_rank_on_table1(self, key):
        g = load(key, seed=0, size=0.05)
        assert np.array_equal(g.edge_rank(), _lexsort_rank(g))


class TestDunder:
    def test_equality(self):
        assert _simple() == _simple()
        assert paper_example() == paper_example()

    def test_inequality(self):
        assert _simple() != paper_example()

    def test_equality_with_other_type(self):
        assert _simple() != "not a graph"

    def test_hash_consistent(self):
        assert hash(_simple()) == hash(_simple())

    def test_path_graph_repr(self):
        assert "n=5" in repr(path_graph(5))
