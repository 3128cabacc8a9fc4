"""Unit tests for the CSR graph container."""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edges, paper_example, path_graph


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
