"""Unit tests for the Kruskal and Prim ground truths."""

import math

import numpy as np
import pytest

from repro.graph import from_edges, path_graph, to_networkx
from repro.incremental import IncrementalMst
from repro.mst import kruskal, prim


@pytest.mark.parametrize("algo", [kruskal, prim], ids=["kruskal", "prim"])
class TestGroundTruth:
    def test_tiny_known_mst(self, algo, tiny_graph):
        r = algo(tiny_graph)
        assert r.num_edges == 3
        assert r.total_weight == 6.0  # edges 1 + 2 + 3
        assert r.num_components == 1

    def test_path_takes_all_edges(self, algo):
        g = path_graph(7)
        r = algo(g)
        assert r.num_edges == 6
        assert r.total_weight == sum(range(1, 7))

    def test_forest(self, algo, forest_graph):
        r = algo(forest_graph)
        assert r.num_components == 3  # two chains + isolated vertex
        assert r.num_edges == 4

    def test_single_vertex(self, algo):
        g = from_edges(1, np.array([], dtype=int), np.array([], dtype=int))
        r = algo(g)
        assert r.num_edges == 0
        assert r.num_components == 1

    def test_matches_networkx(self, algo, zoo):
        import networkx as nx

        for name, g in zoo:
            expected = sum(
                d["weight"]
                for _, _, d in nx.minimum_spanning_edges(
                    to_networkx(g), data=True
                )
            )
            got = algo(g).total_weight
            assert np.isclose(got, expected), name


class TestAgreement:
    def test_kruskal_prim_same_weight(self, zoo):
        for name, g in zoo:
            k, p = kruskal(g), prim(g)
            assert k.same_forest_weight(p), name

    def test_unique_weights_same_edges(self, zoo):
        for name, g in zoo:
            _, _, w = g.edge_endpoints()
            if np.unique(w).size != w.size:
                continue  # MST only unique under distinct weights
            assert np.array_equal(
                kruskal(g).edge_ids, prim(g).edge_ids
            ), name


class TestTotalWeightOrder:
    def test_total_is_left_to_right_sum_in_acceptance_order(self):
        # A path whose edges weigh 0.7 x4 then 0.3 x5 in id order, plus
        # two heavier chords Kruskal rejects.  Summed left to right in
        # (weight, eid) acceptance order the tree weighs
        # 4.300000000000001; math.fsum (and sum() on Python 3.12+) and
        # the pairwise np.sum give 4.3, id order 4.299999999999999.
        u = np.array(list(range(9)) + [0, 3])
        v = np.array(list(range(1, 10)) + [9, 8])
        w = np.array([0.7] * 4 + [0.3] * 5 + [1.0, 1.0])
        g = from_edges(10, u, v, w)
        res = kruskal(g)
        _, _, ew = g.edge_endpoints()
        tree_w = ew[res.edge_ids]
        accepted = tree_w[np.argsort(tree_w, kind="stable")]
        expected = 0.0
        for x in accepted.tolist():
            expected += x
        assert expected != math.fsum(accepted)
        assert expected != float(np.sum(accepted))
        assert repr(res.total_weight) == repr(expected) == "4.300000000000001"
        assert repr(IncrementalMst(g).forest().total_weight) == repr(expected)
