"""Unit tests for the first-principles minimality certificate."""

import numpy as np
import pytest

from repro.graph import from_edges, rmat, road_lattice
from repro.mst import (
    UnionFind,
    certify_minimum_forest,
    kruskal,
    max_edge_on_path,
)
from repro.mst.certificate import _root_forest


class TestCertificate:
    def test_accepts_true_mst(self, zoo):
        for name, g in zoo:
            certify_minimum_forest(g, kruskal(g).edge_ids), name

    def test_rejects_non_minimal_tree(self):
        # triangle: forest {heavy, heavy} instead of {light, light}
        g = from_edges(3, np.array([0, 1, 0]), np.array([1, 2, 2]),
                       np.array([1.0, 2.0, 10.0]))
        u, v, w = g.edge_endpoints()
        heavy = np.argsort(-w)[:2]
        with pytest.raises(AssertionError, match="cycle property"):
            certify_minimum_forest(g, heavy)

    def test_rejects_non_forest(self, tiny_graph):
        with pytest.raises(AssertionError, match="not a spanning forest"):
            certify_minimum_forest(tiny_graph, np.array([0, 1, 2, 3, 4]))

    def test_certifies_forest_of_components(self, forest_graph):
        certify_minimum_forest(forest_graph, kruskal(forest_graph).edge_ids)

    def test_amst_simulator_output_certified(self):
        from repro.core import Amst, AmstConfig

        g = rmat(8, 6, rng=7)
        out = Amst(AmstConfig.full(8, cache_vertices=64)).run(g)
        certify_minimum_forest(g, out.result.edge_ids)

    def test_verdicts_survive_broken_union_find(self, monkeypatch):
        g = road_lattice(6, 6, drop_prob=0.0, rng=3)
        _, _, w = g.edge_endpoints()
        mst = kruskal(g).edge_ids
        heavier = kruskal(g.reweight(-w)).edge_ids  # maximum spanning tree
        extra = np.setdiff1d(np.arange(g.num_edges), mst)[:1]
        # a union-find that reports every pair as merging two sets
        monkeypatch.setattr(UnionFind, "union_all",
                            lambda self, us, vs: list(range(len(us))))
        certify_minimum_forest(g, mst)
        with pytest.raises(AssertionError, match="cycle property"):
            certify_minimum_forest(g, heavier)
        with pytest.raises(AssertionError, match="not a spanning forest"):
            certify_minimum_forest(g, np.append(mst, extra))


class TestPathMax:
    def test_known_path(self):
        g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                       np.array([5.0, 1.0, 3.0]))
        tree = kruskal(g).edge_ids
        parent, pw, depth, _ = _root_forest(g, tree)
        assert max_edge_on_path(0, 3, parent, pw, depth) == 5.0
        assert max_edge_on_path(1, 3, parent, pw, depth) == 3.0

    def test_same_vertex(self):
        g = road_lattice(4, 4, drop_prob=0.0, rng=0)
        tree = kruskal(g).edge_ids
        parent, pw, depth, _ = _root_forest(g, tree)
        assert max_edge_on_path(5, 5, parent, pw, depth) == float("-inf")

    def test_cross_tree_raises(self, forest_graph):
        tree = kruskal(forest_graph).edge_ids
        parent, pw, depth, _ = _root_forest(forest_graph, tree)
        with pytest.raises(ValueError, match="different trees"):
            max_edge_on_path(0, 4, parent, pw, depth)
