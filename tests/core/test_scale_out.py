"""Unit tests for the multi-FPGA scale-out extension."""

import numpy as np
import pytest

from repro.core import AmstConfig, run_scale_out
from repro.fabric.partition import _partition_edges, partition_vertices
from repro.graph import from_edges, rmat, road_lattice
from repro.mst import kruskal, validate_mst

CFG = AmstConfig.full(8, cache_vertices=256)


class TestPartition:
    def test_block_contiguous(self):
        part = partition_vertices(10, 2, strategy="block")
        assert part.tolist() == [0] * 5 + [1] * 5

    def test_block_uneven(self):
        part = partition_vertices(10, 3, strategy="block")
        assert part.max() == 2
        assert np.bincount(part).sum() == 10

    def test_hash_scatters(self):
        part = partition_vertices(10, 2, strategy="hash")
        assert part.tolist() == [0, 1] * 5

    def test_every_vertex_assigned(self):
        part = partition_vertices(100, 7, strategy="block")
        assert ((part >= 0) & (part < 7)).all()

    @pytest.mark.parametrize("strategy", ["block", "hash"])
    def test_more_cards_than_vertices(self, strategy):
        part = partition_vertices(3, 8, strategy=strategy)
        # one vertex per card, trailing cards empty, ids in range
        assert part.tolist() == [0, 1, 2]
        assert ((part >= 0) & (part < 8)).all()

    @pytest.mark.parametrize("strategy", ["block", "hash"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_vertex_counts(self, strategy, n):
        part = partition_vertices(n, 4, strategy=strategy)
        assert part.shape == (n,)
        assert ((part >= 0) & (part < 4)).all()

    def test_hash_balances_skewed_degrees(self):
        # A star graph: vertex 0 touches every edge.  Block partitioning
        # makes every edge internal to card 0 (all on one card); hash
        # spreads the leaves, so the *vertex* balance stays even no
        # matter how skewed the degree distribution is.
        n, cards = 64, 4
        part = partition_vertices(n, cards, strategy="hash")
        counts = np.bincount(part, minlength=cards)
        assert counts.max() - counts.min() <= 1
        # and on the star the leaf vertices (1..n-1) are spread too
        leaf_counts = np.bincount(part[1:], minlength=cards)
        assert leaf_counts.max() - leaf_counts.min() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_vertices(10, 0)
        with pytest.raises(ValueError, match="strategy"):
            partition_vertices(10, 2, strategy="spectral")


class TestPartitionEdges:
    """The single-scan edge partition must equal the per-card sweeps."""

    @pytest.mark.parametrize("strategy", ["block", "hash"])
    @pytest.mark.parametrize("cards", [1, 2, 3, 8])
    def test_matches_boolean_sweeps(self, strategy, cards):
        g = rmat(7, 8, rng=17)
        part = partition_vertices(g.num_vertices, cards, strategy=strategy)
        u, v, _ = g.edge_endpoints()
        edge_card = part[u]
        internal = edge_card == part[v]
        sorted_eids, bounds = _partition_edges(edge_card, internal, cards)
        assert bounds.shape == (cards + 1,)
        assert bounds[-1] == int(internal.sum())
        for card in range(cards):
            expected = np.flatnonzero(internal & (edge_card == card))
            got = sorted_eids[bounds[card]:bounds[card + 1]]
            np.testing.assert_array_equal(got, expected)

    def test_empty_edge_set(self):
        edge_card = np.empty(0, dtype=np.int64)
        internal = np.empty(0, dtype=bool)
        sorted_eids, bounds = _partition_edges(edge_card, internal, 4)
        assert sorted_eids.size == 0
        assert bounds.tolist() == [0] * 5

    def test_trailing_empty_cards(self):
        # all internal edges on card 0; cards 1..3 must get empty slices
        edge_card = np.zeros(5, dtype=np.int64)
        internal = np.ones(5, dtype=bool)
        sorted_eids, bounds = _partition_edges(edge_card, internal, 4)
        assert sorted_eids.tolist() == [0, 1, 2, 3, 4]
        assert bounds.tolist() == [0, 5, 5, 5, 5]


class TestScaleOutCorrectness:
    @pytest.mark.parametrize("cards", [1, 2, 4])
    @pytest.mark.parametrize("partitioner", ["range", "hash"])
    def test_exact_forest_weight(self, cards, partitioner):
        g = rmat(9, 8, rng=1)
        ref = kruskal(g)
        r = run_scale_out(g, cards, CFG, partitioner=partitioner)
        validate_mst(g, r.result, reference=ref)

    def test_disconnected_graph(self):
        g = road_lattice(20, 20, drop_prob=0.3, rng=2)
        ref = kruskal(g)
        r = run_scale_out(g, 4, CFG)
        validate_mst(g, r.result, reference=ref)

    def test_single_card_degenerates_to_plain_run(self):
        g = rmat(8, 6, rng=3)
        r = run_scale_out(g, 1, CFG)
        assert r.report.cut_edges == 0
        assert r.report.exchange_seconds == 0.0
        validate_mst(g, r.result, reference=kruskal(g))

    def test_num_cards_recorded(self):
        g = rmat(8, 6, rng=4)
        r = run_scale_out(g, 2, CFG)
        assert r.result.extras["num_cards"] == 2
        assert r.report.num_cards == 2
        assert len(r.report.local_outputs) == 2

    @pytest.mark.parametrize("partitioner", ["range", "hash"])
    def test_more_cards_than_vertices(self, partitioner):
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0])
        g = from_edges(4, u, v, w)
        r = run_scale_out(g, 8, CFG, partitioner=partitioner)
        validate_mst(g, r.result, reference=kruskal(g))
        assert len(r.report.local_outputs) == 8


class TestScaleOutModel:
    def test_local_phase_shrinks_with_cards(self):
        g = rmat(11, 16, rng=5)
        one = run_scale_out(g, 1, CFG)
        four = run_scale_out(g, 4, CFG)
        assert four.report.local_seconds < one.report.local_seconds

    def test_cut_edges_grow_with_cards(self):
        g = rmat(10, 8, rng=6)
        two = run_scale_out(g, 2, CFG)
        eight = run_scale_out(g, 8, CFG)
        assert eight.report.cut_edges >= two.report.cut_edges

    def test_energy_accumulates_cards(self):
        g = rmat(10, 8, rng=7)
        r = run_scale_out(g, 4, CFG)
        local = sum(o.report.energy_joules for o in r.report.local_outputs)
        assert r.report.energy_joules >= local

    def test_block_cuts_fewer_lattice_edges_than_hash(self):
        g = road_lattice(30, 30, rng=8)
        block = run_scale_out(g, 4, CFG, partitioner="range")
        hashed = run_scale_out(g, 4, CFG, partitioner="hash")
        assert block.report.cut_edges < hashed.report.cut_edges


class TestCardCountValidation:
    """Regression: bad card counts fail loudly, odd counts work."""

    @pytest.mark.parametrize("bad", [0, -1, -16])
    def test_non_positive_cards_rejected(self, bad):
        g = road_lattice(4, 4, rng=0)
        with pytest.raises(ValueError, match="num_cards must be >= 1"):
            run_scale_out(g, bad, CFG)

    @pytest.mark.parametrize("bad", [2.0, 3.5, "4", None, True])
    def test_non_integer_cards_rejected(self, bad):
        g = road_lattice(4, 4, rng=0)
        with pytest.raises(TypeError, match="num_cards must be an integer"):
            run_scale_out(g, bad, CFG)

    @pytest.mark.parametrize("cards", [3, 5, 6, 7])
    def test_non_power_of_two_cards_exact(self, cards):
        # the reduction tree pairs (lo, lo + stride) for any count, so
        # odd/non-power-of-two card counts are first-class
        g = rmat(8, 8, rng=11)
        serial = run_scale_out(g, 1, CFG)
        r = run_scale_out(g, cards, CFG)
        np.testing.assert_array_equal(r.result.edge_ids,
                                      serial.result.edge_ids)
        assert len(r.report.local_outputs) == cards

    def test_numpy_integer_cards_accepted(self):
        g = road_lattice(4, 4, rng=0)
        r = run_scale_out(g, np.int64(2), CFG)
        assert r.report.num_cards == 2


class TestStrategyDeprecation:
    """The legacy ``strategy=`` alias is gone; ``partitioner=`` is the
    one spelling and raises no ``DeprecationWarning``."""

    def test_partitioner_does_not_warn(self):
        import warnings

        g = road_lattice(4, 4, rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_scale_out(g, 2, CFG, partitioner="range")
            run_scale_out(g, 2, CFG)
