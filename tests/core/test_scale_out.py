"""Multi-FPGA scale-out through ``repro.fabric.run_fabric``."""

import numpy as np
import pytest

from repro.core import AmstConfig
from repro.fabric import partition_vertices, run_fabric
from repro.fabric.partition import shard_slices
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
    """Edge shards: one scan equals the per-card sweeps; empty shards run."""

    @pytest.mark.parametrize("strategy", ["block", "hash"])
    @pytest.mark.parametrize("cards", [1, 2, 3, 8])
    def test_matches_boolean_sweeps(self, strategy, cards):
        g = rmat(7, 8, rng=17)
        part = partition_vertices(g.num_vertices, cards, strategy=strategy)
        u, v, _ = g.edge_endpoints()
        edge_card = part[u]
        sorted_eids, bounds = shard_slices(edge_card, cards)
        assert bounds.shape == (cards + 1,)
        assert bounds[-1] == g.num_edges
        for card in range(cards):
            expected = np.flatnonzero(edge_card == card)
            got = sorted_eids[bounds[card]:bounds[card + 1]]
            np.testing.assert_array_equal(got, expected)

    def test_empty_edge_set(self):
        g = from_edges(6, np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64), np.empty(0))
        r = run_fabric(g, 4, CFG)
        sorted_eids, bounds = r.plan.shards()
        assert sorted_eids.size == 0
        assert bounds.tolist() == [0] * 5
        assert r.result.num_edges == 0 and r.result.num_components == 6

    def test_trailing_empty_cards(self):
        # every edge between vertices 0..1, so range puts all on card 0
        # and cards 1..3 run empty shards
        g = from_edges(8, np.array([0, 0]), np.array([1, 1]),
                       np.array([2.0, 1.0]))
        r = run_fabric(g, 4, CFG)
        sorted_eids, bounds = r.plan.shards()
        assert bounds.tolist() == [0, g.num_edges] + [g.num_edges] * 3
        validate_mst(g, r.result, reference=kruskal(g))


class TestScaleOutCorrectness:
    @pytest.mark.parametrize("cards", [1, 2, 4])
    @pytest.mark.parametrize("partitioner", ["range", "hash"])
    def test_exact_forest_weight(self, cards, partitioner):
        g = rmat(9, 8, rng=1)
        ref = kruskal(g)
        r = run_fabric(g, cards, CFG, partitioner=partitioner)
        validate_mst(g, r.result, reference=ref)

    def test_disconnected_graph(self):
        g = road_lattice(20, 20, drop_prob=0.3, rng=2)
        ref = kruskal(g)
        r = run_fabric(g, 4, CFG)
        validate_mst(g, r.result, reference=ref)

    def test_single_card_degenerates_to_plain_run(self):
        g = rmat(8, 6, rng=3)
        r = run_fabric(g, 1, CFG)
        assert r.plan.stats.cut_edges == 0
        assert r.network.total_seconds == 0.0
        validate_mst(g, r.result, reference=kruskal(g))

    def test_num_cards_recorded(self):
        g = rmat(8, 6, rng=4)
        r = run_fabric(g, 2, CFG)
        assert r.result.extras["num_cards"] == 2
        assert r.plan.num_cards == 2
        assert len(r.local_outputs) == 2

    @pytest.mark.parametrize("partitioner", ["range", "hash"])
    def test_more_cards_than_vertices(self, partitioner):
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0])
        g = from_edges(4, u, v, w)
        r = run_fabric(g, 8, CFG, partitioner=partitioner)
        validate_mst(g, r.result, reference=kruskal(g))
        assert len(r.local_outputs) == 8


class TestScaleOutModel:
    def test_local_phase_shrinks_with_cards(self):
        g = rmat(11, 16, rng=5)
        one = run_fabric(g, 1, CFG)
        four = run_fabric(g, 4, CFG)
        assert four.local_seconds < one.local_seconds

    def test_cut_edges_grow_with_cards(self):
        g = rmat(10, 8, rng=6)
        two = run_fabric(g, 2, CFG)
        eight = run_fabric(g, 8, CFG)
        assert eight.plan.stats.cut_edges >= two.plan.stats.cut_edges

    def test_energy_accumulates_cards(self):
        g = rmat(10, 8, rng=7)
        r = run_fabric(g, 4, CFG)
        local = sum(o.report.energy_joules for o in r.local_outputs)
        assert r.energy_joules == pytest.approx(
            local + r.merge_output.report.energy_joules)

    def test_block_cuts_fewer_lattice_edges_than_hash(self):
        g = road_lattice(30, 30, rng=8)
        block = run_fabric(g, 4, CFG, partitioner="range")
        hashed = run_fabric(g, 4, CFG, partitioner="hash")
        assert block.plan.stats.cut_edges < hashed.plan.stats.cut_edges


class TestCardCountValidation:
    """Regression: bad card counts fail loudly, odd counts work."""

    @pytest.mark.parametrize("bad", [0, -1, -16])
    def test_non_positive_cards_rejected(self, bad):
        g = road_lattice(4, 4, rng=0)
        with pytest.raises(ValueError, match="num_cards must be >= 1"):
            run_fabric(g, bad, CFG)

    @pytest.mark.parametrize("bad", [2.0, 3.5, "4", None, True])
    def test_non_integer_cards_rejected(self, bad):
        g = road_lattice(4, 4, rng=0)
        with pytest.raises(TypeError, match="num_cards must be an integer"):
            run_fabric(g, bad, CFG)

    @pytest.mark.parametrize("cards", [3, 5, 6, 7])
    def test_non_power_of_two_cards_exact(self, cards):
        # the reduction tree pairs (lo, lo + stride) for any count, so
        # odd/non-power-of-two card counts are first-class
        g = rmat(8, 8, rng=11)
        serial = run_fabric(g, 1, CFG)
        r = run_fabric(g, cards, CFG)
        np.testing.assert_array_equal(r.result.edge_ids,
                                      serial.result.edge_ids)
        assert len(r.local_outputs) == cards

    def test_numpy_integer_cards_accepted(self):
        g = road_lattice(4, 4, rng=0)
        r = run_fabric(g, np.int64(2), CFG)
        assert r.plan.num_cards == 2
