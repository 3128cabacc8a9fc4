"""Fabric engine: byte-identity, round structure, wrapper back-compat."""

import numpy as np
import pytest

from repro.core import Amst, AmstConfig, run_scale_out
from repro.fabric import FabricRun, run_fabric
from repro.graph import from_edges, rmat, road_lattice
from repro.mst import kruskal, validate_mst

CFG = AmstConfig.full(8, cache_vertices=256)

PARTITIONERS = ("range", "hash", "edge-cut", "grid2d")


def _serial(graph):
    return Amst(CFG).run(graph).result


@pytest.fixture(scope="module")
def lattice():
    return road_lattice(8, 8, rng=2)


@pytest.fixture(scope="module")
def skewed():
    return rmat(6, 8, rng=9)


@pytest.fixture(scope="module")
def disconnected():
    # two components plus isolated vertices
    u = np.array([0, 1, 2, 5, 6])
    v = np.array([1, 2, 3, 6, 7])
    return from_edges(10, u, v, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


class TestByteIdentity:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("cards", [2, 3, 4, 8])
    def test_forest_matches_serial(self, lattice, partitioner, cards):
        if partitioner == "grid2d" and cards in (2, 3):
            pytest.skip("grid2d needs a composite card count")
        run = run_fabric(lattice, cards, CFG, partitioner=partitioner)
        assert np.array_equal(run.result.edge_ids,
                              _serial(lattice).edge_ids)
        validate_mst(lattice, run.result, reference=kruskal(lattice))

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_skewed_graph(self, skewed, partitioner):
        run = run_fabric(skewed, 4, CFG, partitioner=partitioner)
        assert np.array_equal(run.result.edge_ids,
                              _serial(skewed).edge_ids)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_disconnected_graph(self, disconnected, partitioner):
        run = run_fabric(disconnected, 4, CFG, partitioner=partitioner)
        serial = _serial(disconnected)
        assert np.array_equal(run.result.edge_ids, serial.edge_ids)
        assert run.result.num_components == serial.num_components

    def test_single_card(self, lattice):
        run = run_fabric(lattice, 1, CFG)
        assert np.array_equal(run.result.edge_ids,
                              _serial(lattice).edge_ids)
        assert all(r.label == "scatter" for r in run.rounds)

    def test_each_card_gets_a_task_span(self, lattice):
        # cards run in-process; telemetry still sees one lane per card,
        # nested under the local phase
        from repro.obs import Telemetry
        from repro.obs.context import activate, deactivate

        tel = Telemetry()
        previous = activate(tel)
        try:
            run = run_fabric(lattice, 3, CFG)
        finally:
            deactivate(previous)
        spans = tel.spans.spans
        local = next(s for s in spans if s.name == "fabric.local")
        cards = [s for s in spans if s.category == "task"]
        assert [s.name for s in cards] == [
            f"task:fabric.card{c}" for c in range(3)]
        assert all(s.parent_id == local.id for s in cards)
        assert np.array_equal(run.result.edge_ids, _serial(lattice).edge_ids)


class TestRoundStructure:
    def test_scatter_plus_log2_reduce(self, lattice):
        run = run_fabric(lattice, 8, CFG)
        assert run.rounds[0].label == "scatter"
        assert [r.label for r in run.rounds[1:]] == [
            "reduce-0", "reduce-1", "reduce-2"]
        assert run.rounds[0].num_messages == 8  # one shard per card

    def test_non_power_of_two_cards(self, lattice):
        run = run_fabric(lattice, 5, CFG)
        # ceil(log2(5)) == 3 reduce rounds; 4 pairings in total
        assert len(run.rounds) == 1 + 3
        forest_msgs = sum(
            1 for rnd in run.rounds for m in rnd.messages
            if m.kind == "forest")
        assert forest_msgs == 4  # C - 1 senders
        assert np.array_equal(run.result.edge_ids,
                              _serial(lattice).edge_ids)

    def test_scatter_records_cover_all_edges(self, lattice):
        run = run_fabric(lattice, 4, CFG)
        assert run.rounds[0].total_records == lattice.num_edges

    def test_every_forest_send_is_acked(self, lattice):
        run = run_fabric(lattice, 8, CFG)
        for rnd in run.rounds[1:]:
            kinds = rnd.count_by_kind()
            assert kinds.get("forest", 0) == kinds.get("merge", 0)

    def test_boundary_edges_counted(self, lattice):
        run = run_fabric(lattice, 8, CFG, partitioner="hash")
        # hash partitioning cuts most lattice edges, so some surviving
        # forest records must straddle an ownership boundary
        assert run.boundary_edges > 0
        by_kind = {}
        for rnd in run.rounds[1:]:
            for m in rnd.messages:
                by_kind[m.kind] = by_kind.get(m.kind, 0) + m.records
        assert by_kind.get("boundary", 0) == run.boundary_edges


class TestNetworkAttachment:
    def test_perf_report_carries_network(self, lattice):
        run = run_fabric(lattice, 4, CFG, net_profile="aurora")
        perf = run.merge_output.report
        net = perf.extra["network"]
        assert net["profile"] == "aurora"
        assert perf.network_seconds == pytest.approx(net["total_seconds"])
        assert perf.seconds_with_network > perf.seconds
        assert net["partition_stats"]["num_edges"] == lattice.num_edges

    def test_modelled_seconds_composition(self, lattice):
        run = run_fabric(lattice, 4, CFG)
        assert run.modelled_seconds == pytest.approx(
            run.local_seconds + run.network.total_seconds
            + run.merge_seconds)

    @pytest.mark.parametrize("profile", ["pcie3", "pcie4", "eth100g",
                                         "aurora", "aurora2d"])
    def test_all_profiles_run(self, lattice, profile):
        run = run_fabric(lattice, 4, CFG, net_profile=profile)
        assert isinstance(run, FabricRun)
        assert run.network.total_seconds > 0

    def test_unknown_profile_rejected(self, lattice):
        with pytest.raises(ValueError, match="unknown net profile"):
            run_fabric(lattice, 4, CFG, net_profile="carrier-pigeon")


class TestScaleOutWrapper:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_wrapper_forest_identity(self, lattice, partitioner):
        r = run_scale_out(lattice, 4, CFG, partitioner=partitioner)
        assert np.array_equal(r.result.edge_ids,
                              _serial(lattice).edge_ids)

    def test_report_fabric_fields(self, lattice):
        r = run_scale_out(lattice, 4, CFG, partitioner="edge-cut",
                          net_profile="eth100g")
        rep = r.report
        assert rep.net_profile == "eth100g"
        assert rep.num_rounds == 3  # scatter + 2 reduce
        assert rep.messages > 0 and rep.message_bytes > 0
        assert rep.exchange_seconds > 0
        assert rep.scatter_seconds > 0
        assert rep.network["total_seconds"] == pytest.approx(
            rep.scatter_seconds + rep.exchange_seconds)
        assert rep.partition_stats["cut_edges"] == rep.cut_edges

    def test_single_card_degenerate(self, lattice):
        r = run_scale_out(lattice, 1, CFG)
        assert r.report.num_rounds == 0
        assert r.report.exchange_seconds == 0.0
        assert r.report.network == {}


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -2])
    def test_bad_card_counts(self, lattice, bad):
        with pytest.raises(ValueError, match="num_cards must be >= 1"):
            run_fabric(lattice, bad, CFG)

    @pytest.mark.parametrize("bad", [2.0, "4"])
    def test_non_integer_card_counts(self, lattice, bad):
        with pytest.raises(TypeError, match="num_cards must be an integer"):
            run_fabric(lattice, bad, CFG)

    def test_unknown_partitioner(self, lattice):
        with pytest.raises(ValueError, match="unknown partitioner"):
            run_fabric(lattice, 4, CFG, partitioner="metis")
