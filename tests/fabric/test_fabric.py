"""Fabric engine: byte-identity, round structure, the one-card run."""

import numpy as np
import pytest

from repro.core import Amst, AmstConfig
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
        assert run.rounds == ()

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
        assert perf.network_seconds > 0
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


class TestSingleCard:
    """One card is one plain simulator run: no scatter, no merge run."""

    def test_exactly_one_simulator_run(self, lattice, monkeypatch):
        calls = []
        real_run = Amst.run

        def counting_run(self, graph):
            calls.append(graph)
            return real_run(self, graph)

        monkeypatch.setattr(Amst, "run", counting_run)
        run = run_fabric(lattice, 1, CFG)
        assert calls == [lattice]
        assert run.local_outputs == (run.merge_output,)
        assert run.rounds == ()

    def test_equals_plain_run(self, lattice):
        run = run_fabric(lattice, 1, CFG, net_profile="aurora")
        plain = Amst(CFG).run(lattice)
        assert np.array_equal(run.result.edge_ids, plain.result.edge_ids)
        assert run.result.total_weight == plain.result.total_weight
        assert run.modelled_seconds == plain.report.seconds
        assert run.energy_joules == plain.report.energy_joules
        assert run.network.total_messages == 0
        assert "network" not in run.merge_output.report.extra


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

    @pytest.mark.parametrize("cards", [1, 4])
    def test_unknown_names_rejected_at_every_card_count(self, lattice,
                                                          cards):
        with pytest.raises(ValueError, match="unknown partitioner"):
            run_fabric(lattice, cards, CFG, partitioner="metis")
        with pytest.raises(ValueError, match="unknown net profile"):
            run_fabric(lattice, cards, CFG, net_profile="carrier-pigeon")
