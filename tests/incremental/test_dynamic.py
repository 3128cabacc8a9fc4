"""DynamicGraph + UpdateBatch unit tests: id spaces, mutation routes,
fingerprint chain, and validation errors."""

import numpy as np
import pytest

from repro.bench.runcache import graph_fingerprint
from repro.graph.builders import from_arrays
from repro.incremental import DynamicGraph, UpdateBatch


def path_graph(n=5):
    u = np.arange(n - 1, dtype=np.int64)
    v = u + 1
    w = np.arange(1, n, dtype=np.float64)
    return from_arrays(n, u, v, w)


class TestUpdateBatch:
    def test_of_round_trips(self):
        b = UpdateBatch.of(inserts=[(0, 1, 2.5), (3, 3, 1.0)],
                           deletes=[4, 2])
        assert b.num_inserts == 2
        assert b.num_deletes == 2
        assert len(b) == 4
        assert b.delete_eids.tolist() == [2, 4]  # canonicalized sorted
        assert b.to_json() == {
            "inserts": [[0, 1, 2.5], [3, 3, 1.0]],
            "deletes": [2, 4],
        }

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="lengths differ"):
            UpdateBatch(insert_u=np.array([0]), insert_v=np.array([1, 2]),
                        insert_w=np.array([1.0]),
                        delete_eids=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="NaN"):
            UpdateBatch.of(inserts=[(0, 1, float("nan"))])
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                UpdateBatch.of(inserts=[(0, 1, bad)])
        with pytest.raises(ValueError, match="duplicates"):
            UpdateBatch.of(deletes=[1, 1])
        with pytest.raises(ValueError, match="non-negative"):
            UpdateBatch.of(deletes=[-1])

    def test_fingerprint_is_content_addressed(self):
        a = UpdateBatch.of(inserts=[(0, 1, 2.0)], deletes=[3])
        b = UpdateBatch.of(inserts=[(0, 1, 2.0)], deletes=[3])
        assert a.fingerprint() == b.fingerprint()
        # insert order matters (it fixes the new edges' ids) ...
        c = UpdateBatch.of(inserts=[(0, 1, 2.0), (1, 2, 3.0)])
        d = UpdateBatch.of(inserts=[(1, 2, 3.0), (0, 1, 2.0)])
        assert c.fingerprint() != d.fingerprint()
        # ... delete order does not (set semantics, canonicalized)
        e = UpdateBatch.of(deletes=[5, 2])
        f = UpdateBatch.of(deletes=[2, 5])
        assert e.fingerprint() == f.fingerprint()


class TestDynamicGraph:
    def test_seed_state_matches_base_graph(self):
        g = path_graph()
        dyn = DynamicGraph(g)
        assert dyn.num_vertices == g.num_vertices
        assert dyn.num_edges == g.num_edges
        assert dyn.total_edges == g.num_edges
        assert dyn.state_fingerprint == graph_fingerprint(g)
        assert dyn.to_csr() is g  # seed CSR reused, not rebuilt
        assert dyn.csr_fingerprint() == graph_fingerprint(g)

    def test_id_maps_after_deletion(self):
        dyn = DynamicGraph(path_graph(6))
        dyn.apply(UpdateBatch.of(deletes=[1, 3]))
        # alive internal ids 0, 2, 4 compact to 0, 1, 2
        assert dyn.compact_to_internal().tolist() == [0, 2, 4]
        assert dyn.internal_to_compact(np.array([4, 0])).tolist() == [2, 0]
        with pytest.raises(ValueError, match="not alive"):
            dyn.internal_to_compact(np.array([1]))

    def test_bulk_and_granular_routes_agree(self):
        batch = UpdateBatch.of(inserts=[(0, 4, 7.0), (2, 2, 1.0)],
                               deletes=[0, 2])
        bulk = DynamicGraph(path_graph())
        bulk.apply(batch)
        gran = DynamicGraph(path_graph())
        for internal in gran.resolve_deletes(batch.delete_eids).tolist():
            gran.kill(internal)
        for u, v, w in zip(batch.insert_u, batch.insert_v, batch.insert_w):
            gran.append(int(u), int(v), float(w))
        gran.finish_batch(batch)
        assert bulk.state_fingerprint == gran.state_fingerprint
        assert bulk.csr_fingerprint() == gran.csr_fingerprint()
        np.testing.assert_array_equal(bulk.alive, gran.alive)

    def test_fingerprint_chain_is_order_sensitive(self):
        a = UpdateBatch.of(deletes=[0])
        b = UpdateBatch.of(inserts=[(0, 2, 9.0)])
        one = DynamicGraph(path_graph())
        one.apply(a)
        one.apply(b)
        two = DynamicGraph(path_graph())
        two.apply(b)
        two.apply(a)
        assert one.state_fingerprint != two.state_fingerprint
        # same batches, same order, fresh instance -> same chain
        three = DynamicGraph(path_graph())
        three.apply(a)
        three.apply(b)
        assert three.state_fingerprint == one.state_fingerprint

    def test_materialized_eids_are_compact_ids(self):
        dyn = DynamicGraph(path_graph())
        dyn.apply(UpdateBatch.of(inserts=[(0, 3, 0.5)], deletes=[2]))
        g = dyn.to_csr()
        u, v, w = g.edge_endpoints()
        keep = dyn.alive
        np.testing.assert_array_equal(w, dyn.ew[keep])
        assert g.num_edges == dyn.num_edges

    def test_mutation_validation(self):
        dyn = DynamicGraph(path_graph())
        with pytest.raises(ValueError, match="out of range"):
            dyn.resolve_deletes(np.array([99]))
        with pytest.raises(ValueError, match="out of range"):
            dyn.append(0, 99, 1.0)
        internal = dyn.resolve_deletes(np.array([0]))[0]
        dyn.kill(int(internal))
        with pytest.raises(ValueError, match="already dead"):
            dyn.kill(int(internal))

    def test_empty_graph(self):
        g = from_arrays(3, np.empty(0, np.int64), np.empty(0, np.int64),
                        np.empty(0, np.float64))
        dyn = DynamicGraph(g)
        assert dyn.num_edges == 0
        dyn.apply(UpdateBatch.of(inserts=[(0, 1, 1.0)]))
        assert dyn.num_edges == 1
        assert dyn.to_csr().num_edges == 1
