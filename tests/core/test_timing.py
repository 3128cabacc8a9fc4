"""Host wall-clock profiling layer (``repro.core.timing``)."""

import numpy as np
import pytest

from repro.bench.datasets import default_cache_vertices, load
from repro.core import Amst, AmstConfig, fold_host_timing, format_host_profile
from repro.core.timing import TimedSubsystem
from repro.graph import rmat
from repro.obs import SpanRecorder, Telemetry, validate_span_tree


class TestHostTimers:
    """The host profile: a fold of the span tree, and its rendering."""

    def test_section_accumulates(self):
        rec = SpanRecorder()
        with rec.span("amst.run", "run") as run:
            for _ in range(3):
                with rec.span("stage.fm", "stage"):
                    pass
        timing = fold_host_timing(rec.spans, run.id)
        assert timing["stage.fm"]["calls"] == 3
        assert timing["stage.fm"]["seconds"] >= 0.0

    def test_section_records_on_exception(self):
        rec = SpanRecorder()
        with rec.span("amst.run", "run") as run:
            try:
                with rec.span("sub.x", "subsystem"):
                    raise RuntimeError
            except RuntimeError:
                pass
        assert fold_host_timing(rec.spans, run.id)["sub.x"]["calls"] == 1

    def test_fold_reads_only_its_own_subtree(self):
        # a shared recorder also holds other runs' spans and non-profile
        # spans (iterations, preprocess); none of them may mix in
        rec = SpanRecorder()
        with rec.span("amst.run", "run"):
            with rec.span("stage.fm", "stage"):
                pass
        with rec.span("amst.run", "run") as run:
            with rec.span("iteration 0", "iteration") as it:
                with rec.span("stage.fm", "stage"):
                    with rec.span("sub.hbm", "subsystem"):
                        pass
            with rec.span("preprocess", "stage"):
                pass
        with rec.span("stage.cm", "stage"):
            pass
        timing = fold_host_timing(rec.spans, run.id)
        assert list(timing) == ["stage.fm", "sub.hbm"]
        assert timing["stage.fm"]["calls"] == 1
        stage = next(s for s in rec.spans if s.parent_id == it.id)
        assert timing["stage.fm"]["seconds"] == stage.dur_us / 1e6

    def test_format_empty(self):
        assert "no samples" in format_host_profile({})

    def test_format_is_deterministic_for_same_workload(self):
        # counts_only drops wall-clock readings, so two runs of the same
        # workload must render byte-identically (stable sort + fixed
        # formatting), which `amst runs diff` relies on.
        g = rmat(6, 8, rng=5)
        cfg = AmstConfig.full(4, cache_vertices=64)
        texts = []
        for _ in range(2):
            out = Amst(cfg).run(g)
            texts.append(format_host_profile(
                out.report.extra["host_timing"], counts_only=True))
        assert texts[0] == texts[1]
        assert "call counts only" in texts[0]
        assert "stage.fm" in texts[0]

    def test_rows_sorted_by_name(self):
        timing = {"stage.zz": {"seconds": 1.0, "calls": 1},
                  "stage.aa": {"seconds": 2.0, "calls": 1}}
        lines = format_host_profile(timing).splitlines()
        rows = [ln for ln in lines if "stage." in ln]
        assert rows == sorted(rows)


class TestTimedSubsystem:
    class Inner:
        tag = "inner-attr"

        def fast(self, x):
            return x + 1

        def other(self):
            return "untimed"

    def test_times_selected_methods_only(self):
        rec = SpanRecorder()
        proxy = TimedSubsystem(self.Inner(), rec, "sub.x", ("fast",))
        assert proxy.fast(1) == 2
        assert proxy.other() == "untimed"
        assert proxy.tag == "inner-attr"
        assert [(s.name, s.category) for s in rec.spans] == [
            ("sub.x", "subsystem")]

    def test_private_probes_raise_attribute_error(self):
        # pickle interrogates a freshly allocated instance for
        # __setstate__/__reduce_ex__ before _inner exists; forwarding
        # those probes used to recurse forever during unpickling.
        proxy = TimedSubsystem(self.Inner(), SpanRecorder(), "sub.x", ())
        with pytest.raises(AttributeError):
            proxy.__setstate_probe__
        with pytest.raises(AttributeError):
            proxy._does_not_exist

    def test_amst_output_pickles_round_trip(self):
        # The span recorder holds a threading.local and does not pickle;
        # Amst.run detaches it (and the proxies) before returning, and
        # the run cache's disk tier stores AmstOutput through pickle, so
        # the full round trip is load-bearing.
        import pickle

        g = rmat(6, 6, rng=9)
        out = Amst(AmstConfig.full(4, cache_vertices=32)).run(g)
        clone = pickle.loads(pickle.dumps(out))
        np.testing.assert_array_equal(clone.result.edge_ids,
                                      out.result.edge_ids)
        assert clone.report.total_cycles == out.report.total_cycles
        assert out.state.spans is None
        assert not isinstance(out.state.hbm, TimedSubsystem)


class TestRunProfile:
    def test_report_carries_host_timing(self):
        g = rmat(6, 8, rng=1)
        out = Amst(AmstConfig.full(4, cache_vertices=64)).run(g)
        timing = out.report.extra["host_timing"]
        for key in ("stage.fm", "stage.rm_am", "stage.cm",
                    "sub.cache.parent", "sub.cache.minedge", "sub.hbm",
                    "sub.network", "sub.resolve_roots"):
            assert key in timing, key
            assert timing[key]["calls"] > 0
        # one FM pass per completed iteration + the termination probe
        assert timing["stage.fm"]["calls"] == out.result.iterations + 1

    def test_proxies_do_not_change_results(self):
        g = rmat(6, 8, rng=3)
        cfg = AmstConfig.full(4, cache_vertices=64)
        a, b = Amst(cfg).run(g), Amst(cfg).run(g)
        assert a.result.total_weight == b.result.total_weight
        np.testing.assert_array_equal(np.sort(a.result.edge_ids),
                                      np.sort(b.result.edge_ids))
        assert a.report.total_cycles == b.report.total_cycles


class TestPinnedProfile:
    """Call counts of the host profile on UR size 0.5, seed 1."""

    PINNED = {
        "stage.fm": 10, "stage.rm_am": 9, "stage.cm": 9,
        "sub.cache.parent": 182, "sub.cache.minedge": 46, "sub.hbm": 276,
        "sub.network": 10, "sub.resolve_roots": 10,
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return load("UR", seed=1, size=0.5)

    @pytest.fixture(scope="class")
    def cfg(self):
        return AmstConfig.full(cache_vertices=default_cache_vertices(0.5))

    @staticmethod
    def _calls(out):
        return {k: v["calls"]
                for k, v in out.report.extra["host_timing"].items()}

    def test_call_counts_pinned_with_and_without_telemetry(
            self, graph, cfg):
        plain = Amst(cfg).run(graph)
        traced = Amst(cfg).run(graph, telemetry=Telemetry())
        assert self._calls(plain) == self.PINNED
        assert self._calls(traced) == self.PINNED

    def test_subsystem_spans_are_real_children_of_their_stage(
            self, graph, cfg):
        tel = Telemetry()
        out = Amst(cfg).run(graph, telemetry=tel)
        spans = tel.spans.spans
        assert validate_span_tree(spans) == []
        by_id = {s.id: s for s in spans}
        subs = [s for s in spans if s.category == "subsystem"]
        assert len(subs) == sum(
            v for k, v in self._calls(out).items() if k.startswith("sub."))
        for s in subs:
            parent = by_id[s.parent_id]
            # the MinEdge commit's cache/HBM calls nest inside
            # sub.network; every chain ends in a stage span
            while parent.category == "subsystem":
                parent = by_id[parent.parent_id]
            assert parent.category == "stage", s.name
            assert parent.name.startswith("stage."), s.name
            assert parent.start_us <= s.start_us
            assert s.end_us <= parent.end_us
        # and the profile is exactly the sum of those spans
        timing = out.report.extra["host_timing"]
        hbm = sum(s.dur_us for s in subs if s.name == "sub.hbm")
        assert timing["sub.hbm"]["seconds"] == pytest.approx(hbm / 1e6)
