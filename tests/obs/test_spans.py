"""Span recorder: nesting, validation, Chrome trace export."""

import os

from repro.obs import SpanRecorder, validate_span_tree, to_chrome_trace
from repro.obs.spans import Span


def _span(id, parent, start, dur, *, pid=1, tid=1, name=None,
          category="span"):
    return Span(id=id, parent_id=parent, name=name or f"s{id}",
                category=category, start_us=start, dur_us=dur,
                pid=pid, tid=tid)


class TestRecorder:
    def test_nesting_comes_from_the_stack(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner"):
                pass
        inner, outer_span = rec.spans  # inner closes first
        assert inner.name == "inner"
        assert inner.parent_id == outer.id
        assert outer_span.parent_id is None
        assert validate_span_tree(rec.spans) == []

    def test_ids_unique_across_recorders(self):
        # A reused pool worker builds a fresh recorder per task; ids must
        # not collide within the worker's pid when the parent merges.
        a, b = SpanRecorder(), SpanRecorder()
        with a.span("x"):
            pass
        with b.span("y"):
            pass
        merged = a.spans + b.spans
        assert len({(s.pid, s.id) for s in merged}) == 2
        assert validate_span_tree(merged) == []

    def test_drain_clears(self):
        rec = SpanRecorder()
        with rec.span("x"):
            pass
        drained = rec.drain()
        assert len(drained) == 1
        assert rec.spans == []


class TestValidation:
    def test_partial_overlap_flagged(self):
        spans = [_span(0, None, 0, 100), _span(1, None, 50, 100)]
        assert any("partially overlaps" in p
                   for p in validate_span_tree(spans))

    def test_containment_ok(self):
        spans = [_span(0, None, 0, 100), _span(1, 0, 10, 50)]
        assert validate_span_tree(spans) == []

    def test_child_escaping_parent_flagged(self):
        spans = [_span(0, None, 0, 100), _span(1, 0, 90, 50)]
        assert any("escapes parent" in p
                   for p in validate_span_tree(spans))

    def test_missing_parent_flagged(self):
        spans = [_span(1, 99, 0, 10)]
        assert any("missing parent" in p
                   for p in validate_span_tree(spans))

    def test_orphan_tree_categories_flagged(self):
        spans = [_span(0, None, 0, 10, category="iteration")]
        assert any("orphan" in p for p in validate_span_tree(spans))

    def test_duplicate_keys_flagged(self):
        spans = [_span(0, None, 0, 10), _span(0, None, 20, 10)]
        assert any("duplicate" in p for p in validate_span_tree(spans))

    def test_same_id_different_pid_is_fine(self):
        spans = [_span(0, None, 0, 10, pid=1),
                 _span(0, None, 0, 10, pid=2)]
        assert validate_span_tree(spans) == []


class TestChromeTrace:
    def test_export_structure(self):
        rec = SpanRecorder()
        with rec.span("run", category="run", n=16):
            with rec.span("iteration 0", category="iteration"):
                pass
        payload = to_chrome_trace(rec.spans, run_id="r1",
                                  parent_pid=os.getpid())
        assert payload["otherData"]["run_id"] == "r1"
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in xs} == {"run", "iteration 0"}
        assert any(e["name"] == "process_name" and
                   "parent" in e["args"]["name"] for e in ms)
        run_ev = next(e for e in xs if e["name"] == "run")
        assert run_ev["args"]["n"] == 16
        iter_ev = next(e for e in xs if e["name"] == "iteration 0")
        assert iter_ev["args"]["parent_id"] == run_ev["args"]["span_id"]
