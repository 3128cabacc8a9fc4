"""Self-tests of the benchmark: the exact checks bite, and every metric
named in BENCHMARK.json is printed with its unit.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.bench.datasets import load  # noqa: E402
from repro.core import Amst  # noqa: E402
from repro.mst import kruskal, validate_mst  # noqa: E402
from repro.mst.result import MSTResult  # noqa: E402
from repro.obs.spans import Span, validate_span_tree  # noqa: E402
from repro.verify.oracle import OracleMismatch  # noqa: E402

TINY = 0.05  # input scale of the smoke runs
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _solved():
    g = load("CF", seed=3, size=0.05)
    out = Amst(workloads._solve_config()).run(g)
    return g, out.result, kruskal(g)


def _with(result: MSTResult, **changes) -> MSTResult:
    return dataclasses.replace(result, **changes)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.ALIASES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == workloads.PER_LAYER_UNITS)


def test_exact_check_passes_the_true_forest():
    g, result, ref = _solved()
    assert workloads.forest_problems(g, result, ref, same_order=False) == []
    assert workloads.forest_problems(g, ref, ref, same_order=True) == []


def test_exact_check_catches_a_dropped_edge():
    g, result, ref = _solved()
    dropped = _with(result, edge_ids=result.edge_ids[1:],
                    num_components=result.num_components + 1)
    assert workloads.forest_problems(g, dropped, ref, same_order=False)


def test_exact_check_catches_a_perturbed_weight_validate_mst_lets_pass():
    g, result, ref = _solved()
    off = _with(result, total_weight=result.total_weight * (1 + 1e-10))
    validate_mst(g, off, reference=ref)  # inside its rtol=1e-9
    assert workloads.forest_problems(g, off, ref, same_order=False)
    ulp = _with(ref, total_weight=float(np.nextafter(ref.total_weight, 0)))
    assert workloads.forest_problems(g, ulp, ref, same_order=True)


class _DroppingAmst(Amst):
    """Returns a forest with one edge missing."""

    def run(self, graph, **kw):
        out = super().run(graph, **kw)
        r = out.result
        return dataclasses.replace(out, result=_with(
            r, edge_ids=r.edge_ids[1:], num_components=r.num_components + 1))


class _PerturbingAmst(Amst):
    """Returns the right forest with a weight just inside validate_mst."""

    def run(self, graph, **kw):
        out = super().run(graph, **kw)
        r = out.result
        return dataclasses.replace(out, result=_with(
            r, total_weight=r.total_weight * (1 + 1e-10)))


@pytest.mark.parametrize("fault", [_DroppingAmst, _PerturbingAmst])
def test_a_wrong_solve_is_counted_failed(monkeypatch, fault):
    monkeypatch.setattr(workloads, "Amst", fault)
    result = workloads.WORKLOADS["solve-skewed"](1, 0.0, traced=None,
                                                 scale=TINY)
    assert result.attempted >= 1
    assert result.failed == result.attempted


def _off_by_one_ulp():
    forest = workloads.IncrementalMst.forest

    def wrong(self):
        f = forest(self)
        return _with(f, total_weight=float(np.nextafter(f.total_weight, 0)))
    return "forest", wrong


def _raising():
    def wrong(self, batch, **kw):
        raise RuntimeError("injected")
    return "apply", wrong


@pytest.mark.parametrize("fault", [_off_by_one_ulp, _raising])
def test_a_wrong_incremental_engine_fails_its_segment(monkeypatch, fault):
    name, wrong = fault()
    monkeypatch.setattr(workloads.IncrementalMst, name, wrong)
    result = workloads.run_update(1, 0.0, traced=None, scale=TINY)
    assert result.attempted >= 1
    assert result.failed == result.attempted


def test_an_oracle_mismatch_fails_the_call(monkeypatch):
    real = workloads.run_oracle

    def mismatching(graph, **kw):
        report = real(graph, **kw)
        report.mismatches.append(OracleMismatch("sim:full", "edge-set", "x"))
        return report

    monkeypatch.setattr(workloads, "run_oracle", mismatching)
    result = workloads.run_verify(1, 0.0, traced=None, scale=TINY)
    assert result.failed == result.attempted == 1


def test_a_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "Amst", _DroppingAmst)
    code = run.main(["--workload", "solve-road", "--seed", "1",
                     "--seconds", "0", "--trace", "0"], scale=TINY)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.5", "--trace", "0"], scale=TINY)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert "metric failed_fraction = 0.0 ratio" in lines
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_pass_prints_every_layer_and_a_span_tree(
        workload, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.5", "--trace", "1"], scale=TINY)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC["per_layer"]})

    events = json.loads(next(tmp_path.glob("*.json")).read_text())
    spans = [
        Span(id=e["args"]["span_id"], parent_id=e["args"].get("parent_id"),
             name=e["name"], category=e["cat"], start_us=e["ts"],
             dur_us=e["dur"], pid=e["pid"], tid=e["tid"])
        for e in events["traceEvents"] if e["ph"] == "X"
    ]
    assert validate_span_tree(spans) == []
    roots = [s for s in spans if s.parent_id is None]
    assert roots and all(s.category == "op" for s in roots)
    parents = {s.parent_id for s in spans if s.category == "layer"}
    assert all(r.id in parents for r in roots)
    assert any(r.name == "op" for r in roots)
