"""Tests for the ``amst`` command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "RC"
        assert args.parallelism == 16

    def test_bench_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--experiment", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_jobs_default_inline(self):
        assert build_parser().parse_args(["bench"]).jobs == 1
        assert build_parser().parse_args(["sweep"]).jobs == 1

    @pytest.mark.parametrize("command", ["run", "verify", "scaleout"])
    def test_single_graph_commands_reject_jobs(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "--jobs", "2"])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_profile_host_flag(self):
        args = build_parser().parse_args(["run", "--profile-host"])
        assert args.profile_host is True


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--dataset", "EF", "--scale", "0.25",
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "validation" in out

    def test_run_custom_parallelism(self, capsys):
        assert main(["run", "--dataset", "EF", "--scale", "0.25",
                     "--parallelism", "4",
                     "--cache-vertices", "128"]) == 0
        assert "MEPS" in capsys.readouterr().out

    SCALEOUT = ["scaleout", "--dataset", "CF", "--scale", "0.05",
                "--validate"]
    MODELLED = re.compile(
        r"modelled time: local ([\d.]+) ms \+ scatter ([\d.]+) ms \+ "
        r"reduce ([\d.]+) ms \+ merge ([\d.]+) ms = ([\d.]+) ms")

    def test_scaleout_terms_add_up(self, capsys):
        assert main(self.SCALEOUT + ["--cards", "4",
                                     "--partitioner", "edge-cut"]) == 0
        out = capsys.readouterr().out
        assert "forest matches Kruskal" in out
        *terms, total = map(float, self.MODELLED.search(out).groups())
        assert all(t > 0 for t in terms)
        # each printed term is rounded to 1 us
        assert sum(terms) == pytest.approx(total, abs=2e-3)

    def test_scaleout_one_card_is_the_plain_run(self, capsys):
        assert main(self.SCALEOUT + ["--cards", "1"]) == 0
        out = capsys.readouterr().out
        assert "forest matches Kruskal" in out
        assert "0 round(s), 0 message(s)" in out
        *terms, total = self.MODELLED.search(out).groups()
        assert terms[1:] == ["0.000"] * 3 and terms[0] == total
        energy = re.search(r"energy +: ([\d.]+) mJ", out).group(1)

        assert main(["run", "--dataset", "CF", "--scale", "0.05"]) == 0
        plain = capsys.readouterr().out
        assert f"({total} ms @" in plain
        assert f"energy       : {energy} mJ @" in plain

    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "ego-Facebook" in out and "UK-Union" in out

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        assert "BRAM" in capsys.readouterr().out

    def test_bench_single(self, capsys):
        assert main(["bench", "--experiment", "fig16"]) == 0
        assert "Fig 16" in capsys.readouterr().out

    def test_bench_table1(self, capsys):
        assert main(["bench", "--experiment", "table1",
                     "--scale", "0.25"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestNewCommands:
    def test_trace(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert main(["trace", "--dataset", "EF", "--scale", "0.25",
                     "--parallelism", "4",
                     "--csv", str(csv_path), "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "FM%" in out
        assert csv_path.exists() and json_path.exists()

    def test_sweep_single(self, capsys):
        assert main(["sweep", "--sweep", "pipeline", "--dataset", "EF",
                     "--scale", "0.25", "--cache-vertices", "64"]) == 0
        assert "Sweep-pipe" in capsys.readouterr().out

    def test_sweep_bad_name(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sweep", "nonsense"])

    def test_run_profile_host(self, capsys):
        assert main(["run", "--dataset", "EF", "--scale", "0.25",
                     "--parallelism", "4", "--profile-host"]) == 0
        out = capsys.readouterr().out
        assert "host profile" in out
        assert "stage.fm" in out and "sub.hbm" in out

    def test_bench_jobs_parallel(self, capsys):
        assert main(["bench", "--experiment", "table1",
                     "--scale", "0.25", "--jobs", "2"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_sweep_jobs_parallel(self, capsys):
        assert main(["sweep", "--sweep", "pipeline", "--dataset", "EF",
                     "--scale", "0.25", "--cache-vertices", "64",
                     "--jobs", "2"]) == 0
        assert "Sweep-pipe" in capsys.readouterr().out


class TestTelemetryCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.telemetry is False
        assert args.runs_dir == "runs"
        assert args.run_id is None

    def test_runs_diff_defaults(self):
        args = build_parser().parse_args(["runs", "diff", "base"])
        assert args.new == "latest"
        assert args.threshold == pytest.approx(0.10)
        assert args.all_metrics is False

    def test_runs_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_run_telemetry_writes_run_dir(self, capsys, tmp_path):
        from repro.obs.validate import validate_run_dir

        runs_dir = tmp_path / "runs"
        assert main(["run", "--dataset", "EF", "--scale", "0.25",
                     "--parallelism", "4", "--telemetry",
                     "--runs-dir", str(runs_dir), "--run-id", "t1"]) == 0
        out = capsys.readouterr().out
        assert "telemetry    : run t1" in out
        run_dir = runs_dir / "t1"
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "metrics.prom").exists()
        assert (run_dir / "trace.json").exists()
        assert validate_run_dir(run_dir) == []

    def test_sweep_telemetry_jobs_merges_worker_spans(self, tmp_path):
        import json

        runs_dir = tmp_path / "runs"
        assert main(["sweep", "--sweep", "all",
                     "--dataset", "EF", "--scale", "0.1",
                     "--cache-vertices", "64", "--jobs", "2", "--telemetry",
                     "--runs-dir", str(runs_dir), "--run-id", "t2"]) == 0
        trace = json.loads((runs_dir / "t2" / "trace.json").read_text())
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert len(pids) >= 2
        assert trace["otherData"]["run_id"] == "t2"

    def test_runs_list_and_show(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        main(["run", "--dataset", "EF", "--scale", "0.25",
              "--parallelism", "4", "--telemetry",
              "--runs-dir", str(runs_dir), "--run-id", "t3"])
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "t3" in out and "run id" in out
        assert main(["runs", "show", "t3",
                     "--runs-dir", str(runs_dir)]) == 0
        assert '"run_id": "t3"' in capsys.readouterr().out

    def test_runs_list_empty_dir(self, capsys, tmp_path):
        assert main(["runs", "list",
                     "--runs-dir", str(tmp_path / "none")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_runs_diff_flags_injected_regression(self, capsys, tmp_path):
        import json

        runs_dir = tmp_path / "runs"
        for rid in ("base", "new"):
            main(["run", "--dataset", "EF", "--scale", "0.25",
                  "--parallelism", "4", "--telemetry",
                  "--runs-dir", str(runs_dir), "--run-id", rid])
        capsys.readouterr()
        # identical workloads diff clean
        assert main(["runs", "diff", "base", "new",
                     "--runs-dir", str(runs_dir)]) == 0
        capsys.readouterr()
        # inject a 15% cycle regression into the new manifest
        path = runs_dir / "new" / "manifest.json"
        data = json.loads(path.read_text())
        data["metrics"]["sim.cycles.total"] *= 1.15
        path.write_text(json.dumps(data))
        assert main(["runs", "diff", "base", "new",
                     "--runs-dir", str(runs_dir)]) == 1
        out = capsys.readouterr().out
        assert "sim.cycles.total" in out

    def test_verify_telemetry_prints_cache_stats(self, capsys, tmp_path):
        assert main(["verify", "--case", "paper-full", "--telemetry",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "run cache    :" in out
        assert "telemetry    : run" in out


class TestVerifyCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.update_golden is False
        assert args.case is None
        assert not hasattr(args, "jobs")

    def test_run_self_check_flag(self, capsys):
        assert main(["run", "--dataset", "EF", "--scale", "0.1",
                     "--parallelism", "4", "--self-check"]) == 0
        assert "self-check" in capsys.readouterr().out

    def test_verify_single_case_against_blessed(self, capsys):
        assert main(["verify", "--case", "paper-full"]) == 0
        out = capsys.readouterr().out
        assert "oracle paper-full" in out
        assert "golden paper-full" in out
        assert "ok" in out

    def test_verify_unknown_case_exits_2(self, capsys):
        assert main(["verify", "--case", "nope"]) == 2
        assert "unknown golden case" in capsys.readouterr().out

    def test_verify_update_golden_to_tmpdir(self, capsys, tmp_path):
        assert main(["verify", "--update-golden",
                     "--case", "paper-full",
                     "--golden-dir", str(tmp_path)]) == 0
        assert (tmp_path / "paper-full.json").exists()
        assert "blessed" in capsys.readouterr().out
        # and the freshly-blessed dir verifies clean
        assert main(["verify", "--case", "paper-full", "--skip-oracle",
                     "--golden-dir", str(tmp_path)]) == 0

    def test_verify_exits_nonzero_on_drift(self, capsys, tmp_path):
        main(["verify", "--update-golden", "--case", "paper-full",
              "--golden-dir", str(tmp_path)])
        path = tmp_path / "paper-full.json"
        path.write_text(path.read_text().replace(
            '"total_weight"', '"total_weight_drifted"'))
        capsys.readouterr()
        assert main(["verify", "--case", "paper-full", "--skip-oracle",
                     "--golden-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "failure" in out

    def test_verify_missing_golden_exits_nonzero(self, capsys, tmp_path):
        assert main(["verify", "--case", "rmat-full", "--skip-oracle",
                     "--golden-dir", str(tmp_path)]) == 1
        assert "missing" in capsys.readouterr().out


class TestAnalyticsCLI:
    """``amst report`` + the significance/quantile runs surfaces."""

    GOLDEN_DIR = None  # set lazily; pathlib at import time is noisy

    @staticmethod
    def _golden_dir():
        from pathlib import Path

        return Path(__file__).resolve().parent / "golden" / "analysis"

    def test_report_parser_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.runs_dir == "runs"
        assert args.bench_dir == "benchmarks"
        assert args.format == "md"
        assert args.alpha == pytest.approx(0.05)
        assert args.check is None and args.trend is False

    def test_report_stdout_markdown(self, capsys):
        gd = self._golden_dir()
        assert main(["report", "--runs-dir", str(gd / "runs"),
                     "--bench-dir", "", "--baseline", "base"]) == 0
        out = capsys.readouterr().out
        assert "# AMST experiment report" in out
        assert "| significant |" in out

    def test_report_check_matches_committed_golden(self, capsys):
        gd = self._golden_dir()
        assert main(["report", "--runs-dir", str(gd / "runs"),
                     "--bench-dir", "", "--baseline", "base",
                     "--check", str(gd / "report.md")]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_report_check_flags_drift(self, capsys, tmp_path):
        gd = self._golden_dir()
        stale = tmp_path / "report.md"
        blessed = (gd / "report.md").read_text()
        stale.write_text(blessed.replace("EF", "XX", 1))
        assert main(["report", "--runs-dir", str(gd / "runs"),
                     "--bench-dir", "", "--baseline", "base",
                     "--check", str(stale)]) == 1
        out = capsys.readouterr().out
        assert "drifted" in out and "re-bless" in out

    def test_report_writes_md_and_tex(self, capsys, tmp_path):
        gd = self._golden_dir()
        md, tex = tmp_path / "r.md", tmp_path / "r.tex"
        assert main(["report", "--runs-dir", str(gd / "runs"),
                     "--bench-dir", "", "--baseline", "base",
                     "--out", str(md), "--tex-out", str(tex)]) == 0
        assert md.read_text().startswith("# AMST experiment report")
        assert "\\begin{tabular}" in tex.read_text()

    def test_report_trend_section(self, capsys):
        from pathlib import Path

        bench = Path(__file__).resolve().parents[1] / "benchmarks"
        assert main(["report", "--runs-dir", "", "--bench-dir",
                     str(bench), "--trend"]) == 0
        assert "Trendlines" in capsys.readouterr().out

    def test_diff_significance_demotes_single_seed(self, capsys):
        gd = self._golden_dir()
        assert main([
            "runs", "diff", "fixture-base-s0", "fixture-smallcache-s0",
            "--significance", "--runs-dir", str(gd / "runs")]) == 0
        out = capsys.readouterr().out
        assert "insufficient seeds" in out
        assert "skipped namespaces" in out

    def test_diff_significance_multi_seed_verdict(self, capsys):
        gd = self._golden_dir()
        base = ",".join(f"fixture-base-s{i}" for i in range(6))
        new = ",".join(f"fixture-smallcache-s{i}" for i in range(6))
        assert main(["runs", "diff", base, new, "--significance",
                     "--runs-dir", str(gd / "runs")]) == 1
        out = capsys.readouterr().out
        assert "6 pair(s)" in out
        assert "wilcoxon p=" in out
        assert "sim.dram.blocks" in out

    def test_diff_significance_identical_sides_pass(self, capsys):
        gd = self._golden_dir()
        refs = ",".join(f"fixture-base-s{i}" for i in range(6))
        assert main(["runs", "diff", refs, refs, "--significance",
                     "--runs-dir", str(gd / "runs")]) == 0
        assert "0 significant" in capsys.readouterr().out

    def test_diff_multi_ref_requires_significance(self, capsys):
        gd = self._golden_dir()
        assert main(["runs", "diff", "fixture-base-s0,fixture-base-s1",
                     "fixture-base-s2",
                     "--runs-dir", str(gd / "runs")]) == 2
        assert "--significance" in capsys.readouterr().out

    def test_runs_show_prints_histogram_quantiles(self, capsys):
        import json

        gd = self._golden_dir()
        assert main(["runs", "show", "fixture-base-s0",
                     "--runs-dir", str(gd / "runs")]) == 0
        data = json.loads(capsys.readouterr().out)
        hists = data["histograms"]
        assert "sim.iteration_cycles" in hists
        for key in ("count", "sum", "p50", "p95", "p99"):
            assert key in hists["sim.iteration_cycles"]

    def test_runs_show_tolerates_future_manifest(self, capsys,
                                                 tmp_path):
        # forward compat: unknown fields, no metrics.json sibling —
        # show must still print the manifest verbatim (plus nothing)
        import json

        run_dir = tmp_path / "runs" / "future-run"
        run_dir.mkdir(parents=True)
        manifest = {
            "schema": "amst-run-manifest/9",
            "run": {"run_id": "future-run",
                    "a_new_identity_field": True},
            "metrics": {"sim.cycles.total": 1.0},
            "entirely_new_namespace": {"x": [1, 2, 3]},
        }
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["runs", "show", "future-run",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["entirely_new_namespace"] == {"x": [1, 2, 3]}
        assert "histograms" not in shown

    def test_runs_show_tolerates_torn_metrics_json(self, capsys,
                                                   tmp_path):
        import json

        run_dir = tmp_path / "runs" / "torn"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(
            json.dumps({"run": {"run_id": "torn"}}))
        (run_dir / "metrics.json").write_text("{ not json")
        assert main(["runs", "show", "torn",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        assert "histograms" not in json.loads(capsys.readouterr().out)

    def test_analysis_loader_reads_future_manifest(self, tmp_path):
        # same forward-compat guarantee at the analysis layer
        import json

        from repro.bench.analysis.records import load_run_records

        run_dir = tmp_path / "runs" / "future-run"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(json.dumps({
            "run": {"run_id": "future-run", "unknown": 1},
            "metrics": {"sim.cycles.total": 2.0, "odd": "str"},
            "future_block": [1, 2],
        }))
        (rec,) = load_run_records(tmp_path / "runs")
        assert rec.run_id == "future-run"
        assert rec.metrics == {"sim.cycles.total": 2.0}
