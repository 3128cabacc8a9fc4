"""End-to-end benchmark of the AMST reproduction, one workload per call.

    python3 perfbench/run.py --workload solve-skewed --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the traced pass instead: every operation is a root
span with one child per layer call, kept in memory and written as a
Chrome trace-event file under ``.perfbench/`` when the run ends.  The
per-layer metrics come from that pass.

Every output is checked exactly (see ``workloads.forest_problems``).
Lines before the last one are a readable record: the environment, the
input sizes, each metric under the name ``perfbench/README.md`` gives it,
and the exact canaries compared with ``canaries.json``.  The last line
is the JSON result.  Exit status: 0 when every output was exact, 1 when
any check failed, 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

#: fresh interpreters timed per run for the ``import repro.cli`` share
IMPORT_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms.p50": "ms",
}

#: the workload-specific names of the generic end-to-end metrics
ALIASES = {
    "solve-skewed": {"work_per_s": ("solve_edges_per_s", "edges/s"),
                     "op_ms.p50": ("solve_ms.p50", "ms")},
    "solve-road": {"work_per_s": ("solve_edges_per_s", "edges/s"),
                   "op_ms.p50": ("solve_ms.p50", "ms")},
    "update-stream": {"work_per_s": ("update_edits_per_s", "edits/s"),
                      "op_ms.p50": ("update_ms.p50", "ms")},
    "verify-oracle": {"work_per_s": ("oracle_edges_per_s", "edges/s"),
                      "op_ms.p50": ("oracle_ms.p50", "ms")},
}


def import_seconds() -> list[float]:
    """``import repro.cli`` wall time, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get(
        "PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def cache_sizes() -> dict[str, str]:
    """Host L2/L3 sizes as sysfs reports them (absent when unreadable)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def environment() -> dict:
    import numpy

    from repro.kernels.backend import numba_available, resolve_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_available(),
        "kernel_backend": resolve_backend("auto"),
        **cache_sizes(),
    }


def end_to_end(run, imports: list[float]) -> dict[str, float]:
    """The end-to-end metrics as measured (host-speed normalization is
    applied by :func:`normalized`)."""
    setup = (statistics.median(imports) + statistics.median(run.generate_s)
             + (statistics.median(run.build_s) if run.build_s else 0.0))
    return {
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": run.work / run.busy_s,
        "op_ms.p50": run.p50_ms(),
    }


def normalized(raw: dict[str, float], slowdown: float) -> dict[str, float]:
    """Times rescaled to the reference host speed the probe measured."""
    out = dict(raw)
    out["setup_s"] /= slowdown
    out["op_ms.p50"] /= slowdown
    out["work_per_s"] *= slowdown
    return out


def per_layer(run, trace, imports: list[float]) -> dict[str, float]:
    from workloads import PER_LAYER_UNITS

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    medians = trace.layer_medians()
    values.update({k: v for k, v in medians.items() if k in values})
    values.update(run.layers)
    values.update(run.canaries)
    values["import.repro_cli_ms"] = statistics.median(imports) * 1e3
    values["trace.unattributed_fraction"] = trace.unattributed_fraction()
    values["trace.overhead_fraction"] = (
        statistics.fmean(trace.root_ms("op")) / run.mean_op_ms() - 1.0)
    return values


def canary_report(workload: str, seed: int, values: dict) -> str:
    import canaries

    if not values:
        return "canaries: none (this workload runs no simulator)"
    drift = canaries.drift(workload, seed, values)
    if drift is None:
        return (f"canaries: seed {seed} not recorded "
                f"(recorded seeds: {canaries.describe_seeds()})")
    if drift:
        return ("canaries: BEHAVIOUR CHANGE, the simulated model moved: "
                + "; ".join(drift))
    return f"canaries: unchanged for seed {seed}"


def main(argv: list[str] | None = None, *, scale: float = 1.0) -> int:
    """Run one workload; ``scale`` shrinks every input (tests only)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import MIN_COVERAGE, PER_LAYER_UNITS, WORKLOADS, Trace

    trace = Trace() if args.trace else None
    imports = import_seconds()
    run = WORKLOADS[args.workload](args.seed, args.seconds, traced=trace,
                                   scale=scale)

    print("env " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps(run.inputs, sort_keys=True))
    print(canary_report(args.workload, args.seed, run.canaries))
    if not run.op_s:
        metrics, units = {}, {}
        print("metrics: none, no operation completed")
    elif trace is None:
        raw = end_to_end(run, imports)
        slowdown = run.probe.slowdown()
        metrics = normalized(raw, slowdown)
        units = E2E_UNITS
        print(f"host: {slowdown!r}x the reference probe time "
              f"({len(run.probe.samples)} probes); times below are "
              "normalized to the reference host, raw values in brackets")
        aliases = ALIASES[args.workload]
        for name, value in metrics.items():
            alias, unit = aliases.get(name, (name, units[name]))
            print(f"metric {alias} = {value!r} {unit} [{raw[name]!r}]")
        print(f"metric failed_fraction = {run.failed / run.attempted!r} "
              "ratio")
    else:
        metrics = per_layer(run, trace, imports)
        units = PER_LAYER_UNITS
        for name in run.absent:
            print(f"absent: {name} (the program no longer reports it)")
        coverage = 1.0 - metrics["trace.unattributed_fraction"]
        if coverage < MIN_COVERAGE:
            print(f"trace: FLAGGED, layer spans cover {coverage:.1%} of "
                  f"operation time (< {MIN_COVERAGE:.0%})")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace.chrome(
            workload=args.workload, seed=args.seed, coverage=coverage)))
        print(f"trace: {len(trace.records)} root spans written to {path}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
