"""Multi-card scale-out study (extension beyond the paper).

Two entry points:

* pytest-benchmark table (``bench_scale_out``): partitioned Borůvka
  across 1-8 cards on the densest analog (CF) — local phase shrinks
  with card count while network traffic and the merge run grow, the
  classic strong-scaling trade-off.  "Total ms" is
  ``FabricRun.modelled_seconds`` (local + network + merge).

* standalone gate (``python benchmarks/bench_scale_out.py --check``):
  the fabric partitioner sweep.  Every (partitioner × card-count)
  combination at 16-256 cards — beyond the paper's Fig 14 envelope — is
  checked byte-identical against serial execution and recorded with its
  cut quality, balance, message/byte traffic and modelled speedup:

      PYTHONPATH=src python benchmarks/bench_scale_out.py --check \\
          --out benchmarks/BENCH_scaleout.json

  writes ``BENCH_scaleout.json`` (gate + summary, the BENCH_*.json
  trajectory) and ``SWEEP_scaleout.json`` (the full sweep manifest the
  CI fabric job uploads).
"""

import pytest

from repro.bench import load
from repro.bench.runner import ExperimentResult
from repro.core import AmstConfig
from repro.fabric import run_fabric


def bench_scale_out(benchmark, record_table, scale, seed, cache_vertices):
    def experiment():
        res = ExperimentResult(
            "Ext-scaleout",
            "Multi-card partitioned MST (CF analog, range partition)",
            ("Cards", "Edges/card", "Local ms", "Network ms", "Merge ms",
             "Total ms", "Cut edges", "Speedup"),
        )
        g = load("CF", seed=seed, size=scale)
        cfg = AmstConfig.full(16, cache_vertices=cache_vertices)
        base = None
        for cards in (1, 2, 4, 8):
            r = run_fabric(g, cards, cfg)
            total = r.modelled_seconds
            if base is None:
                base = total
            per_card = max(
                o.state.graph.num_edges for o in r.local_outputs)
            res.add_row(
                cards,
                per_card,
                round(r.local_seconds * 1e3, 3),
                round(r.network.total_seconds * 1e3, 3),
                round(r.merge_seconds * 1e3, 3),
                round(total * 1e3, 3),
                r.plan.stats.cut_edges,
                round(base / total, 2),
            )
        res.add_note(
            "scale-out buys *capacity* (edges/card drops with cards); "
            "wall-clock speedup requires graphs dense enough that the "
            "merge set (~n + cuts) stays far below m")
        return res

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    record_table(result)
    local = result.column("Local ms")
    assert local[-1] < local[0]  # phase-1 strong scaling


# ----------------------------------------------------------------------
# Standalone partitioner sweep + --check gate (CI fabric job)
# ----------------------------------------------------------------------

SWEEP_PARTITIONERS = ("range", "hash", "edge-cut", "grid2d")
SWEEP_CARDS = (16, 64, 256)


def sweep_partitioners(dataset, size, seed, parallelism, net_profile):
    """Every (partitioner × card count) vs. serial; returns sweep rows."""
    import numpy as np

    from repro.core import Amst

    g = load(dataset, seed=seed, size=size)
    cfg = AmstConfig.full(parallelism)
    serial = Amst(cfg).run(g)
    rows = []
    for name in SWEEP_PARTITIONERS:
        for cards in SWEEP_CARDS:
            run = run_fabric(g, cards, cfg, partitioner=name,
                             net_profile=net_profile)
            identical = bool(np.array_equal(
                run.result.edge_ids, serial.result.edge_ids))
            stats = run.plan.stats
            rows.append({
                "partitioner": name,
                "cards": cards,
                "byte_identical": identical,
                "cut_fraction": stats.cut_fraction,
                "balance": stats.balance,
                "empty_cards": stats.empty_cards,
                "rounds": len(run.rounds),
                "messages": run.network.total_messages,
                "message_bytes": run.network.total_bytes,
                "boundary_edges": run.boundary_edges,
                "local_seconds": run.local_seconds,
                "network_seconds": run.network.total_seconds,
                "merge_seconds": run.merge_seconds,
                "modelled_seconds": run.modelled_seconds,
                "modelled_speedup":
                    serial.report.seconds / run.modelled_seconds,
            })
    return g, serial, rows


def main(argv=None):
    import argparse
    import os
    import platform
    import sys

    from repro.bench.benchio import write_bench_json

    ap = argparse.ArgumentParser(
        description="fabric partitioner sweep gate (cut quality vs. "
                    "modelled speedup at 16-256 cards)")
    ap.add_argument("--dataset", default="CF",
                    help="Table I tag (dense CF amortizes the merge)")
    ap.add_argument("--size", type=float, default=0.05,
                    help="dataset scale (256 cards x 4 partitioners "
                         "means ~1.3k simulator runs; keep it small)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--parallelism", type=int, default=16)
    ap.add_argument("--net-profile", default="pcie3")
    ap.add_argument("--out", default="benchmarks/BENCH_scaleout.json")
    ap.add_argument("--sweep-out", default="benchmarks/SWEEP_scaleout.json")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero if any combination is not "
                         "byte-identical to serial")
    args = ap.parse_args(argv)

    g, serial, rows = sweep_partitioners(
        args.dataset, args.size, args.seed, args.parallelism,
        args.net_profile)

    for row in rows:
        print(f"{row['partitioner']:>9} x {row['cards']:>3} cards: "
              f"identical={row['byte_identical']} "
              f"cut={row['cut_fraction']:.3f} "
              f"balance={row['balance']:.2f} "
              f"msgs={row['messages']:>4} "
              f"speedup={row['modelled_speedup']:.2f}x", flush=True)

    all_identical = all(r["byte_identical"] for r in rows)
    # capacity scaling: the local phase keeps shrinking as cards grow,
    # for every partitioner
    local_shrinks = all(
        all(a["local_seconds"] > b["local_seconds"]
            for a, b in zip(group, group[1:]))
        for group in (
            [r for r in rows if r["partitioner"] == p]
            for p in SWEEP_PARTITIONERS
        )
    )
    doc = {
        "benchmark": "pr8-fabric-partitioner-sweep",
        "dataset": args.dataset,
        "size": args.size,
        "seed": args.seed,
        "net_profile": args.net_profile,
        "graph": {"num_vertices": g.num_vertices,
                  "num_edges": g.num_edges},
        "serial_seconds": serial.report.seconds,
        "partitioners": list(SWEEP_PARTITIONERS),
        "cards": list(SWEEP_CARDS),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "summary": {
            r["partitioner"] + "@" + str(r["cards"]): {
                "cut_fraction": round(r["cut_fraction"], 4),
                "balance": round(r["balance"], 3),
                "modelled_speedup": round(r["modelled_speedup"], 3),
            }
            for r in rows
        },
        "criteria": {
            "all_byte_identical": all_identical,
            "local_phase_shrinks_with_cards": local_shrinks,
        },
    }

    write_bench_json(args.out, doc)
    print(f"wrote {args.out}", flush=True)
    write_bench_json(args.sweep_out,
                     {"benchmark": doc["benchmark"], "rows": rows})
    print(f"wrote {args.sweep_out}", flush=True)

    if args.check and not all(doc["criteria"].values()):
        print(f"criteria unmet: {doc['criteria']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
