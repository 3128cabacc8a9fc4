"""Execution layer benchmark: run cache, scale-out phase 1, partition.

Standalone (argparse, no pytest-benchmark) so CI can run it directly and
upload the JSON artifact:

    PYTHONPATH=src python benchmarks/bench_pr4_executor.py \
        --out benchmarks/BENCH_pr4.json

Three workloads:

1. **Multi-config oracle** — ``run_oracle`` over the full config suite.
   Measured serial/uncached, with a cold content-addressed cache (the
   five simulator configs share preprocessing passes, Borůvka is run
   once instead of twice), and with a warm cache (the repeat-verification
   regime: CI re-runs, golden recomputation).  Criterion: warm-cache
   wall-clock speedup ≥ 2x over serial/uncached.
2. **Scale-out phase 1 at N cards** — the modelled local-phase time
   (``FabricRun.local_seconds``: max over cards, which run concurrently
   in hardware) versus the single-card run.  Criterion: ≥ (cards/2)x at
   4 cards.  The host wall clock of the in-process card loop is
   recorded alongside.
3. **Vectorized edge partition** — the single sort+bincount scan of
   ``shard_slices`` (the path the fabric runs) against the
   ``num_cards`` boolean sweeps it replaced.

Every run re-verifies byte-identity along the way (cached oracle report
== uncached report; partitioned edge shards == the boolean sweeps) so a
speedup can never be bought with a wrong answer.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np

from repro.bench import RunCache, load
from repro.bench.benchio import write_bench_json
from repro.core import AmstConfig
from repro.fabric import partition_vertices, run_fabric
from repro.fabric.partition import shard_slices
from repro.verify.oracle import run_oracle


def _best_of(fn, rounds: int) -> tuple[float, object]:
    best, value = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def bench_oracle(graph, rounds: int) -> dict:
    serial_s, plain = _best_of(lambda: run_oracle(graph), rounds)

    cache = RunCache()
    cold_s, cold = _best_of(lambda: run_oracle(graph, cache=cache), 1)
    warm_s, warm = _best_of(lambda: run_oracle(graph, cache=cache), rounds)

    assert cold.format() == plain.format(), "cold cache changed the verdict"
    assert warm.format() == plain.format(), "warm cache changed the verdict"
    return {
        "serial_uncached_s": serial_s,
        "cached_cold_s": cold_s,
        "cached_warm_s": warm_s,
        "cold_speedup": serial_s / cold_s,
        "warm_speedup": serial_s / warm_s,
        "cache_stats": {
            "memory_hits": cache.stats()["memory_hits"],
            "disk_hits": cache.stats()["disk_hits"],
            "misses": cache.stats()["misses"],
        },
        "byte_identical": True,
    }


def bench_scale_out_phase1(graph, cards: int, rounds: int) -> dict:
    cfg = AmstConfig.full(16, cache_vertices=4096)

    _, one = _best_of(lambda: run_fabric(graph, 1, cfg), 1)
    serial_s, serial = _best_of(
        lambda: run_fabric(graph, cards, cfg), rounds)
    return {
        "cards": cards,
        "modelled_local_s_1card": one.local_seconds,
        "modelled_local_s": serial.local_seconds,
        "modelled_phase1_speedup": (one.local_seconds
                                    / serial.local_seconds),
        "host_total_serial_s": serial_s,
        "host_phase1_serial_s": serial.host_phase1_seconds,
    }


def bench_partition(graph, rounds: int) -> list[dict]:
    """Vectorized scan vs boolean sweeps across card counts.

    The sweep cost is O(cards * m); the sort-based scan is O(m log m)
    once — a wash at 4 cards, an order of magnitude beyond 16.
    """
    u, _, _ = graph.edge_endpoints()
    results = []
    for cards in (4, 16, 64):
        edge_card = partition_vertices(graph.num_vertices, cards)[u]

        def legacy():
            return [np.flatnonzero(edge_card == c) for c in range(cards)]

        def vectorized():
            return shard_slices(edge_card, cards)

        legacy_s, per_card = _best_of(legacy, rounds * 3)
        vec_s, (sorted_eids, bounds) = _best_of(vectorized, rounds * 3)
        for c in range(cards):
            np.testing.assert_array_equal(
                sorted_eids[bounds[c]:bounds[c + 1]], per_card[c])
        results.append({
            "cards": cards,
            "legacy_sweeps_s": legacy_s,
            "vectorized_s": vec_s,
            "speedup": legacy_s / vec_s,
            "byte_identical": True,
        })
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dataset", default="CF")
    ap.add_argument("--size", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cards", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", default="benchmarks/BENCH_pr4.json")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero if the speedup criteria are unmet")
    args = ap.parse_args(argv)

    graph = load(args.dataset, seed=args.seed, size=args.size)
    print(f"dataset {args.dataset} size={args.size}: "
          f"n={graph.num_vertices} m={graph.num_edges}", flush=True)

    oracle = bench_oracle(graph, args.rounds)
    print(f"oracle: serial {oracle['serial_uncached_s']:.3f}s, "
          f"warm cache {oracle['cached_warm_s']:.3f}s "
          f"({oracle['warm_speedup']:.1f}x)", flush=True)

    phase1 = bench_scale_out_phase1(graph, args.cards, args.rounds)
    print(f"phase1 @ {args.cards} cards: modelled "
          f"{phase1['modelled_phase1_speedup']:.1f}x, host "
          f"{phase1['host_phase1_serial_s']:.3f}s", flush=True)

    partition = bench_partition(graph, args.rounds)
    for row in partition:
        print(f"partition @ {row['cards']} cards: vectorized "
              f"{row['speedup']:.1f}x over boolean sweeps", flush=True)

    criteria = {
        "oracle_speedup_ge_2x": oracle["warm_speedup"] >= 2.0,
        "phase1_speedup_ge_half_cards": (
            phase1["modelled_phase1_speedup"] >= args.cards / 2),
    }
    doc = {
        "benchmark": "pr4-zero-copy-execution-layer",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "dataset": {
            "key": args.dataset,
            "size": args.size,
            "seed": args.seed,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "oracle": oracle,
        "scale_out_phase1": phase1,
        "partition": partition,
        "criteria": criteria,
    }
    write_bench_json(args.out, doc)
    print(f"wrote {args.out}", flush=True)

    if args.check and not all(criteria.values()):
        print(f"criteria unmet: {criteria}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
