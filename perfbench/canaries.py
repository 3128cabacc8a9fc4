"""Exact canaries: simulated counts recorded per workload and seed.

``core.iterations``, ``core.sim_cycles``, ``core.dram_blocks`` and
``memory.parent_cache_hit_ratio`` are taken from the first simulator
run of a workload, whose input depends on the seed alone.  They must
repeat exactly: a change that moves one changed the modelled hardware,
not the host speed, and ``run.py`` reports it as a behaviour change,
apart from the timings.

Re-record (after a deliberate model change) with::

    python3 perfbench/canaries.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PATH = Path(__file__).with_name("canaries.json")

#: the seed later speed claims must also hold on; never tune against it
HELD_OUT_SEED = 9001
SEEDS = tuple(range(32)) + (HELD_OUT_SEED,)


def _recorded() -> dict:
    return json.loads(PATH.read_text()) if PATH.is_file() else {}


def describe_seeds() -> str:
    seeds = sorted({int(k.rsplit(":", 1)[1]) for k in _recorded()})
    return ", ".join(map(str, seeds)) or "none"


def drift(workload: str, seed: int, values: dict) -> list[str] | None:
    """Canaries that differ from the record; None if the seed is new."""
    expected = _recorded().get(f"{workload}:{seed}")
    if expected is None:
        return None
    return [f"{name} {expected[name]!r} -> {values[name]!r}"
            for name in sorted(expected) if expected[name] != values[name]]


def record() -> dict:
    """Recompute every canary with one operation per workload and seed."""
    from workloads import WORKLOADS

    table = {}
    for workload, body in WORKLOADS.items():
        for seed in SEEDS:
            run = body(seed, 0.0, traced=None)
            if run.canaries:
                table[f"{workload}:{seed}"] = run.canaries
                print(workload, seed, run.canaries, file=sys.stderr)
    return table


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
