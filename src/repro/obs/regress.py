"""Metric regression detection across runs.

Compares the flat metric maps of two run manifests (or any two JSON
files — ``BENCH_*.json`` records are flattened by dotted path) and
flags every shared metric whose relative change exceeds a threshold.
Wall-clock and environment-dependent namespaces (``host.*``,
``runcache.*``, ...) are skipped by default: they vary run to run
by construction, and flagging them would bury the deterministic
count-and-cycle metrics the paper's claims — and the CI gate — actually
ride on.

``amst runs diff A B`` is the CLI surface; CI diffs each instrumented
run against the blessed seed manifest (``tests/golden/seed_manifest
.json``) and fails on any flagged change ≥ 10 %.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SKIP_PREFIX_REASONS",
    "DEFAULT_SKIP_PREFIXES",
    "DEFAULT_THRESHOLD",
    "MetricDelta",
    "RegressionReport",
    "compare_metrics",
    "compare_manifests",
    "compare_json_files",
    "flatten_numeric",
]

#: THE canonical list of nondeterministic-by-construction metric
#: namespaces, skipped by every diff/aggregation surface unless asked
#: (``amst runs diff``, the CI regression gate, and the
#: ``repro.bench.analysis`` aggregation layer all consume this — new
#: namespaces land HERE, with a reason, never inline at a call site;
#: the exact contents are pinned by ``tests/obs/test_skip_prefixes``).
#: ``kernel.time.*`` only occurs in manifests recorded while the
#: simulator still had a compiled kernel tier, and ``shm.*`` only in
#: manifests recorded while a shared-memory graph store existed; both
#: stay listed so those older runs diff cleanly.  Their
#: ``kernel.dispatch.*`` counters stay diffable on purpose: unlike the
#: wall clocks they are deterministic.
SKIP_PREFIX_REASONS: dict[str, str] = {
    "host.": "host wall-clock timers; vary with machine load",
    "runcache.": "hit/miss mix depends on what earlier runs cached",
    "shm.": "legacy namespace (shared-memory graph store deleted)",
    "kernel.time.": "per-kernel wall clock (dispatch counts stay "
                    "diffable)",
    "serve.": "latency histograms + uptime under an arbitrary job mix",
    "fabric.": "card/worker wall clocks vary even though the forest "
               "never does",
    "incremental.": "depends on the update stream a session applied, "
                    "not a fixed workload",
}

DEFAULT_SKIP_PREFIXES: tuple[str, ...] = tuple(SKIP_PREFIX_REASONS)

DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between a base and a new run."""

    name: str
    base: float
    new: float

    @property
    def rel(self) -> float:
        """Relative change; +Inf when appearing from an exact zero."""
        if self.base == 0.0:
            return 0.0 if self.new == 0.0 else float("inf")
        return (self.new - self.base) / abs(self.base)

    def __str__(self) -> str:
        rel = self.rel
        pct = "new" if rel == float("inf") else f"{100.0 * rel:+.1f}%"
        return f"{self.name}: {self.base!r} -> {self.new!r} ({pct})"


@dataclass
class RegressionReport:
    """Outcome of one metric diff."""

    threshold: float
    compared: int = 0
    flagged: list[MetricDelta] = field(default_factory=list)
    only_base: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)
    #: prefix -> number of metric names it excluded (either side)
    skipped: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.flagged

    def format(self) -> str:
        lines = [
            f"compared {self.compared} metric(s) at threshold "
            f"{100.0 * self.threshold:.0f}%: "
            f"{len(self.flagged)} flagged"
        ]
        if self.skipped:
            skipped = ", ".join(
                f"{prefix}* ({count})"
                for prefix, count in sorted(self.skipped.items()))
            lines.append(f"  skipped namespaces: {skipped}")
        for delta in self.flagged:
            lines.append(f"  !! {delta}")
        if self.only_base:
            lines.append(
                f"  only in base: {', '.join(self.only_base[:8])}"
                + (" ..." if len(self.only_base) > 8 else "")
            )
        if self.only_new:
            lines.append(
                f"  only in new:  {', '.join(self.only_new[:8])}"
                + (" ..." if len(self.only_new) > 8 else "")
            )
        return "\n".join(lines)


def compare_metrics(
    base: dict[str, float],
    new: dict[str, float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    skip_prefixes: tuple[str, ...] = DEFAULT_SKIP_PREFIXES,
) -> RegressionReport:
    """Diff two flat metric maps, flagging |relative change| ≥ threshold.

    Metrics present on only one side are reported (``only_base`` /
    ``only_new``) but never flagged — adding a metric is not a
    regression, and CI would otherwise break on every new counter.
    """
    report = RegressionReport(threshold=threshold)

    def _kept(name: str) -> bool:
        return not any(name.startswith(p) for p in skip_prefixes)

    for name in set(base) | set(new):  # count distinct skipped names
        for prefix in skip_prefixes:
            if name.startswith(prefix):
                report.skipped[prefix] = report.skipped.get(
                    prefix, 0) + 1
                break

    base_keys = {k for k in base if _kept(k)}
    new_keys = {k for k in new if _kept(k)}
    report.only_base = sorted(base_keys - new_keys)
    report.only_new = sorted(new_keys - base_keys)
    for name in sorted(base_keys & new_keys):
        b, n = float(base[name]), float(new[name])
        report.compared += 1
        delta = MetricDelta(name=name, base=b, new=n)
        if abs(n - b) > 0 and (
            delta.rel == float("inf") or abs(delta.rel) >= threshold
        ):
            report.flagged.append(delta)
    report.flagged.sort(key=lambda d: -abs(d.new - d.base))
    return report


def compare_manifests(
    base: dict, new: dict, **kwargs
) -> RegressionReport:
    """Diff the ``metrics`` maps of two loaded run manifests."""
    return compare_metrics(
        base.get("metrics", {}), new.get("metrics", {}), **kwargs)


def flatten_numeric(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of nested JSON, keyed by dotted path.

    Lets ``runs diff`` compare arbitrary benchmark records
    (``BENCH_*.json``), not just manifests; booleans and strings are
    skipped, list elements are indexed.
    """
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = float(obj)
        return out
    if isinstance(obj, dict):
        for key in sorted(obj):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(obj[key], sub))
        return out
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            sub = f"{prefix}[{i}]" if prefix else f"[{i}]"
            out.update(flatten_numeric(item, sub))
        return out
    return out


def _load_flat(path: str | Path, **kwargs) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and data.get("schema", "").startswith(
        "amst-run-manifest"
    ):
        return {k: float(v) for k, v in data.get("metrics", {}).items()}
    return flatten_numeric(data)


def compare_json_files(
    base_path: str | Path, new_path: str | Path, **kwargs
) -> RegressionReport:
    """Diff two JSON files: manifests by their metric maps, any other
    record (e.g. ``BENCH_*.json``) by its flattened numeric leaves."""
    return compare_metrics(
        _load_flat(base_path), _load_flat(new_path), **kwargs)
