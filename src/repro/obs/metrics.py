"""Metrics registry: one namespaced tree over every counting surface.

The repo accumulates counts in four disconnected shapes — the event
ledger (``Counter`` of ``module.event`` keys), the host profile
(seconds + calls per span name), ``CacheStats`` dataclasses on the
cache models, and ad-hoc dicts from the run cache.  The registry is
the common denominator: dotted metric names (``events.fm.tasks``,
``cache.parent.hits``, ``runcache.misses``, ``host.stage.fm.seconds``)
holding

* **counters** — monotone totals; merging adds them (worker payloads);
* **gauges** — last-write-wins values (rates, utilizations, modelled
  seconds);
* **histograms** — fixed-bucket distributions (per-iteration cycles).

Exports:

* :meth:`MetricsRegistry.as_dict` — JSON-ready nested snapshot, the
  form the run manifest stores and workers ship through the pool;
* :meth:`MetricsRegistry.flat` — ``name -> value`` for regression
  diffing (``repro.obs.regress``);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format 0.0.4 (``amst_``-prefixed, ``.``/``-`` mapped to ``_``),
  validated by ``repro.obs.validate.validate_prometheus_text``.
"""

from __future__ import annotations

import math
import re

__all__ = ["Histogram", "MetricsRegistry", "prometheus_name"]

#: default histogram bucket upper bounds (cycles-scale, log-spaced)
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, namespace: str = "amst") -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    flat = _NAME_RE.sub("_", name.replace(".", "_").replace("-", "_"))
    flat = flat.strip("_")
    out = f"{namespace}_{flat}" if namespace else flat
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """Prometheus sample value: integers render without the '.0'."""
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimated q-quantile by linear interpolation within buckets.

        The Prometheus ``histogram_quantile`` estimate: find the bucket
        the rank falls in, interpolate between its bounds (the first
        bucket interpolates from 0).  Observations in the +Inf overflow
        bucket clamp to the largest finite bound — a bounded lie that
        reads as "at least this much", same as Prometheus.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.buckets):
            prev_cum = cumulative
            cumulative += self.counts[i]
            if cumulative >= rank:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                in_bucket = self.counts[i]
                if in_bucket == 0:
                    return bound
                frac = (rank - prev_cum) / in_bucket
                return lower + (bound - lower) * min(max(frac, 0.0), 1.0)
        return self.buckets[-1]

    def summary_quantiles(self) -> dict:
        """The p50/p95/p99 summary the JSON export and CLI surface."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict:
        snap = {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }
        if self.count:
            snap["quantiles"] = self.summary_quantiles()
        return snap

    def merge(self, snap: dict) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError("histogram bucket bounds differ; cannot merge")
        for i, c in enumerate(snap["counts"]):
            self.counts[i] += int(c)
        self.total += float(snap["sum"])
        self.count += int(snap["count"])


class MetricsRegistry:
    """Counters, gauges and histograms under dotted names."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(buckets)
        hist.observe(value)

    # -- reading -------------------------------------------------------
    @property
    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self._gauges)

    def flat(self) -> dict[str, float]:
        """Counters and gauges as one sorted ``name -> value`` map.

        The diffable view: histograms are distributions, not single
        regression-comparable numbers, so they are omitted here (their
        ``count``/``sum`` appear in :meth:`as_dict` and Prometheus).
        """
        out = dict(self._counters)
        for name, value in self._gauges.items():
            if name in out:
                raise ValueError(
                    f"metric {name!r} is both a counter and a gauge")
            out[name] = value
        return dict(sorted(out.items()))

    def as_dict(self) -> dict:
        """JSON-ready snapshot (what manifests store and workers ship)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a worker's :meth:`as_dict` payload into this registry.

        Counters add, gauges last-write-win, histograms add bucket
        counts — the merge a multi-process run needs for one coherent
        per-run tree.
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, hsnap in snap.get("histograms", {}).items():
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(
                    tuple(hsnap["buckets"]))
            hist.merge(hsnap)

    # -- exporters -----------------------------------------------------
    def to_prometheus(self, namespace: str = "amst") -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for name, value in sorted(self._counters.items()):
            pname = prometheus_name(name, namespace)
            lines.append(f"# HELP {pname} counter {name}")
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_fmt(value)}")
        for name, value in sorted(self._gauges.items()):
            pname = prometheus_name(name, namespace)
            lines.append(f"# HELP {pname} gauge {name}")
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(value)}")
        for name, hist in sorted(self._histograms.items()):
            pname = prometheus_name(name, namespace)
            lines.append(f"# HELP {pname} histogram {name}")
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                lines.append(
                    f'{pname}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{pname}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{pname}_sum {_fmt(hist.total)}")
            lines.append(f"{pname}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")
