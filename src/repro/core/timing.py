"""Host-side wall-clock profiling of the simulator itself.

The event ledger (``repro.core.events``) counts *simulated* work —
operations the RTL would execute, priced in cycles by ``perf.py``.  This
module measures the orthogonal quantity: how long the *Python simulator*
spends in each part of a run on the host.  Every performance PR against
the simulator should quote these numbers before/after (see
``docs/PERFORMANCE.md``).

There is one timing primitive, :meth:`repro.obs.spans.SpanRecorder.span`.
:class:`~repro.core.accelerator.Amst` always records its run → iteration
→ stage → subsystem span tree (into the active telemetry's recorder, or
a private one), at two granularities:

* **per stage** — ``stage.fm`` (Finding), ``stage.rm_am`` (the merged
  Removing/Appending pass) and ``stage.cm`` (Compressing), opened around
  each module call;
* **per subsystem** — ``sub.cache.parent`` / ``sub.cache.minedge`` /
  ``sub.hbm``, one span per call through :class:`TimedSubsystem`
  proxies wrapped around the cache and HBM models, plus ``sub.network``
  (the sorting-network / MinEdge-writer commit), ``sub.resolve_roots``
  and ``sub.self_check`` opened inline.

The host profile is a fold of that tree: :func:`fold_host_timing` sums
the stage/subsystem spans of one ``amst.run`` subtree into
``PerfReport.extra["host_timing"]``, and ``amst run --profile-host``
renders it with :func:`format_host_profile`.
"""

from __future__ import annotations

from ..obs.spans import Span, SpanRecorder

__all__ = ["TimedSubsystem", "fold_host_timing", "format_host_profile"]

#: cache methods whose batched calls are attributed to the cache subsystem
CACHE_METHODS = ("lookup", "write", "contains", "mark_dead")
#: HBM-model methods attributed to the HBM subsystem
HBM_METHODS = ("access_sequential", "access_random", "access_blocks")


class TimedSubsystem:
    """Transparent proxy opening a span around selected methods.

    Every attribute is forwarded to the wrapped instance; the methods
    named in ``methods`` are returned wrapped in a ``subsystem`` span
    called ``name``, so the caches and the HBM model need no knowledge
    of profiling.  Cache/HBM calls are already batched (one call per
    vector of ids), so the per-call span overhead is small.
    """

    def __init__(self, inner, spans: SpanRecorder, name: str,
                 methods: tuple[str, ...]) -> None:
        self._inner = inner
        self._spans = spans
        self._name = name
        self._methods = frozenset(methods)

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            # Never forward private/dunder probes: pickle interrogates
            # a freshly allocated (empty-dict) instance for __setstate__
            # before _inner exists, and forwarding would recurse forever.
            raise AttributeError(attr)
        value = getattr(self._inner, attr)
        if attr in self._methods:
            spans, name = self._spans, self._name

            def timed(*args, **kwargs):
                with spans.span(name, "subsystem"):
                    return value(*args, **kwargs)

            return timed
        return value


def fold_host_timing(spans: list[Span], root_id: int) -> dict[str, dict]:
    """Sum the ``stage.*`` / ``sub.*`` spans under ``root_id``.

    Returns ``{name: {"seconds", "calls"}}`` sorted by name, the form
    ``PerfReport.extra["host_timing"]`` carries.  Only descendants of
    the root span count, so other spans sharing the recorder (another
    run, a CLI command) never mix in.  A span closes after all of its
    children, so walking the finished list backwards meets every parent
    before its children.
    """
    inside = {root_id}
    timing: dict[str, dict] = {}
    for s in reversed(spans):
        if s.parent_id not in inside:
            continue
        inside.add(s.id)
        if s.name.startswith(("stage.", "sub.")):
            entry = timing.setdefault(s.name, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += s.dur_us / 1e6
            entry["calls"] += 1
    return dict(sorted(timing.items()))


def format_host_profile(timing: dict, *, counts_only: bool = False) -> str:
    """Fixed-width table of host time per stage and subsystem.

    ``timing`` is a :func:`fold_host_timing` dict (the form
    ``PerfReport.extra["host_timing"]`` carries).  Stage rows sum to
    (roughly) the simulated part of the run; subsystem rows are
    attributions *within* the stages, so the two groups each show
    their own share column and do not double-count.

    The rendering is deterministic: rows are sorted by name (an
    explicit stable sort, independent of insertion order) and every
    float is printed in a fixed-precision, fixed-width column.  With
    ``counts_only=True`` the wall-clock columns are dropped entirely and
    only the (deterministic) call counts remain, so two runs of the same
    workload produce byte-identical output — the form the CLI and the
    determinism test diff.
    """
    if counts_only:
        lines = ["host profile (call counts only)",
                 "-------------------------------"]
    else:
        lines = ["host profile (wall-clock, simulator itself)",
                 "--------------------------------------------"]
    for prefix, title in (("stage.", "per stage"), ("sub.", "per subsystem")):
        rows = sorted(
            (k, v) for k, v in timing.items() if k.startswith(prefix)
        )
        if not rows:
            continue
        group_total = sum(v["seconds"] for _, v in rows)
        lines.append(f"{title}:")
        for name, entry in rows:
            secs = entry["seconds"]
            calls = int(entry.get("calls", 0))
            if counts_only:
                lines.append(f"  {name:<22s} {calls:>9d} calls")
                continue
            share = 100.0 * secs / group_total if group_total else 0.0
            lines.append(
                f"  {name:<22s} {secs * 1e3:12.3f} ms "
                f"{share:5.1f} %  {calls:>9d} calls"
            )
    if len(lines) == 2:
        lines.append("  (no samples recorded)")
    return "\n".join(lines) + "\n"
