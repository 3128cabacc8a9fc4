"""Schema validation of emitted telemetry artifacts.

The CI telemetry job runs an instrumented sweep and then this module
(``python -m repro.obs.validate runs --all``) over the produced run
directories: the Chrome trace must be loadable and its span tree
well-formed, the Prometheus text must parse under the exposition-format
grammar, and the manifest must carry the fields ``amst runs diff``
depends on.  The same checks back the unit tests, so a schema drift
fails close to the change that caused it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from .manifest import MANIFEST_SCHEMA
from .spans import Span, validate_span_tree

__all__ = [
    "validate_chrome_trace",
    "validate_manifest",
    "validate_prometheus_text",
    "validate_run_dir",
    "main",
]

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_LABELS = r'\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}'
_PROM_VALUE = r"[+-]?(\d+(\.\d+)?([eE][+-]?\d+)?|Inf|NaN)"
_PROM_SAMPLE = re.compile(
    rf"^({_PROM_NAME})({_PROM_LABELS})?\s+{_PROM_VALUE}$"
)
_PROM_META = re.compile(
    rf"^# (HELP|TYPE) ({_PROM_NAME})(\s.*)?$"
)
_PROM_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def validate_prometheus_text(text: str) -> list[str]:
    """Exposition-format problems in a metrics.prom body ([] = valid)."""
    problems: list[str] = []
    typed: set[str] = set()
    sampled: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _PROM_META.match(line)
            if m is None:
                problems.append(
                    f"line {lineno}: malformed comment {line!r}")
                continue
            if m.group(1) == "TYPE":
                parts = line.split()
                if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                    problems.append(
                        f"line {lineno}: bad TYPE declaration {line!r}")
                    continue
                name = parts[2]
                if name in sampled:
                    problems.append(
                        f"line {lineno}: TYPE for {name} appears after "
                        f"its samples"
                    )
                typed.add(name)
            continue
        m = _PROM_SAMPLE.match(line)
        if m is None:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = m.group(1)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        sampled.add(name)
        sampled.add(family)
        if name not in typed and family not in typed:
            problems.append(
                f"line {lineno}: sample {name} has no TYPE declaration")
    return problems


def _spans_from_trace(payload: dict) -> list[Span]:
    spans = []
    for ev in payload.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        spans.append(Span(
            id=int(args.get("span_id", -1)),
            parent_id=(int(args["parent_id"])
                       if "parent_id" in args else None),
            name=str(ev.get("name", "")),
            category=str(ev.get("cat", "")),
            start_us=float(ev["ts"]),
            dur_us=float(ev.get("dur", 0)),
            pid=int(ev["pid"]),
            tid=int(ev["tid"]),
        ))
    return spans


def validate_chrome_trace(payload: dict) -> list[str]:
    """Structural problems in a Chrome trace-event JSON ([] = valid)."""
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing key {key!r}")
        if ev.get("ph") == "X":
            for key in ("ts", "dur"):
                if not isinstance(ev.get(key), (int, float)):
                    problems.append(
                        f"event {i}: X event needs numeric {key!r}")
    problems.extend(validate_span_tree(_spans_from_trace(payload)))
    return problems


def validate_manifest(data: dict) -> list[str]:
    """Problems with a run manifest ([] = valid)."""
    problems: list[str] = []
    if data.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema {data.get('schema')!r} != {MANIFEST_SCHEMA!r}")
    run = data.get("run")
    if not isinstance(run, dict):
        problems.append("missing run context")
    else:
        for key in ("run_id", "started_at"):
            if not run.get(key):
                problems.append(f"run context missing {key!r}")
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("missing flat metrics map")
    else:
        for name, value in metrics.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                problems.append(f"metric {name!r} is not numeric")
    if not isinstance(data.get("files"), dict):
        problems.append("missing files inventory")
    return problems


def validate_run_dir(path: str | Path) -> list[str]:
    """Validate all artifacts of one ``runs/<run-id>/`` directory."""
    path = Path(path)
    problems: list[str] = []

    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        return [f"{path}: manifest.json missing"]
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: manifest.json unreadable: {exc}"]
    problems += [f"manifest: {p}" for p in validate_manifest(manifest)]

    trace_path = path / "trace.json"
    if trace_path.is_file():
        try:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"trace.json unreadable: {exc}")
        else:
            problems += [
                f"trace: {p}" for p in validate_chrome_trace(trace)]
    else:
        problems.append("trace.json missing")

    prom_path = path / "metrics.prom"
    if prom_path.is_file():
        problems += [
            f"prom: {p}"
            for p in validate_prometheus_text(
                prom_path.read_text(encoding="utf-8"))
        ]
    else:
        problems.append("metrics.prom missing")
    return [f"{path}: {p}" if not p.startswith(str(path)) else p
            for p in problems]


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.validate <runs-root> [--all] | <run-dir>``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="validate telemetry run directories",
    )
    parser.add_argument("path", help="run directory, or runs root with "
                                     "--all")
    parser.add_argument("--all", action="store_true",
                        help="validate every run under the given root")
    args = parser.parse_args(argv)

    root = Path(args.path)
    if args.all:
        run_dirs = sorted(
            p.parent for p in root.glob("*/manifest.json"))
        if not run_dirs:
            print(f"no run directories under {root}")
            return 1
    else:
        run_dirs = [root]

    failures = 0
    for run_dir in run_dirs:
        problems = validate_run_dir(run_dir)
        status = "ok" if not problems else "INVALID"
        print(f"validate {run_dir} {status}")
        for p in problems:
            print(f"  !! {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
