"""Run identity and the ambient telemetry context.

Every instrumented surface — ``Amst.run``, the oracle, sweeps, the run
cache and ``run_fabric`` — attributes its telemetry to one
:class:`RunContext`: a run ID plus the fingerprints
that make the run reproducible (graph content hash, config content
hash, git SHA, start timestamp).  The context is a small frozen,
picklable dataclass, so pool workers receive it by value and stamp
their spans with the *parent's* run ID (see ``repro.bench.executor``).

Propagation is ambient rather than threaded through every call
signature: :func:`activate` installs a telemetry object as the
process-current one and :func:`current_telemetry` retrieves it.  This
keeps the simulator's hot paths free of telemetry parameters — code
that does not look up the ambient telemetry behaves exactly as before,
which is what makes the subsystem read-only by construction (results
are byte-identical with telemetry on or off; see
``tests/obs/test_telemetry.py``).
"""

from __future__ import annotations

import os
import secrets
import subprocess
import time
from dataclasses import dataclass, replace

__all__ = [
    "RunContext",
    "new_run_context",
    "detect_git_sha",
    "current_telemetry",
    "activate",
    "deactivate",
]


@dataclass(frozen=True)
class RunContext:
    """Identity of one instrumented run (picklable, immutable).

    ``graph_fingerprint`` / ``config_fingerprint`` reuse the
    content-addressed hashes of ``repro.bench.runcache``, so a context
    names *exactly* the computation the run performed.
    """

    run_id: str
    started_at: str  # ISO-8601 UTC, second resolution
    git_sha: str = ""
    graph_fingerprint: str = ""
    config_fingerprint: str = ""
    command: str = ""
    labels: tuple[tuple[str, str], ...] = ()

    def with_(self, **changes) -> "RunContext":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "started_at": self.started_at,
            "git_sha": self.git_sha,
            "graph_fingerprint": self.graph_fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "command": self.command,
            "labels": dict(self.labels),
        }


def detect_git_sha() -> str:
    """Short git SHA of the working tree, or '' when unavailable.

    ``$AMST_GIT_SHA`` overrides (CI sets it so telemetry from shallow
    or exported checkouts still carries the revision).
    """
    env = os.environ.get("AMST_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def new_run_context(
    *,
    run_id: str | None = None,
    command: str = "",
    graph_fingerprint: str = "",
    config_fingerprint: str = "",
    labels: dict[str, str] | None = None,
) -> RunContext:
    """Mint a context with a fresh (timestamp + random) run ID."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return RunContext(
        run_id=run_id or f"{stamp}-{secrets.token_hex(4)}",
        started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_sha=detect_git_sha(),
        graph_fingerprint=graph_fingerprint,
        config_fingerprint=config_fingerprint,
        command=command,
        labels=tuple(sorted((labels or {}).items())),
    )


# ----------------------------------------------------------------------
# Ambient telemetry: one process-current object, explicitly scoped
# ----------------------------------------------------------------------
_CURRENT = None


def current_telemetry():
    """The process-current :class:`~repro.obs.telemetry.Telemetry`.

    ``None`` when no telemetry session is active — instrumented code
    must treat that as "record nothing" (and pay no other cost).
    """
    return _CURRENT


def activate(telemetry):
    """Install ``telemetry`` as current; returns the previous value.

    Always pair with :func:`deactivate` in a ``finally`` block so a
    raising run never leaks its session into the next one.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


def deactivate(previous) -> None:
    """Restore the value :func:`activate` returned."""
    global _CURRENT
    _CURRENT = previous
