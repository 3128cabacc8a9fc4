"""AMST-as-a-service: the long-lived serving layer (docs/SERVING.md).

Composes the repo's load-bearing platforms behind one daemon process:

* graphs are *published once* into the
  :class:`~repro.serve.registry.GraphRegistry` and addressed forever by
  content fingerprint;
* run/verify/sweep jobs flow through the prioritized, per-client-limited
  :class:`~repro.serve.jobs.JobQueue`, consulting the content-addressed
  :class:`~repro.bench.runcache.RunCache` before any compute — warm
  repeats answer without touching the simulator;
* the wire format (job-state machine, error vocabulary, routes) is
  pinned in :mod:`repro.serve.protocol` and golden-tested like the
  simulator traces;
* telemetry emits a ``serve.*`` metric namespace (Prometheus at
  ``/v1/metrics``) and per-job run manifests through ``repro.obs``.

Entry points: ``amst serve`` boots a daemon, ``amst client ...`` talks
to one, and :class:`AmstDaemon`/:class:`ServeClient` embed both in
Python (the test harness runs a daemon in-process).
"""

from .client import ServeClient, ServeClientError
from .jobs import Job, JobQueue
from .protocol import (
    ERROR_CODES,
    JOB_KINDS,
    JOB_STATES,
    PROTOCOL,
    ROUTES,
    TRANSITIONS,
    ServeError,
    describe,
)
from .registry import GraphRecord, GraphRegistry
from .server import AmstDaemon, DaemonConfig

__all__ = [
    "PROTOCOL",
    "JOB_KINDS",
    "JOB_STATES",
    "TRANSITIONS",
    "ERROR_CODES",
    "ROUTES",
    "describe",
    "ServeError",
    "GraphRecord",
    "GraphRegistry",
    "Job",
    "JobQueue",
    "AmstDaemon",
    "DaemonConfig",
    "ServeClient",
    "ServeClientError",
]
