"""Parallel experiment executor.

The exhibits (``figures.EXPERIMENTS``) and design-space sweeps
(``sweeps.SWEEPS``) are embarrassingly parallel: every task builds its
own graphs from a seed and returns a plain :class:`ExperimentResult`.
This module fans them across a ``ProcessPoolExecutor`` while keeping the
output *byte-identical* to a serial run:

* **deterministic seeds** — each task derives its seed from the base
  seed and its stable key via :func:`derive_task_seed` (CRC32, not
  Python's per-process ``hash``), so a task's RNG stream never depends
  on which worker ran it or in what order;
* **ordered collection** — futures are gathered in submission order, so
  stdout ordering matches ``--jobs 1`` exactly;
* **inline path** — ``jobs <= 1`` runs every task in-process with
  the same code path, which is what makes the parity testable;
* **pickled inputs** — a sweep task carries its :class:`CSRGraph`
  through the pool by pickling; the pool serves only ``amst bench`` and
  ``amst sweep``, the two surfaces where it measurably wins (see
  docs/PERFORMANCE.md "Where the process pool runs").

Wall-clock measurements inside a task (Table II, Fig 3a) are real time
and naturally vary run-to-run; everything count- or cycle-based is
reproducible.  See ``docs/PERFORMANCE.md``.

When a telemetry session is active (``repro.obs``; explicit
``telemetry=`` argument or the ambient one), each task runs inside a
``task:<key>`` span: inline tasks record straight into the parent's
recorder, pool tasks activate a *worker-side* telemetry carrying the
parent's :class:`~repro.obs.context.RunContext`, and their finished
spans and metrics travel back with the result and merge under the same
run ID — the merged Chrome trace shows one lane per worker pid.
Results remain byte-identical: the telemetry payload rides alongside
the task output and is stripped before returning.
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import dataclass, field
from typing import Callable

from ..obs.context import activate, current_telemetry, deactivate
from .datasets import default_cache_vertices, load
from .runner import ExperimentResult

__all__ = [
    "TaskSpec",
    "derive_task_seed",
    "execute",
    "run_experiments",
    "run_sweeps",
]


def derive_task_seed(base_seed: int, key: str) -> int:
    """Stable per-task seed: mixes the base seed with the task key.

    Uses CRC32 rather than ``hash()`` because the latter is salted per
    process — workers would disagree with the parent about the seed.
    """
    return (int(base_seed) * 0x9E3779B1 + zlib.crc32(key.encode())) % 2**31


@dataclass(frozen=True)
class TaskSpec:
    """One unit of parallel work: ``fn(**kwargs)`` under a stable key.

    ``fn`` must be a module-level callable (pickled by reference) and
    ``kwargs`` picklable values; extra kwargs the callable does not
    accept are dropped (exhibit signatures differ — Fig 16 takes no
    size/seed at all).
    """

    key: str
    fn: Callable[..., object]
    kwargs: dict = field(default_factory=dict)


def _call_filtered(fn: Callable[..., object], kwargs: dict) -> object:
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return fn(**kwargs)
    return fn(**{k: v for k, v in kwargs.items() if k in params})


def _normalize(result: object) -> list[ExperimentResult]:
    """Exhibit functions return one result or a tuple (Fig 10)."""
    if isinstance(result, ExperimentResult):
        return [result]
    return list(result)


def run_task(spec: TaskSpec) -> list[ExperimentResult]:
    """Run one task (in a worker or inline) and normalize its output."""
    return _normalize(_call_filtered(spec.fn, spec.kwargs))


@dataclass
class _TracedPayload:
    """A task's results plus the worker telemetry riding along."""

    groups: list
    worker: object  # repro.obs.WorkerTelemetry


def _run_task_traced(spec: TaskSpec, context) -> _TracedPayload:
    """Worker body for one task under an active telemetry session.

    Activates a worker-side :class:`~repro.obs.Telemetry` carrying the
    parent's :class:`~repro.obs.context.RunContext`, so every
    instrumented call inside the task (``Amst.run`` spans, nested
    subsystem spans) lands in the worker recorder and ships back with
    the result — stamped with the worker's own pid/tid lanes but the
    parent's run ID.
    """
    from ..obs import Telemetry, worker_payload

    tel = Telemetry(context=context)
    previous = activate(tel)
    try:
        with tel.spans.span(f"task:{spec.key}", category="task"):
            groups = run_task(spec)
    finally:
        deactivate(previous)
    return _TracedPayload(groups=groups, worker=worker_payload(tel))


def execute(
    tasks: list[TaskSpec], *, jobs: int = 1, telemetry=None,
) -> list[list[ExperimentResult]]:
    """Run every task, returning results in task order.

    ``jobs <= 1`` (or a single task) runs inline — no pool, no pickling
    — through the same :func:`run_task` path, so serial and parallel
    runs produce identical results.  With a telemetry session active
    (``telemetry=`` or ambient), every task is wrapped in a span and
    pool workers ship their spans/metrics back for merging; the
    returned results are unchanged either way.
    """
    tel = telemetry if telemetry is not None else current_telemetry()
    if jobs <= 1 or len(tasks) <= 1:
        if tel is None:
            return [run_task(t) for t in tasks]
        out = []
        for t in tasks:
            with tel.spans.span(f"task:{t.key}", category="task"):
                out.append(run_task(t))
        return out
    # imported here: `import repro.cli` must not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        if tel is None:
            futures = [
                pool.submit(run_task, t) for t in tasks
            ]  # submission order
            return [f.result() for f in futures]
        futures = [
            pool.submit(_run_task_traced, t, tel.context) for t in tasks
        ]
        results = []
        for f in futures:  # submission order — deterministic collection
            payload = f.result()
            tel.merge_worker(payload.worker)
            results.append(payload.groups)
        return results


# ----------------------------------------------------------------------
# Task builders for the two CLI surfaces
# ----------------------------------------------------------------------
def _experiment_tasks(
    names: list[str], *, size: float, seed: int
) -> list[TaskSpec]:
    from .figures import EXPERIMENTS

    tasks = []
    for name in names:
        for fn in EXPERIMENTS[name]:
            tasks.append(TaskSpec(
                key=f"{name}.{fn.__name__}", fn=fn,
                kwargs={"size": size, "seed": seed},
            ))
    return tasks


def run_experiments(
    names: list[str], *, size: float = 1.0, seed: int = 0, jobs: int = 1
) -> list[ExperimentResult]:
    """Run the named exhibits (keys of ``figures.EXPERIMENTS``) in order.

    Every exhibit receives the *same* base seed regardless of ``jobs``
    (each builds the shared dataset suite from it), so ``--jobs N``
    output is byte-identical to serial for all count/cycle exhibits.
    """
    tasks = _experiment_tasks(names, size=size, seed=seed)
    return [r for group in execute(tasks, jobs=jobs) for r in group]


def _sweep_task(
    name: str, *, graph, cache_vertices: int, base_seed: int,
) -> ExperimentResult:
    """Worker body for one sweep (module-level, so it pickles)."""
    from .sweeps import SWEEPS

    return _call_filtered(SWEEPS[name], {
        "graph": graph,
        "cache_vertices": cache_vertices,
        "seed": derive_task_seed(base_seed, f"sweep.{name}"),
    })


def run_sweeps(
    names: list[str], *, dataset: str, size: float = 1.0, seed: int = 0,
    cache_vertices: int | None = None, jobs: int = 1,
) -> list[ExperimentResult]:
    """Run the named sweeps (keys of ``sweeps.SWEEPS``) in order.

    The dataset is built *once* in the parent (all sweeps share it);
    on the ``--jobs N`` path each task pickles it to its worker.  Output
    is byte-identical to serial.
    """
    g = load(dataset, seed=seed, size=size)
    cache = cache_vertices or default_cache_vertices(size)
    tasks = [
        TaskSpec(key=f"sweep.{name}", fn=_sweep_task, kwargs={
            "name": name, "graph": g, "cache_vertices": cache,
            "base_seed": seed,
        })
        for name in names
    ]
    return [r for group in execute(tasks, jobs=jobs) for r in group]
