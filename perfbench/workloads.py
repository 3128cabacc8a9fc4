"""Workloads, exact correctness checks and the traced pass of the benchmark.

Every workload is a closed loop with one caller: the next operation
starts only when the previous one has returned, in this single process.
Inputs come from the workload seed alone; the program only ever sees the
generated graphs and update batches.

Each layer is timed from outside, around calls into its public
functions; the splits the program already reports
(``PreprocessResult.reorder_seconds``/``sort_seconds``,
``report.extra["host_timing"]``, ``RunCache.stats()``, ``BatchStats``)
are copied, not re-timed.  No timer is added to the program.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.bench.datasets import default_cache_vertices, load
from repro.bench.runcache import RunCache, preprocess_options
from repro.core import Amst, AmstConfig
from repro.graph.preprocess import preprocess
from repro.incremental import IncrementalMst, random_batches
from repro.mst import certify_minimum_forest, kruskal, validate_mst
from repro.obs.spans import SpanRecorder, to_chrome_trace
from repro.verify.oracle import ORACLE_CONFIGS, REFERENCES, run_oracle

#: per-layer metrics the traced pass reports, with units (BENCHMARK.json
#: lists the same names; a layer a workload never calls reads 0)
PER_LAYER_UNITS = {
    "import.repro_cli_ms": "ms",
    "graph.generate_ms": "ms",
    "graph.reorder_ms": "ms",
    "graph.sort_ms": "ms",
    "graph.sort_peak_mb": "MB",
    "core.run_ms": "ms",
    "core.fm_ms": "ms",
    "core.rm_am_ms": "ms",
    "core.cm_ms": "ms",
    "core.sorting_network_ms": "ms",
    "core.run_peak_mb": "MB",
    "core.iterations": "count",
    "core.sim_cycles": "cycles",
    "core.dram_blocks": "count",
    "memory.parent_cache_ms": "ms",
    "memory.minedge_cache_ms": "ms",
    "memory.hbm_ms": "ms",
    "memory.lru_replay_ms": "ms",
    "memory.parent_cache_hit_ratio": "ratio",
    "kernels.total_ms": "ms",
    "mst.kruskal_ms": "ms",
    "mst.kruskal_peak_mb": "MB",
    "mst.validate_ms": "ms",
    "mst.boruvka_ms": "ms",
    "mst.prim_ms": "ms",
    "mst.filter_kruskal_ms": "ms",
    "mst.certify_ms": "ms",
    "incremental.init_ms": "ms",
    "incremental.edges_touched_per_edit": "1/edit",
    "incremental.swaps": "1/batch",
    "incremental.replacements": "1/batch",
    "incremental.fallbacks": "1/batch",
    "incremental.apply_peak_mb": "MB",
    "update_ms.p90": "ms",
    "forest_read_ms.p50": "ms",
    **{f"verify.sim_ms.{label}": "ms" for label in ORACLE_CONFIGS},
    "runcache.hit_ratio": "ratio",
    "runcache.misses": "count",
    "trace.unattributed_fraction": "ratio",
    "trace.overhead_fraction": "ratio",
}

#: host_timing keys (report.extra) copied into per-layer metrics
HOST_TIMING_METRICS = {
    "stage.fm": "core.fm_ms",
    "stage.rm_am": "core.rm_am_ms",
    "stage.cm": "core.cm_ms",
    "sub.network": "core.sorting_network_ms",
    "sub.cache.parent": "memory.parent_cache_ms",
    "sub.cache.minedge": "memory.minedge_cache_ms",
    "sub.hbm": "memory.hbm_ms",
    "kernel.lru_replay": "memory.lru_replay_ms",
}

#: attribution gate: layer spans must cover 95% of an operation's time
MIN_COVERAGE = 0.95

_U = 2.0 ** -53  # unit roundoff of float64

#: host-speed probe: share of operation time spent probing, and the
#: probe's median on the reference host (2-CPU x86-64, Python 3.11,
#: NumPy 2.4), which maps probe-normalized times back to milliseconds
PROBE_SHARE = 0.15
PROBE_REF_S = 0.025


# ----------------------------------------------------------------------
# Exact correctness checks (always outside the timed region)
# ----------------------------------------------------------------------
def summation_bound(weights: np.ndarray) -> float:
    """Largest error any order of float64 summation of ``weights`` can
    make against the correctly rounded sum (Higham's gamma_{k} bound)."""
    k = int(weights.size)
    gamma = k * _U / (1.0 - k * _U)
    return gamma * math.fsum(np.abs(weights).tolist())


def forest_problems(graph, result, reference, *,
                    same_order: bool) -> list[str]:
    """Differences between ``result`` and the Kruskal ``reference``.

    The ``(weight, eid)`` tie-break makes the forest unique, so the edge
    id sets must be identical.  With ``same_order`` the result claims to
    sum its weight in Kruskal's acceptance order, so ``repr`` of the two
    totals must match.  Otherwise (the simulator sums per Borůvka
    iteration) the claimed total must lie within the rounding bound of
    the correctly rounded forest weight, which is far tighter than
    ``validate_mst``'s ``rtol=1e-9``.
    """
    problems = []
    if not np.array_equal(result.edge_ids, reference.edge_ids):
        only_res = np.setdiff1d(result.edge_ids, reference.edge_ids).size
        only_ref = np.setdiff1d(reference.edge_ids, result.edge_ids).size
        problems.append(f"edge sets differ: {only_res} edge(s) only in the "
                        f"result, {only_ref} only in Kruskal")
    if result.num_components != reference.num_components:
        problems.append(f"{result.num_components} components != "
                        f"Kruskal's {reference.num_components}")
    if same_order:
        if repr(result.total_weight) != repr(reference.total_weight):
            problems.append(f"total weight {result.total_weight!r} != "
                            f"Kruskal's {reference.total_weight!r}")
    else:
        _, _, w = graph.edge_endpoints()
        forest_w = w[reference.edge_ids]
        exact = math.fsum(forest_w.tolist())
        if abs(result.total_weight - exact) > summation_bound(forest_w):
            problems.append(f"claimed weight {result.total_weight!r} is "
                            f"outside the rounding bound of the exact "
                            f"forest weight {exact!r}")
    return problems


# ----------------------------------------------------------------------
# Tracing: spans kept in memory, written out when the run ends
# ----------------------------------------------------------------------
class Trace:
    """Span recorder of the traced pass.

    Every operation is one root span (category ``op``) whose children
    are the layer calls (category ``layer``); all spans of an operation
    carry its ``op`` id.  Per operation it keeps the summed milliseconds
    of each layer plus the splits copied from the program (``note``).
    """

    enabled = True

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.records: list[tuple[str, float, dict[str, float]]] = []
        self.last_ms = 0.0
        self._values: dict[str, float] | None = None
        self._op_id = -1

    @contextmanager
    def op(self, name: str, **args):
        self._op_id += 1
        self._values = defaultdict(float)
        try:
            with self.rec.span(name, "op", op=self._op_id, **args):
                yield
        finally:
            root = self.rec.spans[-1]
            self.records.append((name, root.dur_us / 1e3,
                                 dict(self._values)))
            self._values = None

    @contextmanager
    def layer(self, name: str, **args):
        with self.rec.span(name, "layer", op=self._op_id, **args):
            yield
        self.last_ms = self.rec.spans[-1].dur_us / 1e3
        self._values[f"{name}_ms"] += self.last_ms
        self._values["_layers_ms"] += self.last_ms

    def note(self, name: str, value: float) -> None:
        self._values[name] += value

    def layer_medians(self) -> dict[str, float]:
        """Median, over the operations that reached it, of each value."""
        samples: dict[str, list[float]] = defaultdict(list)
        for _, _, values in self.records:
            for name, value in values.items():
                samples[name].append(value)
        return {k: statistics.median(v) for k, v in samples.items()}

    def unattributed_fraction(self) -> float:
        """Share of operation wall time that no layer span covers."""
        total = sum(ms for _, ms, _ in self.records)
        covered = sum(v.get("_layers_ms", 0.0) for _, _, v in self.records)
        return (total - covered) / total if total else 0.0

    def root_ms(self, name: str) -> list[float]:
        return [ms for n, ms, _ in self.records if n == name]

    def chrome(self, **meta) -> dict:
        doc = to_chrome_trace(self.rec.spans)
        doc["otherData"].update(meta)
        return doc


class _NoTrace:
    """Stand-in for :class:`Trace` on untraced operations."""

    enabled = False
    last_ms = 0.0

    def op(self, name: str, **args):
        return nullcontext()

    def layer(self, name: str, **args):
        return nullcontext()

    def note(self, name: str, value: float) -> None:
        pass


NO_TRACE = _NoTrace()


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------
class HostProbe:
    """A fixed task, independent of the program, timed between operations.

    Other tenants of a shared host slow every operation for stretches of
    tens of seconds, which no run length averages out.  The probe mixes
    the same two kinds of work as the operations (a NumPy sort and a
    pure-Python union-find loop), so its median over a run measures how
    fast the host was during that run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20240517)
        self._keys = rng.random(1 << 17)
        self._ends = rng.integers(0, 1 << 14, size=(1 << 15, 2)).tolist()
        self.samples: list[float] = []
        self.spent = 0.0

    def _once(self) -> None:
        t0 = time.perf_counter()
        np.lexsort((np.arange(self._keys.size), self._keys))
        parent = list(range(1 << 14))
        for a, b in self._ends:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def keep_up(self, busy_s: float) -> None:
        """Probe until probing is PROBE_SHARE of ``busy_s``."""
        while not self.samples or self.spent < PROBE_SHARE * busy_s:
            self._once()

    def slowdown(self) -> float:
        """How much slower than the reference host this run ran."""
        return statistics.median(self.samples) / PROBE_REF_S


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Everything one workload run measured."""

    attempted: int = 0
    failed: int = 0
    op_s: dict[str, list[float]] = field(default_factory=dict)  # by input
    read_s: list[float] = field(default_factory=list)  # forest() reads
    work: float = 0.0  # items of work done by untraced operations
    busy_s: float = 0.0  # wall seconds those operations took, reads too
    generate_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    canaries: dict[str, float] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)  # splits not reported
    probe: HostProbe = field(default_factory=HostProbe)

    def record(self, key: str, op_s: float, work: float,
               read_s: float | None = None) -> None:
        """Account one untraced operation, then let the probe catch up."""
        self.op_s.setdefault(key, []).append(op_s)
        self.work += work
        self.busy_s += op_s
        if read_s is not None:
            self.read_s.append(read_s)
            self.busy_s += read_s
        self.probe.keep_up(self.busy_s)

    def p50_ms(self) -> float:
        """Median latency; with several inputs in alternation, the
        geometric mean of each input's median, so the mix of a short run
        cannot tip the median from one input's mode to the other's."""
        medians = [statistics.median(v) for v in self.op_s.values()]
        return 1e3 * math.exp(statistics.fmean(map(math.log, medians)))

    def mean_op_ms(self) -> float:
        """Mean untraced operation time, reads included."""
        count = sum(len(v) for v in self.op_s.values())
        return 1e3 * self.busy_s / count

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


def _seeds(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2 ** 31 - 1))


def _generate(run: Run, tr, key: str, seed: int, size: float):
    with tr.op("setup", dataset=key, seed=seed):
        t0 = time.perf_counter()
        with tr.layer("graph.generate"):
            g = load(key, seed=seed, size=size)
        run.generate_s.append(time.perf_counter() - t0)
    if not run.inputs:
        run.inputs = {
            "dataset": key, "size": size, "n": g.num_vertices,
            "m": g.num_edges,
            "csr_bytes": sum(a.nbytes for a in (g.indptr, g.dst, g.weight,
                                                g.eid)),
        }
    return g


def _canaries(out) -> dict[str, float]:
    rep = out.report
    return {
        "core.iterations": rep.num_iterations,
        "core.sim_cycles": rep.total_cycles,
        "core.dram_blocks": rep.dram_blocks,
        "memory.parent_cache_hit_ratio":
            out.state.parent_cache.stats.hit_rate,
    }


def _note_host_timing(run: Run, tr, out) -> None:
    """Copy the simulator's own host-time splits into the traced op."""
    if not tr.enabled:
        return
    timing = out.report.extra.get("host_timing", {})
    for key, metric in HOST_TIMING_METRICS.items():
        if key in timing:
            tr.note(metric, timing[key]["seconds"] * 1e3)
        elif key != "kernel.lru_replay":  # only LRU configurations have it
            run.absent.add(metric)
    kernel_s = [v["seconds"] for k, v in timing.items()
                if k.startswith("kernel.")]
    if kernel_s:
        tr.note("kernels.total_ms", 1e3 * sum(kernel_s))
    else:
        run.absent.add("kernels.total_ms")


@contextmanager
def _peak(into: dict, name: str):
    """tracemalloc peak (MB above the entry level) of the block."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    yield
    peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    into[name] = max(into.get(name, 0.0), peak)


def _modes(traced: Trace | None, i: int) -> list:
    """In the traced pass every input runs twice, traced and untraced,
    alternating which goes first."""
    if traced is None:
        return [NO_TRACE]
    return [NO_TRACE, traced] if i % 2 == 0 else [traced, NO_TRACE]


def _guarded(run: Run, what: str, fn):
    """Run one operation; an exception fails it instead of the run."""
    try:
        return fn()
    except Exception:  # a raising operation is a counted failure
        run.fail(1, f"{what} raised:\n{traceback.format_exc()}")
        return None


# ----------------------------------------------------------------------
# solve-skewed / solve-road: `amst run --validate`
# ----------------------------------------------------------------------
SOLVE_SIZE = 0.5


def _solve_config() -> AmstConfig:
    return AmstConfig.full(cache_vertices=default_cache_vertices(SOLVE_SIZE))


def _solve(run: Run, g, cfg, tr):
    """One solve: simulator, reference Kruskal, validate_mst."""
    reorder, sew = preprocess_options(cfg)
    with tr.layer("graph.preprocess"):
        pre = preprocess(g, reorder=reorder, sort_edges_by_weight=sew)
    with tr.layer("core.run"):
        out = Amst(cfg).run(g, preprocessed=pre)
    with tr.layer("mst.kruskal"):
        ref = kruskal(g)
    with tr.layer("mst.validate"):
        validate_mst(g, out.result, reference=ref)
    tr.note("graph.reorder_ms", pre.reorder_seconds * 1e3)
    tr.note("graph.sort_ms", pre.sort_seconds * 1e3)
    _note_host_timing(run, tr, out)
    return out, ref


def run_solve(keys: tuple[str, ...], seed: int, seconds: float, *,
              traced: Trace | None, scale: float = 1.0) -> Run:
    run = Run()
    cfg = _solve_config()
    size = SOLVE_SIZE * scale
    seeds = _seeds(seed)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        key = keys[i % len(keys)]
        g = _generate(run, traced or NO_TRACE, key, next(seeds), size)
        for tr in _modes(traced, i):
            run.attempted += 1

            def op():
                with tr.op("op", kind="solve", dataset=key):
                    t0 = time.perf_counter()
                    out, ref = _solve(run, g, cfg, tr)
                    return out, ref, time.perf_counter() - t0

            done = _guarded(run, f"solve {key}", op)
            if done is None:
                continue
            out, ref, dt = done
            if not tr.enabled:
                run.record(key, dt, g.num_edges)
            if not run.canaries:
                run.canaries = _canaries(out)
            problems = forest_problems(g, out.result, ref, same_order=False)
            if problems:
                run.fail(1, f"solve {key}: " + "; ".join(problems))
            # free this solve's arrays before the next input is built
            del done, out, ref
        del g
        i += 1
    if traced is not None:
        run.layers.update(_solve_peaks(
            load(keys[0], seed=next(seeds), size=size), cfg))
    return run


@contextmanager
def _tracemalloc():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _solve_peaks(g, cfg) -> dict[str, float]:
    """Peak traced memory of the SEW sort, the simulator and Kruskal.

    A pass of its own: tracemalloc slows every allocation, so it never
    overlaps the timed operations.
    """
    reorder, sew = preprocess_options(cfg)
    pre = preprocess(g, reorder=reorder, sort_edges_by_weight=sew)
    peaks: dict[str, float] = {}
    with _tracemalloc():
        with _peak(peaks, "graph.sort_peak_mb"):
            pre.reorder.graph.sort_edges(by_weight=sew)
        with _peak(peaks, "core.run_peak_mb"):
            Amst(cfg).run(g, preprocessed=pre)
        with _peak(peaks, "mst.kruskal_peak_mb"):
            kruskal(g)
    return peaks


# ----------------------------------------------------------------------
# update-stream: IncrementalMst under seeded 32-edit batches
# ----------------------------------------------------------------------
UPDATE_DATASET = "RC"
UPDATE_BATCH = 32
#: the engine is rebuilt from a fresh graph before the edits reach this
#: share of its edges, so the graph keeps its road shape
UPDATE_EDIT_SHARE = 0.10


def run_update(seed: int, seconds: float, *, traced: Trace | None,
               scale: float = 1.0) -> Run:
    run = Run()
    seeds = _seeds(seed)
    edits = touched = swaps = replacements = fallbacks = batches = 0
    deadline = time.perf_counter() + seconds
    while not run.build_s or time.perf_counter() < deadline:
        tr = traced or NO_TRACE
        g = _generate(run, tr, UPDATE_DATASET, next(seeds), scale)
        with tr.op("setup", dataset=UPDATE_DATASET):
            t0 = time.perf_counter()
            with tr.layer("incremental.init"):
                eng = IncrementalMst(g)
            run.build_s.append(time.perf_counter() - t0)
        per_segment = max(1, int(UPDATE_EDIT_SHARE * g.num_edges
                                 / UPDATE_BATCH))
        segment = 0
        broken = None
        for batch in random_batches(g, seed=next(seeds), batches=per_segment,
                                    batch_size=UPDATE_BATCH):
            if segment and time.perf_counter() >= deadline:
                break
            tr = NO_TRACE if traced is None or batches % 2 == 0 else traced
            segment += 1
            try:
                with tr.op("op", kind="update batch"):
                    t0 = time.perf_counter()
                    with tr.layer("incremental.apply"):
                        stats = eng.apply(batch)
                    t1 = time.perf_counter()
                    with tr.layer("incremental.forest"):
                        eng.forest()
                    t2 = time.perf_counter()
            except Exception:  # the engine is suspect from here on
                broken = traceback.format_exc()
                break
            if not tr.enabled:
                run.record(UPDATE_DATASET, t1 - t0, len(batch), t2 - t1)
            edits += len(batch)
            touched += stats.edges_touched
            swaps += stats.swaps
            replacements += stats.replacements
            fallbacks += int(stats.fallback)
            batches += 1
        run.attempted += segment
        if broken is not None:
            run.fail(segment, f"update batch raised:\n{broken}")
            continue
        # The check at every rebuild: the maintained forest must equal a
        # from-scratch Kruskal of the current graph, rounding included.
        tr = traced or NO_TRACE
        with tr.op("check"):
            with tr.layer("mst.kruskal"):
                ref = kruskal(eng.dyn.to_csr())
        problems = forest_problems(eng.graph(), eng.forest(), ref,
                                   same_order=True)
        if problems:
            run.fail(segment, "update segment: " + "; ".join(problems))
    if not run.op_s:
        return run
    run.layers.update({
        "incremental.edges_touched_per_edit": touched / edits,
        "incremental.swaps": swaps / batches,
        "incremental.replacements": replacements / batches,
        "incremental.fallbacks": fallbacks / batches,
        "update_ms.p90": _p90(run.op_s[UPDATE_DATASET]) * 1e3,
        "forest_read_ms.p50": statistics.median(run.read_s) * 1e3,
    })
    if traced is not None:
        g = load(UPDATE_DATASET, seed=next(seeds), size=scale)
        eng = IncrementalMst(g)
        peaks: dict[str, float] = {}
        with _tracemalloc():
            for batch in random_batches(g, seed=next(seeds), batches=20,
                                        batch_size=UPDATE_BATCH):
                with _peak(peaks, "incremental.apply_peak_mb"):
                    eng.apply(batch)
            with _peak(peaks, "mst.kruskal_peak_mb"):
                kruskal(eng.graph())
        run.layers.update(peaks)
    return run


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


# ----------------------------------------------------------------------
# verify-oracle: cold run_oracle on a collaboration graph
# ----------------------------------------------------------------------
ORACLE_DATASET = "CD"
ORACLE_SIZE = 0.5


def _oracle_decomposed(run: Run, g, tr) -> list[str]:
    """The public calls run_oracle makes, each timed as its own layer."""
    problems = []
    refs = {}
    for name, algo in REFERENCES.items():
        with tr.layer(f"mst.{name}"):
            refs[name] = algo(g)
    passes = {}
    for label, cfg in ORACLE_CONFIGS.items():
        opts = preprocess_options(cfg)
        if opts not in passes:
            with tr.layer("graph.preprocess"):
                passes[opts] = pre = preprocess(
                    g, reorder=opts[0], sort_edges_by_weight=opts[1])
            tr.note("graph.reorder_ms", pre.reorder_seconds * 1e3)
            tr.note("graph.sort_ms", pre.sort_seconds * 1e3)
        with tr.layer("core.run", config=label):
            out = Amst(cfg).run(g, preprocessed=passes[opts])
        tr.note(f"verify.sim_ms.{label}", tr.last_ms)
        _note_host_timing(run, tr, out)
        with tr.layer("mst.certify", config=label):
            certify_minimum_forest(g, out.result.edge_ids)
        problems += forest_problems(g, out.result, refs["kruskal"],
                                    same_order=False)
    return problems


def run_verify(seed: int, seconds: float, *, traced: Trace | None,
               scale: float = 1.0) -> Run:
    run = Run()
    size = ORACLE_SIZE * scale
    seeds = _seeds(seed)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        g = _generate(run, traced or NO_TRACE, ORACLE_DATASET, next(seeds),
                      size)
        if not run.canaries:
            run.canaries = _canaries(Amst(ORACLE_CONFIGS["full"]).run(g))
        for tr in _modes(traced, i):
            run.attempted += 1
            if tr.enabled:
                def op():
                    with tr.op("op", kind="oracle, decomposed"):
                        return _oracle_decomposed(run, g, tr)

                problems = _guarded(run, "oracle", op)
                if problems:
                    run.fail(1, "oracle: " + "; ".join(problems))
                continue
            cache = RunCache()
            t0 = time.perf_counter()
            report = _guarded(run, "oracle",
                              lambda: run_oracle(g, cache=cache))
            dt = time.perf_counter() - t0
            if report is None:
                continue
            run.record(ORACLE_DATASET, dt, g.num_edges)
            if "runcache.misses" not in run.layers:
                stats = cache.stats()
                lookups = stats["hits"] + stats["misses"]
                run.layers["runcache.misses"] = stats["misses"]
                run.layers["runcache.hit_ratio"] = stats["hits"] / lookups
            if not report.ok:
                run.fail(1, "oracle:\n" + report.format())
        i += 1
    if traced is not None:
        run.layers.update(_solve_peaks(
            load(ORACLE_DATASET, seed=next(seeds), size=size),
            ORACLE_CONFIGS["full"]))
    return run


WORKLOADS = {
    "solve-skewed": lambda seed, seconds, **kw: run_solve(
        ("CF", "UU"), seed, seconds, **kw),
    "solve-road": lambda seed, seconds, **kw: run_solve(
        ("UR",), seed, seconds, **kw),
    "update-stream": run_update,
    "verify-oracle": run_verify,
}
