"""API-surface tests: every advertised export exists and is importable.

Guards against broken ``__all__`` lists and accidental API removals —
the kind of breakage that unit tests of individual modules miss.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.mst",
    "repro.memory",
    "repro.kernels",
    "repro.core",
    "repro.baselines",
    "repro.bench",
    "repro.incremental",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), name
    for symbol in mod.__all__:
        assert hasattr(mod, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_no_private_exports(name):
    mod = importlib.import_module(name)
    for symbol in mod.__all__:
        if symbol.startswith("__") and symbol.endswith("__"):
            continue  # dunder metadata like __version__
        assert not symbol.startswith("_"), f"{name}.{symbol} is private"


def test_top_level_api_stable():
    import repro

    assert {"Amst", "AmstConfig", "AmstOutput", "PerfReport",
            "MSTResult"} <= set(repro.__all__)
    assert repro.__version__


def test_cli_entry_point():
    from repro.cli import main

    assert callable(main)


def test_public_callables_have_docstrings():
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for symbol in mod.__all__:
            obj = getattr(mod, symbol)
            if callable(obj) and not isinstance(obj, type):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_public_classes_have_docstrings():
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for symbol in mod.__all__:
            obj = getattr(mod, symbol)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_cli_import_loads_no_multiprocessing():
    """`import repro.cli` (every `amst client` call pays it) must not
    pull in multiprocessing; only `bench`/`sweep --jobs N` import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, repro.cli; "
             "print(sorted(m for m in ('multiprocessing',)"
             " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_shared_memory_graph_store_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.graph.shm")


@pytest.mark.parametrize("path", [
    "repro.verify.run_oracle",
    "repro.verify.compute_golden_records",
    "repro.verify.check_golden",
    "repro.verify.update_golden",
    "repro.core.run_scale_out",
    "repro.fabric.run_fabric",
])
def test_single_graph_entry_points_take_no_jobs(path):
    """The single-graph paths run in one process: no worker-pool knob."""
    import inspect

    module, name = path.rsplit(".", 1)
    fn = getattr(importlib.import_module(module), name)
    assert "jobs" not in inspect.signature(fn).parameters
