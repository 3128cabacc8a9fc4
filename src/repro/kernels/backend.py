"""The two functions the end-to-end benchmark's ``env`` line reads.

``perfbench/run.py::environment()`` records whether Numba is importable
and which kernel backend runs.  The simulator no longer has a compiled
tier, so the answer to the second question is always ``"numpy"``.  This
module exists only for that import and goes away with it in a later
benchmark change.
"""

from __future__ import annotations

__all__ = ["numba_available", "resolve_backend"]


def numba_available() -> bool:
    """True when ``import numba`` succeeds in this process."""
    try:  # pragma: no cover - trivially version-dependent
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def resolve_backend(requested: str = "auto") -> str:
    """The backend every run uses: always ``"numpy"``."""
    return "numpy"
