"""Host probe kept only for the end-to-end benchmark's ``env`` line.

See :mod:`repro.kernels.backend`: the simulator has no compiled tier,
and this package goes away once ``perfbench/run.py`` stops importing it.
"""

from __future__ import annotations

from .backend import numba_available, resolve_backend

__all__ = ["numba_available", "resolve_backend"]
