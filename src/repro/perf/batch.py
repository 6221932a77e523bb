"""NumPy gate for the vectorized batch-evaluation path.

The batch evaluators (:mod:`repro.execmodel.batch`, the ``batch=`` sweep
paths) vectorize whole figure axes into array operations.  NumPy is an
*optional* accelerator for this — ``pip install repro[fast]`` — and its
absence must degrade gracefully: every batch entry point falls back to
the per-point scalar loop, producing identical results, and the first
fallback emits a single :class:`~warnings.UserWarning` so slow campaigns
are explainable without being noisy.

This module is the one place that knows whether NumPy is importable;
everything else asks :data:`HAVE_NUMPY` / :func:`get_numpy` instead of
importing ``numpy`` directly.  Asking is cheap: :data:`HAVE_NUMPY` only
looks NumPy up on the import path, and the import itself happens on the
first :func:`get_numpy` call, so a command that never prices a vector
never pays for it.
"""

from __future__ import annotations

import functools
import importlib.util
import warnings
from typing import Any, Optional

__all__ = ["HAVE_NUMPY", "get_numpy", "reset_fallback_warning",
           "warn_scalar_fallback"]

#: NumPy is installed (found on the import path; not yet imported).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

# Contexts that already warned this process.  Per-context (not one
# global bool) so the first campaign to fall back cannot swallow the
# warning a *different* subsystem owes its own users later in the same
# process — and so warning-capturing tests cannot order-depend.
_warned: set = set()


@functools.lru_cache(maxsize=None)
def get_numpy() -> Optional[Any]:
    """The ``numpy`` module, or ``None`` when it is absent or fails to import.

    Imports on the first call and returns the cached answer after that.
    A NumPy that is installed but broken counts as absent, so callers
    take their scalar fallback instead of raising.
    """
    if not HAVE_NUMPY:
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def reset_fallback_warning(context: Optional[str] = None) -> None:
    """Re-arm the fallback warning (test hook).

    With no argument every context re-arms; naming one re-arms just it.
    """
    if context is None:
        _warned.clear()
    else:
        _warned.discard(context)


def warn_scalar_fallback(context: str) -> None:
    """Warn — once per process *per context* — about a scalar fallback."""
    if context in _warned:
        return
    _warned.add(context)
    warnings.warn(
        f"numpy is not installed; {context} falls back to per-point scalar "
        "evaluation (identical results, slower). Install the 'fast' extra "
        "(pip install repro[fast]) for vectorized batch evaluation.",
        UserWarning,
        stacklevel=3,
    )
