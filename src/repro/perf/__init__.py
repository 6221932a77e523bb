"""Measurement-campaign performance layer: parallel sweeps + memo cache.

Every figure in the paper is a parameter sweep, and a full reproduction
re-prices the same (machine, kernel, mode, params) points many times
across figures.  This package makes the campaign itself fast:

* :mod:`repro.perf.parallel` — a deterministic ``concurrent.futures``
  fan-out for sweep grids and multi-figure campaigns.
* :mod:`repro.perf.cache` — a memoized evaluation cache keyed by a
  stable fingerprint of the full specification, with hit/miss counters.
* :mod:`repro.perf.batch` — the optional-NumPy gate for the vectorized
  batch-evaluation paths (``pip install repro[fast]``), with a graceful
  single-warning scalar fallback.
* :mod:`repro.perf.selfbench` — the self-benchmark campaigns behind
  ``repro bench`` and ``benchmarks/bench_selfperf.py``, which track the
  simulator's own performance trajectory across PRs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CacheStats",
    "EvalCache",
    "HAVE_NUMPY",
    "default_workers",
    "fingerprint",
    "get_numpy",
    "parallel_map",
    "parallel_tasks",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.perf.batch": ["HAVE_NUMPY", "get_numpy"],
        "repro.perf.cache": ["CacheStats", "EvalCache", "fingerprint"],
        "repro.perf.parallel": ["default_workers", "parallel_map", "parallel_tasks"],
    },
)
