"""Lightweight instrumentation for simulations.

:class:`Counter` accumulates named totals (bytes moved, messages sent);
:class:`TimeSeries` records (time, value) samples.  Spans, Chrome traces
and determinism digests live in :class:`repro.obs.tracer.Tracer`.

Long sweeps used to grow :class:`TimeSeries` without bound; pass
``max_samples`` to cap memory with a deterministic decimating reservoir
(when full, every other sample is dropped and the sampling stride
doubles, preserving an even spread over the whole run).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple


class Counter:
    """Named accumulators: ``counter.add("bytes", 4096)``."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, key: str, amount: float = 1.0) -> None:
        self._totals[key] += amount
        self._counts[key] += 1

    def total(self, key: str) -> float:
        return self._totals.get(key, 0.0)

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    def mean(self, key: str) -> float:
        n = self._counts.get(key, 0)
        return self._totals.get(key, 0.0) / n if n else 0.0

    def keys(self) -> List[str]:
        return sorted(self._totals)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._totals)


class TimeSeries:
    """A sequence of (time, value) samples with summary statistics.

    ``max_samples`` (optional, >= 8) bounds memory: when the buffer
    fills, every other retained sample is dropped and only every
    ``stride``-th subsequent :meth:`record` call is kept, with the stride
    doubling on each compaction.  The result is a deterministic,
    evenly-thinned view of the full series — no RNG, so two identical
    simulations keep identical samples.
    """

    def __init__(self, name: str = "series", max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 8:
            raise ValueError("max_samples must be >= 8")
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self.max_samples = max_samples
        self.n_recorded = 0  # total record() calls, kept or not
        self._stride = 1
        self._pending = 0

    def record(self, time: float, value: float) -> None:
        self.n_recorded += 1
        if self.max_samples is not None:
            self._pending += 1
            if self._pending < self._stride:
                return
            self._pending = 0
        self.samples.append((float(time), float(value)))
        if self.max_samples is not None and len(self.samples) >= self.max_samples:
            del self.samples[1::2]
            self._stride *= 2

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    @property
    def times(self) -> List[float]:
        return [t for t, _ in self.samples]

    def mean(self) -> float:
        vs = self.values
        return sum(vs) / len(vs) if vs else 0.0

    def max(self) -> float:
        vs = self.values
        return max(vs) if vs else 0.0

    def min(self) -> float:
        vs = self.values
        return min(vs) if vs else 0.0

    def time_weighted_mean(self, horizon: float) -> float:
        """Mean of a piecewise-constant signal held between samples up to ``horizon``."""
        if not self.samples:
            return 0.0
        total = 0.0
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            total += v * (t1 - t0)
        t_last, v_last = self.samples[-1]
        total += v_last * max(0.0, horizon - t_last)
        span = horizon - self.samples[0][0]
        return total / span if span > 0 else self.samples[-1][1]
