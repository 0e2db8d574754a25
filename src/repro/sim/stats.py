"""Measurement helpers: the MB unit, quantiles, latency recorders.

The benchmark harness reports what the paper reports: aggregate
throughput in MB/s (decimal megabytes, total payload bytes divided by
the makespan of the client group), wall-clock runtimes, and
transactions per second.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["LatencyRecorder", "MB", "nearest_rank"]

#: One decimal megabyte — the unit of every figure in the paper.
MB = 1e6


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile of ``sorted_values`` by the nearest-rank method.

    Nearest rank: the smallest value with at least ``ceil(q * n)``
    values at or below it — index ``ceil(q * n) - 1``.  Correct for
    small samples (q=0.95 of n=20 is the 19th value, not the max; of
    n=1 it is the only value).

    The one canonical quantile helper in the repository:
    :class:`repro.obs.RpcTrace` and :class:`LatencyRecorder` both
    delegate here (they used to carry diverging copies).
    """
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class LatencyRecorder:
    """Stores operation durations; offers mean and percentiles.

    The sort backing :meth:`percentile` is cached and invalidated on
    :meth:`record`, so percentile sweeps (p50/p95/p99 in one report
    line) sort once instead of once per quantile.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("duration must be >= 0")
        self.samples.append(duration)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.samples) / len(self.samples)

    def _ordered(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        return self._sorted

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not self.samples:
            raise ValueError("no samples")
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        ordered = self._ordered()
        if p == 0:
            return ordered[0]
        return nearest_rank(ordered, p / 100)
