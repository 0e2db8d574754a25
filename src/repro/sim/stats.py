"""Measurement helpers: the MB unit and quantiles.

The benchmark harness reports what the paper reports: aggregate
throughput in MB/s (decimal megabytes, total payload bytes divided by
the makespan of the client group), wall-clock runtimes, and
transactions per second.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["MB", "nearest_rank"]

#: One decimal megabyte — the unit of every figure in the paper.
MB = 1e6


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile of ``sorted_values`` by the nearest-rank method.

    Nearest rank: the smallest value with at least ``ceil(q * n)``
    values at or below it — index ``ceil(q * n) - 1``.  Correct for
    small samples (q=0.95 of n=20 is the 19th value, not the max; of
    n=1 it is the only value).

    The one canonical quantile helper in the repository
    (:class:`repro.obs.RpcTrace` delegates here).
    """
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
