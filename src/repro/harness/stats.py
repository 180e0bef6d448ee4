"""Summary statistics for replicated runs."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample.

    ``ci95_halfwidth`` is the normal-approximation 95% confidence
    half-width of the mean (1.96·s/√n); fine for the replication counts
    the benchmarks use.  The quantiles are :func:`percentile`'s.
    """

    count: int
    mean: float
    stdev: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    ci95_halfwidth: float

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.3f}±{self.ci95_halfwidth:.3f} "
            f"median={self.median:.3f} "
            f"range=[{self.minimum:.3f}, {self.maximum:.3f}] n={self.count}"
        )


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending-sorted sequence (0.0
    when empty): the repository's one percentile, always a sample value,
    never an interpolation between two."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"q must be in [0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[min(len(sorted_values), rank) - 1]


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` for a non-empty sample."""
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    data = sorted(float(v) for v in values)
    mean = statistics.fmean(data)
    stdev = statistics.stdev(data) if len(data) > 1 else 0.0
    return SummaryStats(
        count=len(data),
        mean=mean,
        stdev=stdev,
        minimum=data[0],
        p25=percentile(data, 0.25),
        median=percentile(data, 0.5),
        p75=percentile(data, 0.75),
        maximum=data[-1],
        ci95_halfwidth=1.96 * stdev / math.sqrt(len(data)) if len(data) > 1 else 0.0,
    )
