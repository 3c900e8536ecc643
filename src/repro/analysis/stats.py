"""Statistical tests used by the paper's security evaluation (§9.1)."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


# SciPy is the one third-party package repro uses (the `repro[stats]`
# extra), and only the two KS helpers below need it.  They import it
# at call time, so importing repro or running a simulation never
# loads it.
def _require_scipy():
    """``scipy.stats``, or a RuntimeError naming the extra."""
    try:
        from scipy import stats
    except ImportError:
        raise RuntimeError(
            "KS statistics require SciPy; install the repro[stats] extra"
        ) from None
    return stats


def ks_2samp_pvalue(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value (Fig. 6's SB check)."""
    result = _require_scipy().ks_2samp(sample_a, sample_b)
    return float(result.pvalue)


def ks_uniform_pvalue(values, low: float, high: float) -> float:
    """KS goodness-of-fit against Uniform[low, high) (the RA check)."""
    if high <= low:
        raise ValueError("empty interval")
    stats = _require_scipy()
    scaled = [(v - low) / (high - low) for v in values]
    result = stats.kstest(scaled, "uniform")
    return float(result.pvalue)


def histogram(values, bins: int = 20) -> list[tuple[float, int]]:
    """Frequency distribution: (bin_left_edge, count) pairs (Figs. 5/6)."""
    if not values:
        return []
    low, high = min(values), max(values)
    if low == high:
        return [(float(low), len(values))]
    width = (high - low) / bins
    counts = [0] * bins
    for value in values:
        index = min(bins - 1, int((value - low) / width))
        counts[index] += 1
    return [(low + index * width, counts[index]) for index in range(bins)]


@dataclass(frozen=True)
class DistributionSummary:
    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    modes: int


def distribution_summary(values) -> DistributionSummary:
    """Summary plus a cluster count (bimodality detector).

    ``modes`` counts well-separated clusters: the sorted sample is
    split wherever a positive value is followed by one more than 50%
    above it.  The jump is relative to the previous value, not to the
    full range, so a few-percent gap between close peaks (4746 vs
    4841 cycles, a DRAM row hit vs miss) stays one mode.  KSM's write
    timings split into two clusters (the plain-store and copy-on-write
    peaks of Fig. 5); VUsion's reads form one (Fig. 6).
    """
    ordered = sorted(values)
    span = ordered[-1] - ordered[0]
    modes = 1
    if span > 0:
        for previous, current in zip(ordered, ordered[1:]):
            # A cluster boundary is a relative jump: the next value is
            # more than 50% above the previous one (and not just noise).
            if previous > 0 and current - previous > 0.5 * previous:
                modes += 1
    return DistributionSummary(
        count=len(values),
        mean=statistics.fmean(values),
        median=statistics.median(values),
        minimum=min(values),
        maximum=max(values),
        modes=modes,
    )
