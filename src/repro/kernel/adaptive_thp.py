"""Adaptive THP activation threshold (the paper's §8.1 extension).

VUsion's THP mode trades capacity against performance through ``n``:
a huge page is conserved when at least ``n`` of its 512 base pages are
active.  ``n = 1`` maximises performance (à la Ingens), large ``n``
maximises fusion (à la KSM); the paper points to SmartMD [21] for
optimising ``n`` dynamically per workload.

This policy implements that extension: a daemon watches the machine's
TLB miss rate (are we paying for broken huge pages?) and memory
headroom (do we need the capacity fusion would reclaim?) and steers
khugepaged's ``active_threshold`` between the two regimes:

* translation-starved (high TLB miss rate) → lower ``n``: collapse
  more ranges, conserve huge pages;
* memory-starved with cheap translation → raise ``n``: break more huge
  pages so their idle subpages can fuse.

The policy only moves ``n``; security is untouched — both regimes run
the same SB/RA machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.params import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.khugepaged import Khugepaged


@dataclass(frozen=True)
class AdaptiveThpConfig:
    """Watermarks and bounds for the adaptive policy."""

    period: int = 2 * SECOND
    min_threshold: int = 1
    max_threshold: int = 256
    step: int = 4
    #: TLB miss rate above which the machine counts as
    #: translation-starved.
    high_miss_rate: float = 0.10
    #: Miss rate below which translation is cheap enough to trade away.
    low_miss_rate: float = 0.02
    #: Free-memory fraction below which capacity pressure kicks in.
    low_free_fraction: float = 0.25


class AdaptiveThpPolicy:
    """Steers khugepaged's K>=n threshold from machine feedback."""

    def __init__(
        self,
        kernel: "Kernel",
        khugepaged: "Khugepaged",
        config: AdaptiveThpConfig | None = None,
    ) -> None:
        self.kernel = kernel.handle
        self.khugepaged = khugepaged
        self.config = config or AdaptiveThpConfig()
        self.adjustments: list[tuple[int, int]] = []
        self._last_hits = 0
        self._last_misses = 0
        kernel.register_daemon(
            "adaptive-thp", self.config.period, self.adjust
        )

    # ------------------------------------------------------------------
    # Feedback signals
    # ------------------------------------------------------------------
    def tlb_miss_rate(self) -> float:
        """Machine-wide TLB miss rate since the last adjustment."""
        hits = sum(p.tlb.hits for p in self.kernel.processes)
        misses = sum(p.tlb.misses for p in self.kernel.processes)
        delta_hits = hits - self._last_hits
        delta_misses = misses - self._last_misses
        self._last_hits, self._last_misses = hits, misses
        total = delta_hits + delta_misses
        return delta_misses / total if total else 0.0

    def free_fraction(self) -> float:
        return self.kernel.buddy.free_frames() / self.kernel.spec.total_frames

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def adjust(self) -> None:
        config = self.config
        miss_rate = self.tlb_miss_rate()
        threshold = self.khugepaged.active_threshold
        if miss_rate > config.high_miss_rate:
            threshold = max(config.min_threshold, threshold - config.step)
        elif (
            miss_rate < config.low_miss_rate
            and self.free_fraction() < config.low_free_fraction
        ):
            threshold = min(config.max_threshold, threshold + config.step)
        if threshold != self.khugepaged.active_threshold:
            self.khugepaged.active_threshold = threshold
            self.adjustments.append((self.kernel.clock.now, threshold))
