"""A HexPADS-style anomaly detector (§10.2's prior defense).

HexPADS (Payer, ESSoS'16) watches performance counters for the
signature of dedup side-channel attacks: bursts of slow copy-on-write
faults from one process.  The paper's criticism is structural: "given
the anomaly detection nature of HexPADS, it is prone to false
positives and false negatives, providing attackers with the
opportunity to tune their attacks".

This module implements the detector over the simulator's fault
counters so both halves of that criticism are testable:

* a *greedy* attacker (many timed writes per window) is flagged;
* a *rate-limited* attacker stays under the threshold and still leaks
  (``tests/test_hexpads.py``), while a busy-but-honest victim workload
  can trip the detector (false positive).

VUsion needs no detector: the channel does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


@dataclass(frozen=True)
class HexPadsConfig:
    """Detection window and threshold.

    ``cow_threshold`` is the number of copy-on-write/-access unmerge
    faults one process may take per window before being flagged.
    """

    window_ns: int = 1_000_000_000
    cow_threshold: int = 16


class HexPadsDetector:
    """Per-process CoW-burst anomaly detection over fault counters."""

    def __init__(self, kernel: "Kernel", config: HexPadsConfig | None = None) -> None:
        self.kernel = kernel.handle
        self.config = config or HexPadsConfig()
        self.flagged: set[int] = set()
        self.windows_observed = 0
        #: pid -> CoW-ish fault count in the current window.
        self._window_counts: dict[int, int] = {}
        self._install_probe()
        kernel.register_daemon(
            "hexpads", self.config.window_ns, self._close_window
        )

    # ------------------------------------------------------------------
    # Event collection
    # ------------------------------------------------------------------
    def _install_probe(self) -> None:
        """Wrap the kernel's access path to attribute unmerge faults.

        Performance counters attribute events to the running process;
        the simulator's equivalent is inspecting each access result.
        The probe lives on the kernel, so it holds the kernel's weak
        handle and the unbound access method, never the kernel itself.
        """
        kernel = self.kernel
        original_access = kernel.__class__.access
        window_counts = self._window_counts

        def probed_access(process, vaddr, kind, new_content=None):
            result = original_access(kernel, process, vaddr, kind, new_content)
            if any(
                kind_name in ("unmerge_cow", "copy_on_access")
                for kind_name in result.fault_kinds
            ):
                window_counts[process.pid] = window_counts.get(process.pid, 0) + 1
            return result

        kernel.access = probed_access  # type: ignore[method-assign]

    def _close_window(self) -> None:
        self.windows_observed += 1
        for pid, count in self._window_counts.items():
            if count > self.config.cow_threshold:
                self.flagged.add(pid)
        self._window_counts.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_flagged(self, process: "Process") -> bool:
        return process.pid in self.flagged

    def current_window_count(self, process: "Process") -> int:
        return self._window_counts.get(process.pid, 0)
