"""khugepaged: the background THP-collapse daemon.

Periodically scans anonymous VMAs for 2 MiB-aligned ranges that can be
collapsed into a transparent huge page: it allocates 512 contiguous
frames, copies (or zero-fills) each subpage, remaps the range as one
huge leaf and frees the old frames.

Two policies are modelled:

* **insecure** (Linux default): collapse any sufficiently-populated
  range that contains no fused pages.  Combined with KSM's THP
  splitting this is the behaviour the paper's translation attack
  exploits.
* **secure** (VUsion, §8.2): only collapse ranges that are *active*
  (at least ``active_threshold`` of the 512 base pages have their
  accessed bit set — the paper's ``K >= n``), and (fake-)unmerge every
  fused page in the range first, so collapsing never reveals merge
  state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import OutOfMemoryError
from repro.mem.physmem import FrameType
from repro.mmu.address_space import Vma
from repro.mmu.pte import PteFlags
from repro.params import HUGE_PAGE_SIZE, PAGE_SIZE, PAGES_PER_HUGE_PAGE, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class Khugepaged:
    """Background collapser of 4 KiB page runs into huge pages."""

    def __init__(
        self,
        kernel: "Kernel",
        period: int = 10 * SECOND,
        secure: bool = False,
        active_threshold: int = 1,
        min_present: int = 461,
    ) -> None:
        """``min_present`` is an Ingens-style utilisation threshold:
        a range collapses only when at least that many of its 512 base
        pages are populated (default ~90%), avoiding THP bloat."""
        self.kernel = kernel.handle
        self.secure = secure
        self.active_threshold = active_threshold
        self.min_present = min_present
        #: How far back an access still counts as "active" (secure mode).
        self.activity_horizon = period // 2
        self.collapses = 0
        self.skipped_inactive = 0
        self.skipped_fused = 0
        kernel.register_daemon("khugepaged", period, self.scan)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(self) -> None:
        """One full pass over all processes' collapse candidates."""
        for process in self.kernel.processes:
            if not process.alive:
                continue
            for vma in process.address_space.vmas:
                if not vma.thp_allowed or vma.file_key is not None:
                    continue
                self._scan_vma(process, vma)

    def _scan_vma(self, process: "Process", vma: Vma) -> None:
        base = -(-vma.start // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE
        while base + HUGE_PAGE_SIZE <= vma.end:
            self._consider_range(process, base)
            base += HUGE_PAGE_SIZE

    def _consider_range(self, process: "Process", base: int) -> None:
        page_table = process.address_space.page_table
        entries = page_table.pt_entries(base)
        if entries is None or len(entries) < self.min_present:
            return
        fused = [
            index
            for index, pte in entries.items()
            if pte.fused or pte.reserved
        ]
        if fused and not self.secure:
            # Linux khugepaged refuses to collapse over KSM pages.
            self.skipped_fused += 1
            return
        if self.secure:
            active = self._count_active(process, base, entries)
            if active < self.active_threshold:
                # SB-preserving policy: idle ranges stay 4 KiB and
                # remain fusion candidates.
                self.skipped_inactive += 1
                return
            fusion = self.kernel.fusion
            if fused and fusion is None:
                self.skipped_fused += 1
                return
            for index in fused:
                # (Fake-)unmerge before collapsing so khugepaged's copy
                # never observes or perturbs merge state (paper §8.2).
                fusion.unmerge_for_collapse(process, base + index * PAGE_SIZE)
        self._collapse(process, base)

    def _count_active(self, process: "Process", base: int, entries) -> int:
        """Count active base pages (the paper's K).

        A fusion engine's working-set estimator consumes accessed bits
        during its own scans, so a raw bit read would undercount; ask
        the estimator for recent activity as well, when one exists.
        """
        wse = getattr(self.kernel.fusion, "wse", None)
        now = self.kernel.clock.now
        active = 0
        for index, pte in entries.items():
            if pte.accessed:
                active += 1
                continue
            if wse is not None and wse.recently_active(
                (process.pid, base + index * PAGE_SIZE), now, self.activity_horizon
            ):
                active += 1
        return active

    # ------------------------------------------------------------------
    # Collapse
    # ------------------------------------------------------------------
    def _collapse(self, process: "Process", base: int) -> bool:
        kernel = self.kernel
        page_table = process.address_space.page_table
        entries = page_table.pt_entries(base)
        if entries is None:
            return False
        try:
            head = kernel.alloc_frame(FrameType.ANON, order=9, zero=True)
        except OutOfMemoryError:
            return False
        physmem = kernel.physmem
        for index, pte in sorted(entries.items()):
            physmem.copy(pte.pfn, head + index)
        for index in sorted(entries):
            pfn, refcount, pte = kernel.unmap_page(process, base + index * PAGE_SIZE)
            kernel.release_after_unmap(pfn, refcount, pte)
        kernel.map_huge(
            process, base, head, PteFlags.USER | PteFlags.WRITABLE
        )
        kernel.clock.advance(kernel.costs.thp_collapse)
        kernel.stats.thp_collapses += 1
        kernel.emit("thp:collapse", pid=process.pid, vaddr=base, pfn=head)
        self.collapses += 1
        return True
