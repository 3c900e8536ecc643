"""Zero-page-only fusion (the mitigation the paper rejects).

Dedup Est Machina proposed merging only all-zero pages as a
deduplication-side-channel mitigation; Fig. 4 of the VUsion paper shows
this captures only ~16% of the duplicate pages in a cloud setting, and
§6.1 notes it is not secure against Flip Feng Shui by itself.  This
engine merges every idle zero page onto one shared zero frame and does
nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fusion.base import FusionEngine, ScanCursor
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import DEFAULT_FUSION, FusionConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.mmu.page_table import TranslationResult


class ZeroPageFusion(FusionEngine):
    """Merge only pages whose content is all zeros."""

    name = "zeropage"

    def __init__(self, config: FusionConfig = DEFAULT_FUSION) -> None:
        super().__init__()
        self.config = config
        self.cursor: ScanCursor | None = None
        self._zero_frame: int | None = None
        self._zero_mappers = 0

    def _register(self, kernel: "Kernel") -> None:
        self.cursor = ScanCursor(kernel)
        # A dedicated shared zero frame, pinned by the engine.
        self._zero_frame = kernel.alloc_frame(FrameType.KERNEL, zero=True)
        kernel.physmem.get_ref(self._zero_frame)
        kernel.physmem.pin_fused(self._zero_frame)
        kernel.register_daemon(
            "zeropaged", self.config.scan_interval, self.scan_tick
        )

    def scan_tick(self) -> None:
        clock = self.kernel.clock
        scan_page = self.kernel.costs.scan_page
        self.stats.scans += 1
        for process, vma, vaddr in self.cursor.next_pages(self.config.pages_per_scan):
            clock.advance(scan_page)
            self.stats.pages_scanned += 1
            self._scan_one(process, vaddr)

    def _scan_one(self, process: "Process", vaddr: int) -> None:
        kernel = self.kernel
        walk = process.address_space.page_table.walk(vaddr)
        if walk is None or walk.pte.fused:
            return
        pfn = walk.frame_for(vaddr)
        # The scan kernel's zero probe: an integer compare against the
        # zero content id, with no payload read.
        if pfn == self._zero_frame or not kernel.physmem.scan_kernel.is_zero_frame(pfn):
            return
        if walk.huge:
            # Like KSM, break the THP to merge the zero subpage.
            kernel.split_huge_mapping(process, vaddr)
        kernel.clock.advance(kernel.costs.checksum_page)
        old_pfn, refcount, old_pte = kernel.unmap_page(process, vaddr)
        kernel.release_after_unmap(old_pfn, refcount, old_pte)
        kernel.map_page(
            process, vaddr, self._zero_frame, PteFlags.USER | PteFlags.FUSED
        )
        self._zero_mappers += 1
        self.stats.merges += 1
        self.stats.merge_frame_log.append(self._zero_frame)

    def handle_fused_write(
        self, process: "Process", vaddr: int, walk: "TranslationResult"
    ) -> None:
        kernel = self.kernel
        new_pfn = kernel.alloc_frame(FrameType.ANON, zero=True)
        kernel.clock.advance(kernel.costs.copy_page)
        kernel.unmap_page(process, vaddr)
        kernel.map_page(
            process, vaddr, new_pfn, PteFlags.USER | PteFlags.WRITABLE
        )
        self._zero_mappers -= 1
        self.stats.cow_unmerges += 1

    def on_fused_ref_drop(self, pfn: int) -> None:
        if pfn == self._zero_frame:
            self._zero_mappers -= 1

    def unmerge_for_collapse(self, process: "Process", vaddr: int) -> None:
        walk = process.address_space.page_table.walk(vaddr)
        if walk is not None and walk.pte.fused:
            self.handle_fused_write(process, vaddr, walk)

    def shard_exportable_pfns(self) -> list[int]:
        # The pinned shared zero frame, once anyone maps it.  Every
        # shard advertises the same digest, so the exchange elects
        # shard 0's zero frame as the fabric-wide canonical holder.
        if self._zero_frame is None or not self._zero_mappers:
            return []
        return [self._zero_frame]

    def sharing_pairs(self) -> tuple[int, int]:
        return (1, self._zero_mappers) if self._zero_mappers else (0, 0)

    def saved_frames(self) -> int:
        return max(0, self._zero_mappers - 1) if self._zero_mappers else 0
