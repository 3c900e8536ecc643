"""Reference scan kernel: the per-frame loops the batch kernel must match.

:class:`ScalarScanKernel` answers the scan-kernel questions one frame at
a time through the public :class:`~repro.mem.physmem.PhysicalMemory`
API.  It overrides only the primitives whose batch form differs —
reads of the content-id column, the C-level pinned-set disjointness
and the digest sweep's per-content probe.  The rest (generation and
refcount reads through the public accessors, the dirty-set filter,
``pfn_batch``) are shared.  The batch kernel must be indistinguishable
from this class through any observable (results, stats accounting,
raised errors, sanitizer hook sequences).
"""

from __future__ import annotations

from repro.mem.content import is_zero
from repro.mem.scankernel import BatchScanKernel


class ScalarScanKernel(BatchScanKernel):
    """Per-frame loops over the public ``PhysicalMemory`` API."""

    def is_zero_frame(self, pfn: int) -> bool:
        return is_zero(self.physmem.read(pfn))

    def zero_frames(self, pfns) -> list[int]:
        read = self.physmem.read
        return [pfn for pfn in pfns if is_zero(read(pfn))]

    def group_by_content(self, pfns) -> dict[object, list[int]]:
        merge_key = self.physmem.merge_key
        groups: dict[object, list[int]] = {}
        for index, pfn in enumerate(pfns):
            groups.setdefault(merge_key(pfn), []).append(index)
        return groups

    def any_fused(self, pfns) -> bool:
        is_fused = self.physmem.is_fused
        return any(is_fused(pfn) for pfn in pfns)

    def digest_sweep(self, pfns) -> list[int]:
        digest = self.physmem.digest
        return [digest(pfn) for pfn in pfns]
