"""A simulated process (or, in cloud scenarios, a whole guest VM).

Processes own an address space, a TLB and a guest file store, and issue
all memory operations through the kernel so that faults, fusion hooks
and timing are applied uniformly.  Attacker processes get no extra
powers: they see virtual addresses, page contents and the clock —
nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.kernel.access import AccessKind, AccessResult
from repro.kernel.page_cache import GuestFileStore
from repro.mem.content import PageContent
from repro.mmu.address_space import AddressSpace, Vma
from repro.mmu.tlb import Tlb
from repro.params import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class Process:
    """One address space plus the operations a workload can perform."""

    def __init__(self, pid: int, name: str, kernel: "Kernel") -> None:
        self.pid = pid
        self.name = name
        #: The kernel's weak handle: the kernel owns its processes, so a
        #: process alone does not keep its machine alive.
        self.kernel = kernel.handle
        self.address_space = AddressSpace()
        self.tlb = Tlb(kernel.spec.tlb)
        self.file_store = GuestFileStore()
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, name={self.name!r})"

    # ------------------------------------------------------------------
    # Address-space management
    # ------------------------------------------------------------------
    def mmap(
        self,
        num_pages: int,
        name: str = "anon",
        mergeable: bool = False,
        file_key: str | None = None,
        thp_allowed: bool = True,
    ) -> Vma:
        """Map a new VMA (demand paged; nothing is populated yet)."""
        return self.address_space.mmap(
            num_pages,
            name=name,
            mergeable=mergeable,
            file_key=file_key,
            thp_allowed=thp_allowed,
        )

    def munmap(self, vma: Vma) -> None:
        """Release a VMA and every frame it still maps."""
        self.kernel.munmap(self, vma)

    def madvise_mergeable(self, vma: Vma, mergeable: bool = True) -> int:
        """Opt a VMA in or out of page fusion.

        ``MADV_MERGEABLE`` registers the region for scanning;
        ``MADV_UNMERGEABLE`` (``mergeable=False``) additionally breaks
        every existing merge in the region, exactly as Linux's KSM
        does.  Returns the number of pages unmerged (0 on opt-in).
        """
        self.address_space.madvise_mergeable(vma, mergeable)
        if not mergeable and self.kernel.fusion is not None:
            return self.kernel.fusion.unmerge_range(self, vma)
        return 0

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------
    def read(self, vaddr: int) -> AccessResult:
        """Load from ``vaddr`` (page granularity)."""
        return self.kernel.access(self, vaddr, AccessKind.READ)

    def write(self, vaddr: int, content: PageContent) -> AccessResult:
        """Store ``content`` into the page at ``vaddr``."""
        return self.kernel.access(self, vaddr, AccessKind.WRITE, new_content=content)

    def rewrite(self, vaddr: int) -> AccessResult:
        """Store the page's current value back (a write that does not
        change content — what an attacker does when timing writes)."""
        return self.kernel.access(self, vaddr, AccessKind.WRITE)

    def fetch(self, vaddr: int) -> AccessResult:
        """Instruction fetch / prefetch of the page at ``vaddr``."""
        return self.kernel.access(self, vaddr, AccessKind.FETCH)

    def time_read(self, vaddr: int) -> int:
        return self.read(vaddr).latency

    def time_write(self, vaddr: int) -> int:
        return self.rewrite(vaddr).latency

    def time_fetch(self, vaddr: int) -> int:
        return self.fetch(vaddr).latency

    def hammer(self, vaddr_a: int, vaddr_b: int, rounds: int = 1):
        """Rowhammer using the pages at two virtual addresses as aggressors."""
        return self.kernel.hammer(self, vaddr_a, vaddr_b, rounds=rounds)

    def clflush(self, vaddr: int) -> AccessResult:
        """Flush the page at ``vaddr`` from the LLC (needs read access)."""
        return self.kernel.clflush(self, vaddr)

    def prefetch(self, vaddr: int) -> AccessResult:
        """x86 ``prefetch``: non-faulting, permission-ignoring cache load."""
        return self.kernel.prefetch(self, vaddr)

    # ------------------------------------------------------------------
    # Bulk helpers for workloads
    # ------------------------------------------------------------------
    def populate(self, vma: Vma, contents: Iterable[PageContent]) -> int:
        """Write ``contents`` into consecutive pages of ``vma``.

        Returns the number of pages written.  Shorter iterables leave
        the tail of the VMA untouched (still demand-zero).
        """
        count = 0
        for index, content in enumerate(contents):
            vaddr = vma.start + index * PAGE_SIZE
            if vaddr >= vma.end:
                raise ValueError(f"populate overflows VMA {vma.name!r}")
            self.write(vaddr, content)
            count += 1
        return count

    def touch_pages(self, vma: Vma, indices: Iterable[int]) -> None:
        """Read the given page indices of a VMA (working-set traffic)."""
        for index in indices:
            self.read(vma.start + index * PAGE_SIZE)

    def read_page(self, vma: Vma, index: int) -> PageContent:
        return self.read(vma.start + index * PAGE_SIZE).content

    def write_page(self, vma: Vma, index: int, content: PageContent) -> AccessResult:
        return self.write(vma.start + index * PAGE_SIZE, content)
