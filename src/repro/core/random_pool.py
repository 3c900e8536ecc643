"""VUsion's randomized frame pool (the RA principle, §7.1).

The paper reserves 128 MiB of physical memory as a cache, adding 15
bits of entropy to every allocation VUsion performs during merging and
unmerging: a freed frame lands in the pool and is handed out again
only with probability ~2^-15 per allocation, so an attacker cannot
steer which physical frame backs a fused page.

Frames in the pool are typed ``FREE`` (they are reserved capacity, not
data), are drawn uniformly at random on allocation, and the pool is
continuously topped up from the buddy allocator.  Overflow (more frees
than capacity) spills the *oldest* pooled frames back to the buddy —
further delaying any reuse.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.annotations import escapes_frame
from repro.errors import OutOfMemoryError
from repro.mem.physmem import FrameType

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class RandomFramePool:
    """Uniform-random frame allocator backed by a reserve cache."""

    def __init__(self, kernel: "Kernel", capacity: int, seed: int) -> None:
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        self.kernel = kernel.handle
        self.requested_capacity = capacity
        # On scaled-down simulated machines the paper's full 128 MiB
        # reserve could swallow most of RAM; cap the pool at a quarter
        # of the currently-free frames so workloads can still run.
        self.capacity = max(1, min(capacity, kernel.buddy.free_frames() // 4))
        self._rng = random.Random(seed)
        self._frames: list[int] = []
        self.allocs = 0
        self.frees = 0
        #: When enabled, records the normalized rank (sorted position /
        #: pool size) of each chosen frame — the observable the RA
        #: uniformity experiment KS-tests against Uniform[0, 1).
        self.log_ranks = False
        self.rank_log: list[float] = []
        self.rank_log_limit = 5000
        self._refill()

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._frames

    def _refill(self) -> None:
        buddy = self.kernel.buddy
        sanitizer = self.kernel.sanitizer
        physmem = self.kernel.physmem
        while len(self._frames) < self.capacity:
            try:
                pfn = buddy.alloc()
            except OutOfMemoryError:
                break
            physmem.set_frame_type(pfn, FrameType.FREE)
            if sanitizer is not None:
                # Reserve capacity holds no data: poison it so a stray
                # read/write of a pooled frame faults as use-after-free.
                sanitizer.on_reserve(pfn, "pool")
            self._frames.append(pfn)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @escapes_frame
    def alloc(self, frame_type: FrameType = FrameType.ANON) -> int:
        """Draw one frame uniformly at random from the pool."""
        if not self._frames:
            self._refill()
        if not self._frames:
            raise OutOfMemoryError("random pool exhausted and buddy empty")
        index = self._rng.randrange(len(self._frames))
        self._frames[index], self._frames[-1] = self._frames[-1], self._frames[index]
        pfn = self._frames.pop()
        if self.log_ranks and len(self.rank_log) < self.rank_log_limit:
            rank = sum(1 for frame in self._frames if frame < pfn)
            self.rank_log.append(rank / max(1, len(self._frames)))
        if self.kernel.sanitizer is not None:
            self.kernel.sanitizer.on_alloc(pfn, 1, "pool")
        self.kernel.physmem.set_frame_type(pfn, frame_type)
        self.kernel.clock.advance(self.kernel.costs.pool_alloc)
        self.allocs += 1
        self._refill()
        return pfn

    def free(self, pfn: int) -> None:
        """Return a frame to the pool (spilling the oldest on overflow)."""
        sanitizer = self.kernel.sanitizer
        if sanitizer is not None:
            sanitizer.on_free(pfn, 1, "pool")
        self.kernel.physmem.set_frame_type(pfn, FrameType.FREE)
        self._frames.append(pfn)
        self.frees += 1
        while len(self._frames) > self.capacity:
            spilled = self._frames.pop(0)
            if sanitizer is not None:
                # Pool -> buddy is a free-to-free transfer; clear our
                # poison so the buddy-free hook re-poisons it cleanly.
                sanitizer.on_release(spilled, "pool")
            self.kernel.buddy.free(spilled)

    def drain(self) -> int:
        """Return every pooled frame to the buddy (teardown); count them."""
        sanitizer = self.kernel.sanitizer
        buddy = self.kernel.buddy
        count = len(self._frames)
        for pfn in self._frames:
            if sanitizer is not None:
                sanitizer.on_release(pfn, "pool")
            buddy.free(pfn)
        self._frames.clear()
        return count
