"""VUsion's deferred free queue (design decision (ii), §7.1).

Freeing a frame inside the copy-on-access fault handler would make
fake-merged pages (whose reference count drops to zero) measurably
slower to unmerge than really-merged pages (whose shared frame
survives).  VUsion therefore *queues* frees and lets a background
daemon drain them; the fault path always enqueues exactly one request
— a real free, a dummy, or a node-reclaim check — so both paths
execute the same instructions.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.random_pool import RandomFramePool
    from repro.kernel.kernel import Kernel


class DeferredFreeQueue:
    """Background free queue draining into the random pool."""

    def __init__(
        self,
        kernel: "Kernel",
        pool: "RandomFramePool",
        period: int,
    ) -> None:
        self.kernel = kernel.handle
        self.pool = pool
        self._queue: deque[tuple[str, object]] = deque()
        self.drained = 0
        self.dummies = 0
        kernel.register_daemon("vusion-free", period, self.drain)

    def __len__(self) -> int:
        return len(self._queue)

    def _enqueue(self, kind: str, payload: object) -> None:
        self._queue.append((kind, payload))
        self.kernel.clock.advance(self.kernel.costs.deferred_free_enqueue)

    def queue_free(self, pfn: int) -> None:
        """Queue a real frame free."""
        self._enqueue("free", pfn)

    def queue_dummy(self) -> None:
        """Queue a no-op with identical enqueue cost (the dummy request)."""
        self._enqueue("dummy", None)

    def queue_reclaim(self, callback: Callable[[], None]) -> None:
        """Queue a stable-node reclaim check, run at drain time."""
        self._enqueue("reclaim", callback)

    def pending_frees(self) -> frozenset[int]:
        """Frames queued for freeing but not yet drained."""
        return frozenset(
            payload for kind, payload in self._queue if kind == "free"
        )

    def drain(self) -> None:
        """Process all queued requests (daemon context)."""
        clock = self.kernel.clock
        buddy_free = self.kernel.costs.buddy_free
        while self._queue:
            kind, payload = self._queue.popleft()
            if kind == "free":
                self.pool.free(payload)
                clock.advance(buddy_free)
                self.drained += 1
            elif kind == "reclaim":
                payload()
            else:
                self.dummies += 1
