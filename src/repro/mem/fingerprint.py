"""Content fingerprints and change tracking for physical frames.

Every fusion engine repeatedly hashes page contents: KSM checksums each
candidate on each pass, WPF re-sorts its candidate list by digest.  At
simulation scale that blake2b work is the hottest loop in the whole
system.  This module serves one 64-bit digest per frame from the
:class:`~repro.mem.arena.ContentArena`, which caches one digest per
*unique content*.  Arena digests are content-addressed — a mutation
swaps the frame's content id rather than editing a payload — so they
can never go stale and need no invalidation at all, including after
Rowhammer's ``corrupt_bit`` (a stale digest would make a corrupted
frame merge as if it still held its old contents, silently breaking
the attacks the simulator exists to reproduce).

Two things must never change whether or not digests are cached:

* **Simulated time.**  Engines keep charging ``costs.checksum_page``
  (and every other cost) exactly as before; the cache only removes the
  *Python* work of recomputing the hash.  Fig. 5/6 latency
  distributions are byte-identical with the cache on or off.
* **Behaviour.**  ``digest(pfn)`` always equals
  ``content_digest(read(pfn))``; the differential hypothesis suites
  (``tests/test_fingerprint_differential.py`` and
  ``tests/test_store_differential.py``) check this under random
  interleavings of writes, bit flips, merges and unmerges.

With fingerprints *disabled* the hash is recomputed on every call —
the disabled configuration stays a true no-cache baseline (the
scan-throughput perf gate measures against it).

On top of the digests sit two cheap change detectors engines use to
skip *re-examining* unchanged pages:

* a per-frame **generation counter** bumped on every mutation (unlike
  :meth:`PhysicalMemory.version`, which deliberately ignores
  ``corrupt_bit`` to model one-way Rowhammer charge leakage), plus a
  global ``mutation_epoch``;
* **dirty-frame views**: consumers register a view and periodically
  drain the set of frames mutated since their last drain, giving the
  batch "only re-examine frames whose generation advanced" pattern.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mem.content import content_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.arena import ContentArena


@dataclass
class FingerprintStats:
    """Counters for the digest cache (diagnostic only, never artifacts)."""

    #: ``digest()`` answered from the cache.
    digest_hits: int = 0
    #: ``digest()`` had to run blake2b (also counted when disabled).
    digest_misses: int = 0
    #: Total frame mutations seen (writes, copies, bit corruptions).
    mutations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "digest_hits": self.digest_hits,
            "digest_misses": self.digest_misses,
            "mutations": self.mutations,
        }


class DirtyFrameView:
    """One consumer's view of the frames mutated since its last drain."""

    __slots__ = ("name", "_dirty")

    def __init__(self, name: str) -> None:
        self.name = name
        self._dirty: set[int] = set()

    def __len__(self) -> int:
        return len(self._dirty)

    def note(self, pfn: int) -> None:
        self._dirty.add(pfn)

    def peek(self) -> frozenset[int]:
        """Return the pending dirty set without clearing it."""
        return frozenset(self._dirty)

    def drain(self) -> frozenset[int]:
        """Return and clear the frames mutated since the last drain."""
        if not self._dirty:
            return frozenset()
        dirty = frozenset(self._dirty)
        self._dirty.clear()
        return dirty


class FingerprintCache:
    """Frame digests with generation-based change tracking.

    Owned by :class:`~repro.mem.physmem.PhysicalMemory`; all mutation
    paths funnel through :meth:`note_mutation`.  Digests are read
    through ``cids`` (the frame-to-content-id column) and stored in
    ``arena``.  Generations, the mutation epoch and dirty views are
    maintained even when caching is disabled — they are
    behaviour-neutral bookkeeping — so the ``fingerprint_enabled`` flag
    toggles only whether blake2b results are remembered.
    """

    def __init__(self, num_frames: int, arena: "ContentArena",
                 cids: "array[int]", enabled: bool = True) -> None:
        self.enabled = enabled
        self.stats = FingerprintStats()
        #: Bumped once per mutation of any frame.
        self.mutation_epoch = 0
        #: Per-frame generation counters in a compact fixed-size
        #: signed-64 column (never reallocated).
        self._generations = array("q", bytes(8 * num_frames))
        self._arena = arena
        self._cids = cids
        self._views: list[DirtyFrameView] = []

    # ------------------------------------------------------------------
    # Write barrier
    # ------------------------------------------------------------------
    def note_mutation(self, pfn: int) -> None:
        """Record that frame ``pfn``'s content changed (any cause)."""
        self._generations[pfn] += 1
        self.mutation_epoch += 1
        self.stats.mutations += 1
        for view in self._views:
            view.note(pfn)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def generation(self, pfn: int) -> int:
        return self._generations[pfn]

    def digest(self, pfn: int) -> int:
        """64-bit digest of the current content of ``pfn``."""
        arena = self._arena
        cid = self._cids[pfn]
        if not self.enabled:
            self.stats.digest_misses += 1
            return content_digest(arena.payload(cid))
        cached = arena.peek_digest(cid)
        if cached is not None:
            self.stats.digest_hits += 1
            return cached
        self.stats.digest_misses += 1
        return arena.digest(cid)

    def peek(self, pfn: int) -> int | None:
        """Return the cached digest of ``pfn`` without computing one."""
        return self._arena.peek_digest(self._cids[pfn])

    def cached_frames(self) -> frozenset[int]:
        """Frames whose digest would be served from cache right now."""
        peek_digest = self._arena.peek_digest
        return frozenset(
            pfn for pfn, cid in enumerate(self._cids)
            if peek_digest(cid) is not None
        )

    # ------------------------------------------------------------------
    # Dirty views
    # ------------------------------------------------------------------
    def register_view(self, name: str) -> DirtyFrameView:
        """Register a new dirty-frame view (initially empty)."""
        view = DirtyFrameView(name)
        self._views.append(view)
        return view
