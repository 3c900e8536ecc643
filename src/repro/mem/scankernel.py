"""Batch scan primitives over the frame store's content column.

Fusion engines spend their scan passes asking the same few questions
about many frames at once: "which of these are zero?", "which hold
equal content?", "which changed since I last looked?".  This module
answers them as batch primitives over the frame store's columns:

* **zero-page sweep** — :meth:`BatchScanKernel.zero_frames` /
  :meth:`BatchScanKernel.is_zero_frame`: a frame is zero iff its content id
  is :data:`~repro.mem.arena.ZERO_ID` (canonical contents strip
  trailing zero bytes, so the zero page is the empty payload);
* **duplicate-cid candidate grouping** —
  :meth:`BatchScanKernel.group_by_content`: partition a candidate batch by
  content identity, preserving first-encounter order exactly like the
  per-frame ``merge_key`` loop it replaces;
* **dirty-set intersection** — :meth:`BatchScanKernel.dirty_intersection` /
  :meth:`BatchScanKernel.any_fused`: intersect a drained dirty view with a
  candidate list or the fusion-pinned set;
* **generation-delta filtering** —
  :meth:`BatchScanKernel.generation_snapshot` /
  :meth:`BatchScanKernel.changed_since`: keep only the frames whose
  mutation generation advanced past a snapshot;
* **digest sweep** — :meth:`BatchScanKernel.digest_sweep`: the batch
  fingerprint lookup behind ``PhysicalMemory.digests_many``;
* **refcount reduction** — :meth:`BatchScanKernel.refcount_sum`: the
  sharing-pair accounting sum behind every engine's ``saved_frames``.

:class:`BatchScanKernel` is the kernel every ``PhysicalMemory``
builds: plain Python loops, the content-reading ones over the
``array("q")`` content-id column instead of a checked accessor call
per frame.  Engines scan a few pages every few milliseconds, so the
kernel is a sliver of any run's host time (about 0.1% of a traced
fleet round); a NumPy-vectorized variant did not pay for its import.

While a FrameSan sanitizer is attached, the content-reading primitives
(``is_zero_frame``, ``zero_frames``, ``group_by_content``) go through
``merge_key`` per frame instead, so ``on_read`` hooks fire in the
same order as a per-frame ``read`` loop fires them.  Pure-accounting
primitives (generations, digests, refcounts) never fire sanitizer
hooks.

The test suites hold a per-frame reference kernel
(``tests/scan_oracle.py``) as the oracle: simulated clocks, ledgers,
artifacts and sanitizer audits must be byte-identical under either.
``tests/test_scan_kernel_differential.py`` runs all five fusion
engines in lockstep under both kernels to prove it,
``tests/test_scan_kernel_props.py`` checks both against independent
models, and the mutation meta-test plants boundary bugs in this file
and checks the suites catch each one.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.mem.arena import ZERO_ID

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.physmem import PhysicalMemory


class BatchScanKernel:
    """Batch scan primitives over one machine's frame columns.

    ``pfn_batch``, ``zero_frames``, ``dirty_intersection``,
    ``generation_snapshot`` and ``changed_since`` have no caller in the
    simulator.  The benchmark's layer trace (``bench/layers.py``) wraps
    all ten primitives by name in this class body, so they stay until
    it stops doing so.
    """

    def __init__(self, physmem: "PhysicalMemory") -> None:
        # ``physmem`` owns this kernel (``physmem.scan_kernel``).
        self.physmem = weakref.proxy(physmem)
        # The column is allocated once per machine and never resized,
        # so the reference stays valid for the machine's lifetime.
        self._cids = physmem._cids

    def pfn_batch(self, pfns: Sequence[int]) -> Sequence[int]:
        """A reusable batch handle for ``pfns``: a plain list, so
        several primitives over one frame set convert it only once."""
        return pfns if isinstance(pfns, list) else list(pfns)

    def _cids_of(self, pfns: Iterable[int]) -> list[int]:
        """Content ids of ``pfns`` in order, with no sanitizer hook.

        An out-of-range pfn raises :class:`~repro.errors.InvalidFrameError`
        (never a bare ``IndexError`` from the column) before any
        primitive acts on the batch.
        """
        cids = self._cids
        num_frames = self.physmem.num_frames
        check = self.physmem.check_pfn
        out: list[int] = []
        for pfn in pfns:
            if not 0 <= pfn < num_frames:
                check(pfn)
            out.append(cids[pfn])
        return out

    # ------------------------------------------------------------------
    # Zero-page sweep
    # ------------------------------------------------------------------
    def is_zero_frame(self, pfn: int) -> bool:
        """Whether frame ``pfn`` holds the (canonical) zero page.

        Counts as a content read for the sanitizer, exactly like the
        ``is_zero(read(pfn))`` probe it replaces in engine scan loops:
        ``merge_key`` fires ``on_read`` only while one is attached.
        """
        return self.physmem.merge_key(pfn) == ZERO_ID

    def zero_frames(self, pfns: Sequence[int]) -> list[int]:
        """The subset of ``pfns`` holding the zero page, order kept."""
        physmem = self.physmem
        if physmem.sanitizer is not None:
            merge_key = physmem.merge_key
            return [pfn for pfn in pfns if merge_key(pfn) == ZERO_ID]
        return [pfn for pfn, cid in zip(pfns, self._cids_of(pfns))
                if cid == ZERO_ID]

    # ------------------------------------------------------------------
    # Duplicate-content candidate grouping
    # ------------------------------------------------------------------
    def group_by_content(self, pfns: Sequence[int]) -> dict[object, list[int]]:
        """Partition ``pfns`` (as indices) by content identity.

        Returns ``{merge_key: [index, ...]}`` where indices point into
        ``pfns``; groups appear in first-encounter order and indices
        ascend within each group — the exact partition (and order) of
        the classic ``candidates.setdefault(merge_key(pfn), ...)``
        scan loop, so engines can bucket candidates through one call.
        """
        physmem = self.physmem
        if physmem.sanitizer is not None:
            # Every frame is a content read under FrameSan.
            merge_key = physmem.merge_key
            keys = [merge_key(pfn) for pfn in pfns]
        else:
            keys = self._cids_of(pfns)
        groups: dict[object, list[int]] = {}
        for index, key in enumerate(keys):
            members = groups.get(key)
            if members is None:
                groups[key] = [index]
            else:
                members.append(index)
        return groups

    # ------------------------------------------------------------------
    # Dirty-set intersection
    # ------------------------------------------------------------------
    def dirty_intersection(
        self, pfns: Sequence[int], dirty: Iterable[int]
    ) -> list[int]:
        """The subset of ``pfns`` present in ``dirty``, order kept."""
        members = dirty if isinstance(dirty, (set, frozenset)) else set(dirty)
        return [pfn for pfn in pfns if pfn in members]

    def any_fused(self, pfns: Iterable[int]) -> bool:
        """Whether any frame in ``pfns`` is fusion-pinned.

        The dirty-audit primitive: engines intersect a drained dirty
        view with the pinned set to detect stable-tree content
        mutations (the one hazard per-memo generation gates miss).
        Set disjointness runs in C against ``PhysicalMemory``'s own
        pinned index, so this stays exact.
        """
        return not self.physmem._fusion_pinned.isdisjoint(pfns)

    # ------------------------------------------------------------------
    # Generation-delta filtering
    # ------------------------------------------------------------------
    def generation_snapshot(self, pfns: Sequence[int]) -> list[int]:
        """Current mutation generations of ``pfns``, in order."""
        generation = self.physmem.generation
        return [generation(pfn) for pfn in pfns]

    def changed_since(
        self, pfns: Sequence[int], snapshot: Sequence[int]
    ) -> list[int]:
        """Frames whose generation differs from a prior snapshot.

        ``snapshot`` must be parallel to ``pfns`` (one recorded
        generation per frame, e.g. from :meth:`generation_snapshot`).
        """
        if len(pfns) != len(snapshot):
            raise ValueError(
                f"snapshot length {len(snapshot)} != pfns length {len(pfns)}"
            )
        generation = self.physmem.generation
        return [
            pfn
            for pfn, recorded in zip(pfns, snapshot)
            if generation(pfn) != recorded
        ]

    # ------------------------------------------------------------------
    # Digest sweep
    # ------------------------------------------------------------------
    def digest_sweep(self, pfns: Sequence[int]) -> list[int]:
        """Digests for many frames in one pass.

        Behaviourally ``[physmem.digest(pfn) for pfn in pfns]``;
        duplicate content ids in the batch collapse to a single cache
        probe each, with hit/miss stats matching the per-frame path
        exactly.
        """
        physmem = self.physmem
        fingerprints = physmem.fingerprints
        if not fingerprints.enabled:
            return [physmem.digest(pfn) for pfn in pfns]
        arena = physmem.arena
        by_cid: dict[int, int] = {}
        out: list[int] = []
        misses = 0
        for cid in self._cids_of(pfns):
            value = by_cid.get(cid)
            if value is None:
                # One arena probe per unique content: a digest never
                # cached counts as one miss, every other occurrence as
                # a hit, as the per-frame path counts them.
                value = arena.peek_digest(cid)
                if value is None:
                    misses += 1
                    value = arena.digest(cid)
                by_cid[cid] = value
            out.append(value)
        stats = fingerprints.stats
        stats.digest_hits += len(out) - misses
        stats.digest_misses += misses
        return out

    # ------------------------------------------------------------------
    # Refcount reduction
    # ------------------------------------------------------------------
    def refcount_sum(self, pfns: Iterable[int]) -> int:
        """Sum of the reference counts of ``pfns``.

        The sharing-pair accounting reduction: engines report
        ``pages_sharing`` as ``refcount_sum(stable_pfns) - len(...)``,
        and fleet monitors call that per sample.
        """
        refcount = self.physmem.refcount
        return sum(refcount(pfn) for pfn in pfns)
