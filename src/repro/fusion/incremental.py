"""Incremental scan replay on top of the fingerprint subsystem.

The fingerprint cache (:mod:`repro.mem.fingerprint`) answers "is this
frame's digest still valid?".  This module answers the follow-up that
actually makes scans fast: "is this *scan step* going to do exactly
what it did last round?" — and if so, replays its recorded clock
charge and side effects instead of re-executing the Python.

Two cache shapes are provided:

:class:`IncrementalScanCache`
    Per-page memos for cursor-driven engines (KSM, VUsion, Memory
    Combining).  Each scanned page commits an *outcome*:

    * ``PURE`` — the page was skipped without reading its content
      (unmapped, already fused, reserved, huge non-base).  Replay is
      gated only on the owner's page-table version: every transition
      out of a skip state goes through map/unmap and bumps it.
    * ``NOOP`` / ``INSERT`` — the page was checksummed and searched
      (and, for ``INSERT``, added to the engine's per-round unstable
      tree).  The recorded charge embeds tree-comparison costs, which
      depend on every *earlier* page of the round, so charged replay
      is additionally gated on: the engine epoch (stable-tree
      content), the kernel's scan topology token, the frame's
      fingerprint generation, and a per-round *taint* flag.
    * ``OPAQUE`` (``None``) — the step mutated engine or kernel state
      (merge, promote, volatile checksum update, working-set probe).
      Never memoized; taints the rest of the round.

    The taint protocol keeps charged replay sound: a round replays
    only while its page-by-page history is byte-for-byte the history
    the memos were recorded against.  Any deviation — an opaque step,
    an insert appearing or disappearing, a digest change — forces the
    remainder of the round through the real scan path, which commits
    fresh memos; the *next* round then replays end to end.

    Replayed ``INSERT`` refs are not pushed into the red-black tree
    eagerly.  They accumulate in a pending list and the tree is only
    *materialized* (quiet, uncharged inserts in recorded order)
    immediately before a real scan needs to search it — in the steady
    state of an idle machine no tree is built at all.

:class:`IncrementalPassCache`
    Whole-pass memos for batch engines (WPF).  A pass that changes
    nothing observable — same topology token and global mutation
    epoch before and after — records its total clock charge; the next
    pass replays it with two integer comparisons.

Both caches are inert when ``MachineSpec.fingerprint_enabled`` is
off: every query returns "no replay" and engines run their original
code paths.  Replay never changes simulated time or simulated
behaviour; only the Python-level work is elided
(tests/test_fingerprint_determinism.py holds both runs byte-equal).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

#: Outcome kinds committed by engines (``OPAQUE`` is plain ``None``).
PURE = "pure"
NOOP = "noop"
INSERT = "insert"


class PageMemo:
    """Everything needed to replay one page's scan step."""

    __slots__ = ("kind", "ptv", "pfn", "gen", "digest", "charge", "ref", "epoch", "token")

    def __init__(self, kind, ptv, pfn, gen, digest, charge, ref, epoch, token) -> None:
        self.kind = kind
        #: Owner page-table version at record time.
        self.ptv = ptv
        self.pfn = pfn
        #: Fingerprint generation of ``pfn`` at record time.
        self.gen = gen
        self.digest = digest
        #: Simulated nanoseconds the step charged beyond ``scan_page``.
        self.charge = charge
        #: The UnstableRef inserted by an ``INSERT`` step, else None.
        self.ref = ref
        self.epoch = epoch
        self.token = token


class IncrementalScanCache:
    """Per-page scan memos for one cursor-driven fusion engine."""

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        charged: bool = False,
        insert: Callable | None = None,
    ) -> None:
        self.kernel = kernel.handle
        # Bound once: replay consults them for every scanned page.
        self._physmem = kernel.physmem
        self._clock = kernel.clock
        self.name = name
        self.enabled = kernel.physmem.fingerprints.enabled
        #: Whether this engine commits charged (NOOP/INSERT) memos;
        #: pure-skip-only engines (VUsion, Memory Combining) skip the
        #: taint/token machinery entirely.
        self.charged = charged
        self._insert = insert
        #: True while replayed refs are being inserted into the tree;
        #: the engine's on_compare closure checks it to suppress
        #: charges that were already replayed from the memo.
        self.quiet = False
        self._memo: dict[tuple[int, int], PageMemo] = {}
        self._pending: list = []
        self._materialized = False
        self._tainted = False
        self.epoch = 0
        self._token: tuple[int, int, int] | None = None
        self._dirty = (
            kernel.physmem.register_dirty_view(name)
            if charged and self.enabled
            else None
        )
        self.replayed_pure = 0
        self.replayed_charged = 0
        self.real_scans = 0
        self.tainted_rounds = 0

    # ------------------------------------------------------------------
    # Tick / round lifecycle
    # ------------------------------------------------------------------
    def begin_tick(self) -> None:
        """Refresh the topology token and audit frames dirtied since
        the last tick.  A mutated *stable* (fusion-pinned) frame is the
        one hazard per-memo generation gates cannot see — its content
        feeds every stable-tree comparison — so it bumps the engine
        epoch, lazily invalidating all charged memos."""
        if not self.enabled or not self.charged:
            return
        self._token = self.kernel.scan_topology_token()
        dirty = self._dirty.drain()
        # Dirty-set intersection with the fusion-pinned frames, via
        # the scan kernel (C-level set disjointness on the batch
        # kernel instead of a per-frame Python probe loop).
        if dirty and self._physmem.scan_kernel.any_fused(dirty):
            self.epoch += 1

    def begin_round(self) -> None:
        """A full scan completed and the unstable tree was reset."""
        if not self.enabled:
            return
        if self._tainted:
            self.tainted_rounds += 1
        self._tainted = False
        self._pending.clear()
        self._materialized = False

    def bump_epoch(self) -> None:
        """Stable-tree content changed: drop all charged memos (lazily)."""
        self.epoch += 1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def try_replay(self, process: "Process", vaddr: int) -> bool:
        """Replay the memo for ``(process, vaddr)`` if provably valid.

        Returns True when the step's recorded charge (and insert, if
        any) has been applied and the engine must skip the real scan.
        """
        if not self.enabled:
            return False
        memo = self._memo.get((process.pid, vaddr))
        if memo is None:
            return False
        if memo.kind is PURE:
            if process.address_space.page_table.version != memo.ptv:
                return False
            self.replayed_pure += 1
            return True
        if (
            self._tainted
            or memo.epoch != self.epoch
            or memo.token != self._token
            or process.address_space.page_table.version != memo.ptv
            or self._physmem.generation(memo.pfn) != memo.gen
        ):
            return False
        if memo.charge:
            self._clock.advance(memo.charge)
        if memo.ref is not None:
            if self._materialized:
                self._insert_quiet(memo.ref)
            else:
                self._pending.append(memo.ref)
        self.replayed_charged += 1
        return True

    def materialize(self) -> None:
        """Build the unstable tree the replayed prefix implies.

        Called by the engine immediately before any real scan; from
        then until the round wraps, replayed inserts go straight into
        the live tree (still quiet — their compares were charged as
        part of the recorded memo).
        """
        if not self.enabled or self._materialized:
            return
        self._materialized = True
        if self._pending:
            self.quiet = True
            try:
                insert = self._insert
                for ref in self._pending:
                    insert(ref)
            finally:
                self.quiet = False
            self._pending.clear()

    def _insert_quiet(self, ref) -> None:
        self.quiet = True
        try:
            self._insert(ref)
        finally:
            self.quiet = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def commit(self, process: "Process", vaddr: int, outcome, charge: int) -> None:
        """Record the outcome of a real scan step.

        ``outcome`` is ``None`` (opaque), ``(PURE,)``,
        ``(NOOP, pfn, digest)`` or ``(INSERT, pfn, digest, ref)``;
        ``charge`` is the simulated time the step consumed.  Any
        mismatch against the page's previous memo means the round's
        insert sequence diverged from the one later memos were
        recorded against, so the round is tainted and the rest of it
        re-scans (committing fresh, mutually consistent memos).
        """
        if not self.enabled:
            return
        self.real_scans += 1
        key = (process.pid, vaddr)
        prior = self._memo.get(key)
        if outcome is None:
            self._tainted = True
            if prior is not None:
                del self._memo[key]
            return
        kind = outcome[0]
        ptv = process.address_space.page_table.version
        if kind is PURE:
            if prior is not None and prior.kind is INSERT:
                self._tainted = True
            self._memo[key] = PageMemo(PURE, ptv, -1, -1, 0, 0, None, 0, None)
            return
        pfn = outcome[1]
        digest = outcome[2]
        if kind is INSERT:
            ref = outcome[3]
            if prior is None or prior.kind is not INSERT or prior.digest != digest:
                self._tainted = True
        else:
            ref = None
            if prior is not None and prior.kind is INSERT:
                self._tainted = True
        self._memo[key] = PageMemo(
            kind,
            ptv,
            pfn,
            self._physmem.generation(pfn),
            digest,
            charge,
            ref,
            self.epoch,
            self._token,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict[str, int]:
        return {
            "enabled": int(self.enabled),
            "memos": len(self._memo),
            "replayed_pure": self.replayed_pure,
            "replayed_charged": self.replayed_charged,
            "real_scans": self.real_scans,
            "tainted_rounds": self.tainted_rounds,
        }


class IncrementalPassCache:
    """Whole-pass memo for batch engines (WPF's 15-minute pass).

    A pass is *pure* when the scan topology token and the global frame
    mutation epoch are identical before and after: no page changed, no
    mapping changed, so the pass read everything and wrote nothing.
    The next pass under the same token/epoch necessarily repeats the
    identical work and is replayed as a single clock charge.
    """

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel.handle
        self.name = name
        self.enabled = kernel.physmem.fingerprints.enabled
        self._memo: tuple | None = None
        self.replays = 0
        self.real_passes = 0

    def try_replay(self) -> tuple[int, int] | None:
        """Return ``(charge, pages)`` to replay, or None to run live."""
        if not self.enabled or self._memo is None:
            return None
        token, epoch, charge, pages = self._memo
        if (
            self.kernel.scan_topology_token() != token
            or self.kernel.physmem.mutation_epoch != epoch
        ):
            self._memo = None
            return None
        self.replays += 1
        return (charge, pages)

    def begin_record(self) -> tuple:
        self.real_passes += 1
        return (
            self.kernel.scan_topology_token(),
            self.kernel.physmem.mutation_epoch,
            self.kernel.clock.now,
        )

    def commit(self, rec: tuple, pages: int) -> None:
        if not self.enabled:
            return
        token, epoch, start = rec
        if (
            self.kernel.scan_topology_token() == token
            and self.kernel.physmem.mutation_epoch == epoch
        ):
            self._memo = (token, epoch, self.kernel.clock.now - start, pages)
        else:
            self._memo = None

    def stats_dict(self) -> dict[str, int]:
        return {
            "enabled": int(self.enabled),
            "memos": int(self._memo is not None),
            "replayed_passes": self.replays,
            "real_passes": self.real_passes,
        }
