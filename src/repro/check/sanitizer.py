"""FrameSan: a runtime sanitizer for physical-frame lifecycle bugs.

Modelled on kernel sanitizers (KASAN's poison-on-free, SLUB debug's
sanity checks), scaled to the simulator's invariants:

* **Freed-frame poisoning + UAF detection** — every frame freed to the
  buddy allocator or VUsion's random pool is marked poisoned; any
  content read or write of a poisoned frame raises
  :class:`UseAfterFreeError` with the frame's recorded provenance.
  Poisoning is *shadow-state only* (the frame's bytes are untouched),
  so enabling the sanitizer cannot perturb simulation results — the
  same reason VUsion's share-before-use leaves page contents alone and
  flips only protection state.
* **Double-free / bad-free detection** — freeing a poisoned frame, a
  frame with a live refcount, live rmap entries, or a fusion pin
  raises :class:`DoubleFreeError` / :class:`BadFreeError`.
* **CoW-violation detection** — writing a frame with refcount > 1
  (shared by several mappings) without first unmerging/copying raises
  :class:`CowViolationError`.  ``corrupt_bit`` (Rowhammer) is exempt
  by design: flips bypassing CoW are the attack being studied.
* **End-of-run audit** — :meth:`FrameSan.audit` cross-checks refcounts
  against the rmap, flags leaked frames (allocated, unreachable,
  never freed) and verifies merge-charge accounting (every
  fusion-pinned frame carries exactly one pin reference; an engine's
  ``saved_frames()`` matches its ``sharing_pairs()`` ledger).

Activation: ``REPRO_SANITIZE=1`` in the environment (every ``Kernel``
then self-instruments), or explicitly via ``Kernel(sanitize=True)``.
The disabled cost is one attribute check per frame operation.

This module stays a runtime leaf (imported *by* ``repro.mem`` users
and ``repro.kernel``), so it may import only ``repro.errors``.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING

from repro.check.provenance import FrameProvenance
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fusion.base import FusionEngine
    from repro.mem.physmem import PhysicalMemory


def sanitizer_enabled(env: dict | None = None) -> bool:
    """True if ``REPRO_SANITIZE`` requests sanitizing (unset/0/off = no)."""
    value = (env if env is not None else os.environ).get("REPRO_SANITIZE", "")
    return str(value).strip().lower() not in ("", "0", "false", "off", "no")


class SanitizerError(ReproError):
    """Base class for FrameSan violations (structured, with provenance)."""

    def __init__(self, message: str, pfn: int | None = None,
                 provenance: str = "") -> None:
        self.pfn = pfn
        self.provenance = provenance
        self.diagnostic = f"[FrameSan:{type(self).__name__}] {message}"
        if provenance:
            self.diagnostic += f" | {provenance}"
        super().__init__(self.diagnostic)


class UseAfterFreeError(SanitizerError):
    """A freed (poisoned) frame's content was read or written."""


class DoubleFreeError(SanitizerError):
    """A frame already poisoned as free was freed again."""


class BadFreeError(SanitizerError):
    """A frame was freed while still referenced, mapped or pinned."""


class CowViolationError(SanitizerError):
    """A shared frame (refcount > 1) was written without unmerge/copy."""


class AccountingError(SanitizerError):
    """Refcount/rmap/merge-charge bookkeeping is inconsistent."""


class _ZeroClock:
    now = 0


class FrameSan:
    """The sanitizer: shadow poison state + lifecycle checks + audits.

    One instance per :class:`~repro.mem.physmem.PhysicalMemory`; the
    kernel attaches it to the frame store, the buddy allocator and
    (via ``kernel.sanitizer``) the random frame pool.
    """

    def __init__(self, physmem: "PhysicalMemory", clock=None,
                 zero_frame: int = 0, reserved_frames: int = 0) -> None:
        # ``physmem`` owns its sanitizer (``physmem.sanitizer``).
        self.physmem = weakref.proxy(physmem)
        self.clock = clock if clock is not None else _ZeroClock()
        self.zero_frame = zero_frame
        self.reserved_frames = reserved_frames
        self.provenance = FrameProvenance()
        #: pfn -> origin string of the poisoning free.
        self._poisoned: dict[int, str] = {}
        self.stats = {
            "allocs": 0, "frees": 0, "reserves": 0, "releases": 0,
            "reads_checked": 0, "writes_checked": 0, "audits": 0,
        }

    @classmethod
    def from_env(cls, physmem: "PhysicalMemory", clock=None,
                 zero_frame: int = 0, reserved_frames: int = 0,
                 force: bool | None = None) -> "FrameSan | None":
        """Build a sanitizer iff requested (``force`` overrides the env)."""
        enabled = sanitizer_enabled() if force is None else force
        if not enabled:
            return None
        return cls(physmem, clock=clock, zero_frame=zero_frame,
                   reserved_frames=reserved_frames)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_poisoned(self, pfn: int) -> bool:
        return pfn in self._poisoned

    def poisoned_count(self) -> int:
        return len(self._poisoned)

    # ------------------------------------------------------------------
    # Lifecycle hooks (buddy allocator, random pool)
    # ------------------------------------------------------------------
    def on_alloc(self, pfn: int, count: int = 1, origin: str = "buddy") -> None:
        """Frames handed out for use: clear poison, record provenance."""
        now = self.clock.now
        for frame in range(pfn, pfn + count):
            self._poisoned.pop(frame, None)
            self.provenance.record(frame, now, "alloc", origin)
        self.stats["allocs"] += count

    def on_free(self, pfn: int, count: int = 1, origin: str = "buddy") -> None:
        """Frames released: check the free is sane, then poison."""
        physmem = self.physmem
        now = self.clock.now
        for frame in range(pfn, pfn + count):
            if frame in self._poisoned:
                raise DoubleFreeError(
                    f"pfn {frame} freed to {origin} but already poisoned "
                    f"by a {self._poisoned[frame]} free",
                    pfn=frame, provenance=self.provenance.describe(frame),
                )
            refcount = physmem.refcount(frame)
            if refcount > 0:
                raise BadFreeError(
                    f"pfn {frame} freed to {origin} with live "
                    f"refcount {refcount}",
                    pfn=frame, provenance=self.provenance.describe(frame),
                )
            mappings = physmem.rmap(frame)
            if mappings:
                raise BadFreeError(
                    f"pfn {frame} freed to {origin} while still mapped "
                    f"by {sorted(mappings)}",
                    pfn=frame, provenance=self.provenance.describe(frame),
                )
            if physmem.is_fused(frame):
                raise BadFreeError(
                    f"pfn {frame} freed to {origin} while fusion-pinned",
                    pfn=frame, provenance=self.provenance.describe(frame),
                )
            self._poisoned[frame] = origin
            self.provenance.record(frame, now, "free", origin)
        self.stats["frees"] += count

    def on_reserve(self, pfn: int, origin: str = "pool") -> None:
        """A live frame became reserve capacity (random-pool refill):
        poison it without free-checks — it holds no data."""
        self._poisoned[pfn] = origin
        self.provenance.record(pfn, self.clock.now, "reserve", origin)
        self.stats["reserves"] += 1

    def on_release(self, pfn: int, origin: str = "pool") -> None:
        """Reserve capacity returned to the buddy (spill/drain): clear
        poison so the buddy-free hook re-poisons it cleanly."""
        self._poisoned.pop(pfn, None)
        self.provenance.record(pfn, self.clock.now, "release", origin)
        self.stats["releases"] += 1

    # ------------------------------------------------------------------
    # Content hooks (PhysicalMemory)
    # ------------------------------------------------------------------
    def on_read(self, pfn: int) -> None:
        self.stats["reads_checked"] += 1
        if pfn in self._poisoned:
            raise UseAfterFreeError(
                f"read of freed pfn {pfn} (poisoned by "
                f"{self._poisoned[pfn]} free)",
                pfn=pfn, provenance=self.provenance.describe(pfn),
            )

    def on_write(self, pfn: int) -> None:
        self.stats["writes_checked"] += 1
        if pfn in self._poisoned:
            raise UseAfterFreeError(
                f"write to freed pfn {pfn} (poisoned by "
                f"{self._poisoned[pfn]} free)",
                pfn=pfn, provenance=self.provenance.describe(pfn),
            )
        refcount = self.physmem.refcount(pfn)
        if refcount > 1:
            raise CowViolationError(
                f"write to shared pfn {pfn} (refcount {refcount}) without "
                "unmerge/copy-on-write",
                pfn=pfn, provenance=self.provenance.describe(pfn),
            )

    # ------------------------------------------------------------------
    # End-of-run audits
    # ------------------------------------------------------------------
    def audit(self, fusion: "FusionEngine | None" = None) -> list[str]:
        """Cross-check frame accounting; returns problem descriptions."""
        self.stats["audits"] += 1
        physmem = self.physmem
        problems: list[str] = []
        # Frames queued for deferred freeing (VUsion decision (ii)) are
        # unreferenced by design until the next daemon drain — in
        # flight, not leaked.
        in_flight = (
            frozenset(fusion.pending_frees()) if fusion is not None
            else frozenset()
        )
        for pfn in range(physmem.num_frames):
            # Compare FrameType by value so this module needs no
            # repro.mem import (it must stay a runtime leaf — LAY001).
            frame_type = physmem.frame_type(pfn)
            refcount = physmem.refcount(pfn)
            mappings = physmem.rmap(pfn)
            pinned = physmem.is_fused(pfn)
            if frame_type.value == "free":
                if refcount:
                    problems.append(
                        f"free pfn {pfn} has refcount {refcount}; "
                        + self.provenance.describe(pfn)
                    )
                if mappings:
                    problems.append(
                        f"free pfn {pfn} still mapped by {sorted(mappings)}; "
                        + self.provenance.describe(pfn)
                    )
                if pinned:
                    problems.append(
                        f"free pfn {pfn} still fusion-pinned; "
                        + self.provenance.describe(pfn)
                    )
                continue
            if pfn in self._poisoned:
                problems.append(
                    f"poisoned pfn {pfn} typed {frame_type.value} (freed "
                    "frame back in use without allocation); "
                    + self.provenance.describe(pfn)
                )
            if refcount < len(mappings):
                problems.append(
                    f"pfn {pfn} undercounted: refcount {refcount} < "
                    f"{len(mappings)} rmap entries; "
                    + self.provenance.describe(pfn)
                )
            if pinned and pfn != self.zero_frame:
                # Merge-charge invariant: a stable/fused node holds
                # exactly one pin reference on top of its mappings.
                if refcount != len(mappings) + 1:
                    problems.append(
                        f"fused pfn {pfn} breaks pin accounting: refcount "
                        f"{refcount} != {len(mappings)} mappings + 1 pin; "
                        + self.provenance.describe(pfn)
                    )
            if (
                refcount == 0
                and not mappings
                and not pinned
                and frame_type.value != "kernel"
                and pfn not in in_flight
            ):
                problems.append(
                    f"leaked pfn {pfn}: typed {frame_type.value} but "
                    "unreferenced and unmapped; "
                    + self.provenance.describe(pfn)
                )
        if fusion is not None:
            problems.extend(self.check_fusion_accounting(fusion))
        problems.extend(self.check_arena_accounting())
        return problems

    def check_arena_accounting(self) -> list[str]:
        """Cross-check the content arena against the frame column.

        Every live content id's refcount must equal the number of frames currently holding it
        (plus the arena's own permanent reference on the zero id), and
        no frame may point at a recycled slot — the arena-level
        equivalents of the refcount-vs-rmap checks above.
        """
        physmem = self.physmem
        arena = physmem.arena
        problems: list[str] = []
        held: dict[int, int] = {}
        for pfn in range(physmem.num_frames):
            cid = physmem.content_id(pfn)
            held[cid] = held.get(cid, 0) + 1
        for cid in sorted(held):
            expected = held[cid] + (1 if cid == arena.zero_id else 0)
            actual = arena.refcount(cid)
            if actual != expected:
                problems.append(
                    f"arena cid {cid}: refcount {actual} != {held[cid]} "
                    f"holding frame(s)"
                    + (" + 1 permanent zero ref" if cid == arena.zero_id else "")
                )
        live = set(arena.live_ids())
        expected_live = set(held) | {arena.zero_id}
        if live != expected_live:
            stray = sorted(live - expected_live)
            dead = sorted(expected_live - live)
            if stray:
                problems.append(
                    f"arena entries live with no holding frame: {stray}"
                )
            if dead:
                problems.append(
                    f"frames point at recycled arena slots: {dead}"
                )
        return problems

    def check_fusion_accounting(self, fusion: "FusionEngine") -> list[str]:
        """Cross-check an engine's merge-charge ledger against itself."""
        problems: list[str] = []
        saved = fusion.saved_frames()
        if saved < 0:
            problems.append(
                f"{fusion.name}: negative saved_frames() ({saved})"
            )
        pages_shared, pages_sharing = fusion.sharing_pairs()
        if pages_shared < 0 or pages_sharing < 0:
            problems.append(
                f"{fusion.name}: negative sharing pair "
                f"({pages_shared}, {pages_sharing})"
            )
        if (pages_shared, pages_sharing) != (0, 0):
            if pages_sharing < pages_shared:
                problems.append(
                    f"{fusion.name}: pages_sharing {pages_sharing} < "
                    f"pages_shared {pages_shared}"
                )
            if saved != pages_sharing - pages_shared:
                problems.append(
                    f"{fusion.name}: saved_frames() {saved} != "
                    f"pages_sharing - pages_shared "
                    f"({pages_sharing} - {pages_shared})"
                )
        return problems

    def assert_clean(self, fusion: "FusionEngine | None" = None) -> None:
        """Raise :class:`AccountingError` if the audit finds problems."""
        problems = self.audit(fusion)
        if problems:
            shown = "; ".join(problems[:5])
            if len(problems) > 5:
                shown += f"; ... ({len(problems) - 5} more)"
            raise AccountingError(
                f"frame audit found {len(problems)} problem(s): {shown}"
            )
