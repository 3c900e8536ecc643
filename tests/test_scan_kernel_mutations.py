"""Mutation meta-test: the scan-kernel conformance probes are under test.

Each case plants one realistic boundary bug — a single edit — into the
real ``repro/mem/scankernel.py`` source, loads the mutant as a live
module, and asserts a probe built from the differential/property-suite
checks distinguishes it from the pristine kernel.  The dual is pinned
too: the pristine source, loaded through the identical machinery, must
produce exactly the live module's behaviour signature.  Together these
bound both false negatives (a seeded off-by-one the suites would miss)
and false positives (a probe that trips on correct code).

The probe state is deliberately adversarial: the zero page sits at
pfn 0 (catches ``pfn and ...`` truthiness slips), first-encounter
group order differs from ascending cid order (catches bucket-ordering
bugs), a probed content's digest has the top bit set (catches signed
64-bit truncation), and out-of-range pfns sit exactly at
``num_frames`` (catches ``<`` vs ``<=`` bounds slips).
"""

from __future__ import annotations

import pathlib
import types

import pytest

from repro.errors import InvalidFrameError
from repro.mem.content import ZERO_PAGE, content_digest, tagged_content
from repro.mem.physmem import PhysicalMemory

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANKERNEL = REPO_ROOT / "src" / "repro" / "mem" / "scankernel.py"

NUM_FRAMES = 12

#: A probed content whose 64-bit digest has the sign bit set, so a
#: mutant that narrows digests to signed 64-bit values must either
#: wrap or overflow.  The search is deterministic (blake2b of tagged pages).
HIGH_TAG = next(
    tag
    for tag in range(1, 64)
    if content_digest(tagged_content("mutprobe", tag)) >= 2**63
)
LOW_TAG = next(
    tag
    for tag in range(1, 64)
    if tag != HIGH_TAG
    and content_digest(tagged_content("mutprobe", tag)) < 2**63
)

#: Probe batch: zero frames (including pfn 0), duplicates, and a
#: first-encounter order (HIGH_TAG before LOW_TAG before zero) that
#: does NOT match ascending cid order (zero's cid is 0).
PROBE_PFNS = [4, 1, 7, 0, 2, 4, 11, 0]


def build_probe_machine() -> PhysicalMemory:
    physmem = PhysicalMemory(NUM_FRAMES)
    physmem.write(4, tagged_content("mutprobe", HIGH_TAG))
    physmem.write(1, tagged_content("mutprobe", LOW_TAG))
    physmem.write(7, tagged_content("mutprobe", HIGH_TAG))
    physmem.write(2, tagged_content("mutprobe", LOW_TAG))
    physmem.write(9, tagged_content("mutprobe", LOW_TAG))
    physmem.write(9, ZERO_PAGE)
    physmem.get_ref(4)
    physmem.get_ref(4)
    physmem.get_ref(1)
    physmem.pin_fused(5)
    return physmem


def expect_invalid(probe, *batch) -> str:
    """What a bounds probe raises — the *type* is part of the contract
    (``InvalidFrameError``, never a bare ``IndexError`` from a column)."""
    try:
        probe(*batch)
        return "no-error"
    except InvalidFrameError:
        return "invalid-frame"
    except Exception as exc:  # noqa: BLE001 - classified into the signature
        return type(exc).__name__


def kernel_signature(kernel, physmem: PhysicalMemory) -> tuple:
    """Everything the conformance suites observe, as one comparable value."""
    stats = physmem.fingerprints.stats
    hits_before, misses_before = stats.digest_hits, stats.digest_misses
    digests = kernel.digest_sweep(PROBE_PFNS)
    hits_delta = stats.digest_hits - hits_before
    misses_delta = stats.digest_misses - misses_before
    generations = kernel.generation_snapshot(PROBE_PFNS)
    bumped = [recorded + 1 for recorded in generations]
    return (
        [kernel.is_zero_frame(pfn) for pfn in (0, 4, 9)],
        kernel.zero_frames(PROBE_PFNS),
        list(kernel.group_by_content(PROBE_PFNS).values()),
        kernel.dirty_intersection(PROBE_PFNS, {0, 4, 6}),
        kernel.any_fused([5]),
        kernel.any_fused([6, 11]),
        generations,
        kernel.changed_since(PROBE_PFNS, generations),
        # A snapshot *ahead* of the live column still reads "changed":
        # generation inequality, not ordering.
        kernel.changed_since(PROBE_PFNS, bumped),
        digests,
        [type(value) is int for value in digests],
        (hits_delta, misses_delta),
        kernel.refcount_sum(PROBE_PFNS),
        expect_invalid(kernel.zero_frames, [NUM_FRAMES]),
        expect_invalid(kernel.generation_snapshot, [NUM_FRAMES]),
        expect_invalid(kernel.digest_sweep, [3, NUM_FRAMES]),
        expect_invalid(kernel.refcount_sum, [-1]),
    )


def module_signature(module) -> tuple:
    """Signature of the module's kernel over a fresh probe machine."""
    physmem = build_probe_machine()
    return kernel_signature(module.BatchScanKernel(physmem), physmem)


def run_probe(module) -> tuple:
    """Probe outcome: the signature, or the exception class it died on."""
    try:
        return ("ok", module_signature(module))
    except Exception as exc:  # noqa: BLE001 - crashing IS a distinguisher
        return ("raised", type(exc).__name__)


def load_module(source: str):
    """Exec scan-kernel source as a throwaway module (never installed)."""
    module = types.ModuleType("repro.mem.scankernel_mutant")
    module.__file__ = str(SCANKERNEL)
    exec(compile(source, str(SCANKERNEL), "exec"), module.__dict__)
    return module


def mutate(old: str, new: str) -> str:
    """One-edit mutant of the real source; the anchor must be unique."""
    source = SCANKERNEL.read_text(encoding="utf-8")
    occurrences = source.count(old)
    assert occurrences == 1, (
        f"mutation anchor matched {occurrences}x in scankernel.py; the "
        f"meta-test needs updating: {old!r}"
    )
    return source.replace(old, new, 1)


MUTANTS = [
    pytest.param(
        "if cid == ZERO_ID]",
        "if pfn and cid == ZERO_ID]",
        id="fallback-zero-sweep-drops-pfn-zero",
    ),
    # Groups keyed in ascending cid order instead of first encounter.
    pytest.param(
        "        return groups\n",
        "        return dict(sorted(groups.items()))\n",
        id="group-order",
    ),
    # Each group loses its first member.
    pytest.param(
        "groups[key] = [index]",
        "groups[key] = []",
        id="group-member",
    ),
    # Every sweep frame counted as a hit, misses included.
    pytest.param(
        "stats.digest_hits += len(out) - misses",
        "stats.digest_hits += len(out)",
        id="digest-hits",
    ),
    # An ordered compare misses a snapshot ahead of the live column.
    pytest.param(
        "if generation(pfn) != recorded",
        "if generation(pfn) > recorded",
        id="changed-gt",
    ),
    # pfn == num_frames slips past the bound into the column.
    pytest.param(
        "if not 0 <= pfn < num_frames:",
        "if not 0 <= pfn <= num_frames:",
        id="pfn-bound",
    ),
    pytest.param(
        "return not self.physmem._fusion_pinned.isdisjoint(pfns)",
        "return self.physmem._fusion_pinned.isdisjoint(pfns)",
        id="any-fused-polarity-inverted",
    ),
]


@pytest.fixture(scope="module")
def pristine_outcome() -> tuple:
    outcome = run_probe(
        load_module(SCANKERNEL.read_text(encoding="utf-8"))
    )
    assert outcome[0] == "ok", outcome
    return outcome


class TestMutantsAreCaught:
    @pytest.mark.parametrize("old, new", MUTANTS)
    def test_mutant_behaviour_diverges(self, old, new, pristine_outcome):
        mutant = load_module(mutate(old, new))
        assert run_probe(mutant) != pristine_outcome, (
            "seeded kernel bug produced a behaviour signature identical "
            "to the pristine kernel; the conformance probes have a blind "
            f"spot for: {new!r}"
        )

    @pytest.mark.parametrize("old, new", MUTANTS)
    def test_anchor_is_unique_and_reverts_cleanly(self, old, new):
        # mutate() asserts uniqueness; reverting the edit restores the
        # pristine source byte-for-byte, so each case is one real edit.
        mutated = mutate(old, new)
        assert mutated.replace(new, old, 1) == SCANKERNEL.read_text(
            encoding="utf-8"
        )


class TestPristineKernel:
    def test_reloaded_pristine_source_matches_live_module(
        self, pristine_outcome
    ):
        import repro.mem.scankernel as live

        live_sig = ("ok", module_signature(live))
        assert live_sig == pristine_outcome

    def test_probe_state_is_adversarial(self):
        """The fixture really exercises the corners the mutants hide in."""
        physmem = build_probe_machine()
        assert physmem.peek_content(0) == ZERO_PAGE
        assert 0 in PROBE_PFNS
        assert content_digest(physmem.peek_content(4)) >= 2**63
        assert NUM_FRAMES - 1 == 11 and 11 in PROBE_PFNS
        # First-encounter content order (HIGH, LOW, zero) must not be
        # ascending-cid order, or the bucket-order mutant is invisible.
        first_seen = []
        for pfn in PROBE_PFNS:
            content = physmem.peek_content(pfn)
            if content not in first_seen:
                first_seen.append(content)
        assert first_seen.index(ZERO_PAGE) != 0
