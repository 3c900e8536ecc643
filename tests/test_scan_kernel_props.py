"""Property tests for the batch scan-kernel primitives.

Hypothesis drives randomized frame states and query batches through
both implementations of every primitive — the batch kernel and the
per-frame reference oracle (``tests/scan_oracle.py``) — and checks
each against an independent model:

* **zero sweep** is the order-preserving subsequence of zero frames;
* **duplicate grouping** is a partition (multiset model: the group
  members are exactly ``range(len(pfns))``, each index once) in
  first-encounter order;
* **dirty intersection** is the order-preserving filter, invariant
  under permutation of the dirty set;
* **generation deltas** match a recompute against the public
  ``generation()`` accessor;
* **digest sweeps** match blake2b recomputed from scratch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.content import ZERO_PAGE, content_digest, tagged_content
from repro.mem.physmem import PhysicalMemory
from repro.mem.scankernel import BatchScanKernel

from tests.scan_oracle import ScalarScanKernel

NUM_FRAMES = 32

#: Tag space deliberately small so batches are duplicate-heavy; tag 0
#: writes the zero page.
frame_writes = st.lists(
    st.tuples(st.integers(0, NUM_FRAMES - 1), st.integers(0, 5)),
    max_size=64,
)
pfn_batches = st.lists(st.integers(0, NUM_FRAMES - 1), max_size=48)


def build_machine(writes) -> PhysicalMemory:
    physmem = PhysicalMemory(NUM_FRAMES)
    for pfn, tag in writes:
        if tag == 0:
            physmem.write(pfn, ZERO_PAGE)
        else:
            physmem.write(pfn, tagged_content("props", tag))
    return physmem


def kernels(physmem: PhysicalMemory) -> list:
    """Both implementations over the same machine."""
    return [ScalarScanKernel(physmem), BatchScanKernel(physmem)]


@settings(max_examples=60, deadline=None)
@given(writes=frame_writes, pfns=pfn_batches)
def test_zero_sweep_is_the_zero_subsequence(writes, pfns):
    physmem = build_machine(writes)
    model = [pfn for pfn in pfns if physmem.peek_content(pfn) == ZERO_PAGE]
    for kernel in kernels(physmem):
        assert kernel.zero_frames(pfns) == model, kernel
        for pfn in pfns:
            assert kernel.is_zero_frame(pfn) == (
                physmem.peek_content(pfn) == ZERO_PAGE
            ), kernel


@settings(max_examples=60, deadline=None)
@given(writes=frame_writes, pfns=pfn_batches)
def test_grouping_is_a_first_encounter_partition(writes, pfns):
    physmem = build_machine(writes)
    # Independent model: first-encounter grouping by content bytes.
    model: dict[bytes, list[int]] = {}
    for index, pfn in enumerate(pfns):
        model.setdefault(physmem.peek_content(pfn), []).append(index)
    expected_groups = list(model.values())
    for kernel in kernels(physmem):
        groups = kernel.group_by_content(pfns)
        # Exact members, exact group order, exact within-group order.
        assert list(groups.values()) == expected_groups, kernel
        # Multiset model: a partition covers every index exactly once.
        flattened = sorted(
            index for members in groups.values() for index in members
        )
        assert flattened == list(range(len(pfns))), kernel
        # Keys really are content identities.
        for key, members in groups.items():
            contents = {physmem.peek_content(pfns[i]) for i in members}
            assert len(contents) == 1, kernel


@settings(max_examples=60, deadline=None)
@given(
    writes=frame_writes,
    pfns=pfn_batches,
    dirty=st.sets(st.integers(0, NUM_FRAMES - 1), max_size=16),
)
def test_dirty_intersection_is_an_order_preserving_filter(writes, pfns, dirty):
    physmem = build_machine(writes)
    model = [pfn for pfn in pfns if pfn in dirty]
    for kernel in kernels(physmem):
        assert kernel.dirty_intersection(pfns, dirty) == model, kernel
        # Permutation invariance over the dirty set's iteration order.
        assert (
            kernel.dirty_intersection(pfns, sorted(dirty, reverse=True))
            == model
        ), kernel


@settings(max_examples=60, deadline=None)
@given(
    writes=frame_writes,
    pfns=pfn_batches,
    offsets=st.lists(st.integers(-2, 2), max_size=48),
)
def test_generation_deltas_match_the_public_accessor(writes, pfns, offsets):
    physmem = build_machine(writes)
    offsets = (offsets + [0] * len(pfns))[: len(pfns)]
    snapshot = [
        physmem.generation(pfn) + offset
        for pfn, offset in zip(pfns, offsets)
    ]
    model = [
        pfn
        for pfn, recorded in zip(pfns, snapshot)
        if physmem.generation(pfn) != recorded
    ]
    for kernel in kernels(physmem):
        assert kernel.generation_snapshot(pfns) == [
            physmem.generation(pfn) for pfn in pfns
        ], kernel
        assert kernel.changed_since(pfns, snapshot) == model, kernel
        with pytest.raises(ValueError):
            kernel.changed_since(pfns, snapshot + [0])


@settings(max_examples=60, deadline=None)
@given(writes=frame_writes, pfns=pfn_batches)
def test_digest_sweep_matches_blake2b_recompute(writes, pfns):
    physmem = build_machine(writes)
    model = [content_digest(physmem.peek_content(pfn)) for pfn in pfns]
    for kernel in kernels(physmem):
        swept = kernel.digest_sweep(pfns)
        assert swept == model, kernel
        # Plain Python ints: digests are unsigned 64-bit values and
        # downstream sums must not wrap.
        assert all(type(value) is int for value in swept), kernel


@settings(max_examples=60, deadline=None)
@given(
    writes=frame_writes,
    pfns=pfn_batches,
    refs=st.lists(st.integers(0, NUM_FRAMES - 1), max_size=48),
    pins=st.sets(st.integers(0, NUM_FRAMES - 1), max_size=8),
)
def test_refcount_and_fused_reductions(writes, pfns, refs, pins):
    physmem = build_machine(writes)
    for pfn in refs:
        physmem.get_ref(pfn)
    for pfn in pins:
        physmem.pin_fused(pfn)
    expected_sum = sum(physmem.refcount(pfn) for pfn in pfns)
    expected_any = any(physmem.is_fused(pfn) for pfn in pfns)
    for kernel in kernels(physmem):
        assert kernel.refcount_sum(pfns) == expected_sum, kernel
        assert type(kernel.refcount_sum(pfns)) is int, kernel
        assert kernel.any_fused(pfns) == expected_any, kernel


@settings(max_examples=30, deadline=None)
@given(writes=frame_writes, pfns=pfn_batches)
def test_out_of_range_pfns_raise_on_every_implementation(writes, pfns):
    from repro.errors import InvalidFrameError

    physmem = build_machine(writes)
    for bad in (NUM_FRAMES, -1):
        batch = pfns + [bad]
        for kernel in kernels(physmem):
            for probe in (
                kernel.zero_frames,
                kernel.group_by_content,
                kernel.digest_sweep,
                kernel.generation_snapshot,
                kernel.refcount_sum,
            ):
                with pytest.raises(InvalidFrameError):
                    probe(batch)


def test_empty_batches_are_empty_everywhere():
    physmem = PhysicalMemory(NUM_FRAMES)
    for kernel in kernels(physmem):
        assert kernel.zero_frames([]) == []
        assert kernel.group_by_content([]) == {}
        assert kernel.dirty_intersection([], set()) == []
        assert kernel.changed_since([], []) == []
        assert kernel.digest_sweep([]) == []
        assert kernel.generation_snapshot([]) == []
        assert kernel.refcount_sum([]) == 0
        assert kernel.any_fused([]) is False
        assert kernel.any_fused(frozenset()) is False

