"""Tests for the round-robin scan cursor and engine base plumbing."""

from __future__ import annotations

import pytest

from repro.errors import FusionError, InvalidFrameError
from repro.fusion.base import FusionEngine, FusionStats, ScanCursor
from repro.kernel.kernel import Kernel
from repro.mem.content import ZERO_PAGE, tagged_content
from repro.mem.scankernel import BatchScanKernel
from repro.params import PAGE_SIZE

from tests.conftest import small_spec
from tests.scan_oracle import ScalarScanKernel


class TestScanCursor:
    def make_setup(self, layout):
        """layout: list of page counts, one mergeable VMA per process."""
        kernel = Kernel(small_spec())
        vmas = []
        for index, pages in enumerate(layout):
            process = kernel.create_process(f"p{index}")
            vmas.append((process, process.mmap(pages, mergeable=True)))
        return kernel, vmas

    def test_empty_machine_yields_nothing(self):
        kernel = Kernel(small_spec())
        cursor = ScanCursor(kernel)
        assert cursor.next_pages(10) == []

    def test_registration_order_preserved(self):
        kernel, vmas = self.make_setup([2, 3])
        cursor = ScanCursor(kernel)
        batch = cursor.next_pages(5)
        owners = [process.name for process, _vma, _vaddr in batch]
        assert owners == ["p0", "p0", "p1", "p1", "p1"]

    def test_addresses_ascend_within_vma(self):
        kernel, vmas = self.make_setup([4])
        cursor = ScanCursor(kernel)
        batch = cursor.next_pages(4)
        addresses = [vaddr for _p, _v, vaddr in batch]
        process, vma = vmas[0]
        assert addresses == [vma.start + i * PAGE_SIZE for i in range(4)]

    def test_wraps_and_counts_full_scans(self):
        kernel, _vmas = self.make_setup([2, 2])
        cursor = ScanCursor(kernel)
        assert cursor.full_scans == 0
        cursor.next_pages(4)
        cursor.next_pages(1)  # triggers the wrap
        assert cursor.full_scans == 1

    def test_new_vmas_picked_up_on_rebuild(self):
        kernel, vmas = self.make_setup([1])
        cursor = ScanCursor(kernel)
        cursor.next_pages(1)
        late = kernel.create_process("late")
        late_vma = late.mmap(1, mergeable=True)
        batch = cursor.next_pages(2)
        assert any(vma is late_vma for _p, vma, _a in batch)

    def test_unmapped_vma_skipped(self):
        kernel, vmas = self.make_setup([2, 2])
        process, vma = vmas[0]
        cursor = ScanCursor(kernel)
        cursor.next_pages(1)
        process.munmap(vma)
        batch = cursor.next_pages(4)
        assert all(v is not vma for _p, v, _a in batch)

    def test_non_mergeable_ignored(self):
        kernel = Kernel(small_spec())
        process = kernel.create_process("p")
        process.mmap(4, mergeable=False)
        cursor = ScanCursor(kernel)
        assert cursor.next_pages(8) == []


class TestScanKernelBatches:
    """Cursor-produced batches through the scan kernel's primitives.

    The boundary shapes engines actually hand the kernel: nothing to
    scan, one frame, a memory of nothing but zeros, a batch spanning a
    cursor wrap (duplicate pfns inside one batch), and frames recycled
    to new owners between two batches.  Each case pins the batch
    kernel to the scalar reference on the same machine.
    """

    def make_setup(self, layout):
        kernel = Kernel(small_spec())
        vmas = []
        for index, pages in enumerate(layout):
            process = kernel.create_process(f"p{index}")
            vmas.append((process, process.mmap(pages, mergeable=True)))
        return kernel, vmas

    @staticmethod
    def pfns_for(batch):
        pfns = []
        for process, _vma, vaddr in batch:
            walk = process.address_space.page_table.walk(vaddr)
            if walk is not None:
                pfns.append(walk.pte.pfn)
        return pfns

    @staticmethod
    def kernels_for(physmem):
        return ScalarScanKernel(physmem), BatchScanKernel(physmem)

    @staticmethod
    def fill(process, vma, contents):
        for index, content in enumerate(contents):
            process.write(vma.start + index * PAGE_SIZE, content)

    def test_empty_batch_through_every_primitive(self):
        kernel = Kernel(small_spec())
        cursor = ScanCursor(kernel)
        pfns = self.pfns_for(cursor.next_pages(16))
        assert pfns == []
        for scan in self.kernels_for(kernel.physmem):
            assert scan.zero_frames(pfns) == []
            assert scan.group_by_content(pfns) == {}
            assert scan.digest_sweep(pfns) == []
            assert scan.generation_snapshot(pfns) == []
            assert scan.changed_since(pfns, []) == []
            assert scan.refcount_sum(pfns) == 0
            assert scan.any_fused(pfns) is False

    def test_single_frame_batch(self):
        kernel, vmas = self.make_setup([1])
        process, vma = vmas[0]
        self.fill(process, vma, [tagged_content("cursor", 1)])
        cursor = ScanCursor(kernel)
        pfns = self.pfns_for(cursor.next_pages(1))
        assert len(pfns) == 1
        scalar, batch = self.kernels_for(kernel.physmem)
        for scan in (scalar, batch):
            assert scan.zero_frames(pfns) == []
            assert list(scan.group_by_content(pfns).values()) == [[0]]
        assert scalar.digest_sweep(pfns) == batch.digest_sweep(pfns)
        assert scalar.refcount_sum(pfns) == batch.refcount_sum(pfns)

    def test_all_zero_memory_is_one_group(self):
        kernel, vmas = self.make_setup([3])
        process, vma = vmas[0]
        self.fill(process, vma, [ZERO_PAGE] * 3)
        cursor = ScanCursor(kernel)
        pfns = self.pfns_for(cursor.next_pages(3))
        assert len(pfns) == 3
        scalar, batch = self.kernels_for(kernel.physmem)
        for scan in (scalar, batch):
            assert scan.zero_frames(pfns) == pfns
            assert list(scan.group_by_content(pfns).values()) == [[0, 1, 2]]
        assert scalar.digest_sweep(pfns) == batch.digest_sweep(pfns)

    def test_cursor_wrap_mid_batch_duplicates_pfns(self):
        kernel, vmas = self.make_setup([2, 2])
        for index, (process, vma) in enumerate(vmas):
            self.fill(
                process,
                vma,
                [tagged_content("wrap", index), ZERO_PAGE],
            )
        cursor = ScanCursor(kernel)
        cursor.next_pages(1)  # offset the cursor into the round
        # Five pages from a four-page machine: the batch runs off the
        # end, wraps, and its first page comes around again inside the
        # same batch.
        batch_pages = cursor.next_pages(5)
        assert cursor.full_scans == 1
        pfns = self.pfns_for(batch_pages)
        assert len(pfns) == 5 and pfns[0] == pfns[4]
        scalar, batch = self.kernels_for(kernel.physmem)
        assert scalar.zero_frames(pfns) == batch.zero_frames(pfns)
        scalar_groups = list(scalar.group_by_content(pfns).values())
        assert scalar_groups == list(batch.group_by_content(pfns).values())
        # The duplicated pfn lands in one group with both its indices.
        assert [0, 4] in [
            [i for i in members if pfns[i] == pfns[0]]
            for members in scalar_groups
            if 0 in members
        ]
        assert scalar.digest_sweep(pfns) == batch.digest_sweep(pfns)

    def test_frames_retyped_between_batches(self):
        kernel, vmas = self.make_setup([2])
        process, vma = vmas[0]
        self.fill(
            process,
            vma,
            [tagged_content("retype", 1), tagged_content("retype", 2)],
        )
        cursor = ScanCursor(kernel)
        first = self.pfns_for(cursor.next_pages(2))
        scalar, batch = self.kernels_for(kernel.physmem)
        snapshot = scalar.generation_snapshot(first)
        assert snapshot == batch.generation_snapshot(first)
        # Tear the VMA down and stand up a new one: the frames go back
        # to the allocator and come out retyped under a new owner with
        # fresh content before the cursor's next batch.
        process.munmap(vma)
        fresh = process.mmap(2, mergeable=True)
        self.fill(
            process,
            fresh,
            [tagged_content("retype", 3), tagged_content("retype", 4)],
        )
        second = self.pfns_for(cursor.next_pages(2))
        changed_scalar = scalar.changed_since(first, snapshot)
        assert changed_scalar == batch.changed_since(first, snapshot)
        # Every old frame the new VMA recycled must read as changed.
        assert set(first) & set(second) <= set(changed_scalar)
        assert scalar.digest_sweep(second) == batch.digest_sweep(second)
        assert list(scalar.group_by_content(second).values()) == (
            list(batch.group_by_content(second).values())
        )

    def test_pfn_batch_handle_and_range_inputs(self):
        """One validated handle (or a bare range) feeds every primitive
        with answers identical to the plain-list calls."""
        kernel, vmas = self.make_setup([3])
        process, vma = vmas[0]
        self.fill(process, vma, [
            ZERO_PAGE, tagged_content("handle", 1), tagged_content("handle", 1),
        ])
        scalar, batch = self.kernels_for(kernel.physmem)
        pfns = self.pfns_for([
            (process, vma, vma.start + index * PAGE_SIZE) for index in range(3)
        ])
        whole = range(kernel.physmem.num_frames)
        for kern in (scalar, batch):
            for source in (pfns, whole):
                handle = kern.pfn_batch(source)
                reference = (
                    scalar.zero_frames(list(source)),
                    list(scalar.group_by_content(list(source)).values()),
                    scalar.generation_snapshot(list(source)),
                    scalar.digest_sweep(list(source)),
                    scalar.refcount_sum(list(source)),
                )
                assert (
                    kern.zero_frames(handle),
                    list(kern.group_by_content(handle).values()),
                    kern.generation_snapshot(handle),
                    kern.digest_sweep(handle),
                    kern.refcount_sum(handle),
                ) == reference
                snapshot = kern.generation_snapshot(handle)
                assert kern.changed_since(handle, snapshot) == []
        with pytest.raises(InvalidFrameError):
            batch.zero_frames(
                batch.pfn_batch(range(kernel.physmem.num_frames + 1))
            )


class TestFusionEngineBase:
    class Minimal(FusionEngine):
        name = "minimal"

        def _register(self, kernel):
            pass

        def saved_frames(self):
            return 0

    def test_default_hooks_raise_or_noop(self):
        kernel = Kernel(small_spec())
        engine = self.Minimal()
        kernel.attach_fusion(engine)
        with pytest.raises(FusionError):
            engine.handle_reserved_fault(None, 0, None, None)
        with pytest.raises(FusionError):
            engine.handle_fused_write(None, 0, None)
        with pytest.raises(FusionError):
            engine.unmerge_for_collapse(None, 0)
        engine.on_fused_ref_drop(3)  # no-op
        assert not engine.release_frame(3)
        assert engine.sharing_pairs() == (0, 0)

    def test_double_attach_rejected(self):
        kernel = Kernel(small_spec())
        kernel.attach_fusion(self.Minimal())
        with pytest.raises(FusionError):
            kernel.attach_fusion(self.Minimal())

    def test_stats_dataclass_defaults(self):
        stats = FusionStats()
        assert stats.merges == 0
        assert stats.merge_frame_log == []
        # Each instance gets its own log.
        other = FusionStats()
        stats.merge_frame_log.append(1)
        assert other.merge_frame_log == []
