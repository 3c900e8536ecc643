"""Behavioural and security-invariant tests for the VUsion engine."""

from __future__ import annotations

import pytest

from repro.core.vusion import Vusion
from repro.kernel.kernel import Kernel
from repro.mmu.pte import PteFlags
from repro.params import (
    FusionConfig,
    MS,
    PAGE_SIZE,
    PAGES_PER_HUGE_PAGE,
    SECOND,
    VusionConfig,
)

from tests.conftest import dup, fast_fusion, small_spec


def make_vusion_setup(
    frames: int = 4096,
    pool: int = 256,
    working_set: bool = True,
    pages_per_scan: int = 64,
):
    kernel = Kernel(small_spec(frames=frames))
    engine = Vusion(
        VusionConfig(random_pool_frames=pool, working_set_enabled=working_set),
        fast_fusion(pages=pages_per_scan),
    )
    kernel.attach_fusion(engine)
    return kernel, engine


def pair_setup(kernel, count=4, tag="v"):
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    va = a.mmap(count, mergeable=True)
    vb = b.mmap(count, mergeable=True)
    for index in range(count):
        a.write_page(va, index, dup(tag, index))
        b.write_page(vb, index, dup(tag, index))
    return a, b, va, vb


class TestMergeAndFakeMerge:
    def test_duplicates_merge(self):
        kernel, vu = make_vusion_setup()
        pair_setup(kernel)
        kernel.idle(3 * SECOND)
        assert vu.saved_frames() == 4
        assert vu.stats.merges >= 4

    def test_unique_pages_fake_merged(self):
        kernel, vu = make_vusion_setup()
        a = kernel.create_process("a")
        va = a.mmap(4, mergeable=True)
        for index in range(4):
            a.write_page(va, index, dup("solo", index))
        kernel.idle(3 * SECOND)
        assert vu.stats.fake_merges >= 4
        assert vu.saved_frames() == 0

    def test_all_scanned_pages_lose_access(self):
        """Merged or not, candidate pages end with reserved+CD PTEs."""
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=2)
        solo = a.mmap(2, mergeable=True)
        for index in range(2):
            a.write_page(solo, index, dup("solo", index))
        kernel.idle(3 * SECOND)
        for vma, proc in ((va, a), (vb, b), (solo, a)):
            for vaddr in vma.pages():
                pte = proc.address_space.page_table.walk(vaddr).pte
                assert pte.reserved, f"{vma.name} page accessible after scan"
                assert pte.cache_disabled
                assert pte.fused

    def test_neither_party_frame_backs_merge(self):
        """RA: the fused frame is a fresh random frame, not a party's."""
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        before_a = a.address_space.page_table.walk(va.start).pfn
        before_b = b.address_space.page_table.walk(vb.start).pfn
        kernel.idle(3 * SECOND)
        after = a.address_space.page_table.walk(va.start).pfn
        assert after not in (before_a, before_b)
        assert after == b.address_space.page_table.walk(vb.start).pfn

    def test_waits_one_round_before_fusing(self):
        """A freshly-written page has its accessed bit set, so it is
        skipped on the first visit (Fig. 10: VUsion merges later)."""
        kernel, vu = make_vusion_setup(pages_per_scan=512)
        pair_setup(kernel, count=2)
        # One scan tick covers everything once: only clears A bits.
        kernel.idle(21 * MS)
        assert vu.stats.working_set_skips >= 4
        assert vu.stats.merges == 0
        kernel.idle(SECOND)
        assert vu.saved_frames() == 2

    def test_working_set_not_fused(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=2)
        hot = a.mmap(2, mergeable=True)
        for index in range(2):
            a.write_page(hot, index, dup("hot", index))
        # Keep the hot pages in the working set across scan rounds.
        for _ in range(200):
            a.read_page(hot, 0)
            a.read_page(hot, 1)
            kernel.idle(15 * MS)
        for vaddr in hot.pages():
            pte = a.address_space.page_table.walk(vaddr).pte
            assert not pte.fused, "working-set page must not be fused"

    def test_rerandomization_moves_nodes(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        kernel.idle(3 * SECOND)
        pfn_before = a.address_space.page_table.walk(va.start).pfn
        kernel.idle(3 * SECOND)
        pfn_after = a.address_space.page_table.walk(va.start).pfn
        assert pfn_before != pfn_after, "node must move each scan round"
        assert vu.rerandomizations > 0
        # Still merged: both parties share the (new) frame.
        assert pfn_after == b.address_space.page_table.walk(vb.start).pfn


class TestCopyOnAccess:
    def test_read_takes_coa_and_restores_access(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=2)
        kernel.idle(3 * SECOND)
        result = a.read_page(va, 0)
        assert a.address_space.page_table.walk(va.start).pte.writable
        assert vu.stats.coa_unmerges == 1
        assert a.read_page(va, 0) == dup("v", 0)

    def test_fetch_takes_coa(self):
        kernel, vu = make_vusion_setup()
        pair_setup(kernel, count=1)
        kernel.idle(3 * SECOND)
        a = kernel.processes[0]
        vma = a.address_space.vmas[0]
        result = a.fetch(vma.start)
        assert "copy_on_access" in result.fault_kinds

    def test_write_takes_coa(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        kernel.idle(3 * SECOND)
        result = a.write_page(va, 0, b"new")
        assert "copy_on_access" in result.fault_kinds
        assert b.read_page(vb, 0) == dup("v", 0)

    def test_coa_content_preserved(self):
        kernel, vu = make_vusion_setup()
        a = kernel.create_process("a")
        va = a.mmap(4, mergeable=True)
        for index in range(4):
            a.write_page(va, index, dup("keep", index))
        kernel.idle(3 * SECOND)
        for index in range(4):
            assert a.read_page(va, index) == dup("keep", index)

    def test_node_reclaimed_after_all_mappers_leave(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        kernel.idle(3 * SECOND)
        node_pfn = a.address_space.page_table.walk(va.start).pfn
        a.read_page(va, 0)
        b.read_page(vb, 0)
        kernel.idle(SECOND)  # let the deferred queue drain
        assert not kernel.physmem.is_fused(node_pfn)
        assert vu.stats.stable_nodes_released >= 1

    def test_deferred_free_queue_drains(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=4)
        kernel.idle(3 * SECOND)
        for index in range(4):
            a.read_page(va, index)
        assert len(vu.deferred) > 0
        vu.deferred.drain()
        assert len(vu.deferred) == 0
        assert vu.deferred.drained + vu.deferred.dummies > 0


class TestSameBehaviour:
    def test_identical_fault_traces(self):
        """SB core check: the fault path executes the same operations
        for merged and fake-merged pages."""
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        solo = a.mmap(1, mergeable=True)
        a.write_page(solo, 0, dup("solo"))
        kernel.idle(3 * SECOND)
        kernel.fault_trace = []
        a.read_page(va, 0)  # merged page
        merged_trace = list(kernel.fault_trace)
        kernel.fault_trace = []
        a.read_page(solo, 0)  # fake-merged page
        fake_trace = list(kernel.fault_trace)
        assert merged_trace == fake_trace

    def test_identical_fault_kinds(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        solo = a.mmap(1, mergeable=True)
        a.write_page(solo, 0, dup("solo"))
        kernel.idle(3 * SECOND)
        merged = a.read(va.start)
        fake = a.read(solo.start)
        assert merged.fault_kinds == fake.fault_kinds == ("copy_on_access",)

    def test_coa_latency_independent_of_merge_status(self):
        """The headline SB property: access timing leaks nothing.

        The only variation left is physical DRAM row-buffer state,
        which is merge-independent; a KS test must not distinguish the
        two distributions (the paper reports p = 0.36 for Fig. 6).
        """
        scipy_stats = pytest.importorskip(
            "scipy.stats",
            reason="KS check needs the repro[stats] extra",
            exc_type=ImportError,
        )

        kernel, vu = make_vusion_setup(frames=16384, pages_per_scan=512)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        count = 64
        merged_vma = a.mmap(count, mergeable=True)
        twin_vma = b.mmap(count, mergeable=True)
        solo_vma = a.mmap(count, mergeable=True)
        for index in range(count):
            a.write_page(merged_vma, index, dup("m", index))
            b.write_page(twin_vma, index, dup("m", index))
            a.write_page(solo_vma, index, dup("s", index))
        kernel.idle(5 * SECOND)
        merged_times = [
            a.write_page(merged_vma, i, dup("m", i)).latency for i in range(count)
        ]
        solo_times = [
            a.write_page(solo_vma, i, dup("s", i)).latency for i in range(count)
        ]
        result = scipy_stats.ks_2samp(merged_times, solo_times)
        assert result.pvalue > 0.05, f"SB violated: p={result.pvalue}"
        # And the means are within a DRAM-row-hit of each other.
        mean_gap = abs(
            sum(merged_times) / count - sum(solo_times) / count
        )
        assert mean_gap < kernel.costs.dram_row_miss


class TestRandomizedAllocation:
    def test_coa_frames_come_from_pool(self):
        kernel, vu = make_vusion_setup()
        a, b, va, vb = pair_setup(kernel, count=1)
        kernel.idle(3 * SECOND)
        allocs_before = vu.pool.allocs
        a.read_page(va, 0)
        assert vu.pool.allocs == allocs_before + 1

    def test_low_reuse_probability(self):
        """A freed frame is not predictably handed back (RA, ~1/pool)."""
        kernel, vu = make_vusion_setup(frames=8192, pool=512)
        a, b, va, vb = pair_setup(kernel, count=1)
        reuse = 0
        trials = 40
        for _ in range(trials):
            kernel.idle(3 * SECOND)
            node = a.address_space.page_table.walk(va.start).pfn
            a.write_page(va, 0, dup("v", 0))  # CoA copy, node may die
            b.write_page(vb, 0, dup("v", 0))
            kernel.idle(SECOND)  # drain: node frame returns to pool
            new_a = a.address_space.page_table.walk(va.start).pfn
            if new_a == node:
                reuse += 1
        assert reuse <= 2, f"predictable reuse detected ({reuse}/{trials})"


class TestVusionWithThp:
    def make_thp_setup(self, conserve: bool = True):
        kernel = Kernel(small_spec(frames=32768), thp_fault_enabled=True)
        vu = Vusion(
            VusionConfig(random_pool_frames=512, thp_enabled=conserve),
            FusionConfig(pages_per_scan=1024, scan_interval=20 * MS),
        )
        kernel.attach_fusion(vu)
        return kernel, vu

    def test_idle_thp_split_and_fused(self):
        kernel, vu = self.make_thp_setup()
        a = kernel.create_process("a")
        va = a.mmap(PAGES_PER_HUGE_PAGE, mergeable=True)
        a.write(va.start, b"head")
        assert a.address_space.page_table.walk(va.start).huge
        kernel.idle(3 * SECOND)
        walk = a.address_space.page_table.walk(va.start)
        assert not walk.huge, "idle THP must be broken for fusion"
        assert walk.pte.fused
        assert vu.stats.thp_splits >= 1

    def test_active_thp_conserved_in_thp_mode(self):
        kernel, vu = self.make_thp_setup(conserve=True)
        a = kernel.create_process("a")
        va = a.mmap(PAGES_PER_HUGE_PAGE, mergeable=True)
        a.write(va.start, b"head")
        for _ in range(300):
            a.read(va.start)  # keep the huge PTE's accessed bit set
            kernel.idle(10 * MS)
        assert a.address_space.page_table.walk(va.start).huge

    def test_active_thp_split_in_max_fusion_mode(self):
        """Plain VUsion (maximum fusion rate) breaks even active THPs
        when considering them — the Fig. 9 behaviour."""
        kernel, vu = self.make_thp_setup(conserve=False)
        a = kernel.create_process("a")
        va = a.mmap(PAGES_PER_HUGE_PAGE, mergeable=True)
        a.write(va.start, b"head")
        for _ in range(100):
            a.read(va.start)
            kernel.idle(10 * MS)
        assert not a.address_space.page_table.walk(va.start).huge
        # The hot subpage itself is in the working set: not fused.
        assert not a.address_space.page_table.walk(va.start).pte.fused
