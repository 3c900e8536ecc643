"""Ablations of VUsion's §7.1 design decisions.

Each test disables exactly one mechanism and shows the specific attack
or cost it was added to stop — evidence that every piece of the design
is load-bearing.
"""

from __future__ import annotations

import pytest

scipy_stats = pytest.importorskip(
    "scipy.stats",
    reason="KS ablation checks need the repro[stats] extra",
    exc_type=ImportError,
)

from repro.attacks import AttackEnvironment, PrefetchAttack
from repro.mem.content import tagged_content
from repro.params import PAGE_SIZE, MS, SECOND


def timing_populations(engine_name: str, samples: int = 48):
    """Interleaved write timings of merged vs fake-merged candidates."""
    env = AttackEnvironment(engine_name, frames=32768)
    shared = env.attacker.mmap(samples, name="abl-shared", mergeable=True)
    twin = env.victim.mmap(samples, name="abl-twin", mergeable=True)
    unique = env.attacker.mmap(samples, name="abl-unique", mergeable=True)
    for index in range(samples):
        content = tagged_content("abl", index)
        env.attacker.write(shared.start + index * PAGE_SIZE, content)
        env.victim.write(twin.start + index * PAGE_SIZE, content)
        env.attacker.write(
            unique.start + index * PAGE_SIZE, tagged_content("abl-u", index)
        )
    env.wait_for_fusion(passes=3)
    merged_times = []
    fake_times = []
    for index in range(samples):
        merged_times.append(
            env.attacker.rewrite(shared.start + index * PAGE_SIZE).latency
        )
        fake_times.append(
            env.attacker.rewrite(unique.start + index * PAGE_SIZE).latency
        )
    return merged_times, fake_times


class TestDeferredFreeAblation:
    """Decision (ii): inline frees re-open the unmerge timing channel."""

    def test_secure_variant_is_symmetric(self):
        merged, fake = timing_populations("vusion")
        pvalue = scipy_stats.ks_2samp(merged, fake).pvalue
        assert pvalue > 0.05

    def test_ablated_variant_is_distinguishable(self):
        merged, fake = timing_populations("vusion-nodefer")
        # Fake-merged pages die on unmerge and pay the inline free;
        # merged pages do not.  The distributions separate cleanly.
        pvalue = scipy_stats.ks_2samp(merged, fake).pvalue
        assert pvalue < 0.01
        assert sorted(fake)[len(fake) // 2] > sorted(merged)[len(merged) // 2]


class TestCacheDisableAblation:
    """The CD bit stops prefetch-based merge detection."""

    def test_prefetch_attack_defeated_with_cd(self):
        result = PrefetchAttack(AttackEnvironment("vusion", frames=32768)).run()
        assert not result.success
        # Every prefetch is dropped identically: no differential at all.
        assert result.evidence["hits_correct"] == result.evidence["hits_wrong"]

    def test_prefetch_attack_succeeds_without_cd(self):
        result = PrefetchAttack(
            AttackEnvironment("vusion-nocd", frames=32768)
        ).run()
        assert result.success

    def test_prefetch_attack_succeeds_against_ksm(self):
        result = PrefetchAttack(AttackEnvironment("ksm", frames=32768)).run()
        assert result.success


class TestRerandomizationAblation:
    """Decision (iii): stable backing frames leak merges across scans."""

    def _observe_backing_colors(self, engine_name: str, rounds: int = 4):
        """Backing-frame colors of a merged and a fake-merged page
        across repeated unmerge/re-fuse cycles.

        The attacker-observable is the source-frame color leaked by the
        fault handler's copy (the paper's advanced coloring attack);
        the test reads the equivalent ground truth.
        """
        env = AttackEnvironment(engine_name, frames=32768)
        secret = tagged_content("rr-secret")
        cand = env.attacker.mmap(2, name="rr", mergeable=True)
        merged_page, fake_page = cand.start, cand.start + PAGE_SIZE
        env.attacker.write(merged_page, secret)
        env.attacker.write(fake_page, tagged_content("rr-unique"))
        victim_vma = env.victim.mmap(1, name="rr-victim", mergeable=True)
        env.victim.write(victim_vma.start, secret)
        colors = {"merged": [], "fake": []}
        page_table = env.attacker.address_space.page_table
        for _ in range(rounds):
            env.wait_for_fusion(passes=3)
            for label, vaddr in (("merged", merged_page), ("fake", fake_page)):
                walk = page_table.walk(vaddr)
                if walk is not None and walk.pte.fused:
                    colors[label].append(
                        env.kernel.llc.color_of_frame(walk.pte.pfn)
                    )
            # CoA both candidates (the attacker's probe unmerges them).
            env.attacker.read(merged_page)
            env.attacker.read(fake_page)
        return colors

    def test_ablated_variant_leaks_merge_via_stable_color(self):
        colors = self._observe_backing_colors("vusion-norerand")
        assert len(colors["merged"]) >= 3
        # Without (iii) the merged candidate re-joins the same
        # long-lived node every round: its backing color never changes.
        assert len(set(colors["merged"])) == 1
        # The fake-merged candidate gets a fresh random frame per cycle.
        assert len(set(colors["fake"])) > 1

    def test_secure_variant_randomizes_both(self):
        colors = self._observe_backing_colors("vusion")
        assert len(colors["merged"]) >= 3
        assert len(set(colors["merged"])) > 1
        assert len(set(colors["fake"])) > 1


class TestWorkingSetAblation:
    """§7.2: without estimation, working-set pages fuse and thrash."""

    def _hot_page_fused(self, engine_name: str) -> tuple[bool, int]:
        env = AttackEnvironment(engine_name, frames=32768)
        hot = env.attacker.mmap(1, name="hot", mergeable=True)
        env.attacker.write(hot.start, tagged_content("hot-data"))
        coa_before = env.engine.stats.coa_unmerges
        fused_seen = False
        for _ in range(400):
            result = env.attacker.read(hot.start)
            if "copy_on_access" in result.fault_kinds:
                fused_seen = True
            env.kernel.idle(15 * MS)
        return fused_seen, env.engine.stats.coa_unmerges - coa_before

    def test_naive_vusion_fuses_hot_pages(self):
        fused, coa_count = self._hot_page_fused("vusion-naive")
        assert fused, "naive VUsion must fuse even hot pages"
        assert coa_count > 10, "hot page thrashes through copy-on-access"

    def test_standard_vusion_spares_hot_pages(self):
        fused, coa_count = self._hot_page_fused("vusion")
        assert not fused
        assert coa_count == 0
