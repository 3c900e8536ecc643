"""simlint rule tests: one good + one bad fixture per rule, the
suppression mechanism, the JSON report schema, and the meta-test that
keeps ``src/`` itself clean."""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

from repro.check import (
    FLOW_RULES,
    IP_RULES,
    RACE_RULES,
    RULES,
    findings_to_json,
    lint_paths,
    lint_source,
    render_findings,
)
from repro.check.engine import LintResult, module_name_for
from repro.check.reporting import JSON_SCHEMA_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint(source: str, module: str, rules: list[str] | None = None):
    return lint_source(textwrap.dedent(source), module=module, rule_ids=rules)


def rule_ids(findings) -> list[str]:
    return [finding.rule_id for finding in findings]


# ----------------------------------------------------------------------
# DET001 — wall clock
# ----------------------------------------------------------------------
class TestDet001WallClock:
    BAD = """
        import time
        def tick():
            return time.monotonic()
    """

    def test_flags_wall_clock_call(self):
        findings = lint(self.BAD, "repro.kernel.kernel", ["DET001"])
        assert rule_ids(findings) == ["DET001"]
        assert "time.monotonic" in findings[0].message

    def test_flags_datetime_now(self):
        findings = lint(
            """
            import datetime
            stamp = datetime.datetime.now()
            """,
            "repro.harness.experiments", ["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]

    def test_flags_from_time_import(self):
        findings = lint(
            "from time import perf_counter\n", "repro.core.vusion", ["DET001"]
        )
        assert rule_ids(findings) == ["DET001"]

    def test_runner_and_benchmarks_exempt(self):
        for module in ("repro.runner.pool", "benchmarks.bench_scan"):
            assert lint(self.BAD, module, ["DET001"]) == []

    def test_simulated_clock_is_clean(self):
        clean = """
            def tick(kernel):
                return kernel.clock.now
        """
        assert lint(clean, "repro.kernel.kernel", ["DET001"]) == []


# ----------------------------------------------------------------------
# DET002 — global RNG
# ----------------------------------------------------------------------
class TestDet002GlobalRandom:
    def test_flags_global_random_call(self):
        findings = lint(
            """
            import random
            def jitter():
                return random.random()
            """,
            "repro.workloads.synthetic", ["DET002"],
        )
        assert rule_ids(findings) == ["DET002"]

    def test_flags_from_random_import(self):
        findings = lint(
            "from random import shuffle\n", "repro.attacks.dedup", ["DET002"]
        )
        assert rule_ids(findings) == ["DET002"]

    def test_seeded_rng_is_clean(self):
        clean = """
            import random
            def make_rng(seed):
                return random.Random(seed)
        """
        assert lint(clean, "repro.workloads.synthetic", ["DET002"]) == []


# ----------------------------------------------------------------------
# DET003 — unordered iteration in artifact paths
# ----------------------------------------------------------------------
class TestDet003UnorderedIteration:
    BAD = """
        def render(rows):
            out = []
            for key in rows.keys():
                out.append(key)
            return out
    """

    def test_flags_keys_iteration_in_report_path(self):
        findings = lint(self.BAD, "repro.analysis.report", ["DET003"])
        assert rule_ids(findings) == ["DET003"]

    def test_flags_set_literal_in_comprehension(self):
        findings = lint(
            "names = [n for n in {'b', 'a'}]\n",
            "repro.runner.artifacts", ["DET003"],
        )
        assert rule_ids(findings) == ["DET003"]

    def test_simulation_code_exempt(self):
        # Engines iterate sets freely; only artifact/report paths must sort.
        assert lint(self.BAD, "repro.fusion.ksm", ["DET003"]) == []

    def test_sorted_iteration_is_clean(self):
        clean = """
            def render(rows):
                return [key for key in sorted(rows)]
        """
        assert lint(clean, "repro.analysis.report", ["DET003"]) == []


# ----------------------------------------------------------------------
# DET004 — builtin hash()
# ----------------------------------------------------------------------
class TestDet004BuiltinHash:
    def test_flags_hash_call(self):
        findings = lint(
            "seed = hash('bench') & 0xFFFF\n",
            "repro.workloads.synthetic", ["DET004"],
        )
        assert rule_ids(findings) == ["DET004"]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_crc32_is_clean(self):
        clean = """
            import zlib
            def stable_seed(name):
                return zlib.crc32(name.encode()) & 0xFFFF
        """
        assert lint(clean, "repro.workloads.synthetic", ["DET004"]) == []


# ----------------------------------------------------------------------
# MEM001 — frame-store internals
# ----------------------------------------------------------------------
class TestMem001FrameStoreInternals:
    BAD = """
        def smash(physmem, pfn, content):
            physmem._cids[pfn] = content
    """

    def test_flags_direct_contents_write(self):
        findings = lint(self.BAD, "repro.fusion.ksm", ["MEM001"])
        assert rule_ids(findings) == ["MEM001"]
        assert "_cids" in findings[0].message

    def test_repro_mem_and_tests_exempt(self):
        for module in ("repro.mem.physmem", "tests.test_kernel"):
            assert lint(self.BAD, module, ["MEM001"]) == []

    def test_api_access_is_clean(self):
        clean = """
            def smash(physmem, pfn, content):
                physmem.write(pfn, content)
        """
        assert lint(clean, "repro.fusion.ksm", ["MEM001"]) == []

    ARENA_BAD = """
        def leak_ref(physmem, content):
            return physmem.arena._intern(content)
    """

    def test_flags_arena_intern_outside_mem(self):
        findings = lint(self.ARENA_BAD, "repro.fusion.wpf", ["MEM001"])
        assert rule_ids(findings) == ["MEM001"]
        assert "_intern" in findings[0].message

    def test_flags_arena_refcount_tables(self):
        findings = lint(
            """
            def poke(arena, cid):
                arena._refcount[cid] += 1
                del arena._ids[arena._payloads[cid]]
            """,
            "repro.core.vusion", ["MEM001"],
        )
        assert rule_ids(findings) == ["MEM001"] * 3

    def test_arena_read_api_is_clean(self):
        clean = """
            def inspect(physmem, pfn):
                cid = physmem.content_id(pfn)
                return physmem.arena.refcount(cid), physmem.merge_key(pfn)
        """
        assert lint(clean, "repro.fusion.wpf", ["MEM001"]) == []

    def test_repro_mem_may_intern(self):
        assert lint(self.ARENA_BAD, "repro.mem.physmem", ["MEM001"]) == []


# ----------------------------------------------------------------------
# MEM002 — raw content comparison in fusion hot paths
# ----------------------------------------------------------------------
class TestMem002ContentCompare:
    BAD = """
        def revalidate(kernel, pfn, content):
            if kernel.physmem.read(pfn) != content:
                return None
            return pfn
    """

    def test_flags_read_comparison_in_fusion(self):
        findings = lint(self.BAD, "repro.fusion.ksm", ["MEM002"])
        assert rule_ids(findings) == ["MEM002"]
        assert "same_content" in findings[0].message

    def test_flags_equality_too(self):
        findings = lint(
            "ok = physmem.read(a) == physmem.read(b)\n",
            "repro.core.vusion", ["MEM002"],
        )
        assert rule_ids(findings) == ["MEM002"]

    def test_same_content_is_clean(self):
        clean = """
            def revalidate(kernel, pfn, content):
                if not kernel.physmem.same_content(pfn, content):
                    return None
                return pfn
        """
        assert lint(clean, "repro.fusion.ksm", ["MEM002"]) == []

    def test_merge_key_bucketing_is_clean(self):
        clean = """
            def bucket(physmem, pfns):
                groups = {}
                for pfn in pfns:
                    groups.setdefault(physmem.merge_key(pfn), []).append(pfn)
                return groups
        """
        assert lint(clean, "repro.fusion.wpf", ["MEM002"]) == []

    def test_tests_and_mem_exempt(self):
        for module in ("tests.test_physmem", "repro.mem.physmem",
                       "repro.attacks.dedup"):
            assert lint(self.BAD, module, ["MEM002"]) == []


# ----------------------------------------------------------------------
# MEM003 — per-frame Python sweeps in engine scan paths
# ----------------------------------------------------------------------
class TestMem003ScanLoops:
    BAD_REDUCTION = """
        def sharing_pairs(physmem, pfns, shared):
            return sum(physmem.refcount(pfn) for pfn in pfns) - shared
    """
    BAD_PROBE = """
        def stable_mutated(physmem, dirty):
            return any(physmem.is_fused(pfn) for pfn in dirty)
    """
    BAD_MAPPED_LOOP = """
        def zero_candidates(physmem):
            zeros = []
            for pfn in physmem.mapped_frames():
                if physmem.read(pfn) == b"":
                    zeros.append(pfn)
            return zeros
    """

    def test_flags_refcount_reduction(self):
        findings = lint(self.BAD_REDUCTION, "repro.fusion.ksm", ["MEM003"])
        assert rule_ids(findings) == ["MEM003"]
        assert "refcount_sum" in findings[0].message

    def test_flags_fused_probe(self):
        findings = lint(self.BAD_PROBE, "repro.fusion.incremental", ["MEM003"])
        assert rule_ids(findings) == ["MEM003"]
        assert "any_fused" in findings[0].message

    def test_flags_mapped_frames_loop(self):
        findings = lint(self.BAD_MAPPED_LOOP, "repro.core.vusion", ["MEM003"])
        assert "MEM003" in rule_ids(findings)
        assert "scan_kernel" in findings[0].message

    def test_flags_mapped_frames_comprehension(self):
        findings = lint(
            "zeros = [p for p in physmem.mapped_frames() if p in dirty]\n",
            "repro.fusion.wpf", ["MEM003"],
        )
        assert rule_ids(findings) == ["MEM003"]

    def test_batch_primitives_are_clean(self):
        clean = """
            def sharing_pairs(physmem, pfns, shared):
                return physmem.scan_kernel.refcount_sum(pfns) - shared

            def stable_mutated(physmem, dirty):
                return physmem.scan_kernel.any_fused(dirty)
        """
        assert lint(clean, "repro.fusion.ksm", ["MEM003"]) == []

    def test_non_frame_reductions_are_clean(self):
        clean = """
            def total(candidates):
                return sum(len(v) for v in candidates.values())
        """
        assert lint(clean, "repro.fusion.wpf", ["MEM003"]) == []

    def test_scan_kernel_and_tests_exempt(self):
        # The scalar reference implementation *is* the per-frame loop;
        # the rule stops engines from hand-rolling it, not repro.mem
        # from defining it.
        for module in ("repro.mem.scankernel", "tests.test_physmem",
                       "repro.kernel.kernel"):
            assert lint(self.BAD_REDUCTION, module, ["MEM003"]) == []


# ----------------------------------------------------------------------
# LAY001 — import layering
# ----------------------------------------------------------------------
class TestLay001Layering:
    def test_kernel_must_not_import_runner(self):
        findings = lint(
            "from repro.runner.pool import TaskPool\n",
            "repro.kernel.kernel", ["LAY001"],
        )
        assert rule_ids(findings) == ["LAY001"]
        assert "repro.runner.pool" in findings[0].message

    def test_attacks_must_not_import_harness(self):
        findings = lint(
            "import repro.harness.experiments\n",
            "repro.attacks.dedup", ["LAY001"],
        )
        assert rule_ids(findings) == ["LAY001"]

    def test_type_checking_imports_exempt(self):
        clean = """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.fusion.base import FusionEngine
        """
        assert lint(clean, "repro.kernel.kernel", ["LAY001"]) == []

    def test_downward_imports_are_clean(self):
        clean = """
            from repro.errors import ReproError
            from repro.mem.physmem import PhysicalMemory
        """
        assert lint(clean, "repro.kernel.kernel", ["LAY001"]) == []

    def test_seed_derivation_leaf_exempt_from_harness(self):
        # repro.runner.seeds is the runner's dependency-free leaf; the
        # spec layer shares its derivation (see LAYERING_EXEMPT).
        clean = "from repro.runner.seeds import derive_seed\n"
        assert lint(clean, "repro.harness.spec", ["LAY001"]) == []

    def test_other_runner_modules_still_forbidden_from_harness(self):
        findings = lint(
            "from repro.runner.pool import TaskPool\n",
            "repro.harness.fleet", ["LAY001"],
        )
        assert rule_ids(findings) == ["LAY001"]


# ----------------------------------------------------------------------
# API001 — removed deprecation shims stay removed
# ----------------------------------------------------------------------
class TestApi001RemovedShims:
    def test_flags_import_of_removed_registry(self):
        findings = lint(
            "from repro.harness.experiments import EXPERIMENT_REGISTRY\n",
            "repro.cli", ["API001"],
        )
        assert rule_ids(findings) == ["API001"]
        assert "EXPERIMENTS" in findings[0].message

    def test_flags_bare_name_use(self):
        findings = lint(
            "engine = ENGINE_FACTORIES['ksm']()\n",
            "repro.attacks.dedup", ["API001"],
        )
        assert rule_ids(findings) == ["API001"]

    def test_flags_attribute_access(self):
        findings = lint(
            """
            import repro.attacks.base as base
            table = base.ATTACK_ENV_DEFAULTS
            """,
            "tests.test_whatever", ["API001"],
        )
        assert rule_ids(findings) == ["API001"]

    def test_typed_replacements_are_clean(self):
        clean = """
            from repro.fusion.registry import attack_engine_factories
            from repro.harness.experiments import EXPERIMENTS
            factories = attack_engine_factories()
        """
        assert lint(clean, "repro.cli", ["API001"]) == []

    def test_old_names_are_gone_from_the_tree(self):
        # The satellite's proof: linting the real src/ tree with only
        # API001 enabled finds nothing to flag.
        result = lint_paths([str(SRC)], rule_ids=["API001"])
        assert result.findings == []


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
class TestSuppression:
    def test_line_suppression_honored(self):
        source = "seed = hash('x')  # simlint: disable=DET004\n"
        assert lint_source(source, module="repro.core.vusion") == []

    def test_disable_all(self):
        source = "seed = hash('x')  # simlint: disable=all\n"
        assert lint_source(source, module="repro.core.vusion") == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = "seed = hash('x')  # simlint: disable=DET001\n"
        findings = lint_source(source, module="repro.core.vusion")
        assert rule_ids(findings) == ["DET004"]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    def make_result(self) -> LintResult:
        findings = lint_source(
            "seed = hash('x')\n", path="src/repro/core/x.py",
            module="repro.core.x",
        )
        return LintResult(findings=findings, files_scanned=1)

    def test_json_schema(self):
        document = json.loads(findings_to_json(self.make_result()))
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["clean"] is False
        assert document["files_scanned"] == 1
        assert document["counts"] == {"DET004": 1}
        (finding,) = document["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message", "engine",
            "qualname",
        }
        assert finding["engine"] == "ast"
        assert set(document["rules"]) == (
            set(RULES) | set(FLOW_RULES) | set(IP_RULES) | set(RACE_RULES)
        )

    def test_human_report_mentions_location_and_rule(self):
        text = render_findings(self.make_result())
        assert "src/repro/core/x.py:1:" in text
        assert "DET004" in text
        assert "1 finding(s)" in text

    def test_clean_summary(self):
        text = render_findings(LintResult(files_scanned=3))
        assert "clean: 3 file(s), 0 findings" in text


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_module_name_for(self):
        assert (
            module_name_for(pathlib.Path("src/repro/mem/physmem.py"))
            == "repro.mem.physmem"
        )
        assert (
            module_name_for(pathlib.Path("src/repro/check/__init__.py"))
            == "repro.check"
        )

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="NOPE999"):
            lint_source("x = 1\n", rule_ids=["NOPE999"])

    def test_lint_paths_reports_syntax_errors(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        bad = tmp_path / "broken.py"
        bad.write_text("def (\n")
        result = lint_paths([str(tmp_path)])
        assert result.files_scanned == 1
        assert len(result.errors) == 1
        assert not result.clean

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("seed = hash('x')\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "DET004" in out


# ----------------------------------------------------------------------
# Meta: the repository itself lints clean, with no DET escape hatches
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_src_lints_clean(self):
        result = lint_paths([str(SRC)])
        assert result.errors == []
        assert result.findings == [], render_findings(result)

    def test_no_det_suppressions_in_src(self):
        # A suppression only counts when attached to a code line; the
        # lint engine documents the syntax in comments, which is fine.
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("#", 1)[0].strip()
                if not code:
                    continue
                if "simlint: disable=DET" in line or (
                    "simlint: disable=all" in line
                ):
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}"
                    )
        assert offenders == []
