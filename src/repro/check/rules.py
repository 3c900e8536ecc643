"""simlint's rule registry and the built-in simulation-invariant rules.

A rule is an id, a severity, a one-line summary and a *checker
factory*: given a :class:`~repro.check.engine.LintContext` it returns
an ``ast.NodeVisitor`` that reports findings through the context.
Rules may scope themselves to parts of the tree via ``applies_to``
(a predicate over the dotted module path), so e.g. the wall-clock ban
exempts the runner, whose scheduling metadata is *supposed* to measure
real time.

Suppression: append ``# simlint: disable=RULE[,RULE...]`` (or
``disable=all``) to the offending line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.engine import LintContext


@dataclass(frozen=True)
class Rule:
    """One enforceable invariant."""

    id: str
    severity: str                 #: "error" | "warning"
    summary: str
    rationale: str
    checker: Callable[["LintContext"], ast.NodeVisitor]
    #: Predicate over the dotted module path ("repro.mem.physmem").
    applies_to: Callable[[str], bool] = field(default=lambda module: True)

    def applies(self, module: str) -> bool:
        return self.applies_to(module)


#: Global registry, id -> Rule (insertion order is report order).
RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return rule


def _dotted(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as 'a.b.c' (None if not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _in_packages(*prefixes: str) -> Callable[[str], bool]:
    def predicate(module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in prefixes
        )
    return predicate


def _not_in_packages(*prefixes: str) -> Callable[[str], bool]:
    inside = _in_packages(*prefixes)
    return lambda module: not inside(module)


# ----------------------------------------------------------------------
# DET001 — no wall clock in simulation code
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_WALL_CLOCK_IMPORTS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
}


class _WallClockVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            self.ctx.report(
                "DET001", node,
                f"wall-clock call {dotted}() in simulation code; "
                "use kernel.clock (simulated time) instead",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_IMPORTS:
                    self.ctx.report(
                        "DET001", node,
                        f"'from time import {alias.name}' smuggles the "
                        "wall clock into simulation code",
                    )
        self.generic_visit(node)


register(Rule(
    id="DET001",
    severity="error",
    summary="no wall-clock reads outside repro.runner / benchmarks",
    rationale=(
        "Simulation results must be a pure function of (spec, seed); a "
        "time.time()/datetime.now() read silently breaks the -j1 == -jN "
        "byte-identical artifact guarantee. Simulated time lives in "
        "kernel.clock; only the runner (scheduling metadata) and "
        "benchmarks may consult the host clock."
    ),
    checker=_WallClockVisitor,
    applies_to=_not_in_packages("repro.runner", "benchmarks", "tests"),
))


# ----------------------------------------------------------------------
# DET002 — no module-level random
# ----------------------------------------------------------------------
_ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom"}


class _GlobalRandomVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in _ALLOWED_RANDOM_ATTRS
        ):
            self.ctx.report(
                "DET002", node,
                f"module-level random.{func.attr}() draws from the shared "
                "global RNG; construct a seeded random.Random and thread "
                "it explicitly",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _ALLOWED_RANDOM_ATTRS:
                    self.ctx.report(
                        "DET002", node,
                        f"'from random import {alias.name}' binds the "
                        "global RNG; import random.Random and seed it",
                    )
        self.generic_visit(node)


register(Rule(
    id="DET002",
    severity="error",
    summary="no global-RNG random.* calls; RNGs are seeded and threaded",
    rationale=(
        "The global random module is process-wide mutable state: any "
        "import-order or call-order change reshuffles every consumer, "
        "and parallel workers diverge from serial runs. Every stochastic "
        "component takes an explicitly seeded random.Random."
    ),
    checker=_GlobalRandomVisitor,
))


# ----------------------------------------------------------------------
# DET003 — no unordered set/keys iteration in artifact/report paths
# ----------------------------------------------------------------------
def _is_unordered_iterable(node: ast.AST) -> str | None:
    """Name the unordered construct ``node`` evaluates to, if any."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return ".keys()"
    return None


class _UnorderedIterVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def _check_iter(self, iter_node: ast.AST) -> None:
        what = _is_unordered_iterable(iter_node)
        if what is not None:
            self.ctx.report(
                "DET003", iter_node,
                f"iterating {what} directly in an artifact/report path; "
                "wrap in sorted(...) (set order depends on the hash seed; "
                ".keys() order on insertion history)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


register(Rule(
    id="DET003",
    severity="error",
    summary="no bare set()/dict.keys() iteration in artifact/report code",
    rationale=(
        "Artifacts are compared byte-for-byte across worker counts and "
        "runs. Iterating a set whose elements are strings (or .keys() of "
        "a dict built in data-dependent order) feeds hash-seed- or "
        "history-dependent ordering straight into the output; sort "
        "first."
    ),
    checker=_UnorderedIterVisitor,
    applies_to=_in_packages("repro.analysis", "repro.runner", "repro.cli"),
))


# ----------------------------------------------------------------------
# DET004 — no builtin hash() (PYTHONHASHSEED-dependent)
# ----------------------------------------------------------------------
class _BuiltinHashVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self.ctx.report(
                "DET004", node,
                "builtin hash() is salted per process (PYTHONHASHSEED) "
                "for str/bytes; use zlib.crc32, hashlib or "
                "repro.runner.seeds.derive_seed for stable values",
            )
        self.generic_visit(node)


register(Rule(
    id="DET004",
    severity="error",
    summary="no builtin hash() for seeds, keys or ordering",
    rationale=(
        "hash(str) differs between interpreter invocations unless "
        "PYTHONHASHSEED is pinned, so any seed or ordering derived from "
        "it silently varies run to run — the exact failure mode the "
        "byte-identical artifact contract exists to prevent."
    ),
    checker=_BuiltinHashVisitor,
))


# ----------------------------------------------------------------------
# MEM001 — no write-barrier bypass on PhysicalMemory internals
# ----------------------------------------------------------------------
_PHYSMEM_INTERNALS = {
    # PhysicalMemory columns and counters.
    "_cids", "_refcount", "_types", "_rmap", "_versions",
    "_fusion_pinned", "_in_use", "_type_counts", "_mapped_cache",
    # ContentArena id tables, refcounts and mutators: interning is part
    # of the write barrier, so only repro.mem may retain/release ids.
    "_ids", "_payloads", "_digest_cache", "_free_ids",
    "_intern", "_retain", "_release",
    # FingerprintCache internals.
    "_generations",
    # BuddyAllocator free lists and counter.
    "_free_lists", "_free_blocks", "_free_frames",
}


class _PhysmemInternalsVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _PHYSMEM_INTERNALS:
            self.ctx.report(
                "MEM001", node,
                f"direct access to frame-store internal .{node.attr} "
                "bypasses the write barrier (arena refcounts, generation "
                "counters, sanitizer hooks); go through the PhysicalMemory "
                "/ BuddyAllocator API",
            )
        self.generic_visit(node)


register(Rule(
    id="MEM001",
    severity="error",
    summary="frame-store internals are mutated only inside repro.mem",
    rationale=(
        "PhysicalMemory.write/copy funnel every content mutation through "
        "the arena, the generation counters and FrameSan hooks; a direct "
        "_cids[pfn] = ... leaks or frees an arena reference, hides the "
        "change from every engine's dirty view and blinds the sanitizer "
        "— the simulator's equivalent of skipping the PTE reserved-bit "
        "trap VUsion relies on."
    ),
    checker=_PhysmemInternalsVisitor,
    applies_to=_not_in_packages("repro.mem", "tests", "benchmarks"),
))


# ----------------------------------------------------------------------
# MEM002 — no raw content-bytes comparison in fusion hot paths
# ----------------------------------------------------------------------
_CONTENT_READ_METHODS = {"read", "peek_content"}


class _ContentCompareVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in (node.left, *node.comparators):
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Attribute)
                    and operand.func.attr in _CONTENT_READ_METHODS
                ):
                    self.ctx.report(
                        "MEM002", node,
                        f"comparing .{operand.func.attr}(...) content bytes "
                        "directly in an engine hot path; use "
                        "physmem.same_content(pfn, content) or bucket by "
                        "physmem.merge_key(pfn) (O(1) on the columnar store)",
                    )
                    break
        self.generic_visit(node)


register(Rule(
    id="MEM002",
    severity="error",
    summary="engines compare content identity via same_content/merge_key, "
            "not raw read() bytes",
    rationale=(
        "Content identity — not content bytes — is the primitive dedup "
        "operates on. A raw read(pfn) == content comparison in a scan "
        "loop is O(page) per probe and bypasses the columnar store's "
        "hash-consed fast path (interning makes same_content an object-"
        "identity check), silently reintroducing the per-frame costs "
        "the arena removed."
    ),
    checker=_ContentCompareVisitor,
    applies_to=_in_packages("repro.fusion", "repro.core"),
))


# ----------------------------------------------------------------------
# MEM003 — per-frame Python reductions in engine scan paths
# ----------------------------------------------------------------------
#: Per-frame PhysicalMemory accessors with a batch scan-kernel
#: equivalent (repro.mem.scankernel primitive named in the message).
_SCAN_KERNEL_EQUIVALENTS = {
    "refcount": "physmem.scan_kernel.refcount_sum(pfns)",
    "is_fused": "physmem.scan_kernel.any_fused(pfns)",
    "digest": "physmem.digests_many(pfns)",
    "generation": "physmem.scan_kernel.changed_since(pfns, snapshot)",
    "merge_key": "physmem.scan_kernel.group_by_content(pfns)",
}

_REDUCERS = {"sum", "any", "all"}


class _ScanLoopVisitor(ast.NodeVisitor):
    """Flags frame-at-a-time Python where a batch primitive exists.

    Two shapes: reductions (``sum``/``any``/``all``) over a
    comprehension whose element calls a per-frame accessor, and loops
    iterating ``mapped_frames()`` directly.  Both are interpreter-bound
    sweeps an engine performs once per scan pass or sample — the exact
    work :mod:`repro.mem.scankernel` vectorizes.
    """

    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    @staticmethod
    def _per_frame_accessor(tree: ast.AST) -> str | None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCAN_KERNEL_EQUIVALENTS
            ):
                return node.func.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _REDUCERS
            and node.args
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
        ):
            accessor = self._per_frame_accessor(node.args[0].elt)
            if accessor is not None:
                self.ctx.report(
                    "MEM003", node,
                    f"{node.func.id}(...) over per-frame .{accessor}() calls "
                    "is an interpreter-bound sweep; use the batch primitive "
                    f"{_SCAN_KERNEL_EQUIVALENTS[accessor]}",
                )
        self.generic_visit(node)

    def _check_iter(self, iterator: ast.AST) -> None:
        if (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Attribute)
            and iterator.func.attr == "mapped_frames"
        ):
            self.ctx.report(
                "MEM003", iterator,
                "frame-at-a-time loop over mapped_frames(); batch the "
                "sweep through physmem.scan_kernel (zero_frames / "
                "group_by_content / digest_sweep) instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension


register(Rule(
    id="MEM003",
    severity="error",
    summary="engine scan paths batch frame sweeps through the scan "
            "kernel, not per-frame Python loops",
    rationale=(
        "A fusion engine asking a per-frame question N times from "
        "Python pays N method dispatches where the scan kernel answers "
        "once from the cid/generation/refcount columns (NumPy when "
        "available, array-module otherwise). At fleet scale the "
        "interpreter overhead dominates the simulation; "
        "tests/test_scan_kernel_differential.py proves the batch "
        "primitives are observation-equivalent, so there is no reason "
        "to keep scalar sweeps in repro.fusion or repro.core."
    ),
    checker=_ScanLoopVisitor,
    applies_to=_in_packages("repro.fusion", "repro.core"),
))


# ----------------------------------------------------------------------
# LAY001 — import layering
# ----------------------------------------------------------------------
#: package prefix -> import prefixes it must never depend on (checked
#: for every import statement outside ``if TYPE_CHECKING:`` blocks).
LAYERING: dict[str, tuple[str, ...]] = {
    "repro.errors": ("repro",),
    "repro.annotations": ("repro",),
    "repro.params": ("repro.mem", "repro.mmu", "repro.kernel",
                     "repro.fusion", "repro.core", "repro.runner"),
    "repro.mem": ("repro.mmu", "repro.cache", "repro.dram", "repro.kernel",
                  "repro.core", "repro.fusion", "repro.workloads",
                  "repro.attacks", "repro.harness", "repro.analysis",
                  "repro.runner", "repro.check", "repro.cli"),
    "repro.mmu": ("repro.mem", "repro.cache", "repro.dram", "repro.kernel",
                  "repro.core", "repro.fusion", "repro.workloads",
                  "repro.attacks", "repro.harness", "repro.analysis",
                  "repro.runner", "repro.check", "repro.cli"),
    "repro.cache": ("repro.kernel", "repro.core", "repro.fusion",
                    "repro.workloads", "repro.attacks", "repro.harness",
                    "repro.analysis", "repro.runner", "repro.cli"),
    "repro.dram": ("repro.kernel", "repro.core", "repro.fusion",
                   "repro.workloads", "repro.attacks", "repro.harness",
                   "repro.analysis", "repro.runner", "repro.cli"),
    "repro.kernel": ("repro.fusion", "repro.core", "repro.workloads",
                     "repro.attacks", "repro.harness", "repro.analysis",
                     "repro.runner", "repro.cli"),
    "repro.core": ("repro.workloads", "repro.attacks", "repro.harness",
                   "repro.analysis", "repro.runner", "repro.cli"),
    "repro.fusion": ("repro.workloads", "repro.attacks", "repro.harness",
                     "repro.analysis", "repro.runner", "repro.cli"),
    "repro.workloads": ("repro.core", "repro.fusion", "repro.attacks",
                        "repro.harness", "repro.analysis", "repro.runner",
                        "repro.cli"),
    "repro.attacks": ("repro.workloads", "repro.harness", "repro.analysis",
                      "repro.runner", "repro.cli"),
    "repro.analysis": ("repro.workloads", "repro.attacks", "repro.harness",
                       "repro.runner", "repro.cli"),
    "repro.defenses": ("repro.harness", "repro.analysis", "repro.runner",
                       "repro.cli"),
    "repro.harness": ("repro.runner", "repro.cli"),
    "repro.runner": ("repro.cli",),
    # The sanitizer is imported *by* the kernel, so the check package
    # must stay a leaf at runtime (lint-engine imports of repro.* are
    # fine only under TYPE_CHECKING).
    "repro.check": ("repro.mem", "repro.mmu", "repro.kernel", "repro.core",
                    "repro.fusion", "repro.workloads", "repro.attacks",
                    "repro.harness", "repro.analysis", "repro.runner",
                    "repro.cli"),
}

#: Modules importable from anywhere despite the layering map.
#: ``repro.runner.seeds`` is the runner's dependency-free leaf (pure
#: hashlib seed derivation); the harness spec layer shares it so
#: spec-driven and runner-driven seeds are one derivation, not two.
LAYERING_EXEMPT = frozenset({"repro.runner.seeds"})


def _forbidden_for(module: str) -> tuple[str, ...]:
    best = ""
    for prefix in LAYERING:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYERING.get(best, ())


class _LayeringVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx
        self.forbidden = _forbidden_for(ctx.module)

    def _check(self, node: ast.AST, imported: str) -> None:
        if imported in LAYERING_EXEMPT:
            return
        for prefix in self.forbidden:
            if imported == prefix or imported.startswith(prefix + "."):
                self.ctx.report(
                    "LAY001", node,
                    f"layering violation: {self.ctx.module} must not "
                    f"import {imported} (lower layers cannot depend on "
                    "orchestration/measurement layers)",
                )
                return

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            self._check(node, node.module)

    def visit_If(self, node: ast.If) -> None:
        # Imports under `if TYPE_CHECKING:` never execute; skip the body.
        test = node.test
        name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
        if name == "TYPE_CHECKING":
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)


# ----------------------------------------------------------------------
# API001 — removed deprecation shims stay removed
# ----------------------------------------------------------------------
#: Pre-runner API names that went through a deprecation cycle and are
#: now deleted, mapped to their typed replacement.
_REMOVED_NAMES = {
    "EXPERIMENT_REGISTRY":
        "repro.harness.experiments.EXPERIMENTS (ExperimentSpec registry)",
    "ENGINE_FACTORIES":
        "repro.fusion.registry.create_engine / attack_engine_factories()",
    "ATTACK_ENV_DEFAULTS":
        "the attack classes' own env_defaults",
}


class _RemovedApiVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def _flag(self, node: ast.AST, name: str) -> None:
        self.ctx.report(
            "API001", node,
            f"{name} was removed after its deprecation cycle; use "
            f"{_REMOVED_NAMES[name]}",
        )

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in _REMOVED_NAMES:
            self._flag(node, node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _REMOVED_NAMES:
            self._flag(node, node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in _REMOVED_NAMES:
                self._flag(node, alias.name)
        self.generic_visit(node)


register(Rule(
    id="API001",
    severity="error",
    summary="removed deprecation shims (EXPERIMENT_REGISTRY, "
            "ENGINE_FACTORIES, ATTACK_ENV_DEFAULTS) are not referenced",
    rationale=(
        "The PR 2 shims had one release of deprecation warnings and are "
        "now deleted; a lingering reference would NameError at runtime "
        "or, worse, resurrect a second registry that drifts from the "
        "typed one. The linter keeps the old spellings from creeping "
        "back in through copy-paste."
    ),
    checker=_RemovedApiVisitor,
))


register(Rule(
    id="LAY001",
    severity="error",
    summary="imports respect the layer order (mem/mmu → kernel → "
            "fusion → attacks → harness → runner → cli)",
    rationale=(
        "Attacks measuring an engine must not reach into orchestration "
        "(a result that depends on how it was launched is not a "
        "result), engines must not know about the runner, and the "
        "frame store must stay a leaf so FrameSan and the fingerprint "
        "barrier see every mutation. TYPE_CHECKING imports are exempt."
    ),
    checker=_LayeringVisitor,
    applies_to=_in_packages("repro"),
))
