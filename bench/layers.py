"""The simulator's layers as the traced round sees them.

:data:`LAYERS` names the public functions wrapped for each layer.
:class:`LayerTrace` installs those wrappers before any machine is built
(engines bind ``scan_tick`` when they register their daemon), collects
the stats objects the extra metrics read, and turns one or more traced
rounds into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import pickle
import re
import statistics
import subprocess
import sys
import time

from bench import ROOT, clean_env
from bench.trace import Tracer

#: (layer, module, wrapped functions as ``Class.attr`` or ``function``).
#: A layer may span several modules.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("fusion.tree", "repro.fusion.rbtree",
     ("RedBlackTree.search", "RedBlackTree.insert", "RedBlackTree.remove",
      "RedBlackTree.discard")),
    ("fusion.tree", "repro.fusion.avl",
     ("AvlTree.search", "AvlTree.insert", "AvlTree.remove")),
    ("fusion.scan", "repro.fusion.ksm", ("Ksm.scan_tick",)),
    ("fusion.scan", "repro.core.vusion", ("Vusion.scan_tick",)),
    ("fusion.scan", "repro.fusion.wpf", ("WindowsPageFusion.full_pass",)),
    ("kernel.map", "repro.kernel.kernel",
     ("Kernel.map_page", "Kernel.unmap_page", "Kernel.map_huge",
      "Kernel.unmap_huge", "Kernel.split_huge_mapping")),
    ("mmu.page_table", "repro.mmu.page_table",
     ("PageTable.walk", "PageTable.map_page", "PageTable.map_huge",
      "PageTable.unmap", "PageTable.split_huge", "PageTable.collapse_to_huge")),
    ("core.random_pool", "repro.core.random_pool",
     ("RandomFramePool.alloc", "RandomFramePool.free", "RandomFramePool.drain")),
    ("core.deferred_free", "repro.core.deferred_free",
     ("DeferredFreeQueue.drain",)),
    ("mem.buddy", "repro.mem.buddy",
     ("BuddyAllocator.alloc", "BuddyAllocator.free",
      "BuddyAllocator.alloc_specific")),
    ("mem.physmem.retype", "repro.mem.physmem",
     ("PhysicalMemory.set_frame_type",)),
    ("kernel.access", "repro.kernel.kernel", ("Kernel.access",)),
    ("mmu.tlb", "repro.mmu.tlb",
     ("Tlb.lookup", "Tlb.insert", "Tlb.invalidate_page")),
    ("cache.llc", "repro.cache.llc",
     ("LastLevelCache.access", "LastLevelCache.probe")),
    ("cache.timing", "repro.cache.timing", ("AccessTimer.memory_access",)),
    ("mem.physmem", "repro.mem.physmem",
     ("PhysicalMemory.read", "PhysicalMemory.write", "PhysicalMemory.copy")),
    # The default (batch) scan kernel; the traced round runs without
    # REPRO_* variables, so it is the one in use.
    ("mem.scankernel", "repro.mem.scankernel",
     tuple(f"BatchScanKernel.{name}" for name in (
         "pfn_batch", "is_zero_frame", "zero_frames", "group_by_content",
         "dirty_intersection", "any_fused", "generation_snapshot",
         "changed_since", "digest_sweep", "refcount_sum"))),
    ("harness.boot", "repro.harness.scenario", ("Scenario.boot",)),
    ("harness.retire", "repro.harness.scenario", ("Scenario.retire",)),
    ("kernel.daemons", "repro.kernel.daemons", ("DaemonScheduler.run_due",)),
    ("kernel.khugepaged", "repro.kernel.khugepaged", ("Khugepaged.scan",)),
    ("mem.shard", "repro.mem.shard",
     ("ShardContentTable.build", "resolve_exchange", "verify_exchange")),
    ("harness.shardfleet", "repro.harness.shardfleet",
     ("run_one_shard", "combine_shard_results")),
)

#: Layers whose every span keeps a record: boots, retirements, scan
#: ticks, exchange rounds and shard runs.  Ops are coarse spans too.
COARSE = frozenset({"harness.boot", "harness.retire", "fusion.scan",
                    "mem.shard", "harness.shardfleet"})

#: Simulated-time accounts of the scan daemons (``kernel.stats.daemon_ns``).
SCAN_DAEMONS = ("ksmd", "vusion", "wpf")

#: Per-layer metrics beyond ``<layer>.calls`` and ``<layer>.self_ms``.
EXTRA_METRICS = (
    "fusion.tree.physmem_reads",
    "fusion.scan.useful_ratio",
    "fusion.scan.host_ns_per_sim_ns",
    "kernel.faults.demand",
    "kernel.faults.cow",
    "kernel.faults.coa",
    "mem.arena.intern_hit_ratio",
    "mem.arena.digest_hit_ratio",
    "mem.arena.peak_unique",
    "harness.shardfleet.imbalance",
    "runner.shardpool.result_kb",
    "runner.shardpool.pickle_ms",
    "setup.import_ms",
    "setup.import.scipy_ms",
    "setup.import.numpy_ms",
    "setup.import.repro_ms",
    "setup.rss_import_mb",
    "trace.overhead",
)


def layer_names() -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in LAYERS))


def metric_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer in layer_names():
        names += [f"{layer}.calls", f"{layer}.self_ms"]
    return names + list(EXTRA_METRICS)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTrace:
    """Every layer of :data:`LAYERS` wrapped, plus the stats it sees."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: (KernelStats, ArenaStats or None, FingerprintStats) per machine.
        self.machines: list[tuple] = []
        self.engines: list = []
        self.shard_results: list = []

    def install(self) -> None:
        tracer = self.tracer
        for layer, module_name, functions in LAYERS:
            module = importlib.import_module(module_name)
            for function in functions:
                owner_name, _, attr = function.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                tracer.patch(owner, attr, lambda fn, layer=layer: tracer.timed(
                    fn, layer, fn.__qualname__ if layer in COARSE else None))
        kernel_cls = importlib.import_module("repro.kernel.kernel").Kernel
        shardfleet = importlib.import_module("repro.harness.shardfleet")
        self._observe(kernel_cls, "__init__", self._machine_built)
        self._observe(kernel_cls, "attach_fusion",
                      lambda args, _: self.engines.append(args[1].stats))
        self._observe(shardfleet, "run_one_shard",
                      lambda args, result: self.shard_results.append(result))

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _observe(self, owner, attr: str, callback) -> None:
        def make(fn):
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                callback(args, result)
                return result
            return observed
        self.tracer.patch(owner, attr, make)

    def _machine_built(self, args, _result) -> None:
        physmem = args[0].physmem
        arena = physmem.arena.stats if physmem.arena is not None else None
        self.machines.append((args[0].stats, arena, physmem.fingerprints.stats))

    def run_op(self, op):
        """Run one op inside its own named span."""
        return self.tracer.timed(op.outcome, "op", op.label)()

    # -- metrics --------------------------------------------------------
    def _layer_totals(self) -> dict[str, list[int]]:
        """layer -> [calls, total_ns, self_ns] over every parent."""
        totals: dict[str, list[int]] = {}
        for (_, layer), (calls, total, own) in self.tracer.edges.items():
            entry = totals.setdefault(layer, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return totals

    def metrics(self, rounds: int) -> dict[str, float]:
        """Span- and stats-derived metrics, per traced round."""
        totals = self._layer_totals()
        metrics: dict[str, float] = {}
        for layer in layer_names():
            calls, _, own = totals.get(layer, (0, 0, 0))
            metrics[f"{layer}.calls"] = calls / rounds
            metrics[f"{layer}.self_ms"] = own / 1e6 / rounds
        edges = self.tracer.edges
        metrics["fusion.tree.physmem_reads"] = (
            edges.get(("fusion.tree", "mem.physmem"), (0,))[0] / rounds)

        fused = sum(stats.merges + stats.fake_merges for stats in self.engines)
        scanned = sum(stats.pages_scanned for stats in self.engines)
        metrics["fusion.scan.useful_ratio"] = _ratio(fused, scanned)
        scan_sim_ns = sum(kernel.daemon_ns.get(name, 0)
                          for kernel, _, _ in self.machines
                          for name in SCAN_DAEMONS)
        metrics["fusion.scan.host_ns_per_sim_ns"] = _ratio(
            totals.get("fusion.scan", (0, 0))[1], scan_sim_ns)

        for kind in ("demand", "cow", "coa"):
            metrics[f"kernel.faults.{kind}"] = sum(
                getattr(kernel, f"{kind}_faults")
                for kernel, _, _ in self.machines) / rounds

        arenas = [arena for _, arena, _ in self.machines if arena is not None]
        hits = sum(arena.intern_hits for arena in arenas)
        metrics["mem.arena.intern_hit_ratio"] = _ratio(
            hits, hits + sum(arena.intern_misses for arena in arenas))
        digest_hits = sum(fp.digest_hits for _, _, fp in self.machines)
        metrics["mem.arena.digest_hit_ratio"] = _ratio(
            digest_hits,
            digest_hits + sum(fp.digest_misses for _, _, fp in self.machines))
        metrics["mem.arena.peak_unique"] = max(
            (arena.peak_unique for arena in arenas), default=0)

        metrics["harness.shardfleet.imbalance"] = self._imbalance()
        started = time.perf_counter()
        pickled = sum(len(pickle.dumps(result)) for result in self.shard_results)
        pickle_s = time.perf_counter() - started if self.shard_results else 0.0
        metrics["runner.shardpool.result_kb"] = pickled / 1024 / rounds
        metrics["runner.shardpool.pickle_ms"] = pickle_s * 1e3 / rounds
        return metrics

    def _imbalance(self) -> float:
        """Max over mean per-shard run time, averaged over sharded ops."""
        by_op: dict[int, list[int]] = {}
        for record in self.tracer.records:
            if record["name"] == "run_one_shard":
                by_op.setdefault(record["op"], []).append(
                    record["end_ns"] - record["start_ns"])
        ratios = [max(spans) / statistics.mean(spans)
                  for spans in by_op.values()]
        return statistics.mean(ratios) if ratios else 0.0


#: ``import time: <self us> | <cumulative us> | <indented module>``
_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def import_profile() -> dict[str, float]:
    """``setup.*`` metrics from ``python -X importtime`` in a fresh
    process importing what a round imports."""
    probe = ("import resource, bench.workloads; "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe],
        cwd=ROOT, env=clean_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    total_us = 0
    package_us = {"scipy": 0, "numpy": 0, "repro": 0}
    for line in completed.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            own, package = int(match[1]), match[2].split(".")[0]
            total_us += own
            if package in package_us:
                package_us[package] += own
    metrics = {"setup.import_ms": total_us / 1e3}
    for package, own in package_us.items():
        metrics[f"setup.import.{package}_ms"] = own / 1e3
    metrics["setup.rss_import_mb"] = int(completed.stdout.split()[-1]) / 1024
    return metrics
