"""Correctness tooling for the simulation's own invariants.

Static tiers plus a runtime sanitizer, mirroring how the kernel pairs
``checkpatch``-style static checks with runtime sanitizers (KASAN):

* **simlint** (:mod:`repro.check.engine`, :mod:`repro.check.rules`) —
  an AST linter enforcing the determinism and layering contracts the
  reproduction's claims rest on (``python -m repro lint``).
* **simflow** (:mod:`repro.check.cfg`, :mod:`repro.check.lattice`,
  :mod:`repro.check.flow_rules`) — an intraprocedural CFG + worklist
  dataflow analyzer whose FLOW rules prove *path* properties the AST
  rules cannot see: the S ⊕ F mapping discipline, charge/ledger
  exception safety, frame-handle leaks and taint into artifacts —
  plus an interprocedural tier (:mod:`repro.check.callgraph`,
  :mod:`repro.check.summaries`, :mod:`repro.check.ip_rules`) that
  closes those rules over the project call graph with bottom-up
  function summaries: cross-function leak/taint tracking
  (FLOW003-ip/FLOW004-ip), the shard-ownership rule (FLOW005) and
  annotation-vs-inference checking (FLOW006).
* **simrace** (:mod:`repro.check.race`) — an ownership & determinism
  race detector over the extracted concurrency model (spawn sites,
  communication edges): fork-boundary aliasing (RACE001), unordered
  result merges (RACE002), undeclared worker reads of fork-inherited
  state (RACE003) and nondeterministic/unpicklable values on the
  pickle boundary (RACE004).
* **FrameSan** (:mod:`repro.check.sanitizer`) — a runtime frame
  sanitizer (``REPRO_SANITIZE=1``) that poisons freed frames, detects
  use-after-free / double-free / CoW violations and audits refcount
  and merge-charge accounting at end of run.

The package resolves its public names lazily (PEP 562): a simulation
imports only :mod:`repro.check.sanitizer` (and its provenance log), so
no run pays for loading the static analyzers it never calls.
"""

from __future__ import annotations

import importlib

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS: dict[str, str] = {
    **dict.fromkeys(("Finding", "LintResult", "lint_paths", "lint_project",
                     "lint_source", "check_annotations", "engine_of",
                     "rule_catalog"), "engine"),
    "SummaryCache": "cache",
    **dict.fromkeys(("CallGraph", "ModuleFacts", "extract_facts"), "callgraph"),
    **dict.fromkeys(("IP_RULES", "IpRule", "IpAnalysis"), "ip_rules"),
    **dict.fromkeys(("RACE_RULES", "RaceRule", "RaceAnalysis",
                     "OWNERSHIP_FACTS"), "race"),
    **dict.fromkeys(("FIXABLE_RULES", "fix_paths", "fix_source"), "fixes"),
    **dict.fromkeys(("LocalSummary", "TransitiveSummary", "summarize_function",
                     "summarize_project"), "summaries"),
    **dict.fromkeys(("Baseline", "apply_baseline", "load_baseline",
                     "write_baseline"), "baseline"),
    **dict.fromkeys(("render_findings", "findings_to_json",
                     "findings_to_sarif"), "reporting"),
    **dict.fromkeys(("RULES", "Rule"), "rules"),
    **dict.fromkeys(("FLOW_RULES", "FlowRule"), "flow_rules"),
    **dict.fromkeys(("FunctionCFG", "build_cfg", "iter_functions"), "cfg"),
    **dict.fromkeys(("solve_forward", "solve_must_reach"), "lattice"),
    **dict.fromkeys(("FrameSan", "SanitizerError", "UseAfterFreeError",
                     "DoubleFreeError", "BadFreeError", "CowViolationError",
                     "AccountingError", "sanitizer_enabled"), "sanitizer"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
