"""A simulation run imports no third-party package and no static analyzer.

The simulator is pure Python; SciPy (the ``repro[stats]`` extra) is
imported only inside the two KS helpers of ``repro.analysis.stats``.
Of ``repro.check`` a run needs only FrameSan (``sanitizer``) and its
provenance log; the package resolves the static tiers' names lazily.
The probe runs in a fresh interpreter, so modules this test session
already loaded cannot mask an import, and it watches import
*attempts* as well as ``sys.modules``: a guarded ``try: import numpy``
counts even on a host without NumPy installed.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: What the CLI and a benchmark round import.
RUN_MODULES = (
    "repro.cli",
    "repro.harness.experiments",
    "repro.harness.fleet",
    "repro.harness.scenario",
    "repro.harness.shardfleet",
    "repro.harness.spec",
    "repro.runner.artifacts",
    "repro.runner.shardpool",
)

FORBIDDEN = ("numpy", "scipy")

#: The only ``repro.check`` submodules a run may load.
RUNTIME_CHECKERS = ("repro.check.provenance", "repro.check.sanitizer")

PROBE = """
import importlib, json, sys

attempts = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {forbidden!r}:
            attempts.append(name)
        return None

sys.meta_path.insert(0, Watch())
sys.path.insert(0, {src!r})
for module in {modules!r}:
    importlib.import_module(module)
loaded = sorted(name for name in sys.modules
                if name.partition(".")[0] in {forbidden!r})
checkers = sorted(name for name in sys.modules
                  if name.startswith("repro.check."))
print(json.dumps({{"attempts": attempts, "loaded": loaded,
                  "checkers": checkers}}))
"""


@pytest.fixture(scope="module")
def seen() -> dict:
    """What a fresh interpreter imported for ``RUN_MODULES``."""
    probe = PROBE.format(
        forbidden=FORBIDDEN, src=str(SRC), modules=RUN_MODULES
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_run_imports_no_numpy_or_scipy(seen):
    assert (seen["attempts"], seen["loaded"]) == ([], [])


def test_run_imports_no_static_analyzer(seen):
    assert seen["checkers"] == list(RUNTIME_CHECKERS)


def test_check_package_exports_resolve():
    import repro.check

    for name in repro.check.__all__:
        assert getattr(repro.check, name) is not None, name
