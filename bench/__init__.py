"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m bench`` from the repository root; see bench/README.md.
"""

from __future__ import annotations

import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: In the order the default mode starts them.  Why each was chosen is
#: in BENCHMARK.json and bench/README.md.
WORKLOADS = ("fleet-ksm", "fleet-vusion", "attack-matrix", "fleet-sharded")
#: 2029 is the held-out seed (see README.md).
DEFAULT_SEED = 1017


def clean_env() -> dict[str, str]:
    """This environment with ``src`` on the path and no ``REPRO_*``
    variable, so a child always runs the default stack."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env
