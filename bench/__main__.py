"""``python -m bench``: the repository benchmark.

::

    python -m bench [--seed N]
        Five rounds of every workload, interleaved, each in a fresh
        process; prints every end-to-end metric and writes
        bench/out/result-<seed>.json.
    python -m bench --workload W [--seed N] [--seconds S]
        Rounds of one workload until S seconds have passed; the last
        line of output is one JSON result.
    python -m bench --trace [--workload W] [--seed N] [--seconds S]
        In-process, an untraced round, then traced rounds (until S
        seconds with --workload, else one); prints the per-layer table
        and writes bench/out/trace-<workload>.json.
    python -m bench --compare BASE.json NEW.json
        Per workload and end-to-end metric: medians, quartiles, ratio
        and verdict against BENCHMARK.json's bounds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

from bench import DEFAULT_SEED, OUT, ROOT, WORKLOADS, clean_env

#: Rounds per workload in the default mode.
ROUNDS = 5
#: A round that takes longer than this is killed and counts as failed
#: (rounds take 3-15 s; a workload run must end within 180 s).
ROUND_TIMEOUT_S = 120


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "machine": platform.machine()}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    return facts


# ---------------------------------------------------------------------------
# Untraced rounds, each in a fresh process
# ---------------------------------------------------------------------------
def spawn_round(workload: str, seed: int) -> dict:
    """One round in a fresh process: its metrics and op outcomes, or an
    ``error`` when the process failed."""
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.round", workload, str(seed)],
        cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The shard pool's workers share the round's process group.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"round timed out after {ROUND_TIMEOUT_S} s"}
    if process.returncode != 0:
        return {"error": f"round exited with code {process.returncode}"}
    payload = json.loads(stdout.splitlines()[-1])
    work = sum(op["work"] for op in payload["ops"])
    return {
        "setup_s": payload["ready_at"] - started,
        "wall_s": payload["wall_s"],
        "sim_pages_per_s": work / payload["wall_s"],
        "peak_rss_mb": payload["peak_rss_mb"],
        "ops": payload["ops"],
    }


def check_rounds(workload: str, seed: int, rounds: list[dict],
                 pins: dict) -> dict:
    """Counts, failure messages and the digests of a workload's rounds.

    Every op's digest must match the digest pinned for this seed or,
    without a pin, the first digest seen for it.
    """
    pinned = pins.get(workload, {}).get(str(seed), {})
    digests: dict[str, str] = dict(pinned)
    attempted = failed = 0
    messages = []
    for index, result in enumerate(rounds, 1):
        if "error" in result:
            attempted += 1
            failed += 1
            messages.append(f"{workload} round {index}: {result['error']}")
            continue
        for op in result["ops"]:
            attempted += 1
            problems = list(op["failures"])
            expected = digests.setdefault(op["label"], op["digest"])
            if op["digest"] != expected:
                origin = "pinned" if op["label"] in pinned else "first"
                problems.append(f"digest {op['digest'][:16]} differs from "
                                f"the {origin} digest {expected[:16]}")
            if problems:
                failed += 1
                messages += [f"{workload} round {index} op {op['label']}: "
                             f"{problem}" for problem in problems]
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "digests": digests}


def round_values(rounds: list[dict], metrics: list[dict]) -> dict:
    return {metric["name"]: [result[metric["name"]] for result in rounds
                             if "error" not in result]
            for metric in metrics}


def describe(values: list[float], unit: str) -> str:
    return (f"{statistics.median(values):12.4f} {unit:<8} "
            f"min {min(values):.4f}  max {max(values):.4f}  n={len(values)}")


def print_checks(check: dict) -> None:
    error_rate = check["failed"] / check["attempted"]
    print(f"  error_rate       {error_rate:12.4f} share    "
          f"({check['failed']} of {check['attempted']} ops failed)")
    for message in check["messages"]:
        print(f"  FAIL {message}")


def run_workload(args, benchmark: dict, pins: dict) -> int:
    """Rounds of one workload for ``--seconds``; one JSON result line."""
    metrics = benchmark["end_to_end"]
    start = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(spawn_round(args.workload, args.seed))
    check = check_rounds(args.workload, args.seed, rounds, pins)
    values = round_values(rounds, metrics)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in "
          f"{time.monotonic() - start:.1f} s")
    if not values[metrics[0]["name"]]:
        print_checks(check)
        return 1
    for metric in metrics:
        print(f"  {metric['name']:<16} "
              f"{describe(values[metric['name']], metric['unit'])}")
    print_checks(check)
    correct = check["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {metric["name"]: {
            "value": statistics.median(values[metric["name"]]),
            "unit": metric["unit"],
        } for metric in metrics},
    }))
    return 0 if correct else 1


def run_suite(args, benchmark: dict, pins: dict) -> int:
    """Five rounds of every workload, alternating the order each round."""
    metrics = benchmark["end_to_end"]
    rounds: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for index in range(ROUNDS):
        order = WORKLOADS if index % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            print(f"round {index + 1}/{ROUNDS}: {workload}", flush=True)
            rounds[workload].append(spawn_round(workload, args.seed))
    result = {"seed": args.seed, "host": host_facts(), "workloads": {}}
    correct = True
    print(f"\nseed {args.seed}, {ROUNDS} rounds per workload; "
          f"median, min, max and n per metric")
    for workload in WORKLOADS:
        check = check_rounds(workload, args.seed, rounds[workload], pins)
        values = round_values(rounds[workload], metrics)
        correct = correct and check["failed"] == 0
        result["workloads"][workload] = {"values": values, **check}
        print(workload)
        for metric in metrics:
            if values[metric["name"]]:
                print(f"  {metric['name']:<16} "
                      f"{describe(values[metric['name']], metric['unit'])}")
        print_checks(check)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.seed}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"correct: {correct}; result written to "
          f"{path.relative_to(ROOT)}")
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Traced rounds, in this process
# ---------------------------------------------------------------------------
def trace_workload(workload: str, seed: int, seconds: float, pins: dict,
                   units: dict) -> tuple[dict, dict]:
    """An untraced round, then traced rounds until ``seconds`` passed.

    Both run in this process with the sharded fleet serial, so the
    overhead ratio compares like with like.  Returns the per-layer
    metrics and the checks of every round.
    """
    from bench.layers import LayerTrace, import_profile
    from bench.workloads import prepare

    def timed_round(layers: LayerTrace | None) -> tuple[float, list]:
        ops = prepare(workload, seed, serial_shards=True)
        begin = time.perf_counter()
        outcomes = [op.outcome() if layers is None else layers.run_op(op)
                    for op in ops]
        return time.perf_counter() - begin, outcomes

    start = time.monotonic()
    rounds = [timed_round(None)]
    layers = LayerTrace()
    try:
        layers.install()
        while len(rounds) < 2 or time.monotonic() - start < seconds:
            rounds.append(timed_round(layers))
    finally:
        layers.uninstall()
    traced = len(rounds) - 1

    # The untraced round comes first, so without a pin every traced
    # digest is checked against it.
    check = check_rounds(workload, seed, [
        {"ops": [asdict(outcome) for outcome in outcomes]}
        for _, outcomes in rounds
    ], pins)
    metrics = layers.metrics(traced)
    metrics.update(import_profile())
    metrics["trace.overhead"] = (
        statistics.median(wall for wall, _ in rounds[1:]) / rounds[0][0])

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_rounds": traced,
        "metrics": metrics,
        "edges": [{"parent": parent, "layer": layer, "calls": calls,
                   "total_ns": total, "self_ns": own}
                  for (parent, layer), (calls, total, own)
                  in sorted(layers.tracer.edges.items(), key=str)],
        "spans": layers.tracer.records,
    }) + "\n", encoding="utf-8")
    print_layer_table(workload, seed, layers, traced, metrics, units)
    print_checks(check)
    return metrics, check


def print_layer_table(workload: str, seed: int, layers, rounds: int,
                      metrics: dict, units: dict) -> None:
    from bench.layers import layer_names

    op_ns = layers.tracer.edges[(None, "op")][1] / rounds
    print(f"{workload} seed {seed}: {rounds} traced round(s), "
          f"{op_ns / 1e6:.1f} ms of traced op time per round")
    print(f"  {'layer':<20} {'calls':>12} {'self_ms':>12} {'share':>7}")
    for layer in layer_names():
        self_ms = metrics[f"{layer}.self_ms"]
        print(f"  {layer:<20} {metrics[f'{layer}.calls']:>12.0f} "
              f"{self_ms:>12.1f} {self_ms * 1e6 / op_ns:>7.1%}")
    for name, value in metrics.items():
        if not name.endswith((".calls", ".self_ms")):
            print(f"  {name:<34} {value:14.4f} {units[name]}")


def run_trace(args, benchmark: dict, pins: dict) -> int:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    units = {metric["name"]: metric["unit"]
             for metric in benchmark["per_layer"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.workload else 0
    attempted = failed = 0
    metrics: dict = {}
    for workload in workloads:
        metrics, counts = trace_workload(workload, args.seed, seconds,
                                         pins, units)
        attempted += counts["attempted"]
        failed += counts["failed"]
    if args.workload:
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    benchmark = load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        from bench.compare import compare, render

        base, new = (load_json(path) for path in args.compare)
        print(render(compare(base, new, benchmark)))
        for workload, result in new["workloads"].items():
            if result["failed"]:
                print(f"{workload}: {result['failed']} of "
                      f"{result['attempted']} new ops failed")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pins = load_json(ROOT / "bench" / "digests.json")
    if args.trace:
        return run_trace(args, benchmark, pins)
    if args.workload:
        return run_workload(args, benchmark, pins)
    return run_suite(args, benchmark, pins)


if __name__ == "__main__":
    sys.exit(main())
