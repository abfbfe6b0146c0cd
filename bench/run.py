"""Cold-process benchmark of the trisecant engine.

    python3 bench/run.py --workload {sweep,large-d,verify} --seed N --seconds S --trace {0,1}

Every timed run is a fresh interpreter (bench/child.py) that imports
``trisecant`` from this checkout's ``src/``, because the engine's caches are
per process and a command-line user starts with them cold.  Children run one
after another, a closed loop of one client, until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics: medians over the children of
``wall_ref`` (see child.py) and ``peak_rss_mb``, and of ``setup_s`` over
the children and the import-only probes run between them.  ``--trace 1`` alternates untraced
and traced children (at least one and two) and prints the per-layer metrics
of bench/layers.py; counts must repeat exactly across the traced children.

The last stdout line is the result object; the line before it records the
run: interpreter, CPUs, load, commit, seed, sizes and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
# Import-only children before each timed child.
SETUP_PROBES = 2
# Every run must end within 180 s; a child still running at this point is killed.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot measure; no result is printed."""


def spawn(spec: dict, deadline: float) -> tuple[dict, float, float]:
    """Run one child; return its record, its set-up time and its lifetime."""
    args = [sys.executable, str(CHILD), str(SRC), json.dumps(spec)]
    started = time.monotonic()
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            out, _ = child.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchError("a child overran the run's time limit") from None
    if child.returncode != 0:
        raise BenchError(f"child exited with code {child.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    return record, record["ready"] - started, time.monotonic() - started


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
    }
    if not (SRC / "trisecant" / "__init__.py").is_file():
        raise BenchError(f"no trisecant package under {SRC}")
    # The first import compiles the bytecode; this probe is not counted.
    probe, _, _ = spawn({"setup_only": True}, deadline)
    meta["trisecant_file"] = probe["trisecant_file"]
    meta["methods"] = probe["methods"]
    ops = workloads.build(args.workload, args.seed, probe["methods"], args.smoke)
    meta["sizes"] = workloads.sizes(ops)

    setups = []
    runs = {False: [], True: []}
    attempted = failed = 0
    errors = []
    spec = {"ops": ops, "inject_wrong_degree": args.inject_wrong_degree}
    traced = False
    while True:
        if not args.trace:
            # Spread over the run, so set-up is timed on the same machine state.
            setups += [spawn({"setup_only": True}, deadline)[1] for _ in range(SETUP_PROBES)]
        record, setup, lifetime = spawn({**spec, "trace": traced}, deadline)
        runs[traced].append(record)
        setups.append(setup)
        attempted += record["attempted"]
        failed += record["failed"]
        errors.extend(record["errors"])
        if args.trace:
            enough = len(runs[False]) >= 1 and len(runs[True]) >= 2
            traced = not traced or len(runs[True]) < 2
        else:
            enough = True
        if enough and time.monotonic() - started + lifetime > args.seconds:
            break

    meta["loadavg_end"] = os.getloadavg()
    meta["failed_ratio"] = failed / attempted
    meta["errors"] = errors[:10]
    meta["samples"] = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in runs[False]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs[False]],
        "wall_ref": [r["wall_ref"] for r in runs[False]],
        "slices": [r["slices"] for r in runs[False]],
    }
    meta["wall_s"] = statistics.median(meta["samples"]["wall_s"])
    correct = failed == 0
    if args.trace:
        meta["samples"]["traced_wall_s"] = [r["wall_s"] for r in runs[True]]
        meta["samples"]["traced_wall_ref"] = [r["wall_ref"] for r in runs[True]]
        metrics, repeatable = layer_metrics(runs)
        meta["unwrapped"] = runs[True][0]["unwrapped"]
        correct = correct and repeatable
    else:
        samples = meta["samples"]
        metrics = {
            "wall_ref": {"value": statistics.median(samples["wall_ref"]), "unit": "slices"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return meta, result


def layer_metrics(runs: dict) -> tuple[dict, bool]:
    """Per-layer metrics and whether every count repeated exactly."""
    traced = [r["layers"] for r in runs[True]]
    specs = layers.per_layer_metrics()
    counts = [name for name, (unit, _) in specs.items() if unit == "count"]
    repeatable = all(t[name] == traced[0][name] for t in traced for name in counts)
    if not repeatable:
        print("error: per-layer counts differ between traced runs", file=sys.stderr)
    metrics = {}
    for name, (unit, _) in specs.items():
        if name == "trace_overhead":
            value = statistics.median(r["wall_ref"] for r in runs[True]) / statistics.median(
                r["wall_ref"] for r in runs[False]
            )
        elif unit == "count":
            value = traced[0][name]
        else:
            value = statistics.median(t[name] for t in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeatable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's tests"
    )
    parser.add_argument(
        "--inject-wrong-degree", action="store_true",
        help="make every degree wrong by one, to test the correctness gate",
    )
    args = parser.parse_args(argv)
    try:
        meta, result = measure(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
