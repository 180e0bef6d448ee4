#!/usr/bin/env python3
"""The repository's benchmark: six workloads, named metrics, a traced run.

Two ways in, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    the driver's contract (``BENCHMARK.json``): one workload, in this
    process, ending with one JSON line ``{correct, attempted, failed,
    metrics}`` — every end-to-end metric with ``--trace 0``, every
    per-layer metric with ``--trace 1``.

``run.py --seed 1983``
    the whole suite: each workload in its own fresh child process, one
    after another, untraced then traced, every metric printed by name
    with its unit.  ``--smoke`` shrinks every phase to about a second;
    ``--repeat N --check-noise`` runs N sets and compares them against
    the bounds; ``--out`` writes the numbers with their provenance.

Exit status is non-zero when any workload's outputs were incorrect, any
operation failed, a pinned count moved, or ``--check-noise`` found an
end-to-end metric it cannot resolve.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)


def import_program():
    """Put this checkout's ``src`` first on the path and import the
    workloads (and with them the program); returns (module, seconds)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit(
            f"run.py: no program to measure: {source}/repro is missing "
            "(the benchmark runs from the root of a checkout)"
        )
    sys.path[:0] = [source, HERE]
    start = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - start


def provenance(seed: int) -> dict:
    """Who produced these numbers, and on what."""

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    from repro.cluster.codec import WIRE_ENCODING

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wire_encoding": WIRE_ENCODING,
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


# ---------------------------------------------------------------------- #
# One workload, in this process (the driver's contract)
# ---------------------------------------------------------------------- #


def run_one(args, benchmark: dict) -> int:
    workloads, import_s = import_program()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {names}")
    traced = bool(args.trace)
    opts = workloads.Options(
        seed=args.seed, seconds=args.seconds, trace=traced, smoke=args.smoke
    )
    print(f"# provenance {json.dumps(provenance(args.seed))}")
    started = time.perf_counter()
    run = workloads.run_workload(args.workload, opts, import_s)
    wall = time.perf_counter() - started

    pins = load_pins()
    if args.seed == pins["seed"]:
        for name, expected in pins.get(args.workload, {}).items():
            if run.pins.get(name) != expected:
                run.fail(
                    f"{name} is {run.pins.get(name)}, pinned at {expected} "
                    f"for seed {pins['seed']}"
                )
    declared = benchmark["per_layer" if traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    for name in units:
        value = run.metrics.get(name)
        if value is None or not math.isfinite(value):
            run.fail(f"metric {name} is {value!r}")
            run.metrics[name] = 0.0

    print(
        f"workload {args.workload}  seed {args.seed}  seconds "
        f"{args.seconds:g}  trace {int(traced)}  wall {wall:.2f} s"
    )
    for name, unit in units.items():
        print(f"  {name:<36} {run.metrics[name]:>16.4f} {unit}")
    unit_of_work = {w.name: w.unit_of_work for w in workloads.catalog.WORKLOADS}
    print(
        f"  ops_attempted {run.attempted}  ops_failed {run.failed}  "
        f"(throughput counts: {unit_of_work[args.workload]})"
    )
    for problem in run.problems:
        print(f"  PROBLEM {problem}")
    if traced and args.trace_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)),
                    exist_ok=True)
        run.tracer.write(
            args.trace_out,
            {"workload": args.workload, "seed": args.seed},
        )
        print(f"  spans written to {args.trace_out}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, run.attempted),
                "failed": run.failed,
                "metrics": {
                    name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# The whole suite: one child process per workload and pass
# ---------------------------------------------------------------------- #


def run_child(name: str, args, traced: bool, set_index: int) -> dict:
    """One workload in a fresh interpreter; its last line is the result."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(traced)),
    ]
    if args.smoke:
        command.append("--smoke")
    if traced:
        command += [
            "--trace-out",
            os.path.join(
                args.trace_out or OUT_DIR,
                f"spans-{name}-seed{args.seed}-set{set_index}.json",
            ),
        ]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
    result["wall_s"] = wall
    result["exit"] = done.returncode
    result["problems"] = [
        line.strip() for line in lines if line.strip().startswith("PROBLEM")
    ]
    return result


def print_table(title: str, metrics: list, names: list, results: dict) -> None:
    print(f"\n{title}")
    width = max(len(metric["name"]) for metric in metrics) + 8
    print(" " * width + "".join(f"{name:>19}" for name in names))
    for metric in metrics:
        label = f"{metric['name']} [{metric['unit']}]"
        cells = []
        for name in names:
            entry = results[name].get("metrics", {}).get(metric["name"])
            cells.append(
                f"{entry['value']:>19.4f}" if entry else f"{'-':>19}"
            )
        print(f"{label:<{width}}" + "".join(cells))


def run_set(args, benchmark: dict, set_index: int) -> dict:
    """Every workload once per requested pass; returns
    ``{"end_to_end": {workload: result}, "per_layer": {...}}``."""
    names = [workload["name"] for workload in benchmark["workloads"]]
    passes = []
    if args.trace in (None, 0):
        passes.append(("end_to_end", False))
    if args.trace in (None, 1) and not args.check_noise:
        passes.append(("per_layer", True))
    out: dict = {}
    for key, traced in passes:
        out[key] = {}
        for name in names:
            result = out[key][name] = run_child(name, args, traced, set_index)
            state = "ok" if result["correct"] and result["exit"] == 0 else "FAILED"
            print(
                f"[set {set_index}] {name:<18} trace {int(traced)}  "
                f"{result['wall_s']:6.1f} s  attempted "
                f"{result['attempted']}  failed {result['failed']}  {state}",
                flush=True,
            )
            for problem in result["problems"]:
                print(f"    {problem}")
        title = (
            "per-layer metrics (traced run)" if traced
            else "end-to-end metrics (tracing off)"
        )
        print_table(title, benchmark[key], names, out[key])
    return out


def check_noise(sets: list, benchmark: dict) -> int:
    """Compare the end-to-end metrics of N sets of runs of the same code.

    A metric whose spread across the sets, (max - min) / median, exceeds
    its own bound cannot tell a regression of that size from noise: it
    is reported as *unresolved*, never as unchanged.
    """
    unresolved = 0
    print("\nnoise check: spread across sets against each metric's bound")
    print(f"{'workload':<20}{'metric':<20}{'values':<44}{'spread':>8}"
          f"{'bound':>7}  verdict")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            values = [
                one["end_to_end"][name]["metrics"][metric["name"]]["value"]
                for one in sets
                if metric["name"] in one["end_to_end"][name].get("metrics", {})
            ]
            if len(values) < len(sets):
                verdict, spread = "unresolved (missing)", math.inf
            else:
                spread = (max(values) - min(values)) / statistics.median(values)
                verdict = (
                    "within bound" if spread <= metric["bound"]
                    else "unresolved"
                )
            if verdict != "within bound":
                unresolved += 1
            shown = " ".join(f"{value:.4g}" for value in values)
            print(f"{name:<20}{metric['name']:<20}{shown:<44}"
                  f"{spread:>8.3f}{metric['bound']:>7.2f}  {verdict}")
    return unresolved


def run_suite(args, benchmark: dict) -> int:
    import_program()  # fail early, and provenance() needs the codec
    stamp = provenance(args.seed)
    print(f"# provenance {json.dumps(stamp)}")
    sets = [
        run_set(args, benchmark, index)
        for index in range(args.repeat if args.check_noise else 1)
    ]
    failures = sum(
        1
        for one in sets
        for results in one.values()
        for result in results.values()
        if not result["correct"] or result["exit"] != 0
    )
    unresolved = check_noise(sets, benchmark) if args.check_noise else 0
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "provenance": stamp,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "sets": sets,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"\nwrote {args.out}")
    if failures:
        print(f"\n{failures} workload runs FAILED")
    if unresolved:
        print(f"\n{unresolved} end-to-end metrics unresolved")
    return 1 if failures or unresolved else 0


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=1983)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"measured seconds per run (default {benchmark['run_seconds']}; "
             "1 under --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics "
             "from a traced run; omitted (suite only): both",
    )
    parser.add_argument(
        "--trace-out",
        help="span file (one workload) or directory (suite; default "
             "benchmarks/suite/out)",
    )
    parser.add_argument("--out", help="write the suite's numbers + provenance")
    parser.add_argument("--smoke", action="store_true",
                        help="every phase shrunk to about a second")
    parser.add_argument("--repeat", type=int, default=2,
                        help="sets of runs for --check-noise (default 2)")
    parser.add_argument("--check-noise", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(benchmark["run_seconds"])
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be > 0 and --repeat >= 1")
    if args.workload:
        return run_one(args, benchmark)
    return run_suite(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
