"""Run the benchmark over several seeds and summarise it as a baseline.

Usage, from the root of a fairexp checkout::

    python3 auditbench/baseline.py --seeds 1-10 --out auditbench/baseline.json

For every workload of ``BENCHMARK.json`` (or those named with
``--workload``) this runs ``auditbench/run.py`` once per seed with
``--trace 0`` and records, per end-to-end metric, the median, the quartiles
and the spread (inter-quartile range over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to each
metric's bound.  With ``--traced-seed`` it also records one traced run per
workload.  Each run's own output goes to standard error as it happens.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _processor() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown processor"


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit_code"] = done.returncode
    result["run_s"] = round(time.perf_counter() - start, 3)
    return result


def _summary(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": low, "q3": high,
            "spread": (high - low) / median if median else 0.0,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--traced-seed", type=int, help="also record one traced run")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    seeds = _seeds(args.seeds)
    summary = {
        "machine": f"{_processor()} x {os.cpu_count()} CPUs, {platform.machine()}, "
                   f"{platform.python_implementation()} {platform.python_version()}, "
                   f"{platform.system()}",
        "recorded": time.strftime("%Y-%m-%d"),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        ok &= all(run.get("correct") and run["exit_code"] == 0 for run in runs)
        metrics = {}
        for name in bounds:
            values = [run["metrics"][name]["value"] for run in runs if "metrics" in run]
            if values:
                metrics[name] = _summary(values, bounds[name])
        entry = {"end_to_end": metrics,
                 "run_s": [run["run_s"] for run in runs],
                 "all_correct": all(run.get("correct") for run in runs)}
        if args.traced_seed is not None:
            traced = _run(workload, args.traced_seed, spec["run_seconds"], 1)
            ok &= bool(traced.get("correct"))
            entry["traced"] = {"seed": args.traced_seed,
                               "correct": traced.get("correct"),
                               "per_layer": {name: value["value"] for name, value
                                             in traced.get("metrics", {}).items()}}
        summary["workloads"][workload] = entry
        for name, figures in metrics.items():
            print(f"{workload:10s} {name:18s} median {figures['median']:<12.6g} "
                  f"spread {figures['spread']:.4f} (bound {figures['bound']})")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
