"""Run one audit workload and print its metrics as one JSON line.

Usage, from the root of a fairexp checkout::

    python3 auditbench/run.py --workload e1-cold --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's ``src/`` (never from an installed
copy); without it the command fails before measuring anything.  Set-up runs
``SETUP_REPEATS`` times and ``setup_s`` is the median.  Passes then repeat,
closed-loop, until ``--seconds`` have elapsed (at least one pass).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` makes one untraced warm-up pass, then alternates untraced and
traced passes.  It reports the per-layer metrics of ``layers.json`` as
medians over the traced passes, plus the tracing overhead against the
untraced passes; a traced pass must give the same output digest and
counters as an untraced one.

Every pass is checked (see ``audit_workloads``).  A failed check sets
``"correct": false`` and makes the command exit with status 1; the reasons go
to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
FIDELITY_COUNTERS = ("engine_predict_calls", "store_row_hits")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_library():
    """Put the checkout's ``src/`` first on the path and import from it."""
    package = ROOT / "src" / "fairexp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"auditbench: no fairexp sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import fairexp

    if Path(fairexp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"auditbench: imported fairexp from {fairexp.__file__}, "
                         f"not from {package}")


def _layer_units() -> dict[str, str]:
    with open(HERE / "layers.json") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)["per_layer"]}


class Run:
    """The passes of one invocation, their checks and their totals."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.digest = None

    def one_pass(self, traced: bool):
        """Run and check one pass; ``None`` when it raised."""
        try:
            result = self.workload.run_pass(traced)
        except Exception:
            _log(traceback.format_exc())
            # A raised exception fails every row the pass would have audited.
            rows = self.workload.rows_per_pass
            self.attempted += rows
            self.failed += rows
            self.problems.append("a pass raised")
            return None
        self.attempted += result.rows
        self.failed += result.failed_rows
        if result.failed_rows:
            self.problems.append(f"{result.failed_rows} counterfactuals failed a check")
        self.problems += result.problems
        self.notes += result.notes
        if self.digest is None:
            self.digest = result.digest
        elif result.digest != self.digest:
            self.problems.append("a pass's output differs from the first pass")
        _log(f"{self.workload.name}: {'traced' if traced else 'untraced'} pass "
             f"{result.wall_s:.3f} s, {result.rows} rows, digest {result.digest[:12]}")
        return result


def _end_to_end(run: Run, passes, setup_times) -> dict:
    audited = sum(p.rows for p in passes)
    covered = sum(p.covered for p in passes)
    return {
        "rows_per_s": ("rows/s", statistics.median(p.rows / p.wall_s for p in passes)),
        "setup_s": ("s", statistics.median(setup_times)),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "success_rate": ("ratio", 1.0 - run.failed / max(run.attempted, 1)),
        "cf_coverage": ("ratio", covered / audited if audited else 0.0),
        "mean_cf_distance": ("scaled-l1", sum(p.distance_sum for p in passes) / max(covered, 1)),
    }


def _per_layer(tracer, result, workload, overhead: float) -> dict[str, float]:
    total, own, calls, counts = (tracer.total, tracer.self_time, tracer.calls,
                                 tracer.counts)
    counters, layer = result.counters, result.layer
    rows, solved = counts["engine.rows"], counts["engine.solved"]
    draws = counters["schedule_draws"]
    predicts, hits = counters["predict_call_count"], counters["predict_cache_hits"]
    return {
        "engine.search_s": total["engine.search"],
        "engine.search_self_s": own["engine.search"],
        "engine.steps": counters["schedule_steps"],
        "engine.draws": draws,
        "engine.solved_ratio": solved / rows if rows else 0.0,
        "engine.draws_per_solved": draws / solved if solved else 0.0,
        "engine.sparsify_s": total["engine.sparsify"],
        "counterfactual.project_s": total["counterfactual.project"],
        "counterfactual.project_calls": calls["counterfactual.project"],
        "counterfactual.project_bytes": counts["counterfactual.project_bytes"],
        "kernels.distance_s": total["kernels.distance"],
        "kernels.distance_rows": counts["kernels.distance_rows"],
        "backends.predict_s": total["backends.predict"],
        "backends.predict_calls": predicts,
        "backends.predict_rows": counters["predict_row_count"],
        "backends.memo_hit_ratio": hits / (hits + predicts) if hits + predicts else 0.0,
        "serving.wire_s": total["serving.wire"],
        "serving.wire_calls": layer.get("serving.wire_calls", 0),
        "serving.wire_rows": layer.get("serving.wire_rows", 0),
        "serving.coalescing_factor": layer.get("serving.coalescing_factor", 0.0),
        "serving.retries": layer.get("serving.retries", 0),
        "serving.shed": layer.get("serving.shed", 0),
        "store.load_s": total["store.load"],
        "store.load_calls": calls["store.load"],
        "store.bytes_read": layer.get("store.bytes_read", 0),
        "store.row_hits": counters["store_row_hits"],
        "store.save_s": total["store.save"],
        "store.save_calls": calls["store.save"],
        "store.bytes": layer.get("store.bytes", 0),
        "session.counterfactuals_for_s": total["session.counterfactuals_for"],
        "session.rows_reused": counters["n_results_reused"],
        "session.self_s": own["session.counterfactuals_for"] + own["session.predict"],
        "session.engine_predict_calls": counters["engine_predict_calls"],
        "core.burden_self_s": own["core.burden"],
        "core.nawb_self_s": own["core.nawb"],
        "core.precof_self_s": own["core.precof"],
        "datasets.generate_s": workload.generate_s,
        "models.fit_s": workload.fit_s,
        "trace.overhead": overhead,
        "trace.covered_share": tracer.top_level / result.wall_s,
        "trace.unhooked": len(tracer.unhooked),
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds`` and return the result object."""
    from tracing import install_layer_hooks

    run = Run(workload)
    setup_times, generate_times, fit_times = [], [], []
    for _ in range(SETUP_REPEATS):
        workload.close()  # tear the previous set-up down outside the timing
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        generate_times.append(workload.generate_s)
        fit_times.append(workload.fit_s)
        run.problems += workload.setup_problems
    _log(f"{workload.name}: set-up {', '.join(f'{t:.3f}' for t in setup_times)} s")
    workload.generate_s = statistics.median(generate_times)
    workload.fit_s = statistics.median(fit_times)

    untraced, traced, layer_rows = [], [], []
    if trace:
        # The first pass of a process pays one-time costs; keep it out of the
        # untraced/traced pairs the overhead is computed from.
        run.one_pass(traced=False)
    start = time.perf_counter()
    while True:
        result = run.one_pass(traced=False)
        if result is None:
            break
        untraced.append(result)
        if trace:
            tracer = workload.tracer
            tracer.reset()
            install_layer_hooks(tracer)
            try:
                result = run.one_pass(traced=True)
            finally:
                tracer.restore()
            if result is None:
                break
            traced.append(result)
            reference = untraced[-1].counters
            for name in FIDELITY_COUNTERS:
                if result.counters[name] != reference[name]:
                    run.problems.append(f"tracing changed {name}: {reference[name]} "
                                        f"untraced, {result.counters[name]} traced")
            overhead = result.wall_s / untraced[-1].wall_s - 1.0
            layer_rows.append(_per_layer(tracer, result, workload, overhead))
            if tracer.unhooked:
                _log(f"{workload.name}: not traced: {', '.join(tracer.unhooked)}")
            tracer.unhooked.clear()
        if time.perf_counter() - start >= seconds:
            break

    if trace:
        units = _layer_units()
        metrics = {}
        for name, unit in units.items():
            values = [row[name] for row in layer_rows] or [0.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        missing = set(layer_rows[0]) - set(units) if layer_rows else set()
        if missing:
            run.problems.append(f"layers.json lacks {sorted(missing)}")
    elif untraced:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (unit, value) in _end_to_end(run, untraced, setup_times).items()}
    else:
        metrics = {}
    if not untraced or (trace and not traced):
        run.problems.append("no pass completed")
    for note in dict.fromkeys(run.notes):
        _log(f"{workload.name}: note: {note}")
    for problem in dict.fromkeys(run.problems):
        _log(f"{workload.name}: CHECK FAILED: {problem}")
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from audit_workloads import WORKLOADS
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work_root = ROOT / ".auditbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    workload = WORKLOADS[args.workload](args.seed, workdir, Tracer())
    try:
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
