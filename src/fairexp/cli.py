"""Command-line interface: ``python -m fairexp``.

Five command families:

``python -m fairexp store {inspect,evict,clear}``
    Operational tooling for the cross-process
    :class:`~fairexp.explanations.store.CounterfactualStore` — list entry
    fingerprints/ages/sizes, discard entries by prefix or LRU bounds, or
    clear the directory.  The store directory resolves from ``--dir`` or
    the ``FAIREXP_STORE_DIR`` environment variable — the same variable the
    experiment runners opt in with, so the CLI inspects exactly what a
    sweep would warm-start from.

``python -m fairexp serve --graph A.npz [--graph B.npz | --graph-dir DIR]``
    Run the loopback scoring server over one or more exported
    :class:`~fairexp.explanations.serving.ComputeGraph` archives (written
    by ``ComputeGraph.save``).  Several ``--graph`` flags (or a
    ``--graph-dir`` of ``.npz`` archives) load a model *fleet* into one
    server: requests route by graph content hash.  ``--max-inflight``
    bounds concurrently admitted batches (overload sheds with ``429``
    instead of queueing without bound).  The serving process needs only
    the graph files — never the training classes — and prints one
    ``serving ... on URL`` first line so launchers (CI,
    ``benchmarks/serving_workload.py``) can connect a
    :class:`~fairexp.explanations.serving.RemoteScoringBackend` to it,
    followed by one ``<hash>  <source>`` line per hosted graph.
    ``fairexp serve --stats-url URL`` instead queries a *running* server's
    ``/stats`` endpoint and pretty-prints the global and per-graph
    counters (requests, rows, sheds, coalescing factor).

``python -m fairexp run EXPERIMENT [--backend {numpy,onnx,remote}]``
    Run one experiment (``E1/E2`` … ``E14``, ``FIG1``/``FIG2``/``TAB1``)
    and print its result dictionary as JSON.  The experiment list is
    *derived* from the :class:`~fairexp.sweep.SweepRegistry` — a new spec
    is immediately runnable here, there is no second list to update.  For
    the counterfactual-heavy runners (E1–E9) ``--backend`` selects where
    predict batches run: in-process NumPy, the exported ONNX-style graph,
    or a loopback remote scoring server spun up for the run.

``python -m fairexp sweep {plan,run,resume}``
    Declarative sweep orchestration over the registered
    :class:`~fairexp.sweep.SweepSpec` s.  ``plan`` crosses the selected
    specs' factors and prints the emitted/pruned cell partition (with the
    reason each pruned cell was dropped) without executing anything;
    ``run`` executes the emitted cells (``--store DIR`` attaches the
    persistent counterfactual store + journal, ``--jobs N`` distributes
    cells over an executor pool, ``--bench PATH`` appends the sweep's
    accounting to a ``BENCH_SWEEP.json``-style trajectory); ``resume``
    re-enters a journaled sweep — already-completed cells replay against
    the warm store at zero engine predict calls and their metrics are
    verified against the journal.  ``--where factor=label[,label...]``
    restricts factors; ``--set key=value`` overrides runner arguments
    (values parse as JSON, falling back to strings).

``python -m fairexp lint [PATHS]``
    Run the repo's own static-analysis rules (FX001–FX008: executor,
    randomness, counter-lock and fingerprint-coverage discipline — see
    :mod:`fairexp.lint` and ``docs/api/lint.md``) over ``src`` or the
    given paths.  ``--json`` emits the machine-readable report,
    ``--baseline write/check`` grandfathers/enforces a
    ``LINT_BASELINE.json`` debt file, and the exit code is 1 whenever a
    fresh (non-baselined, non-``noqa``) finding survives.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .explanations.store import CounterfactualStore

__all__ = ["main"]


def _resolve_store(directory: str | None) -> CounterfactualStore:
    """Store rooted at ``--dir`` or ``$FAIREXP_STORE_DIR`` (required).

    The directory must already exist: the CLI is an inspection/maintenance
    surface, and silently creating a typo'd path would report a fresh
    "empty store" instead of the error the operator needs.
    """
    resolved = (directory or os.environ.get("FAIREXP_STORE_DIR", "")).strip()
    if not resolved:
        raise SystemExit(
            "no store directory: pass --dir or set FAIREXP_STORE_DIR"
        )
    if not os.path.isdir(resolved):
        raise SystemExit(f"store directory does not exist: {resolved}")
    return CounterfactualStore(resolved)


def _format_age(seconds: float) -> str:
    """Human-readable age: seconds, minutes, hours or days."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_inspect(args: argparse.Namespace) -> int:
    store = _resolve_store(args.dir)
    details = store.entry_details()
    if args.json:
        print(json.dumps({"directory": str(store.directory), "entries": details},
                         indent=2))
        return 0
    if not details:
        print(f"{store.directory}: empty store")
        return 0
    print(f"{store.directory}: {len(details)} entries, "
          f"{sum(d['bytes'] for d in details)} bytes (oldest first)")
    print(f"{'FINGERPRINT':<16} {'ROWS':>6} {'BYTES':>10} {'AGE':>6} "
          f"{'FMT':>3}  UPDATED")
    for entry in details:
        print(f"{entry['fingerprint'][:16]:<16} {entry['n_rows']:>6} "
              f"{entry['bytes']:>10} {_format_age(entry['age_seconds']):>6} "
              f"{str(entry['format_version']):>3}  {entry['updated_at']}")
    return 0


def _cmd_evict(args: argparse.Namespace) -> int:
    if args.fingerprint is None and args.max_entries is None and args.max_bytes is None:
        raise SystemExit(
            "evict needs --fingerprint, --max-entries and/or --max-bytes"
        )
    store = _resolve_store(args.dir)
    try:
        removed = store.evict(fingerprint=args.fingerprint,
                              max_entries=args.max_entries,
                              max_bytes=args.max_bytes)
    except ValueError as error:  # ambiguous fingerprint prefix
        raise SystemExit(str(error)) from None
    print(f"evicted {removed} entries from {store.directory}")
    return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    store = _resolve_store(args.dir)
    n_entries = len(store.entries())
    store.clear()
    print(f"cleared {n_entries} entries from {store.directory}")
    return 0


def _print_server_stats(url: str) -> int:
    """Fetch a running server's ``/stats`` and pretty-print the counters."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(f"{url.rstrip('/')}/stats", timeout=10) as reply:
            stats = json.loads(reply.read().decode("utf-8"))
    except (urllib.error.URLError, ValueError) as error:
        raise SystemExit(f"could not fetch stats from {url}: {error}") from None
    limit = stats.get("max_inflight")
    print(f"{url}: {stats.get('requests', 0)} requests, "
          f"{stats.get('rows', 0)} rows, {stats.get('shed', 0)} shed, "
          f"{stats.get('inflight', 0)} in flight "
          f"(peak {stats.get('peak_inflight', 0)}, "
          f"limit {'none' if limit is None else limit})")
    graphs = stats.get("graphs", {})
    if graphs:
        print(f"{'GRAPH':<14} {'SOURCE':<24} {'REQS':>6} {'ROWS':>8} "
              f"{'SHED':>5} {'COALESCE':>8}")
        for key, entry in graphs.items():
            factor = entry.get("coalescing_factor")
            print(f"{key[:12]:<14} {str(entry.get('source', '?'))[:24]:<24} "
                  f"{entry.get('requests', 0):>6} {entry.get('rows', 0):>8} "
                  f"{entry.get('shed', 0):>5} "
                  f"{'-' if factor is None else format(factor, '.2f'):>8}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the store commands must stay usable in minimal
    # environments, and serve pulls in the HTTP server machinery.
    from .explanations.serving import ComputeGraph, ScoringServer

    if args.stats_url:
        return _print_server_stats(args.stats_url)
    paths = list(args.graph or [])
    if args.graph_dir:
        if not os.path.isdir(args.graph_dir):
            raise SystemExit(f"graph directory does not exist: {args.graph_dir}")
        paths.extend(sorted(
            os.path.join(args.graph_dir, name)
            for name in os.listdir(args.graph_dir) if name.endswith(".npz")
        ))
    if not paths:
        raise SystemExit("serve needs --graph, --graph-dir or --stats-url")
    for path in paths:
        if not os.path.isfile(path):
            raise SystemExit(f"graph archive does not exist: {path}")
    graphs = [ComputeGraph.load(path) for path in paths]
    server = ScoringServer(graphs, host=args.host, port=args.port,
                           max_inflight=args.max_inflight)
    # One parseable first line, flushed before blocking: launchers (CI
    # scripts, benchmarks/serving_workload.py) read it to discover the
    # bound port.  Per-graph hash lines follow so fleet clients can route.
    if len(graphs) == 1:
        print(f"serving {graphs[0].source} ({graphs[0].n_features} features) "
              f"on {server.url}", flush=True)
    else:
        print(f"serving {len(graphs)} graphs on {server.url}", flush=True)
    for key, graph in zip(server.graph_keys(), graphs):
        print(f"  {key}  {graph.source} ({graph.n_features} features)",
              flush=True)
    try:
        server.serve_until_interrupted()
    finally:
        server.close()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .exceptions import ValidationError
    from .sweep import SweepRegistry

    try:
        spec = SweepRegistry.get(args.experiment)
    except KeyError:
        known = ", ".join(SweepRegistry.ids())
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; one of: {known}"
        ) from None
    where = None
    if spec.factor("backend") is not None:
        where = {"backend": [args.backend]}
    elif args.backend != "numpy":
        raise SystemExit(
            f"experiment {args.experiment} does not route predicts through a "
            "session backend; only --backend numpy applies"
        )
    try:
        cell = spec.cell(where=where)
    except ValidationError as error:
        raise SystemExit(str(error)) from None
    results = spec.runner(**cell.params())
    results.pop("rendered", None)
    print(json.dumps(results, indent=2, default=str))
    return 0


def _parse_where(pairs: list[str] | None) -> dict[str, list[str]]:
    """``--where factor=label[,label...]`` flags into a restriction mapping."""
    where: dict[str, list[str]] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--where expects factor=label, got {pair!r}")
        factor, _, labels = pair.partition("=")
        where.setdefault(factor.strip(), []).extend(
            label.strip() for label in labels.split(",") if label.strip()
        )
    return where


def _parse_overrides(pairs: list[str] | None) -> dict[str, object]:
    """``--set key=value`` flags into runner overrides (values parse as JSON,
    falling back to plain strings so ``--set schedule=adaptive`` just works)."""
    overrides: dict[str, object] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            overrides[key.strip()] = json.loads(raw)
        except ValueError:
            overrides[key.strip()] = raw
    return overrides


def _sweep_selection(args: argparse.Namespace):
    specs = args.spec or None
    return specs, _parse_where(args.where), _parse_overrides(args.set) or None


def _append_bench_point(path: str, point: dict) -> None:
    """Append one sweep record to a JSON-list trajectory file (the same
    append-only shape ``benchmarks/conftest.py`` writes for BENCH_*.json)."""
    try:
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    history.append(point)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def _cmd_sweep_plan(args: argparse.Namespace) -> int:
    from .exceptions import ValidationError
    from .sweep import sweep_plan

    specs, where, overrides = _sweep_selection(args)
    try:
        plan = sweep_plan(specs, where=where, overrides=overrides)
    except ValidationError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        print(json.dumps({
            "summary": plan.summary(),
            "emitted": [cell.cell_id for cell in plan.emitted],
            "pruned": [{"cell_id": cell.cell_id, "reasons": list(cell.reasons)}
                       for cell in plan.pruned],
        }, indent=2))
        return 0
    summary = plan.summary()
    print(f"{summary['raw_cells']} raw cells -> {summary['emitted_cells']} emitted, "
          f"{summary['pruned_cells']} pruned")
    for cell in plan.emitted:
        print(f"  run   {cell.cell_id}")
    for cell in plan.pruned:
        print(f"  prune {cell.cell_id}")
        for reason in cell.reasons:
            print(f"        - {reason}")
    return 0


def _run_sweep_command(args: argparse.Namespace, *, resume: bool) -> int:
    from .exceptions import ValidationError
    from .sweep import run_sweep

    specs, where, overrides = _sweep_selection(args)
    try:
        result = run_sweep(specs, where=where, overrides=overrides,
                           store=args.store, journal=args.journal,
                           jobs=args.jobs, resume=resume)
    except ValidationError as error:
        raise SystemExit(str(error)) from None
    if args.bench:
        _append_bench_point(args.bench, result.bench_point())
    if args.json:
        print(json.dumps(result.to_json(), indent=2, default=str))
        return 0
    summary = result.summary()
    print(f"{summary['emitted_cells']} cells in {summary['wall_time_seconds']:.2f}s "
          f"({summary['pruned_cells']} pruned, {summary['replayed_cells']} replayed, "
          f"{summary['diverged_cells']} diverged); "
          f"{summary['engine_predict_calls']} engine predict calls, "
          f"{summary['store_row_hits']} store row hits")
    for cell in result.cells:
        marker = {"completed": "ok", "diverged": "DIVERGED"}[cell.status]
        replay = " (replayed)" if cell.replayed else ""
        print(f"  {marker:<8} {cell.cell_id}  "
              f"{cell.wall_time_seconds:.2f}s  "
              f"engine_predicts={cell.stats.get('engine_predict_calls', 0)}"
              f"{replay}")
    return 1 if summary["diverged_cells"] else 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    return _run_sweep_command(args, resume=False)


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    return _run_sweep_command(args, resume=True)


def _cmd_lint(args: argparse.Namespace) -> int:
    from fairexp.lint import Baseline, lint_paths

    report = lint_paths(args.paths)
    baseline_path = args.baseline_file
    if args.baseline == "write":
        Baseline.from_findings(report.findings).save(baseline_path)
        print(f"baseline written: {baseline_path} "
              f"({len(report.findings)} findings grandfathered)")
        return 0
    if args.baseline == "check":
        baseline = Baseline.load(baseline_path)
    else:
        baseline = Baseline()
    fresh = baseline.fresh(report.findings)
    if args.json:
        payload = report.to_json(fresh)
        payload["baseline_size"] = len(baseline)
        print(json.dumps(payload, indent=2))
    else:
        for finding in fresh:
            print(finding.render())
        grandfathered = len(report.findings) - len(fresh)
        summary = (f"{report.files} files, {len(fresh)} fresh findings, "
                   f"{grandfathered} baselined, {report.suppressed} suppressed")
        print(summary)
    return 1 if fresh else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairexp",
        description="fairexp operational tooling (currently: the counterfactual store)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    store_parser = commands.add_parser(
        "store", help="inspect / evict / clear the persistent counterfactual store"
    )
    actions = store_parser.add_subparsers(dest="action", required=True)

    def add_dir(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--dir", default=None,
            help="store directory (default: $FAIREXP_STORE_DIR)",
        )

    inspect_parser = actions.add_parser(
        "inspect", help="list entry fingerprints, ages and sizes"
    )
    add_dir(inspect_parser)
    inspect_parser.add_argument("--json", action="store_true",
                                help="emit machine-readable JSON")
    inspect_parser.set_defaults(func=_cmd_inspect)

    evict_parser = actions.add_parser(
        "evict", help="discard entries by fingerprint prefix or LRU bounds"
    )
    add_dir(evict_parser)
    evict_parser.add_argument("--fingerprint", default=None,
                              help="fingerprint (or unambiguous prefix) to discard")
    evict_parser.add_argument("--max-entries", type=int, default=None,
                              help="evict oldest entries beyond this count")
    evict_parser.add_argument("--max-bytes", type=int, default=None,
                              help="evict oldest entries beyond this total size")
    evict_parser.set_defaults(func=_cmd_evict)

    clear_parser = actions.add_parser("clear", help="remove every entry")
    add_dir(clear_parser)
    clear_parser.set_defaults(func=_cmd_clear)

    serve_parser = commands.add_parser(
        "serve", help="serve exported compute graphs over loopback HTTP"
    )
    serve_parser.add_argument("--graph", action="append", default=None,
                              help="ComputeGraph .npz archive (repeat to host "
                                   "a fleet routed by content hash)")
    serve_parser.add_argument("--graph-dir", default=None,
                              help="directory whose .npz archives are all "
                                   "loaded into the fleet")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: loopback only)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="port to bind (default: an ephemeral port)")
    serve_parser.add_argument("--max-inflight", type=int, default=None,
                              help="admission limit: concurrent batches beyond "
                                   "this are shed with 429 (default: unbounded)")
    serve_parser.add_argument("--stats-url", default=None,
                              help="query a RUNNING server's /stats and "
                                   "pretty-print its per-graph requests, "
                                   "rows, sheds and coalescing factor "
                                   "instead of serving")
    serve_parser.set_defaults(func=_cmd_serve)

    run_parser = commands.add_parser(
        "run", help="run one experiment and print its results as JSON"
    )
    run_parser.add_argument("experiment",
                            help="experiment id (E1/E2, E3, ..., FIG1, TAB1)")
    run_parser.add_argument("--backend", choices=("numpy", "onnx", "remote"),
                            default="numpy",
                            help="predict dispatch for E1-E9 sessions "
                                 "(default: in-process numpy)")
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="plan / run / resume declarative factorial sweeps"
    )
    sweep_actions = sweep_parser.add_subparsers(dest="action", required=True)

    def add_selection(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--spec", action="append", default=None,
                               metavar="ID",
                               help="experiment spec to include (repeatable; "
                                    "default: every registered spec)")
        subparser.add_argument("--where", action="append", default=None,
                               metavar="FACTOR=LABEL[,LABEL...]",
                               help="restrict a factor to these levels "
                                    "(repeatable; ignored by specs lacking "
                                    "the factor)")
        subparser.add_argument("--set", action="append", default=None,
                               metavar="KEY=VALUE",
                               help="override a runner argument for every "
                                    "cell (value parsed as JSON, else string)")
        subparser.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")

    plan_parser = sweep_actions.add_parser(
        "plan", help="show the emitted/pruned cell partition without running"
    )
    add_selection(plan_parser)
    plan_parser.set_defaults(func=_cmd_sweep_plan)

    def add_execution(subparser: argparse.ArgumentParser) -> None:
        add_selection(subparser)
        subparser.add_argument("--store", default=None, metavar="DIR",
                               help="persistent counterfactual store directory "
                                    "(default: $FAIREXP_STORE_DIR); the sweep "
                                    "journal lives next to it")
        subparser.add_argument("--journal", default=None, metavar="PATH",
                               help="journal file (default: SWEEP_JOURNAL.json "
                                    "inside the store directory)")
        subparser.add_argument("--jobs", type=int, default=1,
                               help="cells to execute concurrently over an "
                                    "executor pool (default: 1, sequential)")
        subparser.add_argument("--bench", default=None, metavar="PATH",
                               help="append the sweep's accounting to this "
                                    "JSON trajectory (BENCH_SWEEP.json style)")

    sweep_run_parser = sweep_actions.add_parser(
        "run", help="execute the emitted cells (fresh journal)"
    )
    add_execution(sweep_run_parser)
    sweep_run_parser.set_defaults(func=_cmd_sweep_run)

    resume_parser = sweep_actions.add_parser(
        "resume", help="re-enter a journaled sweep; completed cells replay "
                       "warm at zero engine predict calls"
    )
    add_execution(resume_parser)
    resume_parser.set_defaults(func=_cmd_sweep_resume)

    lint_parser = commands.add_parser(
        "lint", help="check the FX001-FX008 invariant rules "
                     "(see docs/api/lint.md); exits 1 on fresh findings"
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directory trees to lint (default: src)")
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit the full report (findings, fresh subset, counts) as JSON")
    lint_parser.add_argument(
        "--baseline", choices=("check", "write"),
        help="'check': only findings beyond the baseline file fail; "
             "'write': grandfather every current finding into it")
    lint_parser.add_argument(
        "--baseline-file", default="LINT_BASELINE.json",
        help="baseline path (default: LINT_BASELINE.json)")
    lint_parser.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m fairexp``; returns the process exit code."""
    args = _build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    return args.func(args)
