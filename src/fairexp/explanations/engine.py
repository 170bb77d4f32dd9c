"""Batched counterfactual engine.

The per-instance counterfactual searches behind the paper's headline
quantities (burden [72], NAWB [73], PreCoF [71], the recourse-gap audits and
GLOBE-CE) are the hot path of the library: a naive audit issues dozens of
tiny ``model.predict`` calls per explained individual.  This module provides
the two pieces that coalesce that work into large vectorized predict batches:

* :class:`BatchModelAdapter` — wraps any classifier, counts and (optionally)
  caches ``predict`` calls so benchmarks can track the predict-call
  trajectory, not just wall time.  Dispatch itself lives behind the
  :class:`~fairexp.explanations.backends.PredictBackend` protocol
  (vectorized NumPy by default; ONNX / remote backends slot in behind the
  same counting interface);
* :class:`CounterfactualEngine` — drives a generator's cross-instance
  ``generate_batch_aligned`` kernel — optionally sharded across a worker
  pool (``n_jobs``) with bitwise-identical merged results — and maps results
  back onto caller indices, which is what the core fairness explainers
  (:class:`~fairexp.core.burden.BurdenExplainer` and friends) build on.

One layer up, :class:`~fairexp.explanations.session.AuditSession` owns one
adapter + engine pair and shares each population's counterfactual matrix
across every audit that requests it (session → engine → backend).

With an integer ``random_state`` the engine path reproduces the sequential
per-instance path exactly: a row's draws are the ones the sequential
search makes for it (:func:`lockstep_candidate_search` shares them across
rows), and only the model evaluations are batched across instances.  For
the sampling-based generators the results are bitwise-identical; for
gradient ascent they agree up to the floating-point associativity of
the backing BLAS (single-row vs. batched mat-vec products can differ in the
last ulp, which a long gradient trajectory amplifies to ~1e-13).
"""

from __future__ import annotations

import inspect
import os
import pickle
from typing import Callable

import numpy as np

from ..exceptions import ValidationError
from ..utils import check_random_state
from .backends import (
    CallablePredictBackend,
    MemoizingPredictBackend,
    NumpyPredictBackend,
    ensure_backend,
)
from .base import Counterfactual, CounterfactualBatch
from .kernels import (
    batch_counterfactual_distance,
    build_prefix_revert_trials,
    rank_changed_features,
)
from .pool import ExecutorPool
from .schedules import GeometricSchedule, SearchSchedule

__all__ = [
    "BatchModelAdapter",
    "CounterfactualEngine",
    "effective_backend",
    "generator_config",
    "generator_config_is_faithful",
    "greedy_sparsify_batch",
    "lockstep_candidate_search",
    "shard_indices",
]


class BatchModelAdapter:
    """Counting / caching proxy around a classifier's prediction interface.

    Predict dispatch is delegated to a :class:`~fairexp.explanations.backends.PredictBackend`
    stack: a :class:`~fairexp.explanations.backends.NumpyPredictBackend` by
    default, optionally wrapped in a
    :class:`~fairexp.explanations.backends.MemoizingPredictBackend` when
    ``cache=True``.  The adapter itself only re-exports the backend's
    counters under their historical names and forwards every non-``predict``
    attribute to the wrapped model, so it stays a drop-in replacement for the
    model everywhere an audit expects one.

    Parameters
    ----------
    model:
        Any object exposing ``predict`` (and optionally ``predict_proba`` /
        ``gradient_input``).  May be omitted when ``backend`` is given.
    backend:
        An explicit :class:`~fairexp.explanations.backends.PredictBackend`
        (e.g. a :class:`~fairexp.explanations.backends.CallablePredictBackend`
        over an ONNX session or remote service).  Defaults to the vectorized
        NumPy backend over ``model``.
    cache:
        When ``True``, the backend is wrapped in a memoizing backend so
        repeated ``predict`` calls on an identical matrix are served from a
        memo.  Cache hits do not count as predict calls.
    max_cache_rows:
        Matrices with more rows than this are never cached (hashing huge
        candidate batches would cost more than the predict it saves).
    max_cache_entries:
        The memo is cleared once it holds this many entries.

    Attributes
    ----------
    predict_call_count:
        Number of ``predict`` invocations forwarded to the backend —
        the quantity the benchmarks record in ``benchmark.extra_info``.
    predict_row_count:
        Total number of rows across forwarded ``predict`` calls.
    cache_hit_count:
        Number of ``predict`` requests served from the memo.
    """

    def __init__(self, model=None, *, backend=None, cache: bool = True,
                 max_cache_rows: int = 2048, max_cache_entries: int = 256) -> None:
        if backend is None:
            if model is None:
                raise ValidationError("BatchModelAdapter needs a model or a backend")
            backend = NumpyPredictBackend(model)
        else:
            backend = ensure_backend(backend)
            if model is None:
                model = getattr(backend, "model", None)
        if cache and not isinstance(backend, MemoizingPredictBackend):
            backend = MemoizingPredictBackend(backend, max_rows=max_cache_rows,
                                              max_entries=max_cache_entries)
        self.model = model
        self.backend = backend

    @property
    def cache(self) -> bool:
        """Whether predictions are memoized — derived from the backend stack,
        so it cannot drift from what ``predict`` actually does (swap the
        backend to change it)."""
        return isinstance(self.backend, MemoizingPredictBackend)

    # ------------------------------------------------------------- interface
    def predict(self, X) -> np.ndarray:
        """Labels for ``X`` through the counting (and optionally memoizing)
        backend stack."""
        return self.backend.predict(X)

    def __getattr__(self, name):
        # Forward everything else (predict_proba, gradient_input, score,
        # coef_, distance_to_boundary, ...) so the adapter is a drop-in
        # replacement for the wrapped model.  Forwarding instead of defining
        # the optional methods keeps ``hasattr``-based capability checks
        # (e.g. GradientCounterfactual requiring ``gradient_input``) honest.
        if name in ("model", "backend"):
            raise AttributeError(name)
        model = self.model
        if model is None:
            raise AttributeError(name)
        return getattr(model, name)

    # ------------------------------------------------------------ accounting
    @property
    def predict_call_count(self) -> int:
        """Number of predict invocations forwarded to the backend."""
        return self.backend.call_count

    @property
    def predict_row_count(self) -> int:
        """Total rows across forwarded predict calls."""
        return self.backend.row_count

    @property
    def cache_hit_count(self) -> int:
        """Predict requests served from the backend's memo (0 without one)."""
        return getattr(self.backend, "cache_hit_count", 0)

    def clear_memo(self) -> None:
        """Drop memoized predictions (no-op without a memoizing backend)."""
        clear = getattr(self.backend, "clear_memo", None)
        if clear is not None:
            clear()

    def reset_counts(self) -> None:
        """Zero the backend's counters (and drop its memo, if any)."""
        self.backend.reset_counts()


def greedy_sparsify_batch(generator, X_rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Batched greedy sparsification, exactly equivalent to the sequential loop.

    The sequential ``_sparsify`` walks a candidate's changed features in order
    of increasing scaled magnitude and reverts each one whose revert keeps the
    target class — one single-row ``model.predict`` per feature.  This kernel
    keeps the *identical* greedy semantics while batching the model work:
    each round speculatively evaluates, for every active instance, the whole
    chain of cumulative prefix reverts in ONE stacked predict call.  As long
    as reverts are accepted the greedy trial at step ``j`` equals the ``j``-th
    prefix trial, so the first rejected revert in the prefix chain pins down
    the greedy state exactly; the chain is then rebuilt from the remaining
    features.  Predict calls drop from (#changed features) per instance to
    (#rejected reverts + 1) rounds shared by the whole batch.

    The greedy order and the trial chains run on the
    :mod:`~fairexp.explanations.kernels` functions: ranking is computed
    for the whole batch at once, and each instance's prefix chain is written
    directly into the round's stacked trial matrix — one allocation per
    round instead of one ``trial.copy()`` per feature per instance.
    """
    X_rows = np.atleast_2d(np.asarray(X_rows, dtype=float))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float)).copy()
    n_rows = candidates.shape[0]
    n_features = candidates.shape[1] if candidates.ndim == 2 else 0

    # Greedy order per instance, fixed once from the initial candidate (this is
    # what the sequential implementation does as well).
    orders: list[list[int]] = [
        [int(j) for j in ranked]
        for ranked in rank_changed_features(X_rows, candidates, generator.scale_)
    ]

    active = [k for k in range(n_rows) if orders[k]]
    while active:
        spans = [(k, len(orders[k])) for k in active]
        trials = np.empty((sum(length for _, length in spans), n_features))
        offset = 0
        for k, length in spans:
            build_prefix_revert_trials(
                candidates[k], X_rows[k], orders[k],
                out=trials[offset:offset + length],
            )
            offset += length
        predictions = generator._predict(trials)

        offset = 0
        next_active: list[int] = []
        for k, length in spans:
            block = predictions[offset:offset + length]
            offset += length
            order = orders[k]
            failures = np.flatnonzero(block != generator.target_class)
            accepted = order if failures.size == 0 else order[: int(failures[0])]
            for column in accepted:
                candidates[k, column] = X_rows[k, column]
            orders[k] = [] if failures.size == 0 else order[int(failures[0]) + 1:]
            if orders[k]:
                next_active.append(k)
        active = next_active
    return candidates


def _wave_offsets(offsets: Callable[[np.random.Generator, int], np.ndarray],
                  random_state, n_instances: int):
    """``wave(rows, plan) -> [(positions, block), ...]``: the offset block
    each planned row of one lockstep wave adds to itself.

    An integer seed reseeds the same stream for every row, and a draw
    consumes as many random values at every rung, so a row's ``k``-th draw
    at rung ``r`` is one block for all rows: it is drawn once per (the
    row's own draw count, rung), from the stream state saved before draw
    ``k``.  ``None`` seeds draw from one stream per row; a shared
    ``np.random.Generator`` is consumed row by row.  The memo lives in one
    search call, so concurrent shards share nothing.
    """
    if not isinstance(random_state, (int, np.integer)):
        rngs = [check_random_state(random_state) for _ in range(n_instances)]

        def per_row_wave(rows, plan):
            return [([k], offsets(rngs[i], plan[i])) for k, i in enumerate(rows)]

        return per_row_wave

    rng = check_random_state(random_state)
    states = [rng.bit_generator.state]  # stream state before draw index k
    blocks: dict[tuple[int, int], np.ndarray] = {}
    draw_counts = [0] * n_instances

    def block(count: int, rung: int) -> np.ndarray:
        if (count, rung) not in blocks:
            rng.bit_generator.state = states[count]
            blocks[count, rung] = offsets(rng, rung)
            if count + 1 == len(states):
                states.append(rng.bit_generator.state)
        return blocks[count, rung]

    def shared_wave(rows, plan):
        groups: dict[tuple[int, int], list[int]] = {}
        for k, i in enumerate(rows):
            groups.setdefault((draw_counts[i], plan[i]), []).append(k)
            draw_counts[i] += 1
        return [(positions, block(*key)) for key, positions in groups.items()]

    return shared_wave


def lockstep_candidate_search(
    generator,
    X: np.ndarray,
    offsets: Callable[[np.random.Generator, int], np.ndarray],
    n_steps: int,
    schedule: SearchSchedule | None = None,
) -> CounterfactualBatch:
    """Cross-instance rejection-sampling search over a pluggable rung schedule.

    All instances advance through the radius/shell ladder in lockstep: one
    step builds each still-pending instance's candidate matrix at the rung
    its :class:`~fairexp.explanations.schedules.SearchSchedule` cursor
    planned, as the instance plus an ``offsets(rng, rung)`` block of shape
    ``(n_candidates, d)``, projects the resulting
    ``(n_pending, n_candidates, d)`` tensor through the actionability
    constraints in one shot, and issues a single ``model.predict`` over all
    candidates of all pending instances — instead of
    ``n_instances × n_steps`` separate predicts.  The cursor observes every
    probe's hit count and decides which rung each instance tries next (or
    that it is finished); each finished instance keeps its minimum-distance
    hit across every rung it probed.

    Under an integer ``random_state`` there is one offset block per
    (draw index, rung), shared by all rows, so every instance searches the
    same random directions — as the sequential path, which reseeds the same
    stream for each row, does.  That correlated noise is a deliberate part
    of the parity contract.  ``None`` and ``np.random.Generator`` seeds
    draw per row.  A row's draws therefore do not depend on which other
    rows share its search, which is what keeps sharded runs bitwise-equal.

    ``offsets(rng, rung)`` must consume the same number of random values at
    every rung and must not depend on the row: block sharing replays the
    stream state saved before each draw index, so an ``offsets`` that
    breaks either rule silently loses batched ≡ sequential parity.

    With the default :class:`~fairexp.explanations.schedules.GeometricSchedule`
    every instance walks rung 0, 1, 2, … and stops at its first hit, which
    reproduces the historical fixed widening bitwise-exactly.  The step and
    candidate-draw totals of the pass are folded into the generator's
    ``search_step_count`` / ``search_draw_count`` accounting.
    """
    if schedule is None:
        schedule = getattr(generator, "schedule", None) or GeometricSchedule()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_instances, n_features = X.shape
    wave_offsets = _wave_offsets(offsets, generator.random_state, n_instances)
    pending = list(range(n_instances))
    best: dict[int, tuple[float, np.ndarray]] = {}  # (distance, candidate)
    cursor = schedule.begin(n_steps)
    steps_taken = 0
    draws_issued = 0
    # Hard backstop against a buggy custom cursor that never finishes its
    # instances: the built-in schedules need at most n_steps waves
    # (geometric) / n_steps + 1 probes per instance (adaptive bisection —
    # every probe strictly shrinks the bracket), so 2 * n_steps + 2 waves
    # can only be exceeded by a cursor that stopped making progress.  The
    # pre-schedule kernel was structurally capped at n_steps iterations;
    # exceeding the bound degrades to "unsolved", never to a hung audit.
    max_waves = 2 * max(int(n_steps), 1) + 2

    while pending and steps_taken < max_waves:
        plan = cursor.plan(pending)
        if not plan:
            break
        rows = list(plan)
        wave_rows = np.asarray(rows, dtype=int)
        X_wave = X[wave_rows]
        groups = wave_offsets(rows, plan)
        candidates = np.empty((len(rows), groups[0][1].shape[0], n_features))
        for positions, block in groups:
            candidates[positions] = block
        np.add(candidates, X_wave[:, None, :], out=candidates)
        projected = generator.constraints.project(X_wave[:, None, :], candidates)
        predictions = generator._predict(
            projected.reshape(-1, n_features)
        ).reshape(len(rows), -1)
        steps_taken += 1
        draws_issued += int(candidates.shape[0] * candidates.shape[1])

        # ONE batched distance call over every hit of the wave (row-major
        # nonzero keeps each instance's hits contiguous), instead of a
        # Python list comprehension per instance per hit.
        hit_rows, hit_columns = np.nonzero(predictions == generator.target_class)
        if hit_rows.size:
            wave_distances = batch_counterfactual_distance(
                X_wave[hit_rows], projected[hit_rows, hit_columns],
                scale=generator.scale_, metric=generator.metric,
            )
        bounds = np.searchsorted(hit_rows, np.arange(len(rows) + 1))
        for k, i in enumerate(rows):
            hits = hit_columns[bounds[k]:bounds[k + 1]]
            if hits.size:
                distances = wave_distances[bounds[k]:bounds[k + 1]]
                pick = int(np.argmin(distances))
                if i not in best or float(distances[pick]) < best[i][0]:
                    best[i] = (float(distances[pick]), projected[k, hits[pick]])
            cursor.observe(i, plan[i], int(hits.size), int(predictions.shape[1]))
        pending = [i for i in pending if i not in cursor.finished]

    record = getattr(generator, "add_search_counts", None)
    if record is not None:
        record(steps_taken, draws_issued)
    results = CounterfactualBatch.empty(n_instances, n_features)
    solved = sorted(best)
    if solved:
        sparse = greedy_sparsify_batch(generator, X[solved],
                                       np.stack([best[i][1] for i in solved]))
        results.put(solved, generator._make_results_batch(X[solved], sparse))
    return results


def shard_indices(n_items: int, n_shards: int) -> list[np.ndarray]:
    """Deterministic contiguous shards of ``range(n_items)``.

    ``np.array_split`` semantics (shard sizes differ by at most one), with
    empty shards dropped.  The split depends only on ``(n_items, n_shards)``
    so a sharded run is reproducible, and because a row's draws do not
    depend on its shard (see :func:`lockstep_candidate_search`), per-shard
    results are bitwise-identical to the unsharded pass.
    """
    n_shards = max(1, min(int(n_shards), int(n_items))) if n_items else 1
    return [shard for shard in np.array_split(np.arange(n_items), n_shards) if shard.size]


def _iter_init_parameters(generator):
    """Named ``__init__`` parameters across the generator's MRO (deduped)."""
    seen: set[str] = set()
    for klass in type(generator).__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        for name, parameter in inspect.signature(init).parameters.items():
            if name in ("self", "model", "background") or name in seen:
                continue
            if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                                  inspect.Parameter.VAR_KEYWORD):
                continue
            seen.add(name)
            yield name


def generator_config(generator) -> dict:
    """Constructor parameters of a counterfactual generator, by introspection.

    Walks the generator class's MRO collecting every named ``__init__``
    parameter (skipping ``self`` / ``model`` / ``background`` and var-args)
    and reads the attribute of the same name off the instance — the
    generators all store their constructor arguments verbatim.  The mapping
    is what the process-sharded executor ships to workers to rebuild the
    generator, and what the persistent store folds into a population
    fingerprint (so changing any search parameter busts the cache).

    Callers that need a *faithful* reconstruction must first check
    :func:`generator_config_is_faithful`: a generator storing a constructor
    argument under a different attribute name (or not at all) yields a
    config with that parameter missing, which would rebuild with the default
    and fingerprint two different configurations identically.
    """
    return {
        name: getattr(generator, name)
        for name in _iter_init_parameters(generator)
        if hasattr(generator, name)
    }


def generator_config_is_faithful(generator) -> bool:
    """Whether every ``__init__`` parameter is recoverable off the instance.

    ``False`` means :func:`generator_config` is lossy for this class — the
    process executor then falls back to thread-sharding (workers could not
    rebuild the generator exactly) and the persistent store skips the
    population (the fingerprint could not see the missing parameter).
    """
    return all(hasattr(generator, name) for name in _iter_init_parameters(generator))


def effective_backend(model):
    """The backend actually evaluating predict misses for ``model``.

    Unwraps the :class:`BatchModelAdapter` and any memoizing layer; ``None``
    for a bare (unadapted) model, whose predict is called directly.
    """
    if not isinstance(model, BatchModelAdapter):
        return None
    backend = model.backend
    if isinstance(backend, MemoizingPredictBackend):
        backend = backend.inner
    return backend


def _process_shard_spec(generator) -> dict | None:
    """Picklable recipe rebuilding ``generator`` inside a worker process.

    The recipe preserves the *effective predict dispatch*, not just the
    model object: a generator driven through a
    :class:`~fairexp.explanations.backends.CallablePredictBackend` (ONNX
    export, remote scorer) ships the callable, so workers score candidates
    against the same decision boundary the sequential pass would — never
    silently against the bare model's.

    Returns ``None`` when no faithful recipe exists — an unrecognized
    third-party backend, a closure that refuses to pickle, a shared random
    stream — in which case the engine falls back to thread-sharding against
    the shared backend rather than risking a divergent (or failed) audit.
    """
    if not generator_config_is_faithful(generator):
        return None  # a lossy rebuild would silently diverge; stay on threads
    model = generator.model
    backend = effective_backend(model)
    if isinstance(model, BatchModelAdapter):
        model = model.model
    spec = {
        "cls": type(generator),
        "model": model,
        "fn": None,
        "fn_name": None,
        "background": np.asarray(generator.background, dtype=float),
        "params": generator_config(generator),
    }
    if backend is None or type(backend) is NumpyPredictBackend:
        if model is None:
            return None
    elif (type(backend) is CallablePredictBackend
          or getattr(backend, "ships_fn_to_workers", False)):
        # Plain callable backends ship their fn; serving backends opt in
        # explicitly — OnnxExportBackend ships its (picklable, model-free)
        # compute graph, while RemoteScoringBackend declines (its coalescing
        # client's locks and sockets cannot cross a process boundary).
        spec["fn"] = backend.fn
        spec["fn_name"] = backend.name
    else:
        return None  # unknown dispatch semantics: keep the shared backend
    if isinstance(spec["params"].get("random_state"), np.random.Generator):
        return None  # one shared stream cannot be split across processes
    try:
        pickle.dumps(spec)
    except Exception:
        return None
    return spec


def _run_process_shard(spec: dict, X_shard: np.ndarray
                       ) -> tuple[CounterfactualBatch, int, int, int, int]:
    """Worker entry point: rebuild the generator, run one shard, report counts.

    The worker wraps the rebuilt dispatch (bare model, or the shipped
    callable backend) in a fresh counting adapter so the parent can fold the
    shard's predict work back into its own backend
    (:meth:`~fairexp.explanations.backends.NumpyPredictBackend.add_counts`);
    the shard's schedule step/draw totals ride along the same way.  A
    row's draws do not depend on its shard (see
    :func:`lockstep_candidate_search`), so the shard's results are
    bitwise-identical to the rows it would produce inside the sequential
    pass.
    """
    if spec["fn"] is not None:
        backend = CallablePredictBackend(spec["fn"], name=spec["fn_name"] or "callable")
        adapter = BatchModelAdapter(spec["model"], backend=backend, cache=False)
    else:
        adapter = BatchModelAdapter(spec["model"], cache=False)
    generator = spec["cls"](adapter, spec["background"], **spec["params"])
    results = generator.generate_batch_aligned(X_shard)
    return (results, adapter.predict_call_count, adapter.predict_row_count,
            generator.search_step_count, generator.search_draw_count)


class CounterfactualEngine:
    """Batched front-end over a counterfactual generator.

    Parameters
    ----------
    generator:
        Any :class:`~fairexp.explanations.counterfactual.BaseCounterfactualGenerator`.
    adapt_model:
        When ``True`` (the default) the generator's model is wrapped in a
        :class:`BatchModelAdapter` so every predict issued through the engine
        is counted; an already-wrapped model is left alone, letting several
        explainers share one adapter's counters.  The automatic wrap disables
        the adapter's memo: a cached adapter would keep serving stale labels
        if the underlying model were refit in place between audits.  Callers
        who know their model is frozen can pre-wrap with
        ``BatchModelAdapter(model, cache=True)`` themselves.
    n_jobs:
        Number of workers :meth:`generate_aligned` splits its
        work-list across.  ``1`` (the default) runs the single lockstep
        batch; ``-1`` uses one worker per CPU.  Shards are deterministic
        (:func:`shard_indices`) and a row's draws do not depend on its
        shard (see :func:`lockstep_candidate_search`), so the merged
        results are bitwise-identical to ``n_jobs=1`` — only the predict
        batching (and hence the call count) changes.  Backends are thread-safe, so shards may share one adapter.
        Generators seeded with a shared ``np.random.Generator`` instance
        always run the sequential pass (one stream cannot be sharded).
    executor:
        How sharded work runs: ``"thread"`` (a thread pool against the
        shared backend — right when predict releases the GIL),
        ``"process"`` (a process pool; each worker rebuilds the generator
        from a picklable shard spec and its predict counts are folded back
        into the parent backend — right when predict holds the GIL), or
        ``"auto"`` (the default: consult the backend's ``releases_gil``
        declaration and pick processes exactly when it is ``False``).
        Process sharding quietly falls back to threads when no picklable
        shard spec exists (no reachable bare model, or unpicklable
        constructor arguments).
    pool:
        An :class:`~fairexp.explanations.pool.ExecutorPool` supplying the
        worker pools sharded passes run on.  With a pool injected the
        engine never constructs a ``ThreadPoolExecutor`` or
        ``ProcessPoolExecutor`` itself — executors are created lazily by
        the pool, once, and reused across every call (this is how an
        :class:`~fairexp.explanations.session.AuditSession` amortizes
        process-pool startup across a whole sweep).  ``None`` (the default)
        keeps the historical per-call pools.  Pooled and per-call execution
        are bitwise-identical — shards are deterministic and a row's draws
        do not depend on its shard.
    """

    # Fingerprint-safety declaration for lint rule FX006 (a param never
    # stored as an engine attribute, neutral to the search's output):
    # adapt_model only decides whether a counting BatchModelAdapter wraps
    # the model; predicted labels are identical either way.
    FINGERPRINT_INVARIANT = ("adapt_model",)

    def __init__(self, generator, *, adapt_model: bool = True, n_jobs: int = 1,
                 executor: str = "auto", pool: ExecutorPool | None = None) -> None:
        if executor not in ("auto", "thread", "process"):
            raise ValidationError(
                f"executor must be 'auto', 'thread' or 'process', got {executor!r}"
            )
        if pool is not None and not isinstance(pool, ExecutorPool):
            raise ValidationError(
                f"pool must be an ExecutorPool or None, got {type(pool).__name__}"
            )
        self.generator = generator
        self.n_jobs = n_jobs
        self.executor = executor
        self.pool = pool
        if adapt_model and not isinstance(generator.model, BatchModelAdapter):
            generator.model = BatchModelAdapter(generator.model, cache=False)

    # ------------------------------------------------------------ properties
    @property
    def adapter(self) -> BatchModelAdapter | None:
        """The generator's counting adapter, if its model is wrapped in one."""
        model = self.generator.model
        return model if isinstance(model, BatchModelAdapter) else None

    @property
    def predict_call_count(self) -> int:
        """Predict calls counted by the generator's adapter (0 without one)."""
        adapter = self.adapter
        return adapter.predict_call_count if adapter is not None else 0

    @property
    def search_step_count(self) -> int:
        """Lockstep schedule steps taken across this generator's passes."""
        return getattr(self.generator, "search_step_count", 0)

    @property
    def search_draw_count(self) -> int:
        """Candidate draws issued across this generator's search passes."""
        return getattr(self.generator, "search_draw_count", 0)

    # ------------------------------------------------------------ generation
    def _resolve_n_jobs(self, n_rows: int) -> int:
        # A np.random.Generator instance as random_state is ONE shared stream:
        # per-instance draws consume it in sequence, so shards would both race
        # on its (non-thread-safe) internal state and change the draw order.
        # Integer / None seeds give every row the same draws wherever it runs
        # and shard deterministically; a Generator falls back to the
        # sequential pass.
        if isinstance(getattr(self.generator, "random_state", None), np.random.Generator):
            return 1
        n_jobs = self.n_jobs
        if n_jobs is None:
            n_jobs = 1
        if n_jobs < 0:
            n_jobs = os.cpu_count() or 1
        return max(1, min(int(n_jobs), int(n_rows))) if n_rows else 1

    def _resolve_executor(self) -> str:
        """``"thread"`` or ``"process"`` for this engine's sharded passes."""
        if self.executor != "auto":
            return self.executor
        adapter = self.adapter
        backend = adapter.backend if adapter is not None else None
        releases_gil = getattr(backend, "releases_gil", True)
        return "thread" if releases_gil else "process"

    def generate_aligned(self, X) -> CounterfactualBatch:
        """Counterfactuals for every row of ``X``, one batch row per row
        (without a result where infeasible).

        With ``n_jobs > 1`` the work-list is split into deterministic shards
        executed on a worker pool — threads against the shared (thread-safe)
        backend, or processes rebuilding the generator from a picklable
        shard spec (see the ``executor`` parameter).  Shards are contiguous
        ranges, so their batches concatenate back into caller order.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n_jobs = self._resolve_n_jobs(X.shape[0])
        if n_jobs == 1:
            return self.generator.generate_batch_aligned(X)
        shards = shard_indices(X.shape[0], n_jobs)
        if self._resolve_executor() == "process":
            parts = self._run_shards_in_processes(X, shards)
        else:
            parts = None
        if parts is None:
            def run_shard(shard):
                return self.generator.generate_batch_aligned(X[shard])

            if self.pool is not None:
                # Generation-tracked pool pass: a concurrent reset() cannot
                # shut the executor down under this map, and the pool's
                # busy-worker/queue-depth stats see every shard.
                parts = self.pool.map("thread", run_shard, shards)
            else:
                # Ephemeral, engine-owned pool (FX001: executors only come
                # from ExecutorPool); same in-order results + first-error
                # re-raise semantics as a raw executor map.
                with ExecutorPool(max_workers=len(shards)) as pool:
                    parts = pool.map("thread", run_shard, shards)
        merged = CounterfactualBatch.concat(parts)
        merged.indices = np.arange(X.shape[0], dtype=np.int64)
        return merged

    def _run_shards_in_processes(self, X: np.ndarray, shards: list[np.ndarray]
                                 ) -> list[CounterfactualBatch] | None:
        """Run shards on a process pool; ``None`` means fall back to threads.

        Each worker rebuilds the generator from the shard spec, so the
        parent's model object (and its locks) never crosses the process
        boundary; the workers' predict counts are folded back into the
        parent backend so session-wide accounting survives the hop.
        """
        spec = _process_shard_spec(self.generator)
        if spec is None:
            return None
        specs, shard_X = [spec] * len(shards), [X[shard] for shard in shards]
        try:
            if self.pool is not None:
                outcomes = self.pool.map("process", _run_process_shard, specs, shard_X)
            else:
                with ExecutorPool(max_workers=len(shards)) as pool:
                    outcomes = pool.map("process", _run_process_shard, specs, shard_X)
        except Exception:
            # The parent-side pickle check can pass while workers still fail
            # to rebuild the spec — e.g. classes defined in __main__ under
            # the spawn start method, or a broken pool.  Honour the
            # documented quiet-fallback contract instead of crashing an
            # audit that the thread path can serve.  A persistent pool that
            # broke is reset so the NEXT process-sharded call starts clean.
            if self.pool is not None:
                self.pool.reset("process")
            return None
        parts = [outcome[0] for outcome in outcomes]
        adapter = self.adapter
        backend = adapter.backend if adapter is not None else None
        if backend is not None and hasattr(backend, "add_counts"):
            backend.add_counts(sum(o[1] for o in outcomes), sum(o[2] for o in outcomes))
        record = getattr(self.generator, "add_search_counts", None)
        if record is not None:
            record(sum(o[3] for o in outcomes), sum(o[4] for o in outcomes))
        return parts

    def generate_for(self, X, indices) -> dict[int, Counterfactual]:
        """Counterfactuals for ``X[indices]``, keyed by the original row index.

        Rows whose search exhausts its budget are simply absent from the
        result, mirroring the ``try/except InfeasibleRecourseError`` pattern
        the per-instance loops used.

        Duplicate indices are deduped (preserving first-occurrence order,
        exactly as :meth:`AuditSession.counterfactuals_for` does) so a
        repeated index never pays for — or runs — a second search of the
        same row.
        """
        distinct = list(dict.fromkeys(np.asarray(indices, dtype=int).ravel().tolist()))
        results = self.generate_aligned(np.asarray(X, dtype=float)[distinct]) if distinct else []
        return {i: result for i, result in zip(distinct, results) if result is not None}
