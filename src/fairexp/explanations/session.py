"""Shared-pass audit sessions.

The paper's counterfactual-based fairness audits (burden [72], NAWB [73],
PreCoF [71], and the recourse audits) all consume counterfactuals over the
*same* population: burden explains every negatively classified individual,
NAWB the false negatives (a subset), PreCoF the negatives again.  Run
independently, each audit pays for its own engine pass.

:class:`AuditSession` removes that duplication with result-level sharing:

* the session owns **one** :class:`~fairexp.explanations.engine.BatchModelAdapter`
  (with a memoizing predict backend), so every audit's predictions route
  through the same counting/caching interface;
* each population's counterfactual matrix is computed **once** — the first
  audit to request rows triggers a (optionally sharded, ``n_jobs``) engine
  pass, later audits requesting overlapping rows are served from the
  session's result cache, including rows whose search was infeasible;
* predict-call accounting is session-wide, which is what the benchmarks
  assert on: a burden+NAWB+PreCoF sweep through one session issues strictly
  fewer predict calls than three independent audits.

The layering is session → engine → backend: the session decides *what* to
explain and shares results, the engine decides *how* to batch/shard the
search, the backend decides *where* predict batches run.  With a
:class:`~fairexp.explanations.store.CounterfactualStore` attached the
sharing additionally crosses process boundaries: each population's results
are persisted under a fingerprint of (population, model, engine config), so
a repeated sweep in a fresh process warm-starts with zero engine passes.

A session pins its model: the wrapped model must stay frozen for the
session's lifetime (refitting it in place would serve stale predictions and
stale counterfactuals).  Refit workflows should create a fresh session per
fit, or call :meth:`AuditSession.reset`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..exceptions import ValidationError
from .backends import MemoizingPredictBackend, ensure_backend
from .base import Counterfactual, CounterfactualBatch
from .engine import BatchModelAdapter, CounterfactualEngine
from .pool import ExecutorPool
from .schedules import resolve_schedule
from .store import CounterfactualStore, population_fingerprint

__all__ = ["AuditSession"]


class AuditSession:
    """One shared adapter + engine + counterfactual-result cache for a sweep of audits.

    Parameters
    ----------
    generator:
        A :class:`~fairexp.explanations.counterfactual.BaseCounterfactualGenerator`
        whose model the session takes ownership of.  Optional: a session
        built with only ``model`` still shares predictions (for audits that
        never generate counterfactuals, e.g. GLOBE-CE or recourse sets) but
        raises on :meth:`counterfactuals_for`.
    model:
        The classifier under audit; defaults to ``generator.model``.  At
        least one of ``generator``, ``model`` or ``backend`` must be given.
    backend:
        A :class:`~fairexp.explanations.backends.PredictBackend` every
        predict batch of the sweep dispatches through — the passthrough
        that points a whole audit sweep at an out-of-process scorer:
        an :class:`~fairexp.explanations.serving.OnnxExportBackend`
        (exported compute graph) or
        :class:`~fairexp.explanations.serving.RemoteScoringBackend`
        (coalescing client over ``python -m fairexp serve``).  ``None``
        (default) keeps the in-process vectorized NumPy backend.  The
        model object (when present) still serves attribute access —
        gradients, probabilities — only ``predict`` routing changes.
    n_jobs:
        Workers for sharded counterfactual generation (forwarded to
        :class:`~fairexp.explanations.engine.CounterfactualEngine`).
    executor:
        Sharded execution strategy, forwarded to the engine: ``"thread"``,
        ``"process"``, or ``"auto"`` (pick processes when the predict
        backend declares it holds the GIL).
    schedule:
        A :class:`~fairexp.explanations.schedules.SearchSchedule` (or its
        name, ``"geometric"`` / ``"adaptive"``) installed on the session's
        generator before the engine is built, so every audit of the sweep
        searches under the same schedule.  ``None`` (default) keeps the
        generator's own schedule.  Because the schedule is part of the
        generator's search configuration it also keys the persistent store:
        geometric and adaptive results never alias.
    pool:
        An :class:`~fairexp.explanations.pool.ExecutorPool` the engine runs
        every sharded pass on.  ``None`` (default) makes the session create
        its own — lazily populated, so a sequential sweep never spawns
        workers — and the session then owns its shutdown: use the session
        as a context manager (or call :meth:`close`) to tear workers down
        deterministically.  A sweep with ``executor="process"`` thereby
        constructs exactly one ``ProcessPoolExecutor``, reused across all
        audits, instead of one per engine call.  An injected pool is shared,
        not owned: concurrent sessions given the same pool run on one set
        of workers — N process-sharded sessions construct exactly one
        ``ProcessPoolExecutor`` between them — and the pool's creator shuts
        it down.
    store:
        A :class:`~fairexp.explanations.store.CounterfactualStore` (or a
        directory path coerced into one) persisting each population's
        results across processes.  On the first touch of a population the
        session seeds its in-memory cache from the store; after every
        engine pass it publishes the merged rows back.  ``None`` (default)
        keeps sharing in-process only.
    cache_predictions:
        When ``True`` (default), the adapter memoizes repeated predict
        matrices — audits scoring the same population only pay once.
        ``False`` skips installing a memo on adapters this session creates
        (an inherited adapter's memo is left alone — it may belong to a live
        shared session); refit workflows should call :meth:`reset_results`
        after each refit, which drops cached results and any memo.
    max_populations:
        Bound on distinct populations whose results are kept; the oldest
        population is evicted beyond it (one audit sweep touches a handful,
        so the default only matters for long-lived multi-population sessions).
    """

    # Fingerprint-safety declarations for lint rule FX006 (params never
    # stored as session attributes, each covered elsewhere or neutral):
    # - backend only rewires the adapter's dispatch; graph-backed remote
    #   backends contribute their dispatch token to the population
    #   fingerprint through the store instead.
    # - executor picks thread vs process sharding; shard outputs are
    #   bitwise-equal under the engine's parity contract.
    # - schedule is installed onto the generator in __init__, so
    #   generator_config carries it (the population memo additionally keys
    #   on the schedule object).
    # - cache_predictions toggles the predict memo only; labels unchanged.
    FINGERPRINT_INVARIANT = (
        "backend", "executor", "schedule", "cache_predictions",
    )

    def __init__(self, generator=None, *, model=None, backend=None, n_jobs: int = 1,
                 executor: str = "auto", schedule=None, pool=None,
                 store=None, cache_predictions: bool = True,
                 max_populations: int = 32) -> None:
        if generator is None and model is None and backend is None:
            raise ValidationError(
                "AuditSession needs a generator, a model or a backend"
            )
        if generator is not None and model is not None and model is not generator.model \
                and model is not getattr(generator.model, "model", None):
            raise ValidationError(
                "conflicting arguments: the generator already carries its model; "
                "pass one or the other"
            )
        self.generator = generator
        self.max_populations = max_populations
        self.n_jobs = n_jobs
        self.store = CounterfactualStore.ensure(store)
        # One lazily populated executor pool per session: every sharded
        # engine pass of the sweep reuses its workers, and close() (or the
        # context-manager exit) shuts them down deterministically.  An
        # injected pool is shared, not owned — its creator shuts it down.
        self._owns_pool = pool is None
        self.pool = ExecutorPool.ensure(pool)
        self._closed = False
        try:
            self._finish_init(generator, model, backend, n_jobs, executor,
                              schedule, cache_predictions)
        except BaseException:
            # A validation failure below must not leak the pool this
            # half-built session would have owned (the caller never
            # receives the session to close()).
            if self._owns_pool:
                self.pool.shutdown()
            raise

    def _finish_init(self, generator, model, backend, n_jobs, executor,
                     schedule, cache_predictions) -> None:
        """Everything of ``__init__`` that may raise after the pool exists."""
        if backend is not None:
            backend = ensure_backend(backend)
        if generator is not None:
            if schedule is not None:
                generator.schedule = resolve_schedule(schedule)
            if backend is not None:
                # backend= rewires WHERE this sweep's predict batches run
                # (ONNX graph, remote scorer, ...) while keeping the model
                # object for attribute passthrough (gradients, proba).
                base_model = generator.model
                if isinstance(base_model, BatchModelAdapter):
                    base_model = base_model.model
                generator.model = BatchModelAdapter(base_model, backend=backend,
                                                    cache=cache_predictions)
            elif not isinstance(generator.model, BatchModelAdapter):
                generator.model = BatchModelAdapter(generator.model,
                                                    cache=cache_predictions)
            self._adapter = generator.model
            self.engine = CounterfactualEngine(generator, n_jobs=n_jobs,
                                               executor=executor, pool=self.pool)
        else:
            if schedule is not None:
                # A model-only session runs no candidate search; silently
                # accepting a schedule would let sweeps believe they compared
                # schedules when nothing changed.
                raise ValidationError(
                    "schedule= requires a generator (a model-only session "
                    "never runs a counterfactual search)"
                )
            if backend is not None:
                self._adapter = BatchModelAdapter(model, backend=backend,
                                                  cache=cache_predictions)
            else:
                self._adapter = (model if isinstance(model, BatchModelAdapter)
                                 else BatchModelAdapter(model, cache=cache_predictions))
            self.engine = None
        self._reconcile_cache(cache_predictions)
        self.result_reuse_count = 0
        self.store_row_hits = 0
        # Predict calls attributable to engine generation passes (excludes
        # the audits' own scoring traffic) — 0 on a fully warm start.
        self.engine_predict_call_count = 0
        # population key -> (one batch row per population row, mask of the
        # rows already searched; a searched row without a result is
        # remembered as infeasible)
        self._results: dict[str, tuple[CounterfactualBatch, np.ndarray]] = {}
        # population key -> (schedule observed at compute time, fingerprint);
        # cleared with the results, since a refit invalidates both.  The
        # schedule rides along because another session sharing this
        # generator can swap it mid-sweep (schedule=...), and a memoized
        # fingerprint from before the swap would publish the new
        # configuration's rows under the old configuration's store entry.
        self._store_fingerprints: dict[str, tuple[object, str | None]] = {}
        # Fingerprints this session has already published once: later
        # publishes skip the disk read-back merge — the in-memory cache is a
        # superset of this session's own last write (cross-process races
        # stay last-writer-wins either way).
        self._published_fingerprints: set[str] = set()

    @classmethod
    def ensure(cls, generator, session: "AuditSession | None"
               ) -> tuple["AuditSession", bool]:
        """Resolve an explainer's ``(generator, session)`` constructor pair.

        Returns ``(session, owns_session)``: without a session, a private
        refit-safe one (no predict memo; results dropped per ``explain``) is
        built around ``generator``.  Passing both a session and a *different*
        generator is a conflict and raises, instead of silently auditing with
        the session's search configuration.
        """
        if session is None:
            return cls(generator, cache_predictions=False), True
        if session.generator is None:
            # Counterfactual explainers always need the engine; fail at
            # construction rather than mid-audit.
            raise ValidationError(
                "this session was built without a generator (predict sharing "
                "only); build the AuditSession around a generator to share "
                "its counterfactuals"
            )
        if generator is None or generator is session.generator:
            return session, False
        raise ValidationError(
            "conflicting arguments: pass either a generator or a session "
            "(the session already carries its own generator)"
        )

    def _reconcile_cache(self, cache_predictions: bool) -> None:
        """Make an inherited adapter honour this session's cache setting.

        The generator's model may already be wrapped (by an earlier engine or
        session) without a memo; requesting ``cache_predictions`` upgrades the
        backend stack in place, preserving the counting backend and its
        totals.  The reverse is deliberately NOT done: an inherited memo may
        belong to a live shared session, and stripping it here would silently
        disable that session's predict sharing.  Refit safety without a memo
        guarantee comes from :meth:`reset_results`, which clears both the
        result cache and any memo — private explainer sessions call it at
        the start of every ``explain``.
        """
        backend = self._adapter.backend
        if cache_predictions and not isinstance(backend, MemoizingPredictBackend):
            self._adapter.backend = MemoizingPredictBackend(backend)

    # ---------------------------------------------------------------- access
    @property
    def model(self) -> BatchModelAdapter:
        """The shared counting adapter — hand this to audits expecting a model."""
        return self._adapter

    @property
    def adapter(self) -> BatchModelAdapter:
        """The session's shared counting adapter (alias of :attr:`model`)."""
        return self._adapter

    @property
    def predict_call_count(self) -> int:
        """Session-wide predict invocations forwarded to the backend."""
        return self._adapter.predict_call_count

    @property
    def predict_row_count(self) -> int:
        """Session-wide rows across forwarded predict calls."""
        return self._adapter.predict_row_count

    @property
    def cache_hit_count(self) -> int:
        """Session-wide predict requests served from the memo."""
        return self._adapter.cache_hit_count

    @property
    def schedule_step_count(self) -> int:
        """Lockstep schedule steps taken by this session's engine passes."""
        return self.engine.search_step_count if self.engine is not None else 0

    @property
    def schedule_draw_count(self) -> int:
        """Candidate rows drawn by this session's engine passes."""
        return self.engine.search_draw_count if self.engine is not None else 0

    def predict(self, X) -> np.ndarray:
        """Model predictions through the session's counting (memoizing) backend."""
        return self._adapter.predict(X)

    # -------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        """Raise a session-level error for use after :meth:`close`.

        Without this, a sharded pass on a closed session surfaces as the
        opaque "ExecutorPool is closed" from deep inside the engine — and a
        *sequential* pass would silently succeed, so the failure mode would
        even depend on ``n_jobs``.
        """
        if self._closed:
            raise ValidationError(
                "this AuditSession is closed; create a new session (or keep "
                "the `with` block open) to run further audits"
            )

    def close(self) -> None:
        """Shut down the session's executor pool (idempotent).

        Only a pool the session created itself is shut down; an injected
        pool is left running for its owner.  Results and counters survive —
        ``close`` only releases worker threads/processes.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "AuditSession":
        """Use the session as a context manager for deterministic pool shutdown."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Shut the session's worker pool down on block exit."""
        self.close()

    # ------------------------------------------------------- result sharing
    @staticmethod
    def population_key(X) -> str:
        """Stable fingerprint of a population matrix (shape + content hash)."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
        digest = hashlib.sha1(X.tobytes()).hexdigest()
        return f"{X.shape[0]}x{X.shape[1]}:{digest}"

    def results_for(self, X, indices) -> CounterfactualBatch:
        """Results for ``X[indices]``, one batch row per index (duplicates
        kept), shared across audits.

        Rows already explained for this population (by *any* earlier audit
        in the session) are served from the result cache — including rows
        whose search exhausted its budget, which are remembered as
        infeasible (``has_result`` is ``False``) and never retried.  Only
        genuinely new rows trigger an engine pass.
        """
        if self.engine is None:
            raise ValidationError(
                "this AuditSession was built without a counterfactual generator"
            )
        self._check_open()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if indices.size == 0:
            return CounterfactualBatch.empty(0, X.shape[1])
        key = self.population_key(X)
        batch, searched = self._population(key, X)
        # Dedupe while preserving order: a duplicated index must not trigger
        # (or pay for) two searches of the same row.
        _, first = np.unique(indices, return_index=True)
        distinct = indices[np.sort(first)]
        missing = distinct[~searched[distinct]]
        self.result_reuse_count += int(distinct.size - missing.size)
        if missing.size:
            calls_before = self._adapter.predict_call_count
            batch.put(missing, self.engine.generate_aligned(X[missing]))
            searched[missing] = True
            self.engine_predict_call_count += (
                self._adapter.predict_call_count - calls_before
            )
            self._publish_to_store(key, X, batch, searched)
        return batch.take(indices, indices=indices)

    def counterfactuals_for(self, X, indices) -> dict[int, Counterfactual]:
        """Counterfactuals for ``X[indices]``, keyed by row index, shared across audits.

        The per-row view of :meth:`results_for`: rows without a feasible
        counterfactual are absent from the returned mapping, mirroring
        :meth:`~fairexp.explanations.engine.CounterfactualEngine.generate_for`.
        """
        batch = self.results_for(X, indices)
        return {int(batch.indices[k]): batch[k] for k in np.flatnonzero(batch.has_result)}

    def _population(self, key: str, X: np.ndarray
                    ) -> tuple[CounterfactualBatch, np.ndarray]:
        """The cached ``(batch, searched)`` pair of population ``X``,
        created (and warmed from the store) on first touch."""
        if key in self._results:
            return self._results[key]
        if len(self._results) >= self.max_populations:
            # Bound the result cache like the predict memo: evict the oldest
            # population (audits of one sweep share a handful of populations;
            # unbounded growth only hurts long-lived multi-population sessions).
            evicted = next(iter(self._results))
            self._results.pop(evicted)
            memo = self._store_fingerprints.pop(evicted, None)
            if memo is not None and memo[1] is not None:
                # The published-fingerprint memo must fall with the results:
                # after eviction the in-memory cache is no longer a superset
                # of this session's own writes, so the next publish of a
                # re-touched population has to do the disk read-back merge
                # again or it would silently drop rows from the store entry.
                self._published_fingerprints.discard(memo[1])
        batch, searched = population = (CounterfactualBatch.empty(*X.shape),
                                        np.zeros(X.shape[0], dtype=bool))
        self._results[key] = population
        # Warm the new population from the persistent store.
        fingerprint = self._store_fingerprint(key, X) if self.store is not None else None
        stored = self.store.load(fingerprint) if fingerprint is not None else None
        if stored:
            batch.put(stored.indices, stored)
            searched[stored.indices] = True
            self.store_row_hits += len(stored)
        return population

    def _store_fingerprint(self, key: str, X: np.ndarray) -> str | None:
        """Store fingerprint for a population, memoized per population key.

        The memo is invalidated when the generator's schedule object changed
        since it was computed (a second session over the same generator can
        install a different schedule), so rows searched under the new
        configuration are never published under the old entry.
        """
        schedule = getattr(self.generator, "schedule", None)
        memo = self._store_fingerprints.get(key)
        if memo is None or memo[0] is not schedule:
            memo = (schedule, population_fingerprint(self.generator, X))
            self._store_fingerprints[key] = memo
        return memo[1]

    def _publish_to_store(self, key: str, X: np.ndarray, batch: CounterfactualBatch,
                          searched: np.ndarray) -> None:
        """Persist a population's searched rows after an engine pass added rows."""
        if self.store is None:
            return
        fingerprint = self._store_fingerprint(key, X)
        if fingerprint is not None:
            rows = np.flatnonzero(searched)
            self.store.save(fingerprint, batch.take(rows, indices=rows),
                            merge=fingerprint not in self._published_fingerprints)
            self._published_fingerprints.add(fingerprint)

    def precompute(self, X) -> int:
        """Warm the session for ``X``: one engine pass over every row not yet
        predicted as the generator's target class.  Returns the number of
        rows explained.

        Calling this first makes every subsequent audit of the population a
        pure cache read regardless of which subset it selects.  (The target
        class is always the generator's — generation and selection must
        agree, or the cache would hold wrong-direction counterfactuals.)
        """
        if self.engine is None:
            raise ValidationError(
                "this AuditSession was built without a counterfactual generator"
            )
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pending = np.flatnonzero(self.predict(X) != self.generator.target_class)
        self.counterfactuals_for(X, pending)
        return int(pending.size)

    # ------------------------------------------------------------ accounting
    def stats(self) -> dict[str, int]:
        """Session-wide sharing statistics (for benchmarks and reports)."""
        n_cached = sum(int(searched.sum()) for _, searched in self._results.values())
        n_infeasible = sum(int((searched & ~batch.has_result).sum())
                           for batch, searched in self._results.values())
        stats = {
            "n_populations": len(self._results),
            "n_counterfactuals_cached": n_cached - n_infeasible,
            "n_infeasible_cached": n_infeasible,
            # Rows served from the result cache instead of a fresh engine
            # pass — the honest measure of cross-audit sharing (stays 0 if
            # the sharing mechanism silently breaks).
            "n_results_reused": self.result_reuse_count,
            "predict_call_count": self.predict_call_count,
            "predict_row_count": self.predict_row_count,
            "predict_cache_hits": self._adapter.cache_hit_count,
            # Predict calls spent inside engine generation passes — 0 when
            # every population came warm from the persistent store.
            "engine_predict_calls": self.engine_predict_call_count,
            # Lockstep schedule steps and candidate draws spent by those
            # passes — how the geometric/adaptive schedules are compared.
            "schedule_steps": self.schedule_step_count,
            "schedule_draws": self.schedule_draw_count,
            # Rows warm-started from the persistent store (cross-process
            # sharing; stays 0 without a store attached).
            "store_row_hits": self.store_row_hits,
        }
        # Pool utilization (executors created, busy workers, queue depth),
        # flattened so the BENCH_* trajectory points stay scalar-valued.
        for kind, metrics in self.pool.stats().items():
            for name, value in metrics.items():
                stats[f"pool_{kind}_{name}"] = value
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def reset_results(self) -> None:
        """Drop the shared results (counterfactuals AND memoized predictions)
        but keep the predict counters.

        Explainers that own a private session call this at the start of every
        ``explain`` so a model refit in place between audits is picked up —
        result-level sharing across calls is an opt-in of *shared* sessions,
        whose model is pinned for the session's lifetime.

        The memo clear deliberately extends to a memo inherited from another
        session over the same generator: there is no way to tell whether that
        session is still live, and a cleared memo merely costs re-predicts,
        while a stale one would silently corrupt audit results after a refit.
        Correctness wins; keep sweeps on one shared session to keep the memo
        warm.
        """
        self._results.clear()
        # Fingerprints fold in the fitted model state, so they are stale the
        # moment a refit happens — recompute on next touch.  The persistent
        # store itself needs no clearing: the refit model simply fingerprints
        # to different keys.
        self._store_fingerprints.clear()
        self._published_fingerprints.clear()
        self._adapter.clear_memo()

    def reset(self) -> None:
        """Drop all shared results and zero the predict counters."""
        self.reset_results()
        self._adapter.reset_counts()
        if self.store is not None:
            self.store.reset_counts()
        reset_search = getattr(self.generator, "reset_search_counts", None)
        if reset_search is not None:
            reset_search()
        self.result_reuse_count = 0
        self.store_row_hits = 0
        self.engine_predict_call_count = 0
