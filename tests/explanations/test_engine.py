"""Tests for the batched counterfactual engine, adapter and explainer registry."""

import os

import numpy as np
import pytest

from fairexp.datasets import make_loan_dataset
from fairexp.exceptions import InfeasibleRecourseError
from fairexp.explanations import (
    ActionabilityConstraints,
    BatchModelAdapter,
    CounterfactualEngine,
    ExplainerRegistry,
    GradientCounterfactual,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
)
from fairexp.models import LogisticRegression


class _DiesInWorkers:
    """A model whose ``predict`` kills any process but the one that built
    it: a process-sharded pass over it loses its workers mid-shard."""

    def __init__(self, model):
        self.model = model
        self.parent_pid = os.getpid()

    def predict(self, X):
        if os.getpid() != self.parent_pid:
            os._exit(3)
        return self.model.predict(X)


@pytest.fixture(scope="module")
def loan_workload():
    dataset = make_loan_dataset(500, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    rejected = test.X[model.predict(test.X) == 0][:25]
    return model, train.X, constraints, rejected


class TestBatchModelAdapter:
    def test_counts_forwarded_calls_and_rows(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model, cache=False)
        adapter.predict(rejected)
        adapter.predict(rejected[:5])
        assert adapter.predict_call_count == 2
        assert adapter.predict_row_count == rejected.shape[0] + 5

    def test_predictions_match_wrapped_model(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model)
        assert np.array_equal(adapter.predict(rejected), model.predict(rejected))

    def test_cache_serves_repeated_matrices(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model, cache=True)
        first = adapter.predict(rejected)
        second = adapter.predict(rejected)
        assert adapter.predict_call_count == 1
        assert adapter.cache_hit_count == 1
        assert np.array_equal(first, second)

    def test_reset_counts(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model)
        adapter.predict(rejected)
        adapter.reset_counts()
        assert adapter.predict_call_count == 0
        assert adapter.predict_row_count == 0

    def test_attribute_passthrough(self, loan_workload):
        model, _, _, _ = loan_workload
        adapter = BatchModelAdapter(model)
        assert hasattr(adapter, "gradient_input")
        assert np.array_equal(np.asarray(adapter.coef_), np.asarray(model.coef_))


class TestBatchParity:
    """Fixed-seed regression: the engine path reproduces the sequential path."""

    @pytest.mark.parametrize("generator_cls", [
        RandomSearchCounterfactual, GrowingSpheresCounterfactual,
    ])
    def test_sampling_generators_bitwise_identical(self, generator_cls, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = generator_cls(model, background, constraints=constraints, random_state=0)
        sequential = [generator.generate(row) for row in rejected]
        batched = generator.generate_batch_aligned(rejected)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat is not None
            assert np.array_equal(seq.counterfactual, bat.counterfactual)
            assert seq.changed_features == bat.changed_features
            assert seq.distance == bat.distance
            assert seq.original_prediction == bat.original_prediction
            assert seq.counterfactual_prediction == bat.counterfactual_prediction
            assert seq.feasible == bat.feasible

    def test_gradient_generator_matches_to_float_associativity(self, loan_workload):
        # Batched mat-vec products differ from single-row ones in the last
        # ulp, which the gradient trajectory amplifies to ~1e-13 — still far
        # below any quantity the fairness audits report.
        model, background, constraints, rejected = loan_workload
        generator = GradientCounterfactual(model, background, constraints=constraints,
                                           random_state=0)
        sequential = []
        for row in rejected:
            try:
                sequential.append(generator.generate(row))
            except InfeasibleRecourseError:
                sequential.append(None)
        batched = generator.generate_batch_aligned(rejected)
        assert any(result is not None for result in sequential)
        for seq, bat in zip(sequential, batched):
            assert (seq is None) == (bat is None)
            if seq is None:
                continue
            np.testing.assert_allclose(bat.counterfactual, seq.counterfactual, atol=1e-9)
            assert seq.changed_features == bat.changed_features
            assert seq.counterfactual_prediction == bat.counterfactual_prediction

    def test_batch_issues_fewer_predict_calls(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        sequential_adapter = BatchModelAdapter(model, cache=False)
        generator = GrowingSpheresCounterfactual(sequential_adapter, background,
                                                 constraints=constraints, random_state=0)
        for row in rejected:
            generator.generate(row)
        batch_adapter = BatchModelAdapter(model, cache=False)
        generator = GrowingSpheresCounterfactual(batch_adapter, background,
                                                 constraints=constraints, random_state=0)
        generator.generate_batch_aligned(rejected)
        assert sequential_adapter.predict_call_count >= 5 * batch_adapter.predict_call_count

    def test_sparsify_batched_predict_preserves_greedy_result(self, loan_workload):
        # The batched _sparsify must reproduce the one-predict-per-feature
        # greedy loop exactly, including the path-dependent accept/reject
        # decisions.
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        x = rejected[0]
        candidate = generator.constraints.project(x, x + 2.5 * generator.scale_)

        reference = candidate.copy()
        changed = np.flatnonzero(~np.isclose(reference, x))
        order = changed[np.argsort(np.abs((reference - x) / generator.scale_)[changed])]
        for j in order:
            trial = reference.copy()
            trial[j] = x[j]
            if int(np.asarray(model.predict(trial[None]))[0]) == generator.target_class:
                reference = trial
        assert np.array_equal(generator._sparsify(x, candidate), reference)


class _NeverHits:
    def predict(self, X):
        return np.zeros(np.atleast_2d(X).shape[0], dtype=int)


def _count_offset_calls(generator):
    """Wrap ``generator._offsets`` so every drawn block is counted."""
    calls = []
    offsets = generator._offsets

    def counted(rng, step):
        calls.append(step)
        return offsets(rng, step)

    generator._offsets = counted
    return calls


def _record_wave_offsets(monkeypatch, generator):
    """Record ``candidates - X`` of every search wave before projection."""
    waves = []
    project = generator.constraints.project

    def spy(x_original, candidate):
        if np.ndim(candidate) == 3:  # a lockstep wave, not a result row
            waves.append(candidate - x_original)
        return project(x_original, candidate)

    monkeypatch.setattr(generator.constraints, "project", spy)
    return waves


class TestSharedOffsetBlocks:
    """Under an integer seed every row of a search wave reuses one offset
    block per (draw index, rung); ``None`` seeds draw per row."""

    @pytest.mark.parametrize("generator_cls", [
        RandomSearchCounterfactual, GrowingSpheresCounterfactual,
    ])
    def test_integer_seed_rows_share_one_stream_of_offsets(self, generator_cls,
                                                           loan_workload, monkeypatch):
        # Deliberate, and inherited from the sequential path: each row
        # reseeds the same stream there, so every audited row searches the
        # same random directions.
        _, background, constraints, rejected = loan_workload
        generator = generator_cls(_NeverHits(), background, constraints=constraints,
                                  random_state=0)
        waves = _record_wave_offsets(monkeypatch, generator)
        generator.generate_batch_aligned(rejected)
        assert len(waves) == len(generator.draw_schedule())
        tolerance = 1e-12 * (1.0 + np.abs(rejected).max())
        for offsets in waves:  # geometric: draw index == rung == wave
            assert offsets.shape[0] == rejected.shape[0]
            np.testing.assert_allclose(offsets, np.broadcast_to(offsets[:1], offsets.shape),
                                       rtol=0, atol=tolerance)

    def test_none_seed_draws_a_stream_per_row(self, loan_workload, monkeypatch):
        _, background, _, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(_NeverHits(), background, random_state=None)
        waves = _record_wave_offsets(monkeypatch, generator)
        generator.generate_batch_aligned(rejected[:2])
        assert not np.allclose(waves[0][0], waves[0][1])

    @pytest.mark.parametrize("generator_cls", [
        RandomSearchCounterfactual, GrowingSpheresCounterfactual,
    ])
    def test_offset_draws_do_not_grow_with_rows(self, generator_cls, loan_workload):
        _, background, _, rejected = loan_workload
        counts = {}
        for seed in (0, None):
            for n_rows in (10, 400):
                generator = generator_cls(_NeverHits(), background, random_state=seed)
                calls = _count_offset_calls(generator)
                generator.generate_batch_aligned(np.resize(rejected, (n_rows, rejected.shape[1])))
                counts[seed, n_rows] = len(calls)
        n_rungs = len(generator.draw_schedule())
        assert counts[0, 10] == counts[0, 400] == n_rungs
        assert counts[None, 10] == 10 * n_rungs
        assert counts[None, 400] == 400 * n_rungs

    @pytest.mark.parametrize("schedule", ["geometric", "adaptive"])
    def test_thread_shards_bitwise_equal_to_sequential(self, schedule, loan_workload):
        # Every shard builds its own offset memo; the merged results must
        # still equal the single pass.
        model, background, constraints, rejected = loan_workload
        make = lambda: GrowingSpheresCounterfactual(  # noqa: E731
            model, background, constraints=constraints, random_state=0, schedule=schedule,
        )
        sequential = CounterfactualEngine(make(), n_jobs=1).generate_aligned(rejected)
        engine = CounterfactualEngine(make(), n_jobs=3, executor="thread")
        _assert_same_results(sequential, engine.generate_aligned(rejected))


class TestCounterfactualEngine:
    def test_wraps_model_once_and_counts(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator)
        assert isinstance(generator.model, BatchModelAdapter)
        again = CounterfactualEngine(generator)
        assert again.adapter is engine.adapter  # shared, not double-wrapped
        engine.generate_aligned(rejected[:4])
        assert engine.predict_call_count > 0

    def test_generate_for_keys_results_by_row_index(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator)
        indices = np.array([3, 7, 11])
        results = engine.generate_for(rejected, indices)
        assert set(results) <= set(int(i) for i in indices)
        for i, counterfactual in results.items():
            assert np.array_equal(counterfactual.original, rejected[i])

    def test_generate_for_dedupes_duplicate_indices(self, loan_workload):
        """A duplicated index must trigger (and pay for) exactly one search
        of that row — matching AuditSession.counterfactuals_for, which
        already dedupes while preserving order."""
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator)
        searched_rows: list[int] = []
        original = engine.generate_aligned

        def spying_generate_aligned(X):
            searched_rows.append(np.atleast_2d(X).shape[0])
            return original(X)

        engine.generate_aligned = spying_generate_aligned
        duplicated = engine.generate_for(rejected, np.array([3, 7, 3, 11, 7, 3]))
        assert searched_rows == [3]  # one search per DISTINCT row
        engine.generate_aligned = original
        reference = engine.generate_for(rejected, np.array([3, 7, 11]))
        assert set(duplicated) == set(reference)
        for i in reference:
            assert np.array_equal(duplicated[i].counterfactual,
                                  reference[i].counterfactual)

    def test_generate_for_empty_indices(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        assert CounterfactualEngine(generator).generate_for(rejected, np.array([], int)) == {}

    def test_invalid_executor_rejected(self, loan_workload):
        from fairexp.exceptions import ValidationError

        model, background, constraints, _ = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        with pytest.raises(ValidationError):
            CounterfactualEngine(generator, executor="fibers")


def _assert_same_results(sequential, other):
    assert len(sequential) == len(other)
    for seq, alt in zip(sequential, other):
        assert (seq is None) == (alt is None)
        if seq is None:
            continue
        assert np.array_equal(seq.counterfactual, alt.counterfactual)
        assert seq.changed_features == alt.changed_features
        assert seq.distance == alt.distance


class TestProcessExecutor:
    """Process-based sharding: picklable shard specs, bitwise merges,
    GIL-aware auto-selection, and graceful fallbacks."""

    def test_process_shards_bitwise_equal_to_sequential(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        make = lambda: GrowingSpheresCounterfactual(  # noqa: E731
            model, background, constraints=constraints, random_state=0
        )
        sequential = CounterfactualEngine(make(), n_jobs=1).generate_aligned(rejected)
        engine = CounterfactualEngine(make(), n_jobs=2, executor="process")
        _assert_same_results(sequential, engine.generate_aligned(rejected))

    def test_process_shards_absorb_worker_predict_counts(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2, executor="process")
        engine.generate_aligned(rejected[:8])
        assert engine.predict_call_count > 0

    def test_auto_uses_threads_for_gil_releasing_backends(self, loan_workload):
        model, background, constraints, _ = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2)
        assert engine._resolve_executor() == "thread"

    def test_auto_uses_processes_for_gil_holding_backends(self, loan_workload):
        from fairexp.explanations import CallablePredictBackend

        model, background, constraints, _ = loan_workload
        backend = CallablePredictBackend(model.predict)  # releases_gil=False
        adapted = BatchModelAdapter(model, backend=backend, cache=False)
        generator = GrowingSpheresCounterfactual(adapted, background,
                                                 constraints=constraints, random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2)
        assert engine._resolve_executor() == "process"

    def test_gil_holding_backend_process_run_matches_sequential(self, loan_workload):
        from fairexp.explanations import CallablePredictBackend

        model, background, constraints, rejected = loan_workload
        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                         random_state=0),
            n_jobs=1,
        ).generate_aligned(rejected[:10])
        backend = CallablePredictBackend(model.predict)
        adapted = BatchModelAdapter(model, backend=backend, cache=False)
        generator = GrowingSpheresCounterfactual(adapted, background,
                                                 constraints=constraints, random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2)  # auto -> process
        _assert_same_results(sequential, engine.generate_aligned(rejected[:10]))

    def test_process_workers_honour_custom_callable_backend(self, loan_workload):
        """The shard spec must ship the callable's decision boundary, not the
        bare model's: when they disagree (an out-of-date export, a remote
        model version skew), the process-sharded results must match the
        sequential results under the SAME callable."""
        from fairexp.datasets import make_loan_dataset
        from fairexp.explanations import CallablePredictBackend
        from fairexp.models import LogisticRegression

        model, background, constraints, rejected = loan_workload
        # A genuinely different predictor standing in for "the export".
        other_dataset = make_loan_dataset(400, direct_bias=0.0, recourse_gap=0.0,
                                          random_state=7)
        other_model = LogisticRegression(n_iter=400, random_state=7).fit(
            other_dataset.X, other_dataset.y
        )
        assert not np.array_equal(model.predict(rejected), other_model.predict(rejected))

        def build(n_jobs, executor):
            backend = CallablePredictBackend(other_model.predict)
            adapted = BatchModelAdapter(model, backend=backend, cache=False)
            generator = GrowingSpheresCounterfactual(
                adapted, background, constraints=constraints, random_state=0
            )
            return CounterfactualEngine(generator, n_jobs=n_jobs, executor=executor)

        sequential = build(1, "thread").generate_aligned(rejected[:10])
        sharded = build(2, "process").generate_aligned(rejected[:10])
        _assert_same_results(sequential, sharded)
        # And every counterfactual flips the class under the CALLABLE.
        found = [r for r in sharded if r is not None]
        assert found, "workload produced no counterfactuals to check"
        for result in found:
            assert int(other_model.predict(result.counterfactual[None, :])[0]) == 1

    def test_unpicklable_spec_falls_back_to_threads(self, loan_workload):
        from fairexp.explanations import CallablePredictBackend

        model, background, constraints, rejected = loan_workload
        # A closure-based backend with no reachable bare model cannot be
        # shipped to workers; the engine must still produce correct results.
        backend = CallablePredictBackend(lambda X: model.predict(X))
        adapted = BatchModelAdapter(backend=backend, cache=False)
        generator = GrowingSpheresCounterfactual(adapted, background,
                                                 constraints=constraints, random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2, executor="process")
        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                         random_state=0),
            n_jobs=1,
        ).generate_aligned(rejected[:8])
        _assert_same_results(sequential, engine.generate_aligned(rejected[:8]))

    def test_worker_pool_failure_falls_back_to_threads(self, loan_workload,
                                                       monkeypatch):
        """A pool that breaks at run time (spawn-method rebuild failures,
        BrokenProcessPool) must degrade to thread shards, not crash audits."""
        from fairexp.explanations import engine as engine_module
        from fairexp.explanations.pool import ExecutorPool

        real_map = ExecutorPool.map

        def exploding_map(self, kind, fn, *iterables):
            if kind == "process":
                raise RuntimeError("worker bootstrap failed")
            return real_map(self, kind, fn, *iterables)

        monkeypatch.setattr(engine_module.ExecutorPool, "map", exploding_map)
        model, background, constraints, rejected = loan_workload
        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                         random_state=0),
            n_jobs=1,
        ).generate_aligned(rejected[:6])
        engine = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                         random_state=0),
            n_jobs=2, executor="process",
        )
        _assert_same_results(sequential, engine.generate_aligned(rejected[:6]))

    def test_killed_worker_falls_back_with_exact_counters(self, loan_workload):
        """Workers dying mid-shard degrade the pass to thread shards: the
        merged batch equals n_jobs=1 bit for bit, the dead shards' predicts
        are never folded into the counters, and the pool serves the next
        process-sharded call on a fresh executor."""
        from fairexp.explanations.pool import ExecutorPool

        model, background, constraints, rejected = loan_workload

        def build(dispatch, n_jobs, executor, pool=None):
            generator = GrowingSpheresCounterfactual(
                BatchModelAdapter(dispatch, cache=False), background,
                constraints=constraints, random_state=0)
            return CounterfactualEngine(generator, n_jobs=n_jobs, executor=executor,
                                        pool=pool)

        sequential = build(model, 1, "thread").generate_aligned(rejected)
        threaded = build(model, 2, "thread")
        threaded.generate_aligned(rejected)
        with ExecutorPool(max_workers=2) as pool:
            doomed = build(_DiesInWorkers(model), 2, "process", pool)
            merged = doomed.generate_aligned(rejected)
            for name, column in sequential.columns().items():
                assert getattr(merged, name).tobytes() == column.tobytes(), name
            assert pool.created_counts["process"] == 1
            assert "process" not in pool.active_kinds()  # the broken pool is retired
            for counter in ("predict_call_count", "search_step_count",
                            "search_draw_count"):
                assert getattr(doomed, counter) == getattr(threaded, counter), counter
            assert (doomed.adapter.predict_row_count
                    == threaded.adapter.predict_row_count)

            healthy = build(model, 2, "process", pool)
            _assert_same_results(sequential, healthy.generate_aligned(rejected))
            assert pool.created_counts["process"] == 2
            assert "process" in pool.active_kinds()  # ran on the fresh executor
            assert healthy.predict_call_count == threaded.predict_call_count

    def test_shared_stream_generator_stays_sequential(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(
            model, background, constraints=constraints,
            random_state=np.random.default_rng(0),
        )
        engine = CounterfactualEngine(generator, n_jobs=4, executor="process")
        assert engine._resolve_n_jobs(rejected.shape[0]) == 1


class TestExplainerRegistry:
    def test_generators_registered_with_capability(self):
        names = {e.name for e in ExplainerRegistry.with_capability("counterfactual-generator")}
        assert {"random_search", "growing_spheres", "gradient"} <= names

    def test_core_fairness_explainers_registered(self):
        import fairexp.core  # registration happens at import time  # noqa: F401

        names = set(ExplainerRegistry.names())
        assert {"burden", "nawb", "precof", "globe_ce", "recourse_sets", "facts"} <= names

    def test_get_returns_class_and_sets_registry_name(self):
        assert ExplainerRegistry.get("growing_spheres") is GrowingSpheresCounterfactual
        assert GrowingSpheresCounterfactual.registry_name == "growing_spheres"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            ExplainerRegistry.get("does-not-exist")

    def test_resolve_path(self):
        resolved = ExplainerRegistry.resolve_path(
            "explanations.counterfactual.GrowingSpheresCounterfactual"
        )
        assert resolved is GrowingSpheresCounterfactual
        assert ExplainerRegistry.resolve_path("no.such.Thing") is None

    def test_entries_carry_info(self):
        entry = ExplainerRegistry.entry("gradient")
        assert entry.info is not None
        assert entry.info.access == "gradient"
        assert "requires-gradient" in entry.capabilities
