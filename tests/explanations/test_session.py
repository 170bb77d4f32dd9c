"""Tests for the shared-pass AuditSession and sharded engine execution."""

import numpy as np
import pytest

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AuditSession,
    BatchModelAdapter,
    CounterfactualEngine,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
    shard_indices,
)


@pytest.fixture
def workload(loan_data, loan_model):
    dataset, train, test = loan_data
    rejected_idx = np.flatnonzero(loan_model.predict(test.X) == 0)[:25]
    return dataset, train, test, loan_model, rejected_idx


def _generator(generator_cls, train, model, constraints=None):
    return generator_cls(model, train.X, constraints=constraints, random_state=0)


class TestShardIndices:
    def test_contiguous_and_complete(self):
        shards = shard_indices(10, 3)
        assert [list(s) for s in shards] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_shards_than_items(self):
        shards = shard_indices(2, 8)
        assert [list(s) for s in shards] == [[0], [1]]

    def test_zero_items(self):
        assert shard_indices(0, 4) == []


class TestShardMergeParity:
    """n_jobs=4 must be bitwise-equal to n_jobs=1 under fixed seeds."""

    @pytest.mark.parametrize("generator_cls", [
        GrowingSpheresCounterfactual, RandomSearchCounterfactual,
    ])
    def test_sharded_bitwise_equal_to_sequential(self, generator_cls, workload,
                                                 loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        constraints = loan_cf_generator.constraints
        rejected = test.X[rejected_idx]

        sequential = CounterfactualEngine(
            _generator(generator_cls, train, model, constraints), n_jobs=1
        ).generate_aligned(rejected)
        sharded = CounterfactualEngine(
            _generator(generator_cls, train, model, constraints), n_jobs=4
        ).generate_aligned(rejected)

        assert len(sharded) == len(sequential)
        assert any(result is not None for result in sequential)
        for seq, par in zip(sequential, sharded):
            assert (seq is None) == (par is None)
            if seq is None:
                continue
            assert np.array_equal(seq.counterfactual, par.counterfactual)
            assert seq.changed_features == par.changed_features
            assert seq.distance == par.distance
            assert seq.counterfactual_prediction == par.counterfactual_prediction

    def test_negative_n_jobs_means_cpu_count(self, workload, loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        engine = CounterfactualEngine(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            n_jobs=-1,
        )
        results = engine.generate_aligned(test.X[rejected_idx[:6]])
        assert len(results) == 6

    def test_session_shared_results_match_direct_engine(self, workload,
                                                        loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        constraints = loan_cf_generator.constraints
        direct = CounterfactualEngine(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        ).generate_for(test.X, rejected_idx)
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model, constraints), n_jobs=4
        )
        shared = session.counterfactuals_for(test.X, rejected_idx)
        assert set(direct) == set(shared)
        for i in direct:
            assert np.array_equal(direct[i].counterfactual, shared[i].counterfactual)


class TestAuditSessionSharing:
    def test_overlapping_requests_cost_no_new_predicts(self, workload,
                                                       loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        first = session.counterfactuals_for(test.X, rejected_idx)
        calls_after_first = session.predict_call_count
        reused_after_first = session.stats()["n_results_reused"]
        again = session.counterfactuals_for(test.X, rejected_idx[:10])
        assert session.predict_call_count == calls_after_first
        # Rows are built from the cached columns on each read, so they are
        # equal objects rather than the same ones.
        assert session.stats()["n_results_reused"] == reused_after_first + 10
        for i in again:
            for name in ("original", "counterfactual", "distance"):
                assert (np.asarray(getattr(again[i], name)).tobytes()
                        == np.asarray(getattr(first[i], name)).tobytes())
            for name in ("original_prediction", "counterfactual_prediction",
                         "changed_features", "feasible", "meta"):
                assert getattr(again[i], name) == getattr(first[i], name)

    def test_infeasible_rows_are_not_retried(self, workload):
        dataset, train, test, model, _ = workload

        class AlwaysRejects:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        generator = GrowingSpheresCounterfactual(AlwaysRejects(), train.X,
                                                 max_shells=2, random_state=0)
        session = AuditSession(generator)
        assert session.counterfactuals_for(test.X, np.arange(5)) == {}
        calls = session.predict_call_count
        assert session.counterfactuals_for(test.X, np.arange(5)) == {}
        assert session.predict_call_count == calls
        assert session.stats()["n_infeasible_cached"] == 5

    def test_distinct_populations_are_cached_separately(self, workload,
                                                        loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        session.counterfactuals_for(test.X, rejected_idx[:5])
        session.counterfactuals_for(test.X[:40] + 0.5, np.arange(3))
        assert session.stats()["n_populations"] == 2

    def test_precompute_warms_every_audit(self, workload, loan_cf_generator):
        dataset, train, test, model, _ = workload
        subset_X = test.X[:60]
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        n_explained = session.precompute(subset_X)
        assert n_explained > 0
        calls = session.predict_call_count
        pending = np.flatnonzero(session.predict(subset_X) != 1)
        session.counterfactuals_for(subset_X, pending)
        assert session.predict_call_count == calls

    def test_generatorless_session_serves_predictions_only(self, workload):
        dataset, train, test, model, _ = workload
        session = AuditSession(model=model)
        predictions = session.predict(test.X)
        assert np.array_equal(predictions, model.predict(test.X))
        assert session.predict_call_count == 1
        with pytest.raises(ValidationError):
            session.counterfactuals_for(test.X, np.arange(3))
        with pytest.raises(ValidationError):
            session.precompute(test.X)

    def test_session_requires_generator_or_model(self):
        with pytest.raises(ValidationError):
            AuditSession()

    def test_session_rejects_conflicting_model_and_generator(self, workload,
                                                             loan_cf_generator):
        dataset, train, test, model, _ = workload

        class OtherModel:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        generator = _generator(GrowingSpheresCounterfactual, train, model,
                               loan_cf_generator.constraints)
        with pytest.raises(ValidationError):
            AuditSession(generator, model=OtherModel())
        # The generator's own model (wrapped or not) is not a conflict.
        AuditSession(generator, model=model)

    def test_result_cache_bounds_populations(self, workload, loan_cf_generator):
        dataset, train, test, model, _ = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            max_populations=2,
        )
        for k in range(3):
            session.counterfactuals_for(test.X[:20] + 0.1 * k, np.arange(2))
        assert session.stats()["n_populations"] == 2

    def test_conflicting_generator_and_session_raise(self, workload,
                                                     loan_cf_generator):
        dataset, train, test, model, _ = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        other = _generator(GrowingSpheresCounterfactual, train, model,
                           loan_cf_generator.constraints)
        with pytest.raises(ValidationError):
            BurdenExplainer(other, session=session)
        # The session's own generator is not a conflict.
        BurdenExplainer(session.generator, session=session)
        # A generator-less session cannot serve a counterfactual audit —
        # rejected at construction, with or without an explicit generator.
        with pytest.raises(ValidationError):
            BurdenExplainer(other, session=AuditSession(model=model))
        with pytest.raises(ValidationError):
            BurdenExplainer(session=AuditSession(model=model))
        # Adapter without model or backend fails at construction, not predict.
        with pytest.raises(ValidationError):
            BatchModelAdapter()

    def test_private_session_does_not_strip_shared_memo(self, workload,
                                                        loan_cf_generator):
        """A standalone explainer over a generator owned by a live shared
        session must not disable that session's predict memo."""
        dataset, train, test, model, _ = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model,
                               loan_cf_generator.constraints)
        shared = AuditSession(generator)
        assert shared.adapter.cache
        BurdenExplainer(generator)  # builds a private cache-less session
        assert shared.adapter.cache  # shared memo survives
        shared.predict(test.X)
        shared.predict(test.X)
        assert shared.cache_hit_count == 1

    def test_precof_requires_feature_names(self, workload, loan_cf_generator):
        from fairexp.core import PreCoFExplainer as PreCoF

        dataset, train, test, model, _ = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        with pytest.raises(ValidationError):
            PreCoF(session=session)

    def test_adapter_cache_flag_reflects_backend_stack(self, workload):
        dataset, train, test, model, _ = workload
        assert BatchModelAdapter(model, cache=True).cache
        assert not BatchModelAdapter(model, cache=False).cache

    def test_reset_drops_results_and_counts(self, workload, loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        session.counterfactuals_for(test.X, rejected_idx[:5])
        session.reset()
        assert session.predict_call_count == 0
        assert session.stats()["n_populations"] == 0


class TestSessionRoutedAudits:
    def test_burden_nawb_precof_share_one_engine_pass(self, workload,
                                                      loan_cf_generator):
        dataset, train, test, model, _ = workload
        subset_X, subset_y = test.X[:60], test.y[:60]
        subset_s = test.sensitive_values[:60]
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        BurdenExplainer(session=session).explain(subset_X, subset_s)
        calls_after_burden = session.predict_call_count
        NAWBExplainer(session=session).explain(subset_X, subset_y, subset_s)
        PreCoFExplainer(feature_names=dataset.feature_names,
                        sensitive_feature=dataset.sensitive,
                        session=session).explain(subset_X, subset_s)
        # NAWB's false negatives and PreCoF's negatives are subsets of the
        # rows burden already explained; predictions come from the memo.
        assert session.predict_call_count == calls_after_burden

    def test_session_and_standalone_audits_agree(self, workload,
                                                 loan_cf_generator):
        dataset, train, test, model, _ = workload
        subset_X = test.X[:60]
        subset_s = test.sensitive_values[:60]
        constraints = loan_cf_generator.constraints
        standalone = BurdenExplainer(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        ).explain(subset_X, subset_s)
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        )
        shared = BurdenExplainer(session=session).explain(subset_X, subset_s)
        assert shared.gap == standalone.gap
        assert shared.protected.burden == standalone.protected.burden
        np.testing.assert_array_equal(shared.protected.distances,
                                      standalone.protected.distances)

    def test_private_session_regenerates_after_inplace_refit(self, loan_data):
        """A standalone explainer must pick up an in-place model refit — only
        shared sessions pin a frozen model."""
        dataset, train, test = loan_data

        class MutableModel:
            def __init__(self):
                self.offset = 0.0

            def predict(self, X):
                return (np.atleast_2d(X)[:, 0] + self.offset > 45).astype(int)

        model = MutableModel()
        explainer = BurdenExplainer(
            GrowingSpheresCounterfactual(model, train.X, random_state=0)
        )
        subset_X = test.X[:40]
        subset_s = test.sensitive_values[:40]
        explainer.explain(subset_X, subset_s)
        model.offset = -30.0  # refit in place: approvals now need income > 75
        refit = explainer.explain(subset_X, subset_s)
        fresh = BurdenExplainer(
            GrowingSpheresCounterfactual(model, train.X, random_state=0)
        ).explain(subset_X, subset_s)
        assert refit.protected.burden == fresh.protected.burden
        assert refit.reference.burden == fresh.reference.burden

    def test_private_session_refit_safe_with_prewrapped_memo_adapter(self, loan_data):
        """A leftover memoizing adapter (from an earlier shared session on the
        same generator) must not serve stale predictions to a private-session
        explainer after an in-place refit."""
        dataset, train, test = loan_data

        class MutableModel:
            offset = 0.0

            def predict(self, X):
                return (np.atleast_2d(X)[:, 0] + self.offset > 45).astype(int)

        model = MutableModel()
        generator = GrowingSpheresCounterfactual(model, train.X, random_state=0)
        AuditSession(generator)  # wraps generator.model with a memoizing adapter
        explainer = BurdenExplainer(generator)   # private, refit-safe session
        subset_X, subset_s = test.X[:40], test.sensitive_values[:40]
        explainer.explain(subset_X, subset_s)
        model.offset = -30.0
        refit = explainer.explain(subset_X, subset_s)
        fresh = BurdenExplainer(
            GrowingSpheresCounterfactual(model, train.X, random_state=0)
        ).explain(subset_X, subset_s)
        assert refit.protected.n_negative == fresh.protected.n_negative
        assert refit.protected.burden == fresh.protected.burden

    def test_session_upgrades_cacheless_adapter_to_memo(self, workload,
                                                        loan_cf_generator):
        """An engine-wrapped cache=False adapter gains the session's memo."""
        dataset, train, test, model, _ = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model,
                               loan_cf_generator.constraints)
        CounterfactualEngine(generator)          # wraps with cache=False
        session = AuditSession(generator)        # cache_predictions=True
        session.predict(test.X)
        session.predict(test.X)
        assert session.predict_call_count == 1
        assert session.cache_hit_count == 1

    def test_missing_model_and_session_raise_cleanly(self, workload):
        from fairexp.core import RecourseSetExplainer, recourse_gap_report

        dataset, train, test, model, _ = workload
        with pytest.raises(ValidationError):
            recourse_gap_report(X=test.X, sensitive=test.sensitive_values)
        with pytest.raises(ValidationError):
            RecourseSetExplainer(candidate_actions=(),
                                 feature_names=dataset.feature_names)

    def test_reuse_counter_tracks_served_rows(self, workload, loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        session.counterfactuals_for(test.X, rejected_idx)
        assert session.stats()["n_results_reused"] == 0
        session.counterfactuals_for(test.X, rejected_idx[:10])
        assert session.stats()["n_results_reused"] == 10

    def test_explicit_model_wins_over_session(self, workload, loan_cf_generator):
        from fairexp.core import GlobeCEExplainer, recourse_gap_report

        dataset, train, test, model, _ = workload

        class ChallengerModel:
            def predict(self, X):
                return np.ones(np.atleast_2d(X).shape[0], dtype=int)

            def predict_proba(self, X):
                n = np.atleast_2d(X).shape[0]
                return np.column_stack([np.zeros(n), np.ones(n)])

        challenger = ChallengerModel()
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        globe = GlobeCEExplainer(challenger, train.X, session=session)
        assert globe.model is challenger
        report = recourse_gap_report(challenger, test.X, test.sensitive_values,
                                     session=session)
        assert report.n_protected == 0  # challenger rejects nobody

    def test_generator_instance_seed_falls_back_to_sequential(self, workload,
                                                              loan_cf_generator):
        """A shared np.random.Generator cannot be sharded: n_jobs>1 must run
        the sequential pass (same stream consumption, no thread race)."""
        dataset, train, test, model, rejected_idx = workload
        constraints = loan_cf_generator.constraints
        rejected = test.X[rejected_idx[:10]]

        sharded = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=np.random.default_rng(7)),
            n_jobs=4,
        ).generate_aligned(rejected)
        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=np.random.default_rng(7)),
            n_jobs=1,
        ).generate_aligned(rejected)
        for seq, par in zip(sequential, sharded):
            assert (seq is None) == (par is None)
            if seq is not None:
                assert np.array_equal(seq.counterfactual, par.counterfactual)

    def test_engine_attribute_still_exposed(self, workload, loan_cf_generator):
        dataset, train, test, model, _ = workload
        explainer = BurdenExplainer(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        assert isinstance(explainer.engine, CounterfactualEngine)
        assert isinstance(explainer.generator.model, BatchModelAdapter)


class TestSessionLifecycleAndEviction:
    def test_closed_session_raises_a_session_level_error(self, workload,
                                                         loan_cf_generator):
        """Use after close() must name the SESSION, not surface the opaque
        'ExecutorPool is closed' from deep inside a sharded engine pass."""
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            n_jobs=2,
        )
        session.counterfactuals_for(test.X, rejected_idx[:4])
        session.close()
        with pytest.raises(ValidationError, match="AuditSession is closed"):
            session.counterfactuals_for(test.X, rejected_idx[:4])
        with pytest.raises(ValidationError, match="AuditSession is closed"):
            session.precompute(test.X[:8])

    def test_evicted_population_republishes_with_merge(self, workload,
                                                       loan_cf_generator, tmp_path):
        """Evict -> re-touch -> publish must merge with the store again.

        After eviction the in-memory cache is rebuilt from scratch, so it is
        no longer guaranteed to be a superset of this session's earlier
        writes; a publish that skips the disk read-back merge (merge=False)
        would silently drop rows from the store entry."""
        from fairexp.explanations import CounterfactualStore

        dataset, train, test, model, _ = workload
        store = CounterfactualStore(tmp_path)
        merge_flags: list[bool] = []
        original_save = store.save

        def spying_save(fingerprint, rows, *, merge=True, **kwargs):
            merge_flags.append(merge)
            return original_save(fingerprint, rows, merge=merge, **kwargs)

        store.save = spying_save
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            store=store, max_populations=1,
        )
        population_a = test.X[:20]
        population_b = test.X[20:40]
        session.counterfactuals_for(population_a, np.arange(3))   # publish #1 (A)
        session.counterfactuals_for(population_b, np.arange(3))   # evicts A
        # Re-touch A with rows the first pass never searched: the publish
        # must read the disk entry back and merge (merge=True), exactly as
        # a first-ever publish would.
        session.counterfactuals_for(population_a, np.arange(3, 6))
        assert merge_flags[0] is True
        assert merge_flags[-1] is True, (
            "re-publish after eviction skipped the read-back merge"
        )
        # All rows from both passes survived in the store entry.
        from fairexp.explanations import population_fingerprint
        fingerprint = population_fingerprint(session.generator, np.atleast_2d(
            np.asarray(population_a, dtype=float)))
        stored = store.load(fingerprint)
        assert set(stored.indices.tolist()) >= set(range(6))

    def test_backend_passthrough_routes_session_predicts(self, workload,
                                                         loan_cf_generator):
        """backend= reroutes every predict of the sweep while keeping audit
        results identical to the in-process default."""
        from fairexp.explanations import OnnxExportBackend

        dataset, train, test, model, rejected_idx = workload
        reference_session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints))
        reference = reference_session.counterfactuals_for(test.X, rejected_idx[:6])

        backend = OnnxExportBackend(model, verify_on=test.X)
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            backend=backend,
        )
        routed = session.counterfactuals_for(test.X, rejected_idx[:6])
        assert backend.call_count > 0          # the graph really served the sweep
        assert session.predict_call_count == backend.call_count
        assert set(routed) == set(reference)
        for i in reference:
            assert np.array_equal(routed[i].counterfactual,
                                  reference[i].counterfactual)

    def test_backend_only_session_shares_predictions(self, workload):
        """A session built from just a backend (no model object) still
        serves counted, memoized predictions."""
        from fairexp.explanations import OnnxExportBackend

        dataset, train, test, model, _ = workload
        session = AuditSession(backend=OnnxExportBackend(model))
        first = session.predict(test.X)
        second = session.predict(test.X)
        assert np.array_equal(first, model.predict(test.X))
        assert np.array_equal(first, second)
        assert session.predict_call_count == 1
        assert session.cache_hit_count == 1
