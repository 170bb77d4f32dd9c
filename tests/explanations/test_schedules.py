"""Tests for the pluggable search schedules (geometric parity + adaptive wins)."""

import numpy as np
import pytest

from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AdaptiveSchedule,
    AuditSession,
    BatchModelAdapter,
    CounterfactualEngine,
    GeometricSchedule,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
    SearchSchedule,
    population_fingerprint,
    resolve_schedule,
)


@pytest.fixture
def workload(loan_data, loan_model, loan_cf_generator):
    dataset, train, test = loan_data
    rejected = test.X[np.flatnonzero(loan_model.predict(test.X) == 0)[:30]]
    return train, loan_model, loan_cf_generator.constraints, rejected


def _generator(generator_cls, train, model, constraints, **kwargs):
    return generator_cls(model, train.X, constraints=constraints, random_state=0,
                         **kwargs)


class TestResolveSchedule:
    def test_none_resolves_to_geometric_default(self):
        assert isinstance(resolve_schedule(None), GeometricSchedule)

    def test_names_resolve(self):
        assert isinstance(resolve_schedule("geometric"), GeometricSchedule)
        assert isinstance(resolve_schedule("adaptive"), AdaptiveSchedule)

    def test_instances_pass_through(self):
        schedule = AdaptiveSchedule(eager_hit_rate=0.25)
        assert resolve_schedule(schedule) is schedule

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            resolve_schedule("fibonacci")
        with pytest.raises(ValidationError):
            resolve_schedule(42)

    def test_base_schedule_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SearchSchedule().begin(4)


class TestGeometricParity:
    """GeometricSchedule must reproduce the pre-refactor fixed widening
    bitwise-exactly under fixed seeds — the tentpole's parity criterion."""

    @pytest.mark.parametrize("generator_cls", [
        GrowingSpheresCounterfactual, RandomSearchCounterfactual,
    ])
    def test_batched_geometric_equals_sequential_fixed_ladder(
            self, generator_cls, workload):
        train, model, constraints, rejected = workload
        sequential_generator = _generator(generator_cls, train, model, constraints)
        sequential = [sequential_generator.generate(row) for row in rejected]
        batched = _generator(generator_cls, train, model, constraints,
                             schedule=GeometricSchedule()).generate_batch_aligned(rejected)
        for seq, bat in zip(sequential, batched):
            assert bat is not None
            assert np.array_equal(seq.counterfactual, bat.counterfactual)
            assert seq.changed_features == bat.changed_features
            assert seq.distance == bat.distance

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_geometric_parity_across_executors(self, executor, workload):
        """Sharded geometric runs (threads AND processes) stay bitwise-equal
        to the sequential n_jobs=1 pass."""
        train, model, constraints, rejected = workload
        reference = CounterfactualEngine(
            _generator(GrowingSpheresCounterfactual, train, model, constraints),
            n_jobs=1,
        ).generate_aligned(rejected)
        sharded = CounterfactualEngine(
            _generator(GrowingSpheresCounterfactual, train, model, constraints),
            n_jobs=3, executor=executor,
        ).generate_aligned(rejected)
        for seq, par in zip(reference, sharded):
            assert (seq is None) == (par is None)
            if seq is not None:
                assert np.array_equal(seq.counterfactual, par.counterfactual)
                assert seq.distance == par.distance

    def test_explicit_schedule_argument_overrides_generator(self, workload):
        """lockstep_candidate_search(schedule=...) wins over generator.schedule."""
        from fairexp.explanations.engine import lockstep_candidate_search

        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                               schedule=AdaptiveSchedule())
        geometric_reference = _generator(
            GrowingSpheresCounterfactual, train, model, constraints
        ).generate_batch_aligned(rejected)
        overridden = lockstep_candidate_search(
            generator, rejected, generator._offsets, len(generator.draw_schedule()),
            schedule=GeometricSchedule(),
        )
        for ref, got in zip(geometric_reference, overridden):
            assert np.array_equal(ref.counterfactual, got.counterfactual)


class TestAdaptiveSchedule:
    def test_fewer_steps_and_draws_than_geometric(self, workload):
        train, model, constraints, rejected = workload
        geometric = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        geometric.generate_batch_aligned(rejected)
        adaptive = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                              schedule=AdaptiveSchedule())
        results = adaptive.generate_batch_aligned(rejected)
        assert adaptive.search_step_count < geometric.search_step_count
        assert adaptive.search_draw_count < geometric.search_draw_count
        # Coverage must not collapse: the feasibility probe keeps every
        # instance that the widest shell can reach.
        assert sum(r is not None for r in results) == len(rejected)

    def test_fewer_predict_calls_than_geometric(self, workload):
        train, model, constraints, rejected = workload
        counts = {}
        for label, schedule in (("geometric", None), ("adaptive", AdaptiveSchedule())):
            adapter = BatchModelAdapter(model, cache=False)
            generator = _generator(GrowingSpheresCounterfactual, train, adapter,
                                   constraints, schedule=schedule)
            generator.generate_batch_aligned(rejected)
            counts[label] = adapter.predict_call_count
        assert counts["adaptive"] < counts["geometric"]

    def test_results_are_valid_counterfactuals(self, workload):
        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                               schedule="adaptive")
        for row, result in zip(rejected, generator.generate_batch_aligned(rejected)):
            assert result is not None
            assert result.counterfactual_prediction == generator.target_class
            assert result.feasible

    def test_adaptive_is_deterministic_under_fixed_seed(self, workload):
        train, model, constraints, rejected = workload
        first = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                           schedule=AdaptiveSchedule()).generate_batch_aligned(rejected)
        second = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                            schedule=AdaptiveSchedule()).generate_batch_aligned(rejected)
        for a, b in zip(first, second):
            assert np.array_equal(a.counterfactual, b.counterfactual)

    def test_infeasible_instances_abandoned_after_one_probe(self, loan_data):
        """Against an always-rejecting model the adaptive schedule spends one
        wave, not the whole ladder."""
        _, train, test = loan_data

        class AlwaysRejects:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        geometric = GrowingSpheresCounterfactual(AlwaysRejects(), train.X,
                                                 random_state=0)
        geometric.generate_batch_aligned(test.X[:5])
        assert geometric.search_step_count == geometric.max_shells

        adaptive = GrowingSpheresCounterfactual(AlwaysRejects(), train.X,
                                                random_state=0,
                                                schedule=AdaptiveSchedule())
        results = adaptive.generate_batch_aligned(test.X[:5])
        assert adaptive.search_step_count == 1
        assert all(result is None for result in results)

    def test_cursor_bisection_brackets_the_boundary(self):
        """Unit-level cursor walk: miss raises lo, hit lowers hi, converges."""
        cursor = AdaptiveSchedule().begin(8)
        assert cursor.plan([0]) == {0: 7}          # feasibility probe
        cursor.observe(0, 7, n_hits=1, n_candidates=100)
        [(i, rung)] = cursor.plan([0]).items()
        assert (i, rung) == (0, 3)                 # bisect [0, 7)
        cursor.observe(0, 3, n_hits=0, n_candidates=100)
        [(_, rung)] = cursor.plan([0]).items()
        assert rung == 5                           # bisect [4, 7)
        cursor.observe(0, 5, n_hits=60, n_candidates=100)  # saturated hit
        [(_, rung)] = cursor.plan([0]).items()
        assert rung == 4                           # eager: lowest untested
        cursor.observe(0, 4, n_hits=0, n_candidates=100)
        assert 0 in cursor.finished                # bracket closed at 5

    def test_kernel_bounds_a_cursor_that_never_finishes(self, workload):
        """A buggy custom schedule that keeps replanning the same rung must
        terminate (unsolved), never hang the audit."""
        from fairexp.explanations.engine import lockstep_candidate_search

        train, model, constraints, rejected = workload

        class StuckSchedule(SearchSchedule):
            def begin(self, n_steps):
                class StuckCursor:
                    finished: set = set()

                    def plan(self, pending):
                        return {i: 0 for i in pending}  # forgets to finish

                    def observe(self, *args):
                        pass

                return StuckCursor()

        class NeverHits:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        generator = GrowingSpheresCounterfactual(NeverHits(), train.X,
                                                 random_state=0)
        results = lockstep_candidate_search(
            generator, rejected[:3], generator._offsets,
            len(generator.draw_schedule()), schedule=StuckSchedule(),
        )
        assert list(results) == [None, None, None]
        assert generator.search_step_count <= 2 * generator.max_shells + 2

    def test_cursor_keeps_no_cross_instance_state(self):
        """An instance's probe sequence must not depend on which other
        instances share its batch — that is what keeps sharded adaptive
        runs bitwise-identical to sequential ones."""
        observations = [(11, 1), (5, 1), (2, 0)]  # (rung, hits) script

        def drive(cursor, instance, companions=()):
            rungs = []
            for rung, hits in observations:
                plan = cursor.plan([instance, *companions])
                rungs.append(plan[instance])
                cursor.observe(instance, plan[instance], hits, 100)
                for companion in companions:  # companions hit everywhere
                    cursor.observe(companion, plan[companion], 90, 100)
            return rungs

        alone = drive(AdaptiveSchedule().begin(12), 0)
        crowded = drive(AdaptiveSchedule().begin(12), 0, companions=(7, 8))
        assert alone == crowded == [11, 5, 2]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_adaptive_sharded_bitwise_equal_to_sequential(self, executor,
                                                          workload):
        """Per-instance-only cursor state makes sharded adaptive runs
        bitwise-identical to the sequential pass (like geometric)."""
        train, model, constraints, rejected = workload

        def build():
            return _generator(GrowingSpheresCounterfactual, train, model,
                              constraints, schedule=AdaptiveSchedule())

        sequential = CounterfactualEngine(build(), n_jobs=1).generate_aligned(rejected)
        sharded = CounterfactualEngine(build(), n_jobs=3,
                                       executor=executor).generate_aligned(rejected)
        for seq, par in zip(sequential, sharded):
            assert (seq is None) == (par is None)
            if seq is not None:
                assert np.array_equal(seq.counterfactual, par.counterfactual)
                assert seq.distance == par.distance


class _SkippingCursor:
    """Walks each row up the ladder from a row-dependent rung, but plans only
    the even-indexed pending rows on odd waves, so rows of one wave sit at
    different draw counts and rungs."""

    def __init__(self, n_steps):
        self.n_steps = n_steps
        self.wave = 0
        self.probes: dict[int, int] = {}
        self.finished: set[int] = set()

    def plan(self, pending):
        planned = pending[::2] if self.wave % 2 else pending
        self.wave += 1
        return {i: (i + self.probes.get(i, 0)) % self.n_steps for i in planned}

    def observe(self, i, rung, n_hits, n_candidates):
        self.probes[i] = self.probes.get(i, 0) + 1
        if n_hits or self.probes[i] == self.n_steps:
            self.finished.add(i)


class SkippingSchedule(SearchSchedule):
    def begin(self, n_steps):
        return _SkippingCursor(n_steps)


def _per_row_stream_search(generator, X, schedule, seed):
    """Reference lockstep search in which every row draws from its own
    freshly seeded stream."""
    from fairexp.explanations.engine import greedy_sparsify_batch
    from fairexp.explanations.kernels import batch_counterfactual_distance

    n_steps = len(generator.draw_schedule())
    rngs = [np.random.default_rng(seed) for _ in range(X.shape[0])]
    cursor = schedule.begin(n_steps)
    pending = list(range(X.shape[0]))
    best = {}
    for _ in range(2 * n_steps + 2):
        plan = cursor.plan(pending) if pending else {}
        if not plan:
            break
        rows = list(plan)
        candidates = np.stack([generator._draw(rngs[i], X[i], plan[i]) for i in rows])
        projected = generator.constraints.project(X[rows][:, None, :], candidates)
        predictions = generator._predict(
            projected.reshape(-1, X.shape[1])).reshape(len(rows), -1)
        for k, i in enumerate(rows):
            hits = np.flatnonzero(predictions[k] == generator.target_class)
            if hits.size:
                distances = batch_counterfactual_distance(
                    X[[i] * hits.size], projected[k, hits],
                    scale=generator.scale_, metric=generator.metric)
                pick = int(np.argmin(distances))
                if i not in best or float(distances[pick]) < best[i][0]:
                    best[i] = (float(distances[pick]), projected[k, hits[pick]])
            cursor.observe(i, plan[i], int(hits.size), predictions.shape[1])
        pending = [i for i in pending if i not in cursor.finished]
    results = [None] * X.shape[0]
    solved = sorted(best)
    if solved:
        sparse = greedy_sparsify_batch(generator, X[solved],
                                       np.stack([best[i][1] for i in solved]))
        for i, result in zip(solved, generator._make_results_batch(X[solved], sparse)):
            results[i] = result
    return results


class TestCustomCursorParity:
    @pytest.mark.parametrize("generator_cls", [
        GrowingSpheresCounterfactual, RandomSearchCounterfactual,
    ])
    def test_skipping_cursor_matches_per_row_streams(self, generator_cls, workload):
        """Shared offset blocks are keyed by each row's own draw count, so a
        cursor that leaves rows out of some waves still sees exactly the
        draws of a per-row stream."""
        train, model, constraints, rejected = workload
        generator = _generator(generator_cls, train, model, constraints,
                               schedule=SkippingSchedule())
        reference = _per_row_stream_search(generator, rejected, SkippingSchedule(), seed=0)
        batched = generator.generate_batch_aligned(rejected)
        assert sum(result is not None for result in reference) > len(rejected) // 2
        for ref, bat in zip(reference, batched):
            assert (ref is None) == (bat is None)
            if ref is not None:
                assert np.array_equal(ref.counterfactual, bat.counterfactual)
                assert ref.distance == bat.distance


class TestScheduleAccounting:
    def test_session_stats_expose_schedule_counters(self, workload):
        train, model, constraints, rejected = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        )
        session.counterfactuals_for(rejected, np.arange(len(rejected)))
        stats = session.stats()
        assert stats["schedule_steps"] > 0
        assert stats["schedule_draws"] > 0
        session.reset()
        assert session.stats()["schedule_steps"] == 0

    def test_process_sharded_counts_fold_back(self, workload):
        train, model, constraints, rejected = workload
        sequential = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        CounterfactualEngine(sequential, n_jobs=1).generate_aligned(rejected)
        sharded = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        CounterfactualEngine(sharded, n_jobs=2,
                             executor="process").generate_aligned(rejected)
        assert sharded.search_step_count > 0
        assert sharded.search_draw_count == sequential.search_draw_count

    def test_generatorless_session_reports_zero_schedule_activity(self, loan_model):
        session = AuditSession(model=loan_model)
        assert session.schedule_step_count == 0
        assert session.schedule_draw_count == 0


class TestScheduleFingerprinting:
    def test_schedules_key_the_store_separately(self, workload):
        """Geometric and adaptive results must never alias in the store."""
        train, model, constraints, rejected = workload
        geometric = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        adaptive = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                              schedule=AdaptiveSchedule())
        tweaked = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                             schedule=AdaptiveSchedule(eager_hit_rate=0.9))
        prints = {population_fingerprint(g, rejected)
                  for g in (geometric, adaptive, tweaked)}
        assert None not in prints
        assert len(prints) == 3

    def test_session_schedule_argument_installs_on_generator(self, workload):
        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        session = AuditSession(generator, schedule="adaptive")
        assert isinstance(session.generator.schedule, AdaptiveSchedule)

    def test_schedule_swap_on_shared_generator_does_not_alias_entries(
            self, workload, tmp_path):
        """A second session installing a different schedule on a SHARED
        generator must not let the first session publish the new schedule's
        rows under its memoized old-schedule fingerprint."""
        from fairexp.explanations import CounterfactualStore

        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        first = AuditSession(generator, schedule="geometric", store=tmp_path)
        first.counterfactuals_for(rejected, np.arange(6))
        store = CounterfactualStore(tmp_path)
        [geometric_entry] = store.entries()
        geometric_rows = len(store.load(geometric_entry))

        AuditSession(generator, schedule="adaptive", store=tmp_path)  # swaps it
        first.counterfactuals_for(rejected, np.arange(6, 12))  # new rows
        # The adaptive-searched rows landed in a NEW entry; the geometric
        # entry holds exactly the rows the geometric schedule produced.
        assert len(store.entries()) == 2
        assert len(store.load(geometric_entry)) == geometric_rows

    def test_draw_schedules_are_exposed(self, workload):
        train, model, constraints, _ = workload
        spheres = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        assert len(spheres.draw_schedule()) == spheres.max_shells
        assert spheres.draw_schedule()[0][0] == 0.0
        random = _generator(RandomSearchCounterfactual, train, model, constraints)
        assert len(random.draw_schedule()) == random.n_radii
        assert random.draw_schedule() == sorted(random.draw_schedule())

    def test_model_only_session_rejects_schedule(self, loan_model):
        """A schedule on a generator-less session is a user error, not a
        silent no-op — there is no search for it to drive."""
        with pytest.raises(ValidationError):
            AuditSession(model=loan_model, schedule="adaptive")


class TestDegenerateLadders:
    """Both cursors must end the pass cleanly at the ladder edges
    (``n_steps == 0`` happens for a custom generator whose
    ``draw_schedule()`` is empty; ``n_steps == 1`` is the smallest real
    ladder)."""

    @pytest.mark.parametrize("schedule_cls", [GeometricSchedule, AdaptiveSchedule])
    def test_empty_ladder_plans_nothing(self, schedule_cls):
        cursor = schedule_cls().begin(0)
        plan = cursor.plan([0, 1, 2])
        assert plan == {}
        # No probe may ever name a negative rung — the pre-fix adaptive
        # cursor planned its feasibility probe at rung -1 here.
        assert all(rung >= 0 for rung in plan.values())
        # A second call stays empty: the pass is over, not looping.
        assert cursor.plan([0, 1, 2]) == {}

    @pytest.mark.parametrize("schedule_cls", [GeometricSchedule, AdaptiveSchedule])
    def test_single_rung_ladder_probes_rung_zero_only(self, schedule_cls):
        cursor = schedule_cls().begin(1)
        plan = cursor.plan([0, 1])
        assert set(plan.values()) == {0}
        for i, rung in plan.items():
            cursor.observe(i, rung, n_hits=1 if i == 0 else 0, n_candidates=4)
        # Hit or miss, a one-rung ladder finishes every instance in one wave.
        assert cursor.finished >= {0}
        follow_up = cursor.plan([i for i in (0, 1) if i not in cursor.finished])
        assert all(rung == 0 for rung in follow_up.values())

    def test_empty_draw_schedule_generator_ends_search(self, workload):
        """End-to-end: a generator whose ladder is empty produces an
        all-infeasible result instead of probing rung -1."""
        train, model, constraints, rejected = workload

        class NoLadderGenerator(RandomSearchCounterfactual):
            def draw_schedule(self):
                return []

        generator = _generator(NoLadderGenerator, train, model, constraints,
                               schedule=AdaptiveSchedule())
        results = generator.generate_batch_aligned(rejected[:4])
        assert list(results) == [None, None, None, None]
