"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairexp.causal import (
    probability_of_necessity,
    probability_of_necessity_and_sufficiency,
    probability_of_sufficiency,
)
from fairexp.exceptions import InfeasibleRecourseError
from fairexp.explanations import (
    CounterfactualEngine,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
    counterfactual_distance,
    project_candidates,
    shapley_for_value_function,
)
from fairexp.explanations.counterfactual import ActionabilityConstraints
from fairexp.fairness import (
    disparate_impact,
    generalized_entropy_index,
    group_exposure_ratio,
    position_weights,
    statistical_parity_difference,
    top_k_representation,
)
from fairexp.models import confusion_matrix, f1_score, precision_score, recall_score
from fairexp.models.metrics import roc_curve
from fairexp.utils import one_hot, safe_divide, sigmoid, softmax

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# Numeric utilities
# --------------------------------------------------------------------------
@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(-700, 700)))
def test_sigmoid_bounded_and_monotone(z):
    values = sigmoid(z)
    assert np.all((values >= 0) & (values <= 1))
    order = np.argsort(z)
    assert np.all(np.diff(values[order]) >= -1e-12)


@SETTINGS
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                  elements=st.floats(-50, 50)))
def test_softmax_rows_are_distributions(z):
    values = softmax(z, axis=1)
    assert np.allclose(values.sum(axis=1), 1.0)
    assert np.all(values >= 0)


@SETTINGS
@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_one_hot_rows_sum_to_one(labels):
    encoded = one_hot(labels)
    assert np.allclose(encoded.sum(axis=1), 1.0)
    assert np.array_equal(np.argmax(encoded, axis=1), np.asarray(labels))


@SETTINGS
@given(
    st.floats(-1e6, 1e6),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3)),
)
def test_safe_divide_never_raises(a, b):
    result = safe_divide(a, b, default=0.0)
    assert np.isfinite(result)
    if b != 0:
        assert result == pytest.approx(a / b, rel=1e-9, abs=1e-9)
    else:
        assert result == 0.0


# --------------------------------------------------------------------------
# Classification metrics
# --------------------------------------------------------------------------
binary_arrays = hnp.arrays(np.int64, st.integers(2, 200), elements=st.integers(0, 1))


@SETTINGS
@given(binary_arrays, binary_arrays)
def test_confusion_matrix_total_and_metric_bounds(y_true, y_pred):
    n = min(len(y_true), len(y_pred))
    y_true, y_pred = y_true[:n], y_pred[:n]
    matrix = confusion_matrix(y_true, y_pred)
    assert matrix.sum() == n
    for metric in (precision_score, recall_score, f1_score):
        assert 0.0 <= metric(y_true, y_pred) <= 1.0


@SETTINGS
@given(st.integers(2, 100), st.integers(0, 10**6))
def test_roc_curve_endpoints(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    scores = rng.random(n)
    fpr, tpr, _ = roc_curve(y, scores)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == pytest.approx(1.0) or y.sum() in (0, n)
    assert np.all((fpr >= 0) & (fpr <= 1)) and np.all((tpr >= 0) & (tpr <= 1))


# --------------------------------------------------------------------------
# Fairness metrics
# --------------------------------------------------------------------------
@SETTINGS
@given(st.integers(4, 300), st.integers(0, 10**6))
def test_parity_metrics_bounds_and_antisymmetry(n, seed):
    rng = np.random.default_rng(seed)
    y_pred = rng.integers(0, 2, n)
    sensitive = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n - n // 2, dtype=int)])
    spd = statistical_parity_difference(y_pred, sensitive)
    assert -1.0 <= spd <= 1.0
    flipped = statistical_parity_difference(y_pred, 1 - sensitive)
    assert flipped == pytest.approx(-spd)
    assert disparate_impact(y_pred, sensitive) >= 0.0


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 100), elements=st.floats(0.01, 100)))
def test_generalized_entropy_nonnegative_and_scale_invariant(benefits):
    value = generalized_entropy_index(benefits)
    assert value >= -1e-12
    assert generalized_entropy_index(3.0 * benefits) == pytest.approx(value, abs=1e-9)


@SETTINGS
@given(st.integers(1, 50))
def test_position_weights_positive_and_decreasing(n):
    weights = position_weights(n)
    assert np.all(weights > 0)
    assert np.all(np.diff(weights) <= 1e-12)


@SETTINGS
@given(hnp.arrays(np.int64, st.integers(2, 100), elements=st.integers(0, 1)),
       st.integers(1, 50))
def test_topk_representation_bounds(groups, k):
    if groups.sum() == 0 or groups.sum() == len(groups):
        return
    share = top_k_representation(groups, k)
    assert 0.0 <= share <= 1.0
    assert group_exposure_ratio(groups) >= 0.0


# --------------------------------------------------------------------------
# Causal contrastive scores
# --------------------------------------------------------------------------
@SETTINGS
@given(st.integers(4, 200), st.integers(0, 10**6))
def test_contrastive_scores_consistency(n, seed):
    rng = np.random.default_rng(seed)
    factor = rng.integers(0, 2, n)
    outcome = rng.integers(0, 2, n)
    pn = probability_of_necessity(factor, outcome)
    ps = probability_of_sufficiency(factor, outcome)
    pns = probability_of_necessity_and_sufficiency(factor, outcome)
    assert 0.0 <= pn <= 1.0
    assert 0.0 <= ps <= 1.0
    # PNS is a lower bound on both PN and PS under monotonicity.
    assert pns <= pn + 1e-9
    assert pns <= ps + 1e-9


# --------------------------------------------------------------------------
# Counterfactual machinery
# --------------------------------------------------------------------------
@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 10), elements=st.floats(-100, 100)),
       hnp.arrays(np.float64, st.integers(1, 10), elements=st.floats(-100, 100)))
def test_counterfactual_distance_axioms(x, x_prime):
    n = min(x.shape[0], x_prime.shape[0])
    x, x_prime = x[:n], x_prime[:n]
    for metric in ("l1", "l2", "l0"):
        forward = counterfactual_distance(x, x_prime, metric=metric)
        backward = counterfactual_distance(x_prime, x, metric=metric)
        assert forward >= 0
        assert forward == pytest.approx(backward, rel=1e-9, abs=1e-9)
        assert counterfactual_distance(x, x, metric=metric) == 0.0


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-10, 10)),
       st.integers(0, 10**6))
def test_constraint_projection_is_idempotent_and_feasible(x, candidate, seed):
    n = min(x.shape[0], candidate.shape[0])
    x, candidate = x[:n], candidate[:n]
    rng = np.random.default_rng(seed)
    constraints = ActionabilityConstraints.unconstrained(n)
    constraints.immutable = rng.random(n) < 0.3
    constraints.monotone = rng.integers(-1, 2, n)
    constraints.lower = np.where(rng.random(n) < 0.5, -5.0, -np.inf)
    constraints.upper = np.where(rng.random(n) < 0.5, 5.0, np.inf)
    # Ensure the original point itself is inside the box, as in real datasets.
    constraints.lower = np.minimum(constraints.lower, x)
    constraints.upper = np.maximum(constraints.upper, x)
    projected = constraints.project(x, candidate)
    assert constraints.is_feasible(x, projected)
    assert np.allclose(constraints.project(x, projected), projected)


def _where_cascade(x_original, candidates, immutable, lower, upper, monotone):
    """The historical projection: clip, then one full-tensor np.where per pass."""
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    projected = np.clip(candidates, lower, upper)
    originals = np.broadcast_to(x_original, projected.shape)
    projected = np.where(monotone == 1, np.maximum(projected, originals), projected)
    projected = np.where(monotone == -1, np.minimum(projected, originals), projected)
    return np.where(immutable, originals, projected)


# Both NaN signs and both zeros: np.maximum/np.minimum return the first NaN
# and the second of two equal zeros, so argument order shows in the bits.
_EDGE_FLOATS = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
_UNBOUNDED = st.sampled_from([np.nan, np.inf, -np.inf])
_PROJECTION_SHAPES = {  # (candidates, x_original) for n rows, c candidates, d features
    "single": lambda n, c, d: ((d,), (d,)),
    "aligned": lambda n, c, d: ((n, d), (n, d)),
    "matrix": lambda n, c, d: ((n, d), (d,)),
    "wave": lambda n, c, d: ((n, c, d), (n, 1, d)),
}


@SETTINGS
@given(st.data(), st.sampled_from(sorted(_PROJECTION_SHAPES)),
       st.sampled_from(["random", "infinite_bounds", "all_immutable", "none"]),
       st.integers(1, 6), st.integers(1, 5), st.integers(1, 7))
def test_projection_is_bitwise_equal_to_where_cascade(data, shape, constraint_kind, d, n, c):
    candidate_shape, original_shape = _PROJECTION_SHAPES[shape](n, c, d)
    # fill=nothing draws every element, so zero and NaN pairs meet often.
    values = st.one_of(_EDGE_FLOATS, st.floats(-10, 10))
    candidates = data.draw(hnp.arrays(np.float64, candidate_shape, elements=values,
                                      fill=st.nothing()))
    x_original = data.draw(hnp.arrays(np.float64, original_shape, elements=values,
                                      fill=st.nothing()))
    if constraint_kind == "none":
        immutable, monotone = np.zeros(d, dtype=bool), np.zeros(d, dtype=int)
        lower = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([np.nan, -np.inf])))
        upper = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([np.nan, np.inf])))
    else:
        # Bounds may be NaN, infinite on either side, or cross (lower > upper);
        # "infinite_bounds" has no finite bound, yet lower=+inf still clips.
        bounds = hnp.arrays(np.float64, d, elements=(
            _UNBOUNDED if constraint_kind == "infinite_bounds"
            else st.one_of(_EDGE_FLOATS, st.floats(-3, 3))))
        lower, upper = data.draw(bounds), data.draw(bounds)
        monotone = data.draw(hnp.arrays(np.int64, d, elements=st.integers(-1, 1)))
        immutable = (np.ones(d, dtype=bool) if constraint_kind == "all_immutable"
                     else data.draw(hnp.arrays(np.bool_, d)))
    expected = _where_cascade(x_original, candidates, immutable, lower, upper, monotone)
    got = project_candidates(x_original, candidates, immutable=immutable, lower=lower,
                             upper=upper, monotone=monotone)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class _LinearRule:
    """A fixed linear decision rule, scored row by row."""

    def __init__(self, weights, threshold):
        self.weights, self.threshold = weights, threshold

    def predict(self, X):
        return ((np.atleast_2d(X) * self.weights).sum(axis=1) > self.threshold).astype(int)


def _search_problem(seed, n_features):
    """A random linear rule, background, rejected rows and constraint set
    (immutable mask, finite / NaN / infinite bounds, +1/0/-1 monotone)."""
    rng = np.random.default_rng(seed)
    background = rng.normal(size=(40, n_features)) * rng.uniform(0.5, 2.0, n_features)
    weights = rng.normal(size=n_features)
    model = _LinearRule(weights, float(np.median(background @ weights)))
    rejected = background[model.predict(background) == 0][:6]
    constraints = ActionabilityConstraints.unconstrained(n_features)
    constraints.immutable = rng.random(n_features) < 0.3
    constraints.monotone = rng.integers(-1, 2, n_features)
    constraints.lower = rng.choice([-1.5, np.nan, -np.inf], n_features)
    constraints.upper = rng.choice([1.5, np.nan, np.inf], n_features)
    return model, background, rejected, constraints


_SMALL_LADDERS = {
    GrowingSpheresCounterfactual: dict(n_samples_per_shell=25, max_shells=8),
    RandomSearchCounterfactual: dict(n_samples=25, n_radii=6),
}


def _assert_same_counterfactuals(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.counterfactual, b.counterfactual)
            assert a.changed_features == b.changed_features
            assert a.distance == b.distance


@SETTINGS
@given(st.sampled_from(sorted(_SMALL_LADDERS, key=lambda cls: cls.__name__)),
       st.integers(2, 6), st.integers(0, 10**6), st.integers(0, 2**32 - 1),
       st.sampled_from(["l1", "l2", "l0"]))
def test_sampling_search_batched_equals_sequential(generator_cls, n_features, data_seed,
                                                   seed, metric):
    model, background, rejected, constraints = _search_problem(data_seed, n_features)

    def make(schedule=None):
        return generator_cls(model, background, constraints=constraints, metric=metric,
                             random_state=seed, schedule=schedule,
                             **_SMALL_LADDERS[generator_cls])

    sequential = []
    for row in rejected:
        try:
            sequential.append(make().generate(row))
        except InfeasibleRecourseError:
            sequential.append(None)
    _assert_same_counterfactuals(sequential, make().generate_batch_aligned(rejected))

    single = CounterfactualEngine(make("adaptive"), n_jobs=1).generate_aligned(rejected)
    sharded = CounterfactualEngine(make("adaptive"), n_jobs=2,
                                   executor="thread").generate_aligned(rejected)
    _assert_same_counterfactuals(single, sharded)


# --------------------------------------------------------------------------
# Shapley axioms on random additive games
# --------------------------------------------------------------------------
@SETTINGS
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_shapley_efficiency_and_additivity(n_players, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=n_players)
    offsets = rng.normal(size=n_players)

    def game_a(S):
        return float(sum(weights[i] for i in S))

    def game_b(S):
        return float(sum(offsets[i] for i in S))

    values_a = shapley_for_value_function(game_a, n_players, method="exact")
    values_b = shapley_for_value_function(game_b, n_players, method="exact")
    values_sum = shapley_for_value_function(
        lambda S: game_a(S) + game_b(S), n_players, method="exact"
    )
    assert np.allclose(values_a, weights, atol=1e-9)
    assert np.allclose(values_sum, values_a + values_b, atol=1e-9)
    assert values_a.sum() == pytest.approx(game_a(frozenset(range(n_players))))
