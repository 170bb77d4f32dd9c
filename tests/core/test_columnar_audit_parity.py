"""Burden, NAWB and PreCoF read result columns, bitwise as from per-row objects.

The audits take distances and changed-feature masks straight from
``AuditSession.results_for``.  The references below rebuild every summary
from the ``Counterfactual`` objects of ``counterfactuals_for`` with the
per-row loops the audits used before: the same row order, the same
``np.mean`` over per-row values.  Populations include rows whose search
fails, selections include duplicate indices and empty groups.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    GrowingSpheresCounterfactual,
)
from fairexp.models import LogisticRegression

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def audit():
    """A shared session over a population where some searches fail."""
    dataset = make_loan_dataset(400, direct_bias=1.2, recourse_gap=1.0, random_state=3)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=400, random_state=0).fit(train.X, train.y)
    generator = GrowingSpheresCounterfactual(
        model, train.X, random_state=0, max_shells=5,
        constraints=ActionabilityConstraints.unconstrained(train.X.shape[1]),
    )
    session = AuditSession(generator)
    X = test.X[:80]
    session.precompute(X)
    rejected = np.flatnonzero(model.predict(X) == 0)
    found = session.results_for(X, rejected)
    assert 0 < found.has_result.sum() < rejected.size  # solved AND infeasible rows
    return session, X, rejected, list(dataset.feature_names), dataset.sensitive


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _reference_distances(session, X, indices):
    generated = session.counterfactuals_for(X, indices)
    return np.asarray([generated[i].distance for i in indices if i in generated],
                      dtype=float)


def _reference_profile(counterfactuals, feature_names, scale):
    """PreCoF's per-object profile loop."""
    change_counts = {name: 0 for name in feature_names}
    change_magnitudes = {name: [] for name in feature_names}
    n_explained = len(counterfactuals)
    for counterfactual in counterfactuals:
        delta = counterfactual.delta()
        for j in counterfactual.changed_features:
            name = feature_names[j]
            change_counts[name] += 1
            change_magnitudes[name].append(abs(delta[j]) / scale[j])
    frequency = {name: (count / n_explained if n_explained else 0.0)
                 for name, count in change_counts.items()}
    magnitude = {name: (float(np.mean(values)) if values else 0.0)
                 for name, values in change_magnitudes.items()}
    return n_explained, frequency, magnitude


def _assert_profile_equal(profile, reference):
    n_explained, frequency, magnitude = reference
    assert profile.n_explained == n_explained
    assert list(profile.change_frequency) == list(frequency)
    for name in frequency:
        assert _bits(profile.change_frequency[name]) == _bits(frequency[name])
        assert _bits(profile.mean_change_magnitude[name]) == _bits(magnitude[name])


@SETTINGS
@given(data=st.data())
def test_summaries_over_any_selection_match_per_row_loops(audit, data):
    """Duplicate indices, infeasible rows and empty selections."""
    session, X, rejected, feature_names, sensitive = audit
    indices = data.draw(st.lists(st.sampled_from(rejected.tolist()), max_size=30))
    found = session.results_for(X, indices)
    assert found.indices.tolist() == indices

    distances = found.distances[found.has_result]
    reference = _reference_distances(session, X, indices)
    assert distances.tobytes() == reference.tobytes()
    burden = float(distances.mean()) if distances.size else 0.0
    expected = float(reference.mean()) if reference.size else 0.0
    assert _bits(burden) == _bits(expected)

    explainer = PreCoFExplainer(session=session, feature_names=feature_names,
                                sensitive_feature=sensitive)
    generated = session.counterfactuals_for(X, indices)
    objects = [generated[i] for i in indices if i in generated]
    _assert_profile_equal(explainer._profile(1, found),
                          _reference_profile(objects, feature_names,
                                             session.generator.scale_))


@SETTINGS
@given(data=st.data())
def test_audits_match_per_row_loops(audit, data):
    session, X, rejected, feature_names, sensitive = audit
    n_rows = X.shape[0]
    predictions = session.predict(X)
    groups = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n_rows,
                                           max_size=n_rows)))
    if data.draw(st.booleans()):
        # A protected group without rejected rows: its selections are empty.
        groups = np.where(predictions == 0, 0, groups)
    groups[np.flatnonzero(predictions != 0)[:2]] = (1, 0)  # both groups exist
    y_true = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n_rows,
                                           max_size=n_rows)))
    protected, reference = groups == 1, groups == 0

    # Burden, parity and error-based selections.
    for error_based in (False, True):
        result = BurdenExplainer(session=session, error_based=error_based).explain(
            X, groups, y_true=y_true)
        selected = predictions == 0
        if error_based:
            selected &= y_true == 1
        for group, mask in ((result.protected, protected), (result.reference, reference)):
            member_idx = np.flatnonzero(mask & selected)
            distances = _reference_distances(session, X, member_idx)
            assert group.n_negative == member_idx.size
            assert group.n_with_recourse == distances.size
            assert group.distances.tobytes() == distances.tobytes()
            expected = float(distances.mean()) if distances.size else 0.0
            assert _bits(group.burden) == _bits(expected)

    # NAWB.
    nawb = NAWBExplainer(session=session).explain(X, y_true, groups)
    for group, mask in ((nawb.protected, protected), (nawb.reference, reference)):
        positive = mask & (y_true == 1)
        fn_idx = np.flatnonzero(positive & (predictions == 0))
        distances = _reference_distances(session, X, fn_idx)
        n_positive = int(positive.sum())
        expected = (float(distances.sum()) / (X.shape[1] * n_positive)
                    if n_positive else 0.0)
        assert _bits(group.nawb) == _bits(expected)
        mean = float(distances.mean()) if distances.size else 0.0
        assert _bits(group.mean_burden_of_false_negatives) == _bits(mean)
        assert group.n_with_recourse == distances.size

    # PreCoF, explicit mode (the sensitive attribute may change).
    precof = PreCoFExplainer(session=session, feature_names=feature_names,
                             sensitive_feature=sensitive).explain(X, groups)
    profiles = {}
    for label, mask in (("protected", protected), ("reference", reference)):
        idx = np.flatnonzero(mask & (predictions == 0))
        objects = list(session.counterfactuals_for(X, idx).values())
        profiles[label] = (objects, _reference_profile(objects, feature_names,
                                                       session.generator.scale_))
    _assert_profile_equal(precof.protected_profile, profiles["protected"][1])
    _assert_profile_equal(precof.reference_profile, profiles["reference"][1])
    objects, (n_explained, frequency, _) = profiles["protected"]
    sensitive_index = feature_names.index(sensitive)
    explicit = (sum(cf.changed_features == (sensitive_index,) for cf in objects)
                / n_explained if n_explained else 0.0)
    assert _bits(precof.explicit_bias_rate) == _bits(explicit)
    assert _bits(precof.sensitive_change_rate) == _bits(
        frequency[sensitive] if n_explained else 0.0)
    for name in feature_names:
        gap = frequency[name] - profiles["reference"][1][1][name]
        assert _bits(precof.frequency_gap[name]) == _bits(gap)
