"""Vectorized hot-path kernels.

The engine's inner loops — candidate projection, hit-distance scoring, the
sparsifier's prefix-revert trial chains and its greedy feature ranking — are
the wall-time story of a large audit now that predict-call counts are
optimized.  This module concentrates those loops in four NumPy functions:

* :func:`batch_counterfactual_distance` — distances for many ``(x, x')``
  pairs in one call (replaces the per-hit Python list comprehension);
* :func:`project_candidates` — the actionability projection cascade over any
  stacked candidate tensor: one clip allocation, then unmasked in-place
  passes against floors and ceilings the size of ``x_original``;
* :func:`build_prefix_revert_trials` — one instance's cumulative
  prefix-revert trial matrix in a single allocation (replaces the
  per-feature ``trial.copy()`` chain);
* :func:`rank_changed_features` — the sparsifier's greedy revert order for a
  whole batch of instances at once.

**Bitwise parity is the contract.**  Each function reproduces the
pre-vectorization loop implementation bit for bit (asserted in
``tests/explanations/test_kernels.py``), so vectorizing a hot path never
changes an audit's output or a store fingerprint.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "batch_counterfactual_distance",
    "build_prefix_revert_trials",
    "project_candidates",
    "rank_changed_features",
]


def _sanitized_scale(scale, n_features: int) -> np.ndarray:
    """Per-feature scale with zeros replaced by 1 (ones when ``scale=None``).

    Dividing by 1.0 is a bitwise identity, so the no-scale case can share
    the scaled code path.
    """
    if scale is None:
        return np.ones(n_features, dtype=float)
    scale = np.asarray(scale, dtype=float).copy()
    scale[scale == 0] = 1.0
    return scale


def batch_counterfactual_distance(X, candidates, *, scale=None, metric: str = "l1") -> np.ndarray:
    """Distances between rows of ``X`` and ``candidates`` in one call.

    ``X`` is either ``(n, d)`` row-aligned with ``candidates`` or a single
    ``(d,)`` instance broadcast against every candidate; returns shape
    ``(n,)``.  Bitwise-equal to calling the scalar
    :func:`~fairexp.explanations.counterfactual.counterfactual_distance` per
    row: L1/L0 reduce with NumPy's per-row pairwise summation (identical to
    the 1-D sum), L2 uses batched BLAS dot products (identical to the 1-D
    ``np.linalg.norm``).
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    delta = candidates - X
    if scale is not None:
        delta = delta / _sanitized_scale(scale, delta.shape[-1])
    if metric == "l1":
        return np.sum(np.abs(delta), axis=-1)
    if metric == "l2":
        # matmul's batched 1x1 products route through the same BLAS dot as
        # np.linalg.norm on a 1-D vector — np.sum(delta**2, axis=-1) would
        # NOT be bitwise-equal (pairwise summation vs. BLAS accumulation).
        return np.sqrt(np.matmul(delta[:, None, :], delta[:, :, None])[:, 0, 0])
    if metric == "l0":
        return np.sum(~np.isclose(delta, 0.0), axis=-1).astype(float)
    raise ValidationError(f"unknown metric {metric!r}")


def project_candidates(x_original, candidates, *, immutable, lower, upper,
                       monotone) -> np.ndarray:
    """Project stacked candidates onto the feasible set (clip → monotone → freeze).

    Accepts any ``(..., d)`` candidate tensor with a ``(..., d)``
    ``x_original`` that broadcasts against it over the leading axes — the
    body of
    :meth:`~fairexp.explanations.counterfactual.ActionabilityConstraints.project`.
    The four constraint vectors must each have shape ``(d,)``; anything else
    raises :class:`~fairexp.exceptions.ValidationError` instead of silently
    broadcasting.  Output is bitwise-identical to the historical
    clip → ``np.where`` cascade (NaN bounds are unbounded).

    Cost model: one full-tensor allocation (the clip, or a copy when every
    lower bound is ``-inf`` and every upper bound ``+inf``), then unmasked
    in-place passes.  Monotone features are enforced by one ``np.maximum``
    against a floor and one ``np.minimum`` against a ceiling; both have the
    shape of ``x_original`` (``(n, 1, d)`` for a search wave), holding the
    original value on the constrained features and ``∓inf`` elsewhere, so
    they are tiny next to the candidates.  Immutable features are frozen by
    one column assignment.  A pass whose feature set is empty is skipped.
    """
    candidates = np.asarray(candidates, dtype=float)
    x_original = np.asarray(x_original, dtype=float)
    immutable = np.asarray(immutable, dtype=bool)
    monotone = np.asarray(monotone)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n_features = candidates.shape[-1] if candidates.ndim else None
    shapes = [v.shape for v in (immutable, lower, upper, monotone)]
    if any(shape != (n_features,) for shape in shapes):
        raise ValidationError(
            f"constraint vectors must have shape ({n_features},) to match candidates "
            f"of shape {candidates.shape}; got immutable/lower/upper/monotone {shapes}")
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    if (lower != -np.inf).any() or (upper != np.inf).any():
        projected = np.clip(candidates, lower, upper)
    else:
        projected = candidates.copy()
    # Candidates stay the first argument, as in the cascade: np.maximum and
    # np.minimum return the first of two NaNs and the second of two equal
    # zeros, so the order decides the output bits.
    increasing = monotone == 1
    if increasing.any():
        np.maximum(projected, np.where(increasing, x_original, -np.inf), out=projected)
    decreasing = monotone == -1
    if decreasing.any():
        np.minimum(projected, np.where(decreasing, x_original, np.inf), out=projected)
    if immutable.any():
        projected[..., immutable] = x_original[..., immutable]
    return projected


def build_prefix_revert_trials(candidate, x_row, order, out=None) -> np.ndarray:
    """One instance's cumulative prefix-revert trial matrix, one allocation.

    Row ``j`` of the result is ``candidate`` with features ``order[:j + 1]``
    reverted to ``x_row``'s values — exactly the chain the sequential
    sparsifier builds with one ``trial.copy()`` per feature.  ``out`` (shape
    ``(len(order), d)``) avoids even the single allocation when the caller
    stacks trials itself.
    """
    candidate = np.asarray(candidate, dtype=float)
    x_row = np.asarray(x_row, dtype=float)
    n_trials = len(order)
    if out is None:
        out = np.empty((n_trials, candidate.shape[0]), dtype=float)
    out[:] = candidate
    for j, column in enumerate(order):
        out[j:, column] = x_row[column]
    return out


def rank_changed_features(X_rows, candidates, scale) -> list[np.ndarray]:
    """Greedy revert order (changed features by scaled magnitude) per instance.

    Per row: the indices of features where candidate and original differ
    (``~np.isclose``), sorted by scaled absolute delta — identical to the
    historical per-row loop, but the delta/magnitude/changed-mask arithmetic
    runs once over the whole batch.  The per-row ``argsort`` stays on the
    (few-element) feature subset so tie order matches the legacy loop
    exactly even though the default sort is unstable.
    """
    X_rows = np.atleast_2d(np.asarray(X_rows, dtype=float))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        return []
    changed = ~np.isclose(candidates, X_rows)
    magnitudes = np.abs((candidates - X_rows) / np.asarray(scale, dtype=float))
    orders = []
    for k in range(candidates.shape[0]):
        columns = np.flatnonzero(changed[k])
        orders.append(columns[np.argsort(magnitudes[k, columns])])
    return orders
