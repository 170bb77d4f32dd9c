"""Recommendation accuracy and fairness (exposure) metrics."""

from __future__ import annotations

import numpy as np

from ..fairness.ranking_metrics import position_weights
from ..utils import safe_divide
from .interactions import InteractionMatrix

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "item_group_exposure",
    "exposure_disparity",
    "user_group_quality_gap",
    "popularity_lift",
]


def precision_at_k(recommendations: np.ndarray, holdout: np.ndarray) -> float:
    """Mean fraction of recommended items that appear in the user's holdout
    set (0.0 for no users, like :func:`recall_at_k`)."""
    recommendations = np.asarray(recommendations, dtype=int)
    holdout = np.asarray(holdout, dtype=float)
    hits = [
        np.mean(holdout[user, recommendations[user]] > 0)
        for user in range(recommendations.shape[0])
    ]
    return float(np.mean(hits)) if hits else 0.0


def recall_at_k(recommendations: np.ndarray, holdout: np.ndarray) -> float:
    """Mean fraction of each user's holdout items that were recommended."""
    recommendations = np.asarray(recommendations, dtype=int)
    holdout = np.asarray(holdout, dtype=float)
    recalls = []
    for user in range(recommendations.shape[0]):
        relevant = np.flatnonzero(holdout[user] > 0)
        if relevant.size == 0:
            continue
        recalls.append(np.isin(relevant, recommendations[user]).mean())
    return float(np.mean(recalls)) if recalls else 0.0


def ndcg_at_k(recommendations: np.ndarray, holdout: np.ndarray) -> float:
    """Mean normalized discounted cumulative gain of the recommendation lists."""
    recommendations = np.asarray(recommendations, dtype=int)
    holdout = np.asarray(holdout, dtype=float)
    k = recommendations.shape[1]
    discounts = position_weights(k, scheme="log")
    scores = []
    for user in range(recommendations.shape[0]):
        gains = (holdout[user, recommendations[user]] > 0).astype(float)
        dcg = float((gains * discounts).sum())
        n_relevant = int((holdout[user] > 0).sum())
        if n_relevant == 0:
            continue
        ideal = float(discounts[: min(k, n_relevant)].sum())
        scores.append(dcg / ideal)
    return float(np.mean(scores)) if scores else 0.0


def item_group_exposure(
    recommendations: np.ndarray, item_groups: np.ndarray, *, scheme: str = "log"
) -> dict[int, float]:
    """Total position-weighted exposure per item group over all recommendation lists."""
    recommendations = np.asarray(recommendations, dtype=int)
    item_groups = np.asarray(item_groups, dtype=int)
    weights = position_weights(recommendations.shape[1], scheme=scheme)
    exposures: dict[int, float] = {int(g): 0.0 for g in np.unique(item_groups)}
    for user in range(recommendations.shape[0]):
        for rank, item in enumerate(recommendations[user]):
            exposures[int(item_groups[item])] += float(weights[rank])
    return exposures


def exposure_disparity(
    recommendations: np.ndarray, item_groups: np.ndarray, *, protected_value=1
) -> float:
    """Relative under-exposure of the protected item group.

    Returns ``1 - (exposure share of protected items) / (catalog share of
    protected items)``; 0 means exposure proportional to catalog presence,
    positive values mean under-exposure.
    """
    exposures = item_group_exposure(recommendations, item_groups)
    total = sum(exposures.values())
    protected_share = safe_divide(exposures.get(int(protected_value), 0.0), total)
    catalog_share = float(np.mean(np.asarray(item_groups) == protected_value))
    return float(1.0 - safe_divide(protected_share, catalog_share, default=0.0))


def user_group_quality_gap(
    recommendations: np.ndarray, holdout: np.ndarray, user_groups: np.ndarray,
    *, protected_value=1,
) -> float:
    """NDCG gap between reference and protected user groups (consumer-side fairness)."""
    user_groups = np.asarray(user_groups, dtype=int)
    protected = user_groups == protected_value
    ndcg_protected = ndcg_at_k(recommendations[protected], holdout[protected])
    ndcg_reference = ndcg_at_k(recommendations[~protected], holdout[~protected])
    return float(ndcg_reference - ndcg_protected)


def popularity_lift(
    recommendations: np.ndarray, interactions: InteractionMatrix
) -> float:
    """Average popularity of recommended items divided by average catalog popularity.

    Values above 1 indicate popularity bias in the recommendations; an
    empty recommendation list scores 0.0.
    """
    recommended = np.asarray(recommendations, dtype=int).ravel()
    if recommended.size == 0:
        return 0.0
    popularity = interactions.item_popularity().astype(float)
    mean_catalog = popularity.mean()
    recommended_popularity = popularity[recommended].mean()
    return float(safe_divide(recommended_popularity, mean_catalog, default=0.0))
