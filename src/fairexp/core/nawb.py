"""Normalized Accuracy-Weighted Burden (NAWB), Kuratomi et al. [73].

NAWB integrates the counterfactual burden with the false-negative rate so that
groups whose qualified members are both *wrongly rejected* and *far from
recourse* receive a higher unfairness score:

    NAWB_g = sum_{i in FN_g} distance(x_i, x_i') / (L * |{x : G = g, y = 1}|)

where ``L`` is the number of features (normalizing the distance so NAWB is
comparable across datasets) and the denominator counts the group's truly
qualified members.  Equivalently NAWB_g = FNR_g * mean_burden(FN_g) / L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..explanations.counterfactual import BaseCounterfactualGenerator
from ..explanations.session import AuditSession
from ..fairness.groups import group_masks

__all__ = ["NAWBGroupResult", "NAWBResult", "NAWBExplainer"]


@dataclass
class NAWBGroupResult:
    """NAWB and its ingredients for one group."""

    group: int
    nawb: float
    false_negative_rate: float
    mean_burden_of_false_negatives: float
    n_positive_label: int
    n_false_negatives: int
    n_with_recourse: int


@dataclass
class NAWBResult:
    """NAWB for the protected and reference groups."""

    protected: NAWBGroupResult
    reference: NAWBGroupResult

    @property
    def gap(self) -> float:
        """NAWB(protected) - NAWB(reference); positive means the protected group is worse off."""
        return self.protected.nawb - self.reference.nawb

    def as_dict(self) -> dict[str, float]:
        """The result as a plain JSON-serializable dict."""
        return {
            "nawb_protected": self.protected.nawb,
            "nawb_reference": self.reference.nawb,
            "nawb_gap": self.gap,
            "fnr_protected": self.protected.false_negative_rate,
            "fnr_reference": self.reference.false_negative_rate,
        }


@ExplainerRegistry.register("nawb", capabilities=("fairness-explainer", "counterfactual-based"),
                            data_requirements=("labels",))
class NAWBExplainer:
    """Compute NAWB per group using any counterfactual generator.

    Counterfactual generation for the false negatives of each group runs
    through the batched :class:`~fairexp.explanations.engine.CounterfactualEngine`.
    With a shared :class:`~fairexp.explanations.session.AuditSession` the
    false negatives are a subset of the rows a burden audit already
    explained, so NAWB costs no additional engine pass at all.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="global",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(self, generator: BaseCounterfactualGenerator | None = None, *,
                 session: AuditSession | None = None) -> None:
        # Private sessions are refit-safe (see BurdenExplainer); shared ones
        # pin a frozen model and keep results across audits.
        self.session, self._owns_session = AuditSession.ensure(generator, session)
        self.generator = self.session.generator
        self.engine = self.session.engine

    def explain(self, X, y_true, sensitive, *, protected_value=1) -> NAWBResult:
        """Return per-group NAWB on labelled data."""
        X = np.asarray(X, dtype=float)
        y_true = np.asarray(y_true, dtype=int)
        sensitive = np.asarray(sensitive)
        if X.shape[0] != y_true.shape[0]:
            raise ValidationError("X and y_true must align")
        if self._owns_session:
            self.session.reset_results()
        predictions = np.asarray(self.session.predict(X))
        masks = group_masks(sensitive, protected_value=protected_value)
        n_features = X.shape[1]

        results: dict[int, NAWBGroupResult] = {}
        for group_value, mask in ((1, masks.protected), (0, masks.reference)):
            positive_label = mask & (y_true == 1)
            false_negatives = positive_label & (predictions == 0)
            fn_idx = np.flatnonzero(false_negatives)

            found = self.session.results_for(X, fn_idx)
            distances = found.distances[found.has_result]

            n_positive = int(positive_label.sum())
            total_distance = float(distances.sum())
            nawb = total_distance / (n_features * n_positive) if n_positive else 0.0
            fnr = float(false_negatives.sum() / n_positive) if n_positive else 0.0
            results[group_value] = NAWBGroupResult(
                group=group_value,
                nawb=nawb,
                false_negative_rate=fnr,
                mean_burden_of_false_negatives=(
                    float(distances.mean()) if distances.size else 0.0
                ),
                n_positive_label=n_positive,
                n_false_negatives=int(fn_idx.shape[0]),
                n_with_recourse=int(distances.shape[0]),
            )

        return NAWBResult(protected=results[1], reference=results[0])
