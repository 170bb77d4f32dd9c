"""Burden: counterfactual-based fairness metric (CERTIFAI, Sharma et al. [72]).

The *burden* of a group is the average distance between its negatively
classified members and their counterfactuals,

    Burden(G) = (1/|G|) * sum_i distance(x_i, x_i'),

reflecting how much change the model demands from the group to reach the
favourable outcome.  A burden gap between the protected and reference groups
is a fairness-metric-enhancing explanation (goal "E") and simultaneously
explains *where* the model is harder to satisfy (goal "U").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..explanations.counterfactual import BaseCounterfactualGenerator
from ..explanations.session import AuditSession
from ..fairness.groups import group_masks

__all__ = ["GroupBurden", "BurdenResult", "BurdenExplainer"]


@dataclass
class GroupBurden:
    """Burden statistics for one group."""

    group: int
    n_negative: int
    n_with_recourse: int
    burden: float
    distances: np.ndarray = field(repr=False)

    @property
    def coverage(self) -> float:
        """Fraction of negatively classified members for which a counterfactual was found."""
        if self.n_negative == 0:
            return 0.0
        return self.n_with_recourse / self.n_negative


@dataclass
class BurdenResult:
    """Burden for the protected and reference groups and their gap."""

    protected: GroupBurden
    reference: GroupBurden

    @property
    def gap(self) -> float:
        """Burden(protected) - Burden(reference); positive means the protected group pays more."""
        return self.protected.burden - self.reference.burden

    @property
    def ratio(self) -> float:
        """Burden(protected) / Burden(reference); 1.0 is parity."""
        if self.reference.burden == 0:
            return float("inf") if self.protected.burden > 0 else 1.0
        return self.protected.burden / self.reference.burden

    def as_dict(self) -> dict[str, float]:
        """The burden metrics as a plain JSON-serializable dict."""
        return {
            "burden_protected": self.protected.burden,
            "burden_reference": self.reference.burden,
            "burden_gap": self.gap,
            "burden_ratio": self.ratio,
            "coverage_protected": self.protected.coverage,
            "coverage_reference": self.reference.coverage,
        }


@ExplainerRegistry.register("burden", capabilities=("fairness-explainer", "counterfactual-based"))
class BurdenExplainer:
    """Compute per-group burden from counterfactual explanations.

    Parameters
    ----------
    generator:
        Any counterfactual generator from :mod:`fairexp.explanations`
        (the model and constraints travel with it).  Generation runs through
        the batched :class:`~fairexp.explanations.engine.CounterfactualEngine`,
        so one audit issues a handful of large ``model.predict`` batches
        instead of dozens of tiny per-instance calls.
    error_based:
        When ``False`` (parity fairness), counterfactuals are generated for
        *all* negatively classified members of each group.  When ``True``
        (error-based fairness), only false negatives (negatively classified
        members whose true label is favourable) are considered — this is the
        population the NAWB metric [73] amortizes over.
    session:
        An :class:`~fairexp.explanations.session.AuditSession` to share
        counterfactual results and predict batches with other audits of the
        same population (burden + NAWB + PreCoF through one session cost one
        engine pass).  When omitted, a private session is created around
        ``generator``.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="local",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(self, generator: BaseCounterfactualGenerator | None = None, *,
                 error_based: bool = False, session: AuditSession | None = None) -> None:
        # A private session is refit-safe: no predict memo, and its result
        # cache is dropped at the start of every explain().  A shared session
        # pins a frozen model instead and keeps results across audits.
        self.session, self._owns_session = AuditSession.ensure(generator, session)
        self.generator = self.session.generator
        self.engine = self.session.engine
        self.error_based = error_based

    def _selection_mask(self, predictions, y_true) -> np.ndarray:
        negative = predictions == 0
        if not self.error_based:
            return negative
        if y_true is None:
            raise ValueError("error_based burden requires ground-truth labels")
        return negative & (np.asarray(y_true) == 1)

    def explain(self, X, sensitive, *, y_true=None, protected_value=1) -> BurdenResult:
        """Return per-group burden on the given data."""
        X = np.asarray(X, dtype=float)
        sensitive = np.asarray(sensitive)
        if self._owns_session:
            self.session.reset_results()
        predictions = np.asarray(self.session.predict(X))
        selected = self._selection_mask(predictions, y_true)
        masks = group_masks(sensitive, protected_value=protected_value)

        per_group: dict[int, GroupBurden] = {}
        for group_value, mask in ((1, masks.protected), (0, masks.reference)):
            member_idx = np.flatnonzero(mask & selected)
            found = self.session.results_for(X, member_idx)
            distances = found.distances[found.has_result]
            per_group[group_value] = GroupBurden(
                group=group_value,
                n_negative=int(member_idx.shape[0]),
                n_with_recourse=int(distances.shape[0]),
                burden=float(distances.mean()) if distances.size else 0.0,
                distances=distances,
            )

        return BurdenResult(protected=per_group[1], reference=per_group[0])
