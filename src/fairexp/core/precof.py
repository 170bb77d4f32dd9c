"""PreCoF: Predictive Counterfactual Fairness (Goethals, Martens, Calders [71]).

PreCoF uses counterfactual explanations to *understand the causes* of
unfairness by comparing, per group, the relative frequency with which each
attribute is changed in the counterfactuals of negatively classified members:

* **Explicit bias** — with the sensitive attribute available to the model,
  counterfactuals that change (essentially) only the sensitive attribute
  indicate direct discrimination.
* **Implicit bias** — after removing the sensitive attribute from training,
  attributes whose change frequency differs strongly between the protected
  and reference groups reveal proxies through which disadvantage persists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ValidationError
from ..explanations.base import CounterfactualBatch, ExplainerInfo, ExplainerRegistry
from ..explanations.counterfactual import BaseCounterfactualGenerator
from ..explanations.session import AuditSession
from ..fairness.groups import group_masks

__all__ = ["AttributeChangeProfile", "PreCoFResult", "PreCoFExplainer"]


@dataclass
class AttributeChangeProfile:
    """Per-attribute counterfactual change frequencies for one group."""

    group: int
    n_explained: int
    change_frequency: dict[str, float]
    mean_change_magnitude: dict[str, float] = field(default_factory=dict)

    def top_changed(self, k: int = 3) -> list[tuple[str, float]]:
        """Attributes most frequently changed in this group's counterfactuals."""
        ranked = sorted(self.change_frequency.items(), key=lambda item: -item[1])
        return ranked[:k]


@dataclass
class PreCoFResult:
    """Outcome of a PreCoF analysis.

    Attributes
    ----------
    explicit_bias_rate:
        Fraction of protected-group counterfactuals whose only change is the
        sensitive attribute (only populated when the sensitive attribute was
        available to the model).
    sensitive_change_rate:
        Fraction of protected-group counterfactuals that change the sensitive
        attribute at all.
    protected_profile, reference_profile:
        Attribute change profiles per group.
    frequency_gap:
        Per-attribute difference in change frequency
        (protected minus reference) — large positive values identify the
        attributes the protected group is disproportionately asked to change.
    """

    explicit_bias_rate: float
    sensitive_change_rate: float
    protected_profile: AttributeChangeProfile
    reference_profile: AttributeChangeProfile
    frequency_gap: dict[str, float]
    mode: str  # "explicit" or "implicit"

    def implicit_bias_attributes(self, k: int = 3) -> list[tuple[str, float]]:
        """Attributes with the largest protected-vs-reference change-frequency gap."""
        ranked = sorted(self.frequency_gap.items(), key=lambda item: -item[1])
        return ranked[:k]


@ExplainerRegistry.register("precof", capabilities=("fairness-explainer", "counterfactual-based"))
class PreCoFExplainer:
    """Counterfactual attribute-frequency analysis of group unfairness.

    Parameters
    ----------
    generator:
        Counterfactual generator wrapping the model under audit.  For the
        *explicit* analysis the model should have been trained with the
        sensitive attribute and the generator's constraints should allow
        changing it; for the *implicit* analysis the model should have been
        trained without it (``mode="implicit"``).
    feature_names:
        Column names of the feature matrix handed to :meth:`explain`.
    sensitive_feature:
        Name of the sensitive attribute column (ignored in implicit mode if
        the column is absent).
    session:
        Optional shared :class:`~fairexp.explanations.session.AuditSession`;
        when a burden/NAWB audit of the same population already ran through
        it, PreCoF reuses their counterfactuals instead of generating anew.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="local",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(
        self,
        generator: BaseCounterfactualGenerator | None = None,
        feature_names: Sequence[str] = (),
        sensitive_feature: str = "",
        *,
        mode: str = "explicit",
        session: AuditSession | None = None,
    ) -> None:
        if not feature_names:
            raise ValidationError("PreCoFExplainer requires feature_names")
        if not sensitive_feature:
            raise ValidationError("PreCoFExplainer requires sensitive_feature")
        # Private sessions are refit-safe (see BurdenExplainer); shared ones
        # pin a frozen model and keep results across audits.
        self.session, self._owns_session = AuditSession.ensure(generator, session)
        self.generator = self.session.generator
        self.engine = self.session.engine
        self.feature_names = list(feature_names)
        self.sensitive_feature = sensitive_feature
        self.mode = mode

    def _profile(self, group: int, found: CounterfactualBatch) -> AttributeChangeProfile:
        """Change frequency and mean scaled magnitude per attribute over the
        rows of ``found`` that have a counterfactual."""
        changed = found.changed_masks[found.has_result]
        delta = (found.counterfactuals - found.originals)[found.has_result]
        magnitudes = np.abs(delta) / self.generator.scale_
        n_explained = changed.shape[0]
        frequency = dict.fromkeys(self.feature_names, 0.0)
        magnitude = dict.fromkeys(self.feature_names, 0.0)
        for j, name in zip(range(changed.shape[1]), self.feature_names):
            rows = changed[:, j]
            count = int(rows.sum())
            if count:
                frequency[name] = count / n_explained
                magnitude[name] = float(np.mean(magnitudes[rows, j]))
        return AttributeChangeProfile(
            group=group, n_explained=n_explained,
            change_frequency=frequency, mean_change_magnitude=magnitude,
        )

    def explain(self, X, sensitive, *, protected_value=1) -> PreCoFResult:
        """Run the PreCoF analysis on the negatively classified members of each group."""
        X = np.asarray(X, dtype=float)
        sensitive = np.asarray(sensitive)
        if self._owns_session:
            self.session.reset_results()
        predictions = np.asarray(self.session.predict(X))
        negative = predictions == 0
        masks = group_masks(sensitive, protected_value=protected_value)

        protected_idx = np.flatnonzero(masks.protected & negative)
        reference_idx = np.flatnonzero(masks.reference & negative)

        # One engine pass per group (shared through the session, so a burden
        # audit of the same population already paid for these rows); the
        # explicit-bias analysis below reuses the protected group's
        # counterfactuals instead of re-generating them.
        protected = self.session.results_for(X, protected_idx)
        protected_profile = self._profile(1, protected)
        reference_profile = self._profile(0, self.session.results_for(X, reference_idx))

        sensitive_in_features = self.sensitive_feature in self.feature_names
        explicit_bias_rate = 0.0
        sensitive_change_rate = 0.0
        if sensitive_in_features and protected_profile.n_explained:
            sensitive_change_rate = protected_profile.change_frequency[self.sensitive_feature]
            sensitive_index = self.feature_names.index(self.sensitive_feature)
            changed = protected.changed_masks[protected.has_result]
            only_sensitive = int(np.sum(changed[:, sensitive_index]
                                        & (changed.sum(axis=1) == 1)))
            explicit_bias_rate = only_sensitive / protected_profile.n_explained

        frequency_gap = {
            name: protected_profile.change_frequency[name]
            - reference_profile.change_frequency[name]
            for name in self.feature_names
        }
        return PreCoFResult(
            explicit_bias_rate=explicit_bias_rate,
            sensitive_change_rate=sensitive_change_rate,
            protected_profile=protected_profile,
            reference_profile=reference_profile,
            frequency_gap=frequency_gap,
            mode=self.mode,
        )
