"""Counterfactual explanation generation.

A counterfactual explanation for an instance ``x`` with prediction
``f(x) = 0`` is a nearby point ``x'`` with ``f(x') = 1`` (Wachter et al.),
formally ``x' = argmin distance(x, x') s.t. f(x') != f(x)``.

Three search strategies are provided (and ablated against each other in the
benchmarks):

* :class:`RandomSearchCounterfactual` — rejection sampling around ``x`` with a
  growing radius, followed by greedy sparsification;
* :class:`GrowingSpheresCounterfactual` — the growing-spheres algorithm
  (uniform sampling in expanding L2 shells, then feature-wise projection);
* :class:`GradientCounterfactual` — gradient ascent on the favourable-class
  probability for models exposing ``gradient_input``.

All generators honour per-feature actionability constraints
(:class:`ActionabilityConstraints`), which encode the immutability, bounds,
and monotonicity information carried by :class:`fairexp.datasets.FeatureSpec`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datasets.schema import FeatureSpec
from ..exceptions import InfeasibleRecourseError, ValidationError
from ..utils import check_random_state
from .base import Counterfactual, CounterfactualBatch, ExplainerInfo, ExplainerRegistry
from .engine import greedy_sparsify_batch, lockstep_candidate_search
from .kernels import batch_counterfactual_distance, project_candidates
from .schedules import resolve_schedule

__all__ = [
    "ActionabilityConstraints",
    "counterfactual_distance",
    "BaseCounterfactualGenerator",
    "RandomSearchCounterfactual",
    "GrowingSpheresCounterfactual",
    "GradientCounterfactual",
]


@dataclass
class ActionabilityConstraints:
    """Per-feature constraints that a counterfactual must respect.

    Attributes
    ----------
    immutable:
        Boolean mask of features that must keep their original value.
    lower, upper:
        Plausibility bounds per feature (NaN = unbounded).
    monotone:
        +1 (may only increase), -1 (may only decrease), 0 (free) per feature.
    """

    immutable: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    monotone: np.ndarray

    def __post_init__(self):
        # Validate only: the stored arrays are folded into store fingerprints
        # by ``generator_config``, so they are never coerced or replaced.
        shapes = [np.shape(v) for v in (self.immutable, self.lower, self.upper,
                                        self.monotone)]
        if any(len(shape) != 1 or shape != shapes[0] for shape in shapes):
            raise ValidationError(
                "immutable, lower, upper and monotone must be 1-D vectors of one "
                f"shared length (one entry per feature); got shapes {shapes}")

    @classmethod
    def unconstrained(cls, n_features: int) -> "ActionabilityConstraints":
        """Constraints allowing every feature to move freely."""
        return cls(
            immutable=np.zeros(n_features, dtype=bool),
            lower=np.full(n_features, -np.inf),
            upper=np.full(n_features, np.inf),
            monotone=np.zeros(n_features, dtype=int),
        )

    @classmethod
    def from_feature_specs(cls, specs: Sequence[FeatureSpec]) -> "ActionabilityConstraints":
        """Build constraints from dataset feature metadata.

        Immutable *or* non-actionable features are frozen; numeric bounds and
        monotonicity directions are carried over.
        """
        n = len(specs)
        constraints = cls.unconstrained(n)
        for j, spec in enumerate(specs):
            constraints.immutable[j] = spec.immutable or not spec.actionable
            constraints.lower[j] = -np.inf if spec.lower is None else spec.lower
            constraints.upper[j] = np.inf if spec.upper is None else spec.upper
            constraints.monotone[j] = spec.monotone
        return constraints

    def project(self, x_original: np.ndarray, candidate: np.ndarray) -> np.ndarray:
        """Project candidate counterfactuals onto the feasible set.

        Accepts a single candidate of shape ``(d,)`` or any stacked candidate
        tensor of shape ``(..., d)`` — e.g. ``(n_candidates, d)`` for one
        instance's candidate matrix, or ``(n_instances, n_candidates, d)``
        with ``x_original`` of shape ``(n_instances, 1, d)`` for the batched
        engine.  ``x_original`` must broadcast against ``candidate``; NaN
        bounds are treated as unbounded.

        The projection cascade runs in
        :func:`~fairexp.explanations.kernels.project_candidates`.
        """
        return project_candidates(
            x_original, candidate, immutable=self.immutable, lower=self.lower,
            upper=self.upper, monotone=self.monotone,
        )

    def is_feasible(self, x_original: np.ndarray, candidate: np.ndarray, *, atol=1e-9):
        """Whether ``candidate`` satisfies all constraints relative to ``x_original``.

        Returns a scalar ``bool`` for a single ``(d,)`` candidate and a
        boolean array (reduced over the feature axis) for stacked candidates.
        """
        candidate = np.asarray(candidate, dtype=float)
        close = np.isclose(candidate, self.project(x_original, candidate), atol=atol)
        if candidate.ndim <= 1:
            return bool(np.all(close))
        return np.all(close, axis=-1)


def counterfactual_distance(
    x: np.ndarray, x_prime: np.ndarray, *, scale: np.ndarray | None = None,
    metric: str = "l1",
) -> float:
    """Distance between an instance and its counterfactual.

    ``metric`` is ``"l1"`` (MAD-style, the default used for burden), ``"l2"``
    or ``"l0"`` (number of changed features).  ``scale`` normalizes features
    (e.g. per-feature standard deviation or median absolute deviation).

    Delegates to the (bitwise-equal) batched kernel
    :func:`~fairexp.explanations.kernels.batch_counterfactual_distance`;
    callers scoring many pairs should call that directly with stacked rows.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    x_prime = np.asarray(x_prime, dtype=float).reshape(1, -1)
    return float(batch_counterfactual_distance(
        x, x_prime, scale=scale, metric=metric
    )[0])


class BaseCounterfactualGenerator:
    """Shared machinery for counterfactual generators.

    Parameters
    ----------
    model:
        Classifier with ``predict`` (and ``predict_proba`` where needed).
    background:
        Reference data used to scale distances and bound the search.
    constraints:
        Optional :class:`ActionabilityConstraints`.
    target_class:
        The favourable outcome to reach (default 1).
    metric:
        Distance metric reported on the returned counterfactuals.
    schedule:
        A :class:`~fairexp.explanations.schedules.SearchSchedule` (or its
        name, ``"geometric"`` / ``"adaptive"``) deciding which rung of the
        generator's :meth:`draw_schedule` ladder each still-unsolved
        instance probes next in the batched lockstep search.  ``None``
        resolves to the default
        :class:`~fairexp.explanations.schedules.GeometricSchedule`, which
        reproduces the historical fixed widening bitwise-exactly.  The
        schedule is part of the search configuration: it is introspected by
        ``generator_config`` and therefore folded into store fingerprints.
        (The sequential :meth:`generate` reference path always walks the
        full fixed ladder; generators without a rung ladder — gradient
        ascent — ignore the schedule.)

    Attributes
    ----------
    search_step_count, search_draw_count:
        Lockstep schedule steps taken and candidate rows drawn across this
        generator's batched searches (thread-safe; process-sharded passes
        fold their workers' totals back in).  Surfaced through
        :meth:`~fairexp.explanations.session.AuditSession.stats` as
        ``schedule_steps`` / ``schedule_draws``.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="local",
        explanation_type="example",
        multiplicity="single",
    )

    def __init__(
        self,
        model,
        background: np.ndarray,
        *,
        constraints: ActionabilityConstraints | None = None,
        target_class: int = 1,
        metric: str = "l1",
        random_state=None,
        schedule=None,
    ) -> None:
        self.model = model
        self.background = np.asarray(background, dtype=float)
        self.constraints = constraints or ActionabilityConstraints.unconstrained(
            self.background.shape[1]
        )
        self.target_class = target_class
        self.metric = metric
        self.random_state = random_state
        self.schedule = resolve_schedule(schedule)
        self.scale_ = self.background.std(axis=0)
        self.scale_[self.scale_ == 0] = 1.0
        self.search_step_count = 0
        self.search_draw_count = 0
        self._search_count_lock = threading.Lock()

    # ------------------------------------------------------------- helpers
    def draw_schedule(self) -> list:
        """Per-rung parameters of this generator's search ladder.

        One entry per rung of the widening search (radii, shell bounds, …),
        lowest rung first.  The lockstep kernel searches over
        ``len(draw_schedule())`` rungs and the generator's ``schedule``
        decides the order instances probe them in; generators without a
        rung ladder (gradient ascent) return an empty list.
        """
        return []

    def add_search_counts(self, steps: int, draws: int) -> None:
        """Fold one search pass's schedule steps / candidate draws into the
        generator's thread-safe totals (also used by process-sharded passes
        to report their workers' totals)."""
        with self._search_count_lock:
            self.search_step_count += int(steps)
            self.search_draw_count += int(draws)

    def reset_search_counts(self) -> None:
        """Zero the schedule step / draw totals."""
        with self._search_count_lock:
            self.search_step_count = 0
            self.search_draw_count = 0

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.model.predict(np.atleast_2d(X)))

    def _make_results_batch(self, X_rows: np.ndarray, candidates: np.ndarray
                            ) -> CounterfactualBatch:
        """Project ``candidates`` and build their result columns, with two
        predict calls (originals + counterfactuals) for all rows."""
        X_rows = np.array(X_rows, dtype=float, ndmin=2)
        candidates = self.constraints.project(
            X_rows, np.atleast_2d(np.asarray(candidates, dtype=float))
        )
        original_predictions = self._predict(X_rows)
        counterfactual_predictions = self._predict(candidates)
        feasible = self.constraints.is_feasible(X_rows, candidates)
        changed_masks = ~np.isclose(candidates, X_rows)
        distances = batch_counterfactual_distance(
            X_rows, candidates, scale=self.scale_, metric=self.metric
        )
        return CounterfactualBatch(
            indices=np.arange(X_rows.shape[0], dtype=np.int64),
            has_result=np.ones(X_rows.shape[0], dtype=bool),
            originals=X_rows,
            counterfactuals=candidates,
            original_predictions=original_predictions.astype(np.int64),
            counterfactual_predictions=counterfactual_predictions.astype(np.int64),
            distances=distances,
            constraint_feasible=np.asarray(feasible, dtype=bool),
            changed_masks=changed_masks,
        )

    def _make_result(self, x: np.ndarray, candidate: np.ndarray) -> Counterfactual:
        return self._make_results_batch(
            np.asarray(x, dtype=float)[None, :], np.asarray(candidate, dtype=float)[None, :]
        )[0]

    def _sparsify(self, x: np.ndarray, candidate: np.ndarray) -> np.ndarray:
        """Greedily revert changed features back to their original value while
        the counterfactual still reaches the target class.

        The greedy semantics of the original one-predict-per-feature loop are
        preserved, but all revert trials of a speculation round are evaluated
        in a single batched predict (see :func:`greedy_sparsify_batch`).
        """
        return greedy_sparsify_batch(
            self, np.asarray(x, dtype=float)[None, :],
            np.asarray(candidate, dtype=float)[None, :],
        )[0]

    def generate(self, x: np.ndarray) -> Counterfactual:
        """Return one counterfactual for ``x``; raises if none is found."""
        raise NotImplementedError

    def generate_batch_aligned(self, X: np.ndarray) -> CounterfactualBatch:
        """Counterfactuals for every row of ``X``, aligned with the rows.

        Rows whose search budget is exhausted have no result (``None`` when
        indexed).  Subclasses with a vectorized cross-instance kernel
        override this; the fallback simply loops :meth:`generate`.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        results: list[Counterfactual | None] = []
        for i in range(X.shape[0]):
            try:
                results.append(self.generate(X[i]))
            except InfeasibleRecourseError:
                results.append(None)
        return CounterfactualBatch.from_counterfactuals(range(X.shape[0]), results,
                                                        X.shape[1])

    def generate_batch(self, X: np.ndarray, *, skip_failures: bool = True) -> list[Counterfactual]:
        """Generate counterfactuals for many instances.

        Instances already classified as the target class are skipped.  With
        ``skip_failures`` infeasible instances are dropped instead of raising.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pending = np.flatnonzero(self._predict(X) != self.target_class)
        if pending.size == 0:
            return []
        aligned = self.generate_batch_aligned(X[pending])
        if not skip_failures and not aligned.has_result.all():
            row = int(pending[np.argmin(aligned.has_result)])
            raise InfeasibleRecourseError(
                f"no counterfactual found for instance {row} within the search budget"
            )
        return [result for result in aligned if result is not None]


class _LadderCounterfactualGenerator(BaseCounterfactualGenerator):
    """The sampling generators' search: each rung of :meth:`draw_schedule`
    draws a subclass's ``_offsets(rng, rung)`` block around the instance,
    projects it and keeps the nearest hit, then sparsifies it.  Subclasses
    name the ``InfeasibleRecourseError`` of a ladder that missed in
    ``_exhausted``."""

    def _draw(self, rng, x: np.ndarray, step: int) -> np.ndarray:
        return x[None, :] + self._offsets(rng, step)

    def generate(self, x: np.ndarray) -> Counterfactual:
        """One counterfactual for ``x`` via the widening rung ladder.

        This sequential reference path always walks the full fixed ladder
        (rung 0, 1, 2, …); the pluggable ``schedule`` only drives the
        batched :meth:`generate_batch_aligned` search.
        """
        x = np.asarray(x, dtype=float).ravel()
        rng = check_random_state(self.random_state)
        for step in range(len(self.draw_schedule())):
            candidates = self.constraints.project(x, self._draw(rng, x, step))
            hits = np.flatnonzero(self._predict(candidates) == self.target_class)
            if hits.size:
                distances = batch_counterfactual_distance(
                    x, candidates[hits], scale=self.scale_, metric=self.metric
                )
                best = self._sparsify(x, candidates[hits[np.argmin(distances)]])
                return self._make_result(x, best)
        raise InfeasibleRecourseError(self._exhausted)

    def generate_batch_aligned(self, X: np.ndarray) -> CounterfactualBatch:
        """Row-aligned counterfactuals via the cross-instance lockstep kernel,
        probing the rung ladder in the order this generator's ``schedule``
        plans."""
        return lockstep_candidate_search(self, X, self._offsets,
                                         len(self.draw_schedule()),
                                         schedule=self.schedule)


@ExplainerRegistry.register("random_search", capabilities=("counterfactual-generator",),
                            data_requirements=("feature-specs",))
class RandomSearchCounterfactual(_LadderCounterfactualGenerator):
    """Rejection sampling with a growing Gaussian radius plus greedy sparsification."""

    _exhausted = "random search found no counterfactual within the radius"

    def __init__(self, model, background, *, n_samples: int = 300, max_radius: float = 4.0,
                 n_radii: int = 8, **kwargs) -> None:
        super().__init__(model, background, **kwargs)
        self.n_samples = n_samples
        self.max_radius = max_radius
        self.n_radii = n_radii

    def _radii(self) -> np.ndarray:
        return np.linspace(self.max_radius / self.n_radii, self.max_radius, self.n_radii)

    def draw_schedule(self) -> list[float]:
        """The rung ladder: one Gaussian radius per search step, smallest first."""
        return [float(radius) for radius in self._radii()]

    def _offsets(self, rng, step: int) -> np.ndarray:
        """``(n_samples, d)`` scaled Gaussian noise at rung ``step``; every
        rung consumes as many random values, so rows can share the block."""
        shape = (self.n_samples, self.scale_.shape[0])
        return rng.normal(0.0, self._radii()[step], shape) * self.scale_


@ExplainerRegistry.register("growing_spheres", capabilities=("counterfactual-generator",),
                            data_requirements=("feature-specs",))
class GrowingSpheresCounterfactual(_LadderCounterfactualGenerator):
    """Growing-spheres search: uniform sampling in expanding L2 shells."""

    _exhausted = "growing spheres exhausted the search radius"

    def __init__(self, model, background, *, n_samples_per_shell: int = 200,
                 initial_radius: float = 0.1, growth: float = 1.5, max_shells: int = 12,
                 **kwargs) -> None:
        super().__init__(model, background, **kwargs)
        self.n_samples_per_shell = n_samples_per_shell
        self.initial_radius = initial_radius
        self.growth = growth
        self.max_shells = max_shells

    def _shell_schedule(self) -> list[tuple[float, float]]:
        """(inner, outer) radii of every shell, accumulated iteratively so the
        sequential and batched paths see bit-identical bounds."""
        schedule = []
        inner, outer = 0.0, self.initial_radius
        for _ in range(self.max_shells):
            schedule.append((inner, outer))
            inner, outer = outer, outer * self.growth
        return schedule

    def draw_schedule(self) -> list[tuple[float, float]]:
        """The rung ladder: one ``(inner, outer)`` shell per search step,
        innermost first."""
        return self._shell_schedule()

    def _offsets(self, rng, step: int) -> np.ndarray:
        """``(n_samples_per_shell, d)`` scaled offsets in shell ``step``;
        every shell consumes as many random values, so rows can share the
        block."""
        inner, outer = self._shell_schedule()[step]
        directions = rng.normal(size=(self.n_samples_per_shell, self.scale_.shape[0]))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True) + 1e-12
        radii = rng.uniform(inner, outer, self.n_samples_per_shell)
        return directions * radii[:, None] * self.scale_


@ExplainerRegistry.register(
    "gradient", capabilities=("counterfactual-generator", "requires-gradient"),
    data_requirements=("feature-specs",), resource_requirements=("gradients",),
)
class GradientCounterfactual(BaseCounterfactualGenerator):
    """Gradient ascent on the target-class probability (gradient-access models).

    Requires the model to expose ``gradient_input(X)`` returning the gradient
    of the positive-class probability with respect to the features
    (``LogisticRegression`` and ``MLPClassifier`` do).
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="gradient",
        agnostic=False,
        coverage="local",
        explanation_type="example",
        multiplicity="single",
    )

    def __init__(self, model, background, *, step_size: float = 0.25, max_iter: int = 300,
                 **kwargs) -> None:
        super().__init__(model, background, **kwargs)
        if not hasattr(model, "gradient_input"):
            raise ValidationError("GradientCounterfactual requires model.gradient_input")
        self.step_size = step_size
        self.max_iter = max_iter

    def _anchor(self) -> np.ndarray:
        # Anchor for plateau escapes: the centroid of background points already
        # classified as the target class (gradients vanish far from the
        # boundary of a well-separated model, so pure gradient steps can stall).
        background_predictions = self._predict(self.background)
        target_rows = self.background[background_predictions == self.target_class]
        return target_rows.mean(axis=0) if target_rows.shape[0] else self.background.mean(axis=0)

    def generate(self, x: np.ndarray) -> Counterfactual:
        """One counterfactual for ``x`` via gradient ascent on the target class."""
        x = np.asarray(x, dtype=float).ravel()
        candidate = x.copy()
        sign = 1.0 if self.target_class == 1 else -1.0
        anchor = self._anchor()
        for _ in range(self.max_iter):
            if int(self._predict(candidate)[0]) == self.target_class:
                candidate = self._sparsify(x, candidate)
                return self._make_result(x, candidate)
            gradient = np.asarray(self.model.gradient_input(candidate[None, :]))[0]
            step = sign * self.step_size * gradient * self.scale_**2
            norm = np.linalg.norm(step / self.scale_)
            if norm < 1e-4:
                # Plateau: move a fixed fraction of the way toward the anchor.
                step = 0.2 * (anchor - candidate)
            candidate = self.constraints.project(x, candidate + step)
        if int(self._predict(candidate)[0]) == self.target_class:
            return self._make_result(x, candidate)
        raise InfeasibleRecourseError("gradient search did not cross the decision boundary")

    def generate_batch_aligned(self, X: np.ndarray) -> CounterfactualBatch:
        """Cross-instance gradient ascent: all still-unsolved instances share
        one predict and one ``gradient_input`` call per iteration."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n_instances = X.shape[0]
        candidates = X.copy()
        sign = 1.0 if self.target_class == 1 else -1.0
        anchor = self._anchor()
        unsolved = np.arange(n_instances)
        # Rows crossing mid-loop keep their candidate and are sparsified;
        # rows crossing only at the budget check are not.
        solved = np.zeros(n_instances, dtype=bool)
        for _ in range(self.max_iter):
            if unsolved.size == 0:
                break
            crossed = self._predict(candidates[unsolved]) == self.target_class
            solved[unsolved[crossed]] = True
            unsolved = unsolved[~crossed]
            if unsolved.size == 0:
                break
            gradients = np.asarray(self.model.gradient_input(candidates[unsolved]))
            steps = sign * self.step_size * gradients * self.scale_**2
            plateau = np.linalg.norm(steps / self.scale_, axis=1) < 1e-4
            steps[plateau] = 0.2 * (anchor - candidates[unsolved][plateau])
            candidates[unsolved] = self.constraints.project(
                X[unsolved], candidates[unsolved] + steps
            )
        if unsolved.size:
            unsolved = unsolved[self._predict(candidates[unsolved]) == self.target_class]

        results = CounterfactualBatch.empty(n_instances, X.shape[1])
        rows = np.flatnonzero(solved)
        if rows.size:
            sparse = greedy_sparsify_batch(self, X[rows], candidates[rows])
            results.put(rows, self._make_results_batch(X[rows], sparse))
        if unsolved.size:
            results.put(unsolved, self._make_results_batch(X[unsolved], candidates[unsolved]))
        return results
