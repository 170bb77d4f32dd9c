"""Tests for the recommendation substrate."""

import numpy as np
import pytest

from fairexp.exceptions import NotFittedError, ValidationError
from fairexp.recsys import (
    InteractionMatrix,
    ItemKNNRecommender,
    MatrixFactorization,
    RecWalkRecommender,
    exposure_disparity,
    item_group_exposure,
    make_biased_interactions,
    ndcg_at_k,
    popularity_lift,
    precision_at_k,
    recall_at_k,
    user_group_quality_gap,
)


class TestInteractionMatrix:
    def test_validation(self):
        with pytest.raises(ValidationError):
            InteractionMatrix(matrix=np.ones((3, 2)), item_groups=np.array([1]))
        with pytest.raises(ValidationError):
            InteractionMatrix(matrix=np.ones(3), item_groups=np.array([1, 0, 1]))

    def test_popularity_and_activity(self, interactions):
        assert interactions.item_popularity().shape == (interactions.n_items,)
        assert interactions.user_activity().shape == (interactions.n_users,)
        assert interactions.item_popularity().sum() == interactions.user_activity().sum()

    def test_remove_interaction_is_copy(self, interactions):
        users, items = np.nonzero(interactions.matrix > 0)
        user, item = int(users[0]), int(items[0])
        modified = interactions.remove_interaction(user, item)
        assert modified.matrix[user, item] == 0.0
        assert interactions.matrix[user, item] > 0.0

    def test_bipartite_edges_count(self, interactions):
        edges = interactions.to_bipartite_edges()
        assert len(edges) == int((interactions.matrix > 0).sum())

    def test_generator_popularity_bias(self):
        biased = make_biased_interactions(150, 60, popularity_bias=4.0, random_state=0)
        popularity = biased.item_popularity()
        protected_popularity = popularity[biased.item_groups == 1].mean()
        reference_popularity = popularity[biased.item_groups == 0].mean()
        assert protected_popularity < reference_popularity

    def test_generator_activity_gap(self):
        biased = make_biased_interactions(200, 40, activity_gap=0.4, random_state=0)
        activity = biased.user_activity()
        assert activity[biased.user_groups == 1].mean() < activity[biased.user_groups == 0].mean()


RECOMMENDERS = [
    lambda: ItemKNNRecommender(n_neighbors=10),
    lambda: RecWalkRecommender(n_steps=10),
    lambda: MatrixFactorization(n_epochs=5, n_factors=8, random_state=0),
]


class TestRecommenders:
    @pytest.mark.parametrize("factory", RECOMMENDERS)
    def test_recommendations_exclude_seen_items(self, factory, interactions):
        recommender = factory().fit(interactions)
        for user in range(5):
            recommended = recommender.recommend(user, k=5)
            seen = np.flatnonzero(interactions.matrix[user] > 0)
            assert not set(recommended.tolist()) & set(seen.tolist())

    @pytest.mark.parametrize("factory", RECOMMENDERS)
    def test_recommend_all_shape(self, factory, interactions):
        recommender = factory().fit(interactions)
        recs = recommender.recommend_all(k=7)
        assert recs.shape == (interactions.n_users, 7)

    @pytest.mark.parametrize("factory", RECOMMENDERS)
    def test_score_matrix_shape(self, factory, interactions):
        recommender = factory().fit(interactions)
        scores = recommender.score_matrix()
        assert scores.shape == (interactions.n_users, interactions.n_items)

    def test_unfitted_raises(self, interactions):
        with pytest.raises(NotFittedError):
            ItemKNNRecommender().recommend(0)

    def test_recwalk_alpha_validation(self):
        with pytest.raises(ValidationError):
            RecWalkRecommender(alpha=2.0)

    def test_recwalk_scores_are_probabilities(self, recwalk):
        scores = recwalk.score(0)
        assert np.all(scores >= 0)
        assert scores.sum() <= 1.0 + 1e-9

    def test_recwalk_refit_without_changes_scores(self, recwalk, interactions):
        users, items = np.nonzero(interactions.matrix > 0)
        user, item = int(users[0]), int(items[0])
        refitted = recwalk.refit_without(user, item)
        assert refitted.score(user)[item] <= recwalk.score(user)[item] + 1e-12

    def test_recommenders_recover_block_structure(self, rng):
        # Users in two taste blocks; recommenders should prefer in-block items.
        matrix = np.zeros((40, 20))
        for user in range(40):
            block = 0 if user < 20 else 1
            items = rng.choice(np.arange(10) + 10 * block, size=5, replace=False)
            matrix[user, items] = 1.0
        inter = InteractionMatrix(matrix=matrix, item_groups=np.zeros(20, dtype=int))
        recommender = ItemKNNRecommender(n_neighbors=10).fit(inter)
        recs = recommender.recommend(0, k=5)
        assert np.mean(recs < 10) > 0.8


class TestRecMetrics:
    def test_precision_recall_perfect(self):
        holdout = np.zeros((2, 10))
        holdout[0, [1, 2]] = 1
        holdout[1, [3]] = 1
        recommendations = np.array([[1, 2], [3, 4]])
        assert precision_at_k(recommendations, holdout) == pytest.approx(0.75)
        assert recall_at_k(recommendations, holdout) == pytest.approx(1.0)

    def test_precision_for_zero_users_is_zero(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert precision_at_k(np.zeros((0, 3), dtype=int), np.zeros((0, 10))) == 0.0

    def test_ndcg_bounds(self, rng):
        holdout = (rng.random((20, 30)) < 0.2).astype(float)
        recommendations = np.argsort(-rng.random((20, 30)), axis=1)[:, :10]
        value = ndcg_at_k(recommendations, holdout)
        assert 0.0 <= value <= 1.0

    def test_ndcg_perfect_ranking_is_one(self):
        holdout = np.zeros((1, 10))
        holdout[0, [0, 1]] = 1
        assert ndcg_at_k(np.array([[0, 1, 2]]), holdout) == pytest.approx(1.0)

    def test_exposure_disparity_zero_when_proportional(self):
        item_groups = np.array([1, 0, 1, 0])
        # Symmetric lists: protected items get rank 0 in one list and rank 1 in
        # the other, so exposure matches the 50% catalog share exactly.
        recommendations = np.array([[0, 1], [3, 2]])
        assert exposure_disparity(recommendations, item_groups) == pytest.approx(0.0, abs=1e-9)

    def test_exposure_disparity_one_when_protected_absent(self):
        item_groups = np.array([1, 0, 1, 0])
        recommendations = np.array([[1, 3], [3, 1]])
        assert exposure_disparity(recommendations, item_groups) == pytest.approx(1.0)

    def test_item_group_exposure_total(self, interactions, recwalk):
        recs = recwalk.recommend_all(k=5)
        exposures = item_group_exposure(recs, interactions.item_groups)
        from fairexp.fairness import position_weights

        expected_total = position_weights(5).sum() * interactions.n_users
        assert sum(exposures.values()) == pytest.approx(expected_total)

    def test_popularity_lift_above_one_for_biased_recommender(self, interactions, recwalk):
        recs = recwalk.recommend_all(k=5)
        assert popularity_lift(recs, interactions) > 1.0

    def test_popularity_lift_of_empty_recommendations_is_zero(self, interactions):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = np.zeros((interactions.n_users, 0), dtype=int)
            assert popularity_lift(empty, interactions) == 0.0

    def test_user_group_quality_gap_sign(self, rng):
        holdout = np.zeros((10, 20))
        holdout[:, :5] = 1
        user_groups = np.array([0] * 5 + [1] * 5)
        # Reference users get perfect recommendations, protected users useless ones.
        recommendations = np.vstack([
            np.tile(np.arange(5), (5, 1)),
            np.tile(np.arange(15, 20), (5, 1)),
        ])
        assert user_group_quality_gap(recommendations, holdout, user_groups) > 0.9
