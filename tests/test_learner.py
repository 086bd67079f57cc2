"""Tests for the cost-sensitive base learners."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amscascade.data import SynthConfig, WeightedDataset, _sorted_rows, synthesize
from amscascade.errors import ConfigError, DataError, TrainingError
from amscascade.learner import (
    CostVector,
    LearnerConfig,
    Model,
    Tree,
    boost_one_round,
    classify,
    empty_model,
    load_model,
    make_cost_vector,
    predict_scores,
    save_model,
    surrogate_gradient,
    surrogate_hessian,
    surrogate_loss,
    train,
    weighted_error,
)
import amscascade.learner as learner_module
from amscascade.learner import _goes_left, _leaf_row
from amscascade.significance import AMS2, AMS3, U_MIN

TWO_ONE_MINUS_LN2 = 0.61370563888010938117  # frozen: 2 * f2*(ln 2)
LN_2 = 0.69314718055994530942


def gaussian_data(n_signal=300, n_background=300, separation=2.0, seed=0, d=3):
    return synthesize(
        SynthConfig(
            d=d,
            n_signal=n_signal,
            n_background=n_background,
            separation=separation,
            signal_total=float(n_signal),
            background_total=float(n_background),
        ),
        seed=seed,
    )


def uniform_costs(dataset, value=1.0):
    return CostVector(costs=np.full(dataset.n, value), round_dual=1.0)


class TestCostVector:
    def test_poisson_background_cost(self):
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([1.0, 2.0]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        costs = make_cost_vector(data, LN_2, AMS2)
        np.testing.assert_allclose(costs.costs[1], TWO_ONE_MINUS_LN2, rtol=1e-14)
        np.testing.assert_allclose(costs.costs[0], LN_2, rtol=1e-15)
        assert costs.round_dual == LN_2

    def test_quadratic_costs(self):
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([3.0, 3.0]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        costs = make_cost_vector(data, 1.0, AMS3)
        assert costs.costs[0] == 3.0  # signal: w * u
        assert costs.costs[1] == 1.5  # background: w * u^2 / 2

    def test_floor_behavior(self):
        data = gaussian_data(20, 20)
        costs = make_cost_vector(data, U_MIN, AMS2)
        signal = data.labels == 1
        np.testing.assert_allclose(
            costs.costs[signal], data.weights[signal] * U_MIN, rtol=1e-15
        )
        assert np.all(costs.costs[~signal] < 1e-12 * data.weights[~signal])
        with pytest.raises(ValueError):
            make_cost_vector(data, U_MIN / 2, AMS2)

    def test_invariants(self):
        with pytest.raises(ValueError):
            CostVector(costs=np.array([1.0, -0.1]), round_dual=1.0)
        with pytest.raises(ValueError):
            CostVector(costs=np.zeros(3), round_dual=1.0)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            CostVector(costs=np.array([1.0, math.inf]), round_dual=1.0)
        # each cost finite, the total not
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            CostVector(costs=np.array([1e308, 1e308]), round_dual=1.0)
        # f*(1) ~ 0.72 keeps this total under the bound; f*(20) ~ 4.9e8 does not
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([1.0, 1e142]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        make_cost_vector(data, 1.0, AMS2)
        with pytest.raises(TrainingError, match="u = 20.0"):
            make_cost_vector(data, 20.0, AMS2)

    def test_cost_total_past_the_bound_rejected(self):
        # each cost and the total finite, but the split gain's G * G would not be
        assert CostVector(costs=np.array([1e150, 0.0]), round_dual=1.0).n == 2
        with pytest.raises(ValueError, match=r"^cost total must lie in \(0, 1e\+150\], got 2e"):
            CostVector(costs=np.array([1e150, 1e150]), round_dual=1.0)
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([1e299, 1e300]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        with pytest.raises(TrainingError, match="exceed a total of 1e\\+150 at u = 1.0 "):
            make_cost_vector(data, 1.0, AMS2)

    def test_underflow_rejected(self):
        # subnormal weights times u = U_MIN round every cost to 0
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([1e-320, 1e-320]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        make_cost_vector(data, 1.0, AMS2)
        with pytest.raises(TrainingError, match="all underflow to 0 at u = 1e-06"):
            make_cost_vector(data, U_MIN, AMS2)


class TestWeightedError:
    def test_all_correct_is_zero(self):
        data = gaussian_data(10, 10)
        costs = uniform_costs(data)
        assert weighted_error(data, costs, data.labels) == 0.0

    def test_all_positive_predictions(self):
        data = gaussian_data(15, 25, seed=3)
        u = 0.7
        costs = make_cost_vector(data, u, AMS2)
        err = weighted_error(data, costs, np.ones(data.n, dtype=int))
        expected = data.background_total * float(AMS2.f_conjugate(u))
        np.testing.assert_allclose(err, expected, rtol=1e-12)

    def test_hand_mixed_case(self):
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([1.0, 2.0]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        costs = make_cost_vector(data, 1.0, AMS3)
        assert weighted_error(data, costs, np.array([-1, 1])) == 2.0

    def test_length_mismatch(self):
        data = gaussian_data(5, 5)
        with pytest.raises(ValueError):
            weighted_error(data, uniform_costs(data), np.ones(3, dtype=int))

    def test_cost_decomposition(self):
        # error under cascade costs equals b_pred f*(u) + s_tilde_pred u
        data = gaussian_data(40, 60, seed=7)
        rng = np.random.default_rng(42)
        for measure in (AMS2, AMS3):
            for _ in range(50):
                u = rng.uniform(0.01, 5.0)
                costs = make_cost_vector(data, u, measure)
                preds = rng.choice([-1, 1], data.n)
                fp = (preds == 1) & (data.labels == -1)
                fn = (preds == -1) & (data.labels == 1)
                b_pred = data.weights[fp].sum()
                s_tilde_pred = data.weights[fn].sum()
                expected = b_pred * float(measure.f_conjugate(u)) + s_tilde_pred * u
                np.testing.assert_allclose(
                    weighted_error(data, costs, preds), expected, rtol=1e-9
                )


class TestSurrogate:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        n = 100
        costs = rng.uniform(0.1, 3.0, n)
        labels = rng.choice([-1.0, 1.0], n)
        scores = rng.uniform(-3.0, 3.0, n)
        eps = 1e-5
        analytic = surrogate_gradient(costs, labels, scores)
        fd = np.empty(n)
        for i in range(n):
            hi = scores.copy()
            lo = scores.copy()
            hi[i] += eps
            lo[i] -= eps
            fd[i] = (
                surrogate_loss(costs, labels, hi) - surrogate_loss(costs, labels, lo)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6)

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(1)
        n = 50
        costs = rng.uniform(0.1, 3.0, n)
        labels = rng.choice([-1.0, 1.0], n)
        scores = rng.uniform(-3.0, 3.0, n)
        eps = 1e-5
        analytic = surrogate_hessian(costs, labels, scores)
        fd = (
            surrogate_gradient(costs, labels, scores + eps)
            - surrogate_gradient(costs, labels, scores - eps)
        ) / (2 * eps)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5)

    def test_loss_is_nonnegative_and_zero_cost_is_zero(self):
        labels = np.array([1.0, -1.0])
        scores = np.array([5.0, -5.0])
        assert surrogate_loss(np.zeros(2), labels, scores) == 0.0
        assert surrogate_loss(np.ones(2), labels, scores) > 0.0


class TestTrain:
    def test_separable_two_points(self):
        data = WeightedDataset(
            features=np.array([[0.0], [1.0]]),
            labels=np.array([1, -1]),
            weights=np.array([1.0, 1.0]),
            event_ids=np.array([0, 1]),
            column_names=("x",),
        )
        costs = uniform_costs(data)
        config = LearnerConfig(kind="stump-boost", rounds=5, learning_rate=1.0)
        model = train(data, costs, config)
        assert weighted_error(data, costs, classify(model, data)) == 0.0

    def test_all_cost_on_one_example(self):
        data = gaussian_data(10, 10, seed=2)
        costs = np.zeros(data.n)
        # a single signal example carries all the cost
        target = np.flatnonzero(data.labels == 1)[0]
        costs[target] = 5.0
        model = train(
            data,
            CostVector(costs=costs, round_dual=1.0),
            LearnerConfig(kind="stump-boost", rounds=3, min_child_weight=0.0),
        )
        assert classify(model, data)[target] == 1

    def test_beats_constant_classifiers(self):
        data = gaussian_data(1000, 1000, separation=3.0, seed=5)
        costs = uniform_costs(data)
        config = LearnerConfig(kind="tree-boost", rounds=20, learning_rate=0.3)
        model = train(data, costs, config)
        err = weighted_error(data, costs, classify(model, data))
        all_pos = weighted_error(data, costs, np.ones(data.n, dtype=int))
        all_neg = weighted_error(data, costs, -np.ones(data.n, dtype=int))
        assert err < min(all_pos, all_neg)

    def test_single_class_rejected(self):
        data = gaussian_data(10, 10)
        idx = np.flatnonzero(data.labels == 1)
        single = data.take(idx)
        with pytest.raises(TrainingError):
            train(single, uniform_costs(single), LearnerConfig())

    def test_stumps_have_depth_one(self):
        data = gaussian_data(100, 100)
        model = train(
            data, uniform_costs(data), LearnerConfig(kind="stump-boost", rounds=4)
        )
        for tree in model.trees:
            assert tree.n_nodes <= 3

    def test_deterministic(self, tmp_path):
        data = gaussian_data(200, 200, seed=9)
        costs = make_cost_vector(data, 0.5, AMS2)
        config = LearnerConfig(kind="tree-boost", rounds=8, subsample=0.7, seed=13)
        a = train(data, costs, config)
        b = train(data, costs, config)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(a, str(pa))
        save_model(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_cost_scaling_leaves_model_unchanged(self, tmp_path):
        # power-of-two scaling is exact in floats, so the fitted trees and
        # leaf values must be bit-identical
        data = gaussian_data(300, 300, seed=4)
        base = np.full(data.n, 0.75)
        config = LearnerConfig(kind="tree-boost", rounds=6, min_child_weight=0.0)
        m1 = train(data, CostVector(costs=base, round_dual=1.0), config)
        m2 = train(data, CostVector(costs=base * 1024.0, round_dual=1.0), config)
        p1, p2 = tmp_path / "1.txt", tmp_path / "2.txt"
        save_model(m1, str(p1))
        save_model(m2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "signal_cost,background_cost", [(1e-300, 1e100), (1.0, 1e-320)], ids=["under", "over"]
    )
    def test_base_score_finite_when_cost_ratio_leaves_range(self, signal_cost, background_cost):
        # the class cost ratio under- or overflows a float; its log does not
        data = gaussian_data(20, 20, seed=3)
        costs = np.where(data.labels == 1, signal_cost, background_cost)
        model = train(
            data,
            CostVector(costs=costs, round_dual=1.0),
            LearnerConfig(kind="stump-boost", rounds=2),
        )
        pos = float(costs[data.labels == 1].sum())
        neg = float(costs[data.labels == -1].sum())
        assert model.base_score == math.log(pos) - math.log(neg)
        assert np.all(np.isfinite(predict_scores(model, data)))


class TestWarmStart:
    def test_bit_exact_equivalence(self, tmp_path):
        data = gaussian_data(400, 400, seed=21)
        costs = make_cost_vector(data, 0.8, AMS2)
        for config in (
            LearnerConfig(kind="tree-boost", rounds=6, seed=3),
            LearnerConfig(kind="stump-boost", rounds=6, seed=3, subsample=0.8),
        ):
            full = train(data, costs, config)
            # from one trained round, and from no tree at train()'s base score
            for model, calls in (
                (train(data, costs, replace(config, rounds=1)), 5),
                (empty_model(config.kind, data.d, full.base_score), 6),
            ):
                for _ in range(calls):
                    model = boost_one_round(model, data, costs, config)
                assert model.n_trees == full.n_trees == 6
                np.testing.assert_array_equal(
                    predict_scores(model, data), predict_scores(full, data)
                )
                warm, cold = tmp_path / "warm.txt", tmp_path / "cold.txt"
                save_model(model, str(warm))
                save_model(full, str(cold))
                assert warm.read_bytes() == cold.read_bytes()

    def test_appends_exactly_one_tree(self):
        data = gaussian_data(50, 50)
        costs = uniform_costs(data)
        config = LearnerConfig(kind="stump-boost", rounds=1)
        model = train(data, costs, config)
        bigger = boost_one_round(model, data, costs, config)
        assert bigger.n_trees == model.n_trees + 1
        assert bigger.trees[:-1] == model.trees  # prior trees untouched

    def test_zero_learning_rate_freezes_scores(self):
        data = gaussian_data(50, 50)
        costs = uniform_costs(data)
        model = train(data, costs, LearnerConfig(kind="stump-boost", rounds=1))
        frozen = boost_one_round(
            model, data, costs, LearnerConfig(kind="stump-boost", learning_rate=0.0)
        )
        np.testing.assert_array_equal(
            predict_scores(frozen, data), predict_scores(model, data)
        )

    def test_surrogate_decreases(self):
        data = gaussian_data(500, 500, seed=8)
        costs = uniform_costs(data)
        config = LearnerConfig(kind="tree-boost", rounds=3, learning_rate=0.1)
        model = train(data, costs, config)
        before = surrogate_loss(
            costs.costs, data.labels.astype(float), predict_scores(model, data)
        )
        after_model = boost_one_round(model, data, costs, config)
        after = surrogate_loss(
            costs.costs, data.labels.astype(float), predict_scores(after_model, data)
        )
        assert after <= before

    def test_kind_mismatch_rejected(self):
        data = gaussian_data(30, 30)
        costs = uniform_costs(data)
        model = train(data, costs, LearnerConfig(kind="stump-boost", rounds=1))
        with pytest.raises(TrainingError):
            boost_one_round(model, data, costs, LearnerConfig(kind="tree-boost"))

    def test_feature_count_mismatch_is_data_error(self):
        data = gaussian_data(30, 30)
        costs = uniform_costs(data)
        model = train(data, costs, LearnerConfig(kind="stump-boost", rounds=1))
        wider = gaussian_data(30, 30, d=4)
        config = LearnerConfig(kind="stump-boost")
        with pytest.raises(DataError):
            boost_one_round(model, wider, uniform_costs(wider), config)

    def test_logistic_cannot_boost(self):
        data = gaussian_data(30, 30)
        costs = uniform_costs(data)
        model = train(data, costs, LearnerConfig(kind="logistic"))
        with pytest.raises(TrainingError):
            boost_one_round(model, data, costs, LearnerConfig(kind="logistic"))


class TestPredict:
    def test_empty_model_scores_base(self):
        model = empty_model("tree-boost", n_features=2, base_score=0.25)
        x = np.zeros((4, 2))
        np.testing.assert_array_equal(predict_scores(model, x), np.full(4, 0.25))

    def test_negative_feature_count_rejected(self):
        with pytest.raises(ValueError, match="negative feature count"):
            empty_model("stump-boost", -1)

    @pytest.mark.parametrize("count", [2.5, 2.0, math.nan, "2", None])
    def test_non_integer_feature_count_rejected(self, count):
        # `features 2.5` would be saved, and load_model rejects that file
        with pytest.raises(ValueError, match="feature count must be an integer"):
            empty_model("stump-boost", count)

    def test_numpy_integer_feature_count_stored_as_int(self, tmp_path):
        model = empty_model("tree-boost", np.int64(3))
        assert type(model.n_features) is int and model.n_features == 3
        path = str(tmp_path / "m.txt")
        save_model(model, path)
        assert load_model(path) == model

    @pytest.mark.parametrize("kind", ["stump-boost", "tree-boost"])
    @pytest.mark.parametrize("name", ["coefficients", "impute_values"])
    def test_boosted_model_takes_no_logistic_vectors(self, kind, name):
        # save_model writes neither vector for a boosted model
        with pytest.raises(ValueError, match=f"a {kind} model takes no {name}"):
            Model(kind=kind, n_features=2, base_score=0.0, **{name: np.ones(2)})

    def test_tree_past_the_feature_count_is_data_error(self):
        # built in code: load_model rejects a file with such a split
        stump = Tree._from_rows([(3, 0.0, 1, 2, True, 0.0), _leaf_row(-1.0), _leaf_row(1.0)])
        model = Model(kind="stump-boost", n_features=2, base_score=0.0, trees=(stump,))
        with pytest.raises(DataError, match="splits on column 3"):
            predict_scores(model, np.zeros((4, 2)))
        # an extended table counts the new tree's columns too
        inside = Tree._from_rows([(0, 0.0, 1, 2, True, 0.0), _leaf_row(-1.0), _leaf_row(1.0)])
        table = learner_module._NodeTable((inside,))
        assert table.n_columns == 1 and table.extended(stump).n_columns == 4

    @pytest.mark.parametrize(
        "coefficients, impute",
        [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4)), (None, np.zeros(3))],
        ids=["short-coefficients", "long-impute", "no-coefficients"],
    )
    def test_logistic_vectors_have_one_entry_per_feature(self, coefficients, impute):
        with pytest.raises(ValueError, match="must have shape"):
            Model(kind="logistic", n_features=3, base_score=0.0,
                  coefficients=coefficients, impute_values=impute)

    def test_infinite_threshold_rejects_all(self):
        data = gaussian_data(20, 20)
        model = train(data, uniform_costs(data), LearnerConfig(rounds=2))
        hard = model.with_threshold(math.inf)
        assert np.all(classify(hard, data) == -1)

    def test_classify_consistent_with_scores(self):
        data = gaussian_data(100, 100, seed=6)
        model = train(data, uniform_costs(data), LearnerConfig(rounds=5))
        scores = predict_scores(model, data)
        np.testing.assert_array_equal(
            classify(model, data), np.where(scores > model.threshold, 1, -1)
        )

    def test_dimension_mismatch(self):
        data = gaussian_data(10, 10, d=3)
        model = train(data, uniform_costs(data), LearnerConfig(rounds=1))
        with pytest.raises(DataError):
            predict_scores(model, np.zeros((5, 4)))

    def test_missing_values_route_deterministically(self):
        # the NaN row must land on the loss-minimizing side and stay there
        features = np.array([[0.0], [0.1], [1.0], [1.1], [math.nan]])
        data = WeightedDataset(
            features=features,
            labels=np.array([-1, -1, 1, 1, 1]),
            weights=np.ones(5),
            event_ids=np.arange(5),
            column_names=("x",),
        )
        costs = uniform_costs(data)
        config = LearnerConfig(
            kind="stump-boost", rounds=3, learning_rate=1.0, min_child_weight=0.0
        )
        model = train(data, costs, config)
        preds = classify(model, data)
        assert preds[4] == 1
        assert weighted_error(data, costs, preds) == 0.0


class TestLogistic:
    def test_separates_gaussians(self):
        # Bayes error at this separation is about 2.3%, so 5% shows the fit
        # is near-optimal rather than merely better than chance
        data = gaussian_data(500, 500, separation=4.0, seed=10)
        costs = uniform_costs(data)
        model = train(data, costs, LearnerConfig(kind="logistic"))
        err = weighted_error(data, costs, classify(model, data))
        assert err < 0.05 * data.n

    def test_handles_missing_values(self):
        features = np.array([[0.0, 1.0], [math.nan, 2.0], [3.0, math.nan], [4.0, 5.0]])
        data = WeightedDataset(
            features=features,
            labels=np.array([1, -1, 1, -1]),
            weights=np.ones(4),
            event_ids=np.arange(4),
            column_names=("a", "b"),
        )
        model = train(data, uniform_costs(data), LearnerConfig(kind="logistic"))
        scores = predict_scores(model, data)
        assert np.all(np.isfinite(scores))

    def test_prediction_leaves_column_order_uncomputed(self):
        train_data = gaussian_data(50, 50, seed=2)
        test_data = gaussian_data(20, 20, seed=3)
        model = train(train_data, uniform_costs(train_data), LearnerConfig(kind="logistic"))
        predict_scores(model, test_data)
        classify(model, test_data)
        assert "_column_order" in vars(train_data)
        assert "_column_order" not in vars(test_data)
        assert "_present_counts" in vars(train_data)
        assert "_present_counts" not in vars(test_data)

    def test_present_counts_are_counted_once_per_dataset(self):
        data = gaussian_data(50, 50, seed=4)
        features = data.features.copy()
        features[::3, 1] = np.nan
        data = replace(data, features=features)
        first = train(data, uniform_costs(data), LearnerConfig(kind="logistic"))
        counts = data._present_counts
        np.testing.assert_array_equal(counts, [100, 66, 100])
        second = train(data, uniform_costs(data, 2.0), LearnerConfig(kind="logistic"))
        assert data._present_counts is counts
        assert first.impute_values.tobytes() == second.impute_values.tobytes()

    def test_deterministic(self):
        data = gaussian_data(100, 100, seed=3)
        costs = uniform_costs(data)
        a = train(data, costs, LearnerConfig(kind="logistic"))
        b = train(data, costs, LearnerConfig(kind="logistic"))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.base_score == b.base_score


    def test_singular_newton_step_is_training_error(self):
        # the Hessian's entries are all about 2.5e22, so the fixed 1e-8 ridge
        # is lost against them and the Newton system is singular
        n = 10
        data = WeightedDataset(
            features=np.ones((n, 1)),
            labels=np.array([1, -1] * (n // 2)),
            weights=np.geomspace(3e16, 8e22, n),
            event_ids=np.arange(n),
            column_names=("x0",),
        )
        costs = make_cost_vector(data, 1.0, AMS2)
        with pytest.raises(TrainingError, match="^logistic Newton step failed: the Hessian is singular"):
            train(data, costs, LearnerConfig(kind="logistic"))


class TestSerialization:
    def test_round_trip_boosted(self, tmp_path):
        data = gaussian_data(150, 150, seed=12)
        model = train(
            data,
            make_cost_vector(data, 0.4, AMS3),
            LearnerConfig(kind="tree-boost", rounds=5),
        ).with_threshold(0.125)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        back = load_model(str(path))
        assert back.kind == model.kind
        assert back.threshold == model.threshold
        assert back.base_score == model.base_score
        np.testing.assert_array_equal(
            predict_scores(back, data), predict_scores(model, data)
        )
        again = tmp_path / "again.txt"
        save_model(back, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_round_trip_logistic(self, tmp_path):
        data = gaussian_data(80, 80, seed=1)
        model = train(data, uniform_costs(data), LearnerConfig(kind="logistic"))
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        back = load_model(str(path))
        np.testing.assert_array_equal(back.coefficients, model.coefficients)
        np.testing.assert_array_equal(back.impute_values, model.impute_values)
        np.testing.assert_array_equal(
            predict_scores(back, data), predict_scores(model, data)
        )

    def test_logistic_vector_counts_checked(self, tmp_path):
        # Model compares each vector's length with the feature count, which
        # a negative count (read as no entries) would pass with 0 features
        model = Model(kind="logistic", n_features=0, base_score=0.0,
                      coefficients=np.zeros(0), impute_values=np.zeros(0))
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        text = path.read_text()
        assert load_model(str(path)).coefficients.shape == (0,)
        for old, new in (("coefficients 0", "coefficients -1"), ("impute 0", "impute -2")):
            path.write_text(text.replace(old, new))
            with pytest.raises(DataError):
                load_model(str(path))

    def test_rejects_non_model_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(str(path))


def _reference_weighted_median(values, weights):
    """The weighted median with its own stable argsort of ``values``, the
    present values of one column in row order: the oracle for
    ``_weighted_median``, which reads the order from the dataset."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    if cum[-1] <= 0.0:
        return float(np.median(values))
    pos = np.searchsorted(cum, 0.5 * cum[-1])
    return float(values[order[min(pos, values.size - 1)]])


# ties, signed zeros and NaN are frequent among these cells, and zero costs
# among these costs, so the all-zero-cost np.median fallback is reached
MEDIAN_CELLS = st.sampled_from([math.nan, -0.0, 0.0, 1.0, 1.0, -3.0]) | st.floats(
    -1e6, 1e6, allow_nan=False
)
MEDIAN_COSTS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])


class TestLogisticInputs:
    """The imputation values and design matrix of ``_train_logistic``."""

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(st.tuples(MEDIAN_CELLS, MEDIAN_COSTS), min_size=1, max_size=15))
    def test_weighted_median_matches_sort_per_call(self, cells):
        col = np.array([value for value, _ in cells])
        costs = np.array([cost for _, cost in cells])
        present = ~np.isnan(col)
        if not present.any():
            return
        order = _sorted_rows(col[:, None])[0, :np.count_nonzero(present)]
        got = learner_module._weighted_median(col, order, costs)
        expected = _reference_weighted_median(col[present], costs[present])
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("values", [[0.0, -0.0, 2.0], [-0.0, 0.0, 0.0, -0.0], [3.0, 1.0]])
    def test_weighted_median_zero_cost_fallback(self, values):
        col = np.array(values + [math.nan])
        order = _sorted_rows(col[:, None])[0, :len(values)]  # the present prefix
        got = learner_module._weighted_median(col, order, np.zeros(col.size))
        expected = np.median(np.array(values))
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_design_matrix_matches_hstack(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(50, 4))
        features[rng.random((50, 4)) < 0.3] = np.nan
        features[:, 2] = np.nan
        features[rng.random(50) < 0.2, 3] = -0.0
        impute = np.array([0.5, -0.0, 0.0, 1.25])
        got = learner_module._design_matrix(features, impute)
        expected = np.hstack([np.ones((50, 1)), learner_module._impute(features, impute)])
        assert got.flags.c_contiguous and got.dtype == expected.dtype
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _reference_safe_ratio(g, h):
    return g * g / h if h > 0.0 else 0.0


def _reference_build_tree(
    features, g, h, costs, learning_rate, max_depth, min_child_weight
):
    """Exact greedy growth with one scalar step per split candidate.

    The oracle for ``_build_tree``'s array scan: it visits every
    (feature, boundary, missing side) candidate in scan order and keeps a
    candidate only when its gain is strictly greater than the best so far.
    """
    rows = []

    def leaf_value(idx):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        return -learning_rate * G / H if H > 0.0 else 0.0

    def best_split(idx):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        parent = _reference_safe_ratio(G, H)
        best = None
        for j in range(features.shape[1]):
            col = features[idx, j]
            nan_mask = np.isnan(col)
            present = idx[~nan_mask]
            if present.size < 2:
                continue
            missing = idx[nan_mask]
            order = np.argsort(col[~nan_mask], kind="stable")
            sorted_idx = present[order]
            v = col[~nan_mask][order]
            boundaries = np.flatnonzero(v[1:] > v[:-1]) + 1
            if boundaries.size == 0:
                continue
            g_cum = np.cumsum(g[sorted_idx])
            h_cum = np.cumsum(h[sorted_idx])
            c_cum = np.cumsum(costs[sorted_idx])
            g_tot, h_tot, c_tot = g_cum[-1], h_cum[-1], c_cum[-1]
            g_miss = float(g[missing].sum())
            h_miss = float(h[missing].sum())
            c_miss = float(costs[missing].sum())
            for k in boundaries:
                gl, hl, cl = g_cum[k - 1], h_cum[k - 1], c_cum[k - 1]
                gr, hr, cr = g_tot - gl, h_tot - hl, c_tot - cl
                for miss_goes_left in (True, False):
                    if miss_goes_left:
                        GL, HL, CL = gl + g_miss, hl + h_miss, cl + c_miss
                        GR, HR, CR = gr, hr, cr
                    else:
                        GL, HL, CL = gl, hl, cl
                        GR, HR, CR = gr + g_miss, hr + h_miss, cr + c_miss
                    if CL < min_child_weight or CR < min_child_weight:
                        continue
                    gain = (
                        _reference_safe_ratio(GL, HL)
                        + _reference_safe_ratio(GR, HR)
                        - parent
                    )
                    if gain <= 0.0:
                        continue
                    if best is None or gain > best[0]:
                        best = (gain, j, float(v[k]), miss_goes_left)
        return None if best is None else best[1:]

    def build(idx, depth):
        split = None if depth >= max_depth or idx.size < 2 else best_split(idx)
        if split is None:
            rows.append(_leaf_row(leaf_value(idx)))
            return
        j, cut, miss_left = split
        go_left = _goes_left(features[idx, j], cut, miss_left)
        node = len(rows)
        rows.append(None)
        build(idx[go_left], depth + 1)
        rows[node] = (j, cut, node + 1, len(rows), miss_left, 0.0)
        build(idx[~go_left], depth + 1)

    build(np.arange(features.shape[0]), 0)
    return Tree._from_rows(rows)


def _dataset_of(features, labels):
    """A unit-weight dataset over ``features`` and ``labels``."""
    n, d = features.shape
    return WeightedDataset(
        features=features, labels=labels, weights=np.ones(n), event_ids=np.arange(n),
        column_names=tuple(f"x{j}" for j in range(d)),
    )


def _split_search_inputs(seed, n=120, zero_cost_share=0.0, nan_share=0.15):
    """Integer-valued columns (so gains tie) with NaN cells and edge columns.

    Column 1 repeats column 0, so equal gains across features occur; column 2
    is constant; column 3 has a single present value; column 4 is NaN at
    random.
    """
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 4, size=(n, 5)).astype(float)
    features[rng.random(n) < nan_share, 0] = np.nan
    features[:, 1] = features[:, 0]
    features[:, 2] = 7.0
    features[:, 3] = np.nan
    features[rng.integers(n), 3] = 1.0
    features[rng.random(n) < 2 * nan_share, 4] = np.nan
    return (features, *_newton_terms(rng, n, zero_cost_share))


def _newton_terms(rng, n, zero_cost_share=0.0):
    """Gradients, hessians and costs of ``n`` rows at random labels and scores."""
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    costs = rng.choice([0.5, 1.0, 2.0], size=n)
    costs[rng.random(n) < zero_cost_share] = 0.0
    scores = rng.normal(0.0, 0.5, size=n)
    g = surrogate_gradient(costs, labels, scores)
    h = surrogate_hessian(costs, labels, scores)
    return g, h, costs


_BATCH_KINDS = ("continuous", "tied", "nan-middle")


def _batch_inputs(seed, kind, n=120):
    """Seven columns, which the nodes of a few rows scan in one batch.

    ``continuous`` and ``tied`` (integer values, column 1 repeating column 0)
    hold no NaN, so no row of a node is missing; ``nan-middle`` makes
    columns 2 and 3 NaN in the same n / 5 rows and column 4 in as many other
    random rows, so the root's batch mixes features with and without
    missing rows, each with its own missing sums.
    """
    rng = np.random.default_rng(seed)
    if kind == "tied":
        features = rng.integers(0, 4, size=(n, 7)).astype(float)
        features[:, 1] = features[:, 0]
    else:
        features = rng.normal(size=(n, 7))
    if kind == "nan-middle":
        features[rng.permutation(n)[:n // 5], 2:4] = np.nan
        features[rng.permutation(n)[:n // 5], 4] = np.nan
    return (features, *_newton_terms(rng, n))


def _mixed_batch_inputs(seed, n=80):
    """Four columns, with missing rows in the odd ones: 0 continuous, 1 of
    four levels with a third of its rows NaN, 2 of four levels, 3 continuous
    with a fifth of its rows NaN."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    features[:, 1:3] = rng.integers(0, 4, size=(n, 2))
    features[rng.random(n) < 1 / 3, 1] = np.nan
    features[rng.random(n) < 1 / 5, 3] = np.nan
    return (features, *_newton_terms(rng, n))


def _tree_bytes(tree):
    return [
        getattr(tree, name).tobytes()
        for name in ("feature", "threshold", "left", "right", "missing_left", "value")
    ]


def _tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(
        _tree_depth(tree, int(tree.left[node])), _tree_depth(tree, int(tree.right[node]))
    )


def _exact_tree(features, *args, order=None):
    """``_build_tree`` on every row of ``features``, from their column order
    (or ``order``, a block of the same rows)."""
    n = features.shape[0]
    order = _sorted_rows(features) if order is None else order
    # through the module, so that _spy_cost_rule sees the call
    return learner_module._build_tree(features, *args, order, np.zeros(n))


class _BatchSlices(np.ndarray):
    """A column-order block that notes, in ``batches``, each slice of
    features the split search takes from it or from its children's blocks."""

    def __array_finalize__(self, obj):
        self.batches = getattr(obj, "batches", None)

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            self.batches.append((key.start, np.asarray(out)))
        return out


def _scanned_batches(features, *args):
    """``_exact_tree``'s tree and its batches as (start, width, sides, rows):
    a node of ``rows`` rows scans features start to start + width, with two
    missing sides where one of them is NaN in some of the node's rows."""
    order = _sorted_rows(features).view(_BatchSlices)
    order.batches = []
    tree = _exact_tree(features, *args, order=order)
    batches = []
    for start, block in order.batches:
        width, rows = block.shape
        missing = np.isnan(features[block, np.arange(start, start + width)[:, None]]).any()
        batches.append((start, width, 2 if missing else 1, rows))
    return tree, batches


def _spy_candidate_forms(monkeypatch):
    """The set the split search adds each scanned batch's (form, sides) to.

    A batch with a cut builds its gains from arrays of its candidates, with a
    last axis of missing sides where it has two.  ``form`` is "masked" where
    they are views of the cumulative sums at every position of the
    (features, positions) block, one axis more than the sides need, and
    "gathered" where they hold the cuts only, in arrays of their own.
    """
    split_gains, forms = learner_module._split_gains, set()

    def gains(GL, *rest):
        # a batch with a cut takes its gains once, guarded or not
        masked = not GL.flags.owndata
        forms.add(("masked" if masked else "gathered", GL.ndim - masked))
        return split_gains(GL, *rest)

    monkeypatch.setattr(learner_module, "_split_gains", gains)
    return forms


def _spy_hessian_guard(monkeypatch):
    """The list the split search appends each gain batch's path to, in scan
    order: "guarded" where the node's hessians may let a child's sum reach
    0, "unguarded" where they clear the margin that rules it out."""
    split_gains, paths = learner_module._split_gains, []

    def gains(*args):
        paths.append("guarded" if args[-1] else "unguarded")
        return split_gains(*args)

    monkeypatch.setattr(learner_module, "_split_gains", gains)
    return paths


class _CostGathers(np.ndarray):
    """A cost array that notes whether the split search gathers from it."""

    def __getitem__(self, key):
        self.gathered = True
        return np.asarray(self)[key]


def _spy_cost_rule(monkeypatch):
    """The set the grower adds each tree's path of the min_child_weight rule to.

    A split search that evaluates the rule gathers costs to sum them; one
    that skips it only takes their least value and total.  So a tree is
    "evaluated" where its costs were gathered, "skipped" where it split with
    no gather, and "no split" where it is one leaf, which tells neither.
    """
    build_tree, paths = learner_module._build_tree, set()

    def spy(features, g, h, costs, *rest):
        costs = np.asarray(costs).view(_CostGathers)
        costs.gathered = False
        tree = build_tree(features, g, h, costs, *rest)
        paths.add("evaluated" if costs.gathered else "skipped" if tree.n_nodes > 1 else "no split")
        return tree

    monkeypatch.setattr(learner_module, "_build_tree", spy)
    return paths


def _column_cases(n):
    """One column of ``n`` cells: continuous, 2-4 levels, constant, signed
    zeros, or a mix of NaN and few levels."""
    def cells(elements):
        return st.lists(elements, min_size=n, max_size=n)

    return st.one_of(
        cells(st.floats(-100.0, 100.0, allow_nan=False)),
        st.integers(2, 4).flatmap(lambda k: cells(st.integers(0, k - 1).map(float))),
        st.floats(-3.0, 3.0, allow_nan=False).map(lambda c: [c] * n),
        cells(st.sampled_from([-1.0, -0.0, 0.0, 1.0])),
        cells(st.sampled_from([math.nan, math.nan, 0.0, 1.0, 2.0])),
    )


@st.composite
def _grower_cases(draw):
    """Small trees: features, g, h and costs of small integers (so gains tie),
    learning rate, depth and min_child_weight.  Costs start at 0, 1 or 5, so
    the least cost falls below, on or above the floor of 0, 1 or 5."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    features = np.array([draw(_column_cases(n)) for _ in range(d)]).T
    cost_low = draw(st.sampled_from([0, 1, 5]))
    g, h, costs = (
        np.array(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)), dtype=float)
        for low, high in ((-3, 3), (0, 3), (cost_low, cost_low + 3))
    )
    depth = draw(st.integers(1, 4))
    return features, g, h, costs, 0.5, depth, draw(st.sampled_from([0.0, 1.0, 5.0]))


_GROWER_FUZZ = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSplitSearchOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("depth", [1, 3, 5])
    @pytest.mark.parametrize(
        "min_child_weight,zero_cost_share",
        [(0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (25.0, 0.2)],
        ids=["mcw0", "mcw1", "zero-costs", "mcw-prunes"],
    )
    def test_trees_match_scalar_scan(self, seed, depth, min_child_weight, zero_cost_share):
        features, g, h, costs = _split_search_inputs(seed, zero_cost_share=zero_cost_share)
        args = (features, g, h, costs, 0.3, depth, min_child_weight)
        expected = _reference_build_tree(*args)
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(expected)

    def test_inputs_cover_both_missing_sides_and_ties(self):
        # the oracle cases above only show agreement if they reach both
        # missing sides and split on the first of two equal columns
        sides, features_used = set(), set()
        for seed in range(6):
            for zero_cost_share in (0.0, 0.3):
                args = _split_search_inputs(seed, zero_cost_share=zero_cost_share)
                tree = _reference_build_tree(*args, 0.3, 3, 0.0)
                internal = tree.feature >= 0
                features_used.update(tree.feature[internal].tolist())
                # a split on column 0 with NaN rows present takes a side
                sides.update(tree.missing_left[internal & (tree.feature == 0)].tolist())
        assert sides == {True, False}
        assert 0 in features_used and 1 not in features_used

    def test_deep_inputs_reach_the_depth_limit(self):
        # the depth-5 oracle cases above partition each feature's sorted rows
        # several levels down only if their trees grow that deep
        depths = [
            _tree_depth(_reference_build_tree(*_split_search_inputs(seed), 0.3, 5, 0.0))
            for seed in range(6)
        ]
        assert max(depths) == 5

    def test_min_child_weight_prunes_every_candidate(self):
        features, g, h, costs = _split_search_inputs(0)
        args = (features, g, h, costs, 0.3, 3, float(costs.sum()))
        expected = _reference_build_tree(*args)
        assert expected.n_nodes == 1
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(expected)

    def test_fewer_than_two_present_rows(self):
        features = np.array([[np.nan], [np.nan], [3.0], [np.nan]])
        g = np.array([-1.0, 1.0, -1.0, 1.0])
        h = np.ones(4)
        args = (features, g, h, np.ones(4), 0.3, 3, 0.0)
        expected = _reference_build_tree(*args)
        assert expected.n_nodes == 1
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(expected)

    def test_child_with_fewer_than_two_present_rows(self):
        # the root splits on column 0; in its left child column 1 has one
        # present row and column 2 none, while column 3 still splits it.  The
        # present row sits inside column 1's other values, so no cut of
        # column 1 reproduces column 0's partition
        rng = np.random.default_rng(0)
        n = 60
        features = rng.normal(size=(n, 4))
        left = rng.random(n) < 0.5
        features[:, 0] = np.where(left, 0.0, 1.0)
        features[left, 1] = np.nan
        features[np.flatnonzero(left)[0], 1] = 0.0
        features[left, 2] = np.nan
        g = np.where(left, -2.0, 2.0) + 0.5 * features[:, 3]
        h = np.ones(n)
        args = (features, g, h, np.ones(n), 0.3, 3, 0.0)
        expected = _reference_build_tree(*args)
        assert expected.feature[0] == 0 and expected.threshold[0] == 1.0
        assert expected.feature[1] == 3
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_straddling_the_cut(self, seed):
        # column 0 ties all rows of one block at 0 and all others at 1;
        # column 1 gives the block distinct values rising with the row index.
        # Both cut at the block's edge with the rows summed in the same
        # order, so the gains tie exactly and column 0 wins.  Any other order
        # within column 0's tied rows rounds its sums differently, which in
        # some of these seeds lets column 1 win.
        rng = np.random.default_rng(seed)
        n = 200
        block = rng.random(n) < 0.5
        features = np.empty((n, 2))
        features[:, 0] = np.where(block, 0.0, 1.0)
        features[:, 1] = np.where(block, np.arange(n) / n, 2.0)
        g = np.where(block, -1.0, 1.0) * rng.uniform(0.5, 1.5, size=n)
        h = rng.uniform(0.5, 1.5, size=n)
        args = (features, g, h, np.ones(n), 0.3, 3, 0.0)
        expected = _reference_build_tree(*args)
        assert expected.feature[0] == 0 and expected.threshold[0] == 1.0
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(expected)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "min_child_weight,unsampled_cost,path",
        [(0.0, None, "skipped"), (0.4, 0.25, "evaluated")],
        ids=["costs-clear-the-floor", "unsampled-cost-below-the-floor"],
    )
    def test_subsampled_round(self, seed, min_child_weight, unsampled_cost, path, monkeypatch):
        # _fit_round grows the tree on the round's sampled rows only, but
        # takes the cost rule's margin over every row's cost: a cost below
        # the floor on a row left out of the sample keeps the rule
        features, _, _, costs = _split_search_inputs(seed)
        n = features.shape[0]
        rng = np.random.default_rng(seed + 100)
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        scores = rng.normal(0.0, 0.5, size=n)
        config = LearnerConfig(
            kind="tree-boost", learning_rate=0.3, max_depth=4,
            min_child_weight=min_child_weight, seed=seed, subsample=0.7,
        )
        rows = np.sort(learner_module._round_rng(seed, 2).permutation(n)[:round(0.7 * n)])
        if unsampled_cost is not None:
            costs[np.setdiff1d(np.arange(n), rows)[0]] = unsampled_cost
        dataset = _dataset_of(features, labels)
        paths = _spy_cost_rule(monkeypatch)
        tree = learner_module._fit_round(dataset, costs, scores.copy(), config, 2)
        assert paths == {path}
        g = surrogate_gradient(costs, labels, scores)[rows]
        h = surrogate_hessian(costs, labels, scores)[rows]
        expected = _reference_build_tree(
            features[rows], g, h, costs[rows], 0.3, 4, min_child_weight
        )
        assert _tree_depth(expected) >= 3
        assert _tree_bytes(tree) == _tree_bytes(expected)

    @pytest.mark.parametrize("subsample", [0.3, 0.7, 0.01])
    def test_subsample_block_is_the_samples_own_order(self, subsample, monkeypatch):
        # _fit_round marks the sampled rows and filters the full set's block
        # down to them; it must equal the stable argsort of the sample's own
        # feature matrix, NaN rows last, in the full set's row numbers
        features, _, _, costs = _split_search_inputs(1)
        features[::7, 2] = -0.0
        features[::5, 2] = 0.0
        n = features.shape[0]
        grown = []
        monkeypatch.setattr(
            learner_module, "_build_tree", lambda *args: grown.append(args) or None
        )
        config = LearnerConfig(kind="tree-boost", seed=4, subsample=subsample)
        dataset = _dataset_of(features, np.where(np.arange(n) % 3 == 0, 1, -1))
        learner_module._fit_round(dataset, costs, np.zeros(n), config, 1)
        rows = np.sort(learner_module._round_rng(4, 1).permutation(n)[:max(1, round(subsample * n))])
        (args,) = grown
        root_order, sample = args[7], args[9]
        assert args[0] is dataset.features
        np.testing.assert_array_equal(np.flatnonzero(sample), rows)
        expected = rows[np.argsort(features[rows], axis=0, kind="stable").T]
        assert np.isnan(features[rows]).any()
        assert root_order.dtype == np.int64 and root_order.shape == expected.shape
        np.testing.assert_array_equal(root_order, expected)

    def test_subsampled_round_without_features(self):
        # a zero-feature set reshapes its empty sampled block and grows leaves
        n = 20
        labels = np.where(np.arange(n) % 3 == 0, 1, -1)
        dataset = _dataset_of(np.empty((n, 0)), labels)
        costs = make_cost_vector(dataset, 1.0, AMS3)
        config = LearnerConfig(kind="tree-boost", rounds=3, seed=2, subsample=0.5)
        model = train(dataset, costs, config)
        assert model.n_trees == 3 and all(tree.n_nodes == 1 for tree in model.trees)
        assert np.all(np.isfinite(predict_scores(model, dataset)))

    @pytest.mark.parametrize("seed", range(4))
    def test_overflowing_gains(self, seed):
        # gradients near 1e155 overflow g * g to inf, so some gains are
        # inf - inf = NaN; NaN compares false in both the skip rules and the
        # strict >, and the first candidate taken decides
        features, g, h, costs = _split_search_inputs(seed, n=40)
        g = g * 1e155
        args = (features, g, h, costs, 0.3, 3, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _reference_build_tree(*args)
            got = _exact_tree(*args)
        assert _tree_bytes(got) == _tree_bytes(expected)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("depth", [1, 3, 5])
    @pytest.mark.parametrize("min_child_weight", [0.0, 1.0], ids=["mcw0", "mcw1"])
    @pytest.mark.parametrize("kind", _BATCH_KINDS)
    def test_batched_features_match_scalar_scan(self, kind, min_child_weight, depth, seed):
        args = (*_batch_inputs(seed, kind), 0.3, depth, min_child_weight)
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(_reference_build_tree(*args))

    @pytest.mark.parametrize("cells", [1, 2**40])
    @pytest.mark.parametrize("kind", ["nan-edges", *_BATCH_KINDS])
    def test_any_batch_budget_gives_the_same_trees(self, kind, cells, monkeypatch):
        # one feature per batch, and every feature of a node in one
        monkeypatch.setattr(learner_module, "_SPLIT_CELLS", cells)
        for seed in range(3):
            inputs = _split_search_inputs(seed) if kind == "nan-edges" else _batch_inputs(seed, kind)
            args = (*inputs, 0.3, 4, 0.0)
            assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(_reference_build_tree(*args))

    @pytest.mark.parametrize("first_gradient,cut", [(1.0, 1.0), (0.0, 2.0)])
    def test_nan_gain_after_the_first_kept_candidate(self, first_gradient, cut):
        # the hessian at row 1 is inf, so from the cut at 2 on HL is inf; at
        # that cut GL overflows too and its gain is inf / inf = NaN, while
        # the node's own G and the other cuts stay finite.  A NaN is final
        # only when no kept gain comes before it: with a first gradient of 1
        # the cut at 1 has a gain of 1 and wins, with 0 it is not kept and
        # the NaN at 2 is taken
        features = np.arange(5.0)[:, None]
        g = np.array([first_gradient, 2e154, -2e154, 1.0, -1.0])
        h = np.array([1.0, math.inf, 1.0, 1.0, 1.0])
        args = (features, g, h, np.ones(5), 0.3, 1, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _reference_build_tree(*args)
            got = _exact_tree(*args)
        assert expected.threshold[0] == cut
        assert _tree_bytes(got) == _tree_bytes(expected)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_overflowing_gains_without_missing_rows(self, kind, seed):
        # as test_overflowing_gains, where one missing side is scanned
        features, g, h, costs = _batch_inputs(seed, kind, n=40)
        args = (features, g * 1e155, h, costs, 0.3, 3, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _reference_build_tree(*args)
            got = _exact_tree(*args)
        assert _tree_bytes(got) == _tree_bytes(expected)

    def test_batches_are_slices_of_the_node_block(self, monkeypatch):
        # a node of L rows scans slices of max(1, _SPLIT_CELLS // L) features:
        # 2 at the root's 5 rows, then 5 and 3 in its children of 2 and 3
        # rows; the one NaN cell, in row 3, gives its batches two sides
        monkeypatch.setattr(learner_module, "_SPLIT_CELLS", 10)
        features = np.arange(25.0).reshape(5, 5)
        features[3, 2] = np.nan
        g = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
        tree, batches = _scanned_batches(features, g, np.ones(5), np.ones(5), 0.3, 2, 0.0)
        assert (tree.feature[0], tree.threshold[0]) == (0, 10.0)
        assert batches == [
            (0, 2, 1, 5), (2, 2, 2, 5), (4, 1, 1, 5), (0, 5, 1, 2), (0, 3, 2, 3), (3, 2, 1, 3),
        ]

    @pytest.mark.parametrize("cells", [None, 1, 2**40])
    def test_batch_inputs_reach_wide_batches(self, cells, monkeypatch):
        # the batch cases above test the batched scan only if their nodes
        # scan several features at once, with one missing side where no row
        # misses, and with two in one batch of every feature at nan-middle's
        # root, which mixes features with and without missing rows
        if cells is not None:
            monkeypatch.setattr(learner_module, "_SPLIT_CELLS", cells)
        seen = {}  # kind -> its (start, width, sides) batches
        for kind in _BATCH_KINDS:
            seen[kind] = set()
            for seed in range(3):
                _, batches = _scanned_batches(*_batch_inputs(seed, kind), 0.3, 3, 0.0)
                seen[kind].update(batch[:3] for batch in batches)
        if cells == 1:
            assert {width for found in seen.values() for _, width, _ in found} == {1}
            return
        for kind in ("continuous", "tied"):
            assert {sides for _, _, sides in seen[kind]} == {1}
            assert max(width for _, width, _ in seen[kind]) == 7
        assert (0, 7, 2) in seen["nan-middle"]
        assert any(width >= 2 and sides == 1 for _, width, sides in seen["nan-middle"])

    @pytest.mark.parametrize("cells", [1, 2**40])
    def test_batch_mixing_features_with_and_without_missing_rows(self, cells, monkeypatch):
        # at 2^40 each node scans all four features in one batch, two of them
        # with missing rows; the trees split on features of both kinds
        monkeypatch.setattr(learner_module, "_SPLIT_CELLS", cells)
        split_on = set()
        for seed in range(4):
            args = (*_mixed_batch_inputs(seed), 0.3, 3, 0.0)
            tree, batches = _scanned_batches(*args)
            assert batches[0] == ((0, 1, 1, 80) if cells == 1 else (0, 4, 2, 80))
            assert _tree_bytes(tree) == _tree_bytes(_reference_build_tree(*args))
            split_on.update(tree.feature[tree.feature >= 0].tolist())
        assert {0, 2} & split_on and {1, 3} & split_on

    @pytest.mark.parametrize("cells", [1, 2**40])
    def test_batch_with_features_of_no_and_one_present_row(self, cells, monkeypatch):
        # as above, with column 4 NaN in every row and column 5 present in
        # one, so a batch also holds features with no cut and a NaN tail of
        # every row or all but one
        monkeypatch.setattr(learner_module, "_SPLIT_CELLS", cells)
        for seed in range(4):
            features, g, h, costs = _mixed_batch_inputs(seed)
            features = np.hstack([features, np.full((80, 2), np.nan)])
            features[seed, 5] = 2.0
            args = (features, g, h, costs, 0.3, 3, 0.0)
            tree, batches = _scanned_batches(*args)
            if cells > 1:
                assert batches[0] == (0, 6, 2, 80)
            expected = _reference_build_tree(*args)
            assert expected.n_nodes > 1 and not {4, 5} & set(expected.feature.tolist())
            assert _tree_bytes(tree) == _tree_bytes(expected)

    def test_oracle_inputs_reach_both_candidate_forms(self, monkeypatch):
        # the oracle cases above test both ways of picking a batch's
        # candidates only if they scan masked batches (continuous columns)
        # and gathered ones (few levels), gathered ones with one missing side
        # and two; a batch with missing rows is never masked
        forms = _spy_candidate_forms(monkeypatch)
        for seed in range(3):
            _exact_tree(*_split_search_inputs(seed), 0.3, 3, 0.0)
            for kind in _BATCH_KINDS:
                _exact_tree(*_batch_inputs(seed, kind), 0.3, 3, 0.0)
        assert forms == {("masked", 1), ("gathered", 1), ("gathered", 2)}

    @pytest.mark.parametrize("sides", [1, 2])
    @pytest.mark.parametrize(
        "top,form", [(4.0, "masked"), (3.0, "gathered")], ids=["at-cut-over", "one-cut-below"]
    )
    def test_batch_at_the_cut_over(self, top, form, sides, monkeypatch):
        # column 0 holds pairs of tied values: 8 positions between its 9
        # present rows, 4 of them cuts (masked, exactly half) or 3 (gathered).
        # Column 1 has the same values, so both scan in one batch.  Splitting
        # the tied pair at 0 would have the largest gain, so a masked scan
        # must drop the positions that are not cuts.  A NaN row gives the
        # batch two missing sides, and such a batch is always gathered
        values = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, top] + [math.nan] * (sides - 1)
        features = np.array([values, values]).T
        n = features.shape[0]
        g = np.array([-3.0, 3.0, 1.0, 1.0, -1.0, -1.0, 0.5, 2.0, -2.0, 1.5][:n])
        args = (features, g, np.ones(n), np.ones(n), 0.3, 1, 0.0)
        forms = _spy_candidate_forms(monkeypatch)
        got = _exact_tree(*args)
        assert forms == {(form if sides == 1 else "gathered", sides)}
        expected = _reference_build_tree(*args)
        assert expected.feature[0] == 0
        assert _tree_bytes(got) == _tree_bytes(expected)

    @_GROWER_FUZZ
    @given(_grower_cases())
    def test_small_trees_match_scalar_scan(self, args):
        assert _tree_bytes(_exact_tree(*args)) == _tree_bytes(_reference_build_tree(*args))

    def test_small_trees_reach_both_cost_rule_paths(self, monkeypatch):
        # the fuzz above draws the same examples, and holds both paths of the
        # min_child_weight rule to the oracle only if it reaches them
        paths = _spy_cost_rule(monkeypatch)

        @_GROWER_FUZZ
        @given(_grower_cases())
        def grow(args):
            _exact_tree(*args)

        grow()
        assert {"evaluated", "skipped"} <= paths

    def test_oracle_inputs_reach_both_cost_rule_paths(self, monkeypatch):
        # the oracle cases above test the skipped cost rule only if some of
        # their trees clear the floor by the margin (every cost of 0.5 or
        # more against a floor of 0) and others do not (a floor of 1 or 25,
        # or zero costs)
        paths = _spy_cost_rule(monkeypatch)
        for min_child_weight, zero_cost_share in ((0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (25.0, 0.2)):
            _exact_tree(*_split_search_inputs(0, zero_cost_share=zero_cost_share), 0.3, 3,
                        min_child_weight)
        assert paths == {"evaluated", "skipped"}
        paths.clear()
        for kind in _BATCH_KINDS:
            for min_child_weight in (0.0, 1.0):
                _exact_tree(*_batch_inputs(0, kind), 0.3, 3, min_child_weight)
        assert paths == {"evaluated", "skipped"}

    @pytest.mark.parametrize("scale", [1.0, 1e-316], ids=["normal", "margin-underflows"])
    def test_least_cost_on_the_floor(self, scale, monkeypatch):
        # c_min == min_child_weight leaves no margin, so the rule is
        # evaluated; at subnormal costs the margin 4 n eps total rounds to 0,
        # and c_min - min_child_weight = 0 must still not clear it
        features, g, h, costs = _split_search_inputs(2)
        costs = costs * scale
        margin = 4 * costs.size * np.finfo(float).eps * costs.sum()
        assert (margin == 0.0) == (scale < 1.0)
        args = (features, g, h, costs, 0.3, 3, float(costs.min()))
        paths = _spy_cost_rule(monkeypatch)
        got = _exact_tree(*args)
        assert paths == {"evaluated"}
        assert _tree_bytes(got) == _tree_bytes(_reference_build_tree(*args))

    @pytest.mark.parametrize(
        "min_child_weight,zero_cost_share", [(0.0, 0.2), (1.0, 0.2), (0.0, 1.0)],
        ids=["floor-0", "floor-1", "every-cost-zero"],
    )
    def test_zero_cost(self, min_child_weight, zero_cost_share, monkeypatch):
        # a zero cost leaves no margin over any floor >= 0, so the rule is
        # evaluated; with every cost and the floor 0 the margin is 0 too
        features, g, h, costs = _split_search_inputs(3, zero_cost_share=zero_cost_share)
        if zero_cost_share == 1.0:
            g, h = _newton_terms(np.random.default_rng(3), features.shape[0])[:2]
        assert costs.min() == 0.0
        args = (features, g, h, costs, 0.3, 3, min_child_weight)
        paths = _spy_cost_rule(monkeypatch)
        got = _exact_tree(*args)
        assert paths == {"evaluated"}
        assert _tree_bytes(got) == _tree_bytes(_reference_build_tree(*args))

    @pytest.mark.parametrize("min_child_weight", [0.0, 1.0])
    def test_nan_cost(self, min_child_weight, monkeypatch):
        # a NaN cost makes c_min NaN, which clears no margin: the rule is
        # evaluated, and any cost sum past the NaN row compares false, so no
        # candidate is skipped on its account
        features, g, h, costs = _split_search_inputs(4)
        costs[[5, 60]] = math.nan
        args = (features, g, h, costs, 0.3, 3, min_child_weight)
        paths = _spy_cost_rule(monkeypatch)
        got = _exact_tree(*args)
        assert paths == {"evaluated"}
        assert _tree_bytes(got) == _tree_bytes(_reference_build_tree(*args))

    def test_right_cost_sum_rounds_below_the_floor(self, monkeypatch):
        # costs 1e20, 1e20, 1, 1 in value order: the prefix sum absorbs both
        # ones, so CR = fl(T - B) is 0 at the cuts at 2 and 3, though every
        # cost clears the floor of 0.5.  The cut at 3 has the larger gain, and
        # the rule, evaluated here since the margin is not cleared, leaves the
        # cut at 1
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([1.0, 1.0, 1.0, -5.0])
        args = (features, g, np.ones(4), np.array([1e20, 1e20, 1.0, 1.0]), 0.3, 1, 0.5)
        paths = _spy_cost_rule(monkeypatch)
        got = _exact_tree(*args)
        assert paths == {"evaluated"}
        expected = _reference_build_tree(*args)
        assert expected.threshold[0] == 1.0
        assert _tree_bytes(got) == _tree_bytes(expected)

    def test_oracle_inputs_reach_both_hessian_paths(self, monkeypatch):
        # the oracle cases above test both paths of the hessian guard only if
        # some nodes clear its margin (every cost positive) and others do not
        # (zero costs give zero hessians, here in every node)
        paths = _spy_hessian_guard(monkeypatch)
        for seed in range(3):
            _exact_tree(*_split_search_inputs(seed, zero_cost_share=0.3), 0.3, 3, 0.0)
        assert set(paths) == {"guarded"}
        paths.clear()
        for seed in range(3):
            _exact_tree(*_split_search_inputs(seed), 0.3, 3, 0.0)
            for kind in _BATCH_KINDS:
                _exact_tree(*_batch_inputs(seed, kind), 0.3, 3, 0.0)
        assert set(paths) == {"unguarded"}

    def test_small_trees_reach_both_hessian_paths(self, monkeypatch):
        # the fuzz above draws the same examples, and holds both paths of the
        # hessian guard to the oracle only if it reaches them: its hessians
        # are integers from 0
        paths = _spy_hessian_guard(monkeypatch)

        @_GROWER_FUZZ
        @given(_grower_cases())
        def grow(args):
            _exact_tree(*args)

        grow()
        assert set(paths) == {"guarded", "unguarded"}

    @pytest.mark.parametrize("zeros", [[0], [0, 7, 33], "all"])
    def test_zero_hessian(self, zeros, monkeypatch):
        # a zero hessian leaves no margin, and a child of only zero-hessian
        # rows has HL or HR = 0, whose g * g / 0 the guard sets to 0.  With
        # every hessian zero the margin is 0 too, and 0 must not clear it
        features, g, h, costs = _split_search_inputs(5)
        h[slice(None) if zeros == "all" else zeros] = 0.0
        args = (features, g, h, costs, 0.3, 3, 0.0)
        paths = _spy_hessian_guard(monkeypatch)
        got = _exact_tree(*args)
        assert paths[0] == "guarded"
        assert _tree_bytes(got) == _tree_bytes(_reference_build_tree(*args))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hessian(self, value, monkeypatch):
        # a NaN hessian makes h_min NaN, and an inf one the margin inf; neither
        # clears it, so every node holding such a row keeps the guard
        features, g, h, costs = _split_search_inputs(6)
        h[[5, 60]] = value
        args = (features, g, h, costs, 0.3, 3, 0.0)
        paths = _spy_hessian_guard(monkeypatch)
        with np.errstate(invalid="ignore"):  # inf - inf in a right child's sum
            got = _exact_tree(*args)
            expected = _reference_build_tree(*args)
        assert paths[0] == "guarded"
        assert _tree_bytes(got) == _tree_bytes(expected)

    def test_subnormal_hessians(self, monkeypatch):
        # hessians of 1 to 3 times the least subnormal: the margin
        # 4 n eps h_total underflows to 0, but every sum of such hessians is
        # exact, so no child's sum reaches 0 and the guard is dropped.  The
        # gradients are scaled so that g * g / h is exact and finite
        features, _, _, costs = _split_search_inputs(7)
        rng = np.random.default_rng(7)
        n = features.shape[0]
        g = rng.integers(-3, 4, size=n) * 2.0**-537
        h = rng.integers(1, 4, size=n) * 2.0**-1074
        assert 4 * n * np.finfo(float).eps * h.sum() == 0.0
        args = (features, g, h, costs, 0.3, 3, 0.0)
        paths = _spy_hessian_guard(monkeypatch)
        got = _exact_tree(*args)
        assert set(paths) == {"unguarded"}
        expected = _reference_build_tree(*args)
        assert _tree_depth(expected) == 3
        assert _tree_bytes(got) == _tree_bytes(expected)

    def test_right_hessian_sum_rounds_to_zero(self, monkeypatch):
        # hessians 1e20, 1e20, 1, 1 in value order: the prefix sum absorbs
        # both ones, so HR = fl(T - B) is 0 at the cuts at 2 and 3, though
        # every hessian is > 0.  The margin is not cleared, so the guard sets
        # those children's ratios to 0 and the cut at 1 wins; unguarded,
        # (-4)^2 / 0 would be inf at the cut at 2
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([1.0, 1.0, 1.0, -5.0])
        h = np.array([1e20, 1e20, 1.0, 1.0])
        args = (features, g, h, np.ones(4), 0.3, 1, 0.0)
        paths = _spy_hessian_guard(monkeypatch)
        got = _exact_tree(*args)
        assert paths == ["guarded"]
        expected = _reference_build_tree(*args)
        assert expected.threshold[0] == 1.0
        assert _tree_bytes(got) == _tree_bytes(expected)

    def test_child_clears_the_margin_its_parent_does_not(self, monkeypatch):
        # row 0's zero hessian keeps the guard at the root and in the left
        # child, where the cut at 1 has HL = 0; the right child's hessians
        # are all 1 and clear the margin.  The reverse cannot happen: a
        # child's least hessian is no smaller than its parent's, and its sum
        # no larger
        features = np.arange(8.0)[:, None]
        g = np.array([-2.0, -2.0, -2.0, -2.0, 1.0, 3.0, -1.0, 2.0])
        h = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        args = (features, g, h, np.ones(8), 0.3, 2, 0.0)
        paths = _spy_hessian_guard(monkeypatch)
        got = _exact_tree(*args)
        assert paths == ["guarded", "guarded", "unguarded"]
        expected = _reference_build_tree(*args)
        assert list(expected.threshold[expected.feature >= 0]) == [4.0, 2.0, 6.0]
        assert _tree_bytes(got) == _tree_bytes(expected)


class TestGrowerOutput:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("subsample", [1.0, 0.7, 0.05])
    def test_scores_gain_the_trees_output(self, subsample, depth):
        # the grower routes every row, sampled or not, NaN cells and -0.0
        # cells tied with 0.0 included, to its leaf, and adds the leaf's value
        # to the row's score
        features, _, _, costs = _split_search_inputs(depth, n=200)
        zeros = np.flatnonzero(features[:, 0] == 0.0)
        features[zeros[::2], 0] = -0.0
        n = features.shape[0]
        labels = np.where(np.arange(n) % 3 == 0, 1, -1)
        scores = np.random.default_rng(depth).normal(0.0, 0.5, size=n)
        config = LearnerConfig(
            kind="tree-boost", learning_rate=0.3, max_depth=depth, min_child_weight=0.0,
            seed=5, subsample=subsample,
        )
        dataset = _dataset_of(features, labels)
        grown = scores.copy()
        tree = learner_module._fit_round(dataset, costs, grown, config, 3)
        assert tree.n_nodes > 1
        assert grown.tobytes() == (scores + tree.predict(features)).tobytes()


def _reference_predict(tree, features):
    """One tree's outputs by a per-node stack walk over row index sets.

    The oracle for ``_walk``'s level-by-level walk: each node routes
    exactly the rows that reached it, and a leaf writes its value to them.
    """
    out = np.empty(features.shape[0], dtype=float)
    stack = [(0, np.arange(features.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        go_left = _goes_left(
            features[idx, tree.feature[node]],
            tree.threshold[node],
            tree.missing_left[node],
        )
        stack.append((int(tree.left[node]), idx[go_left]))
        stack.append((int(tree.right[node]), idx[~go_left]))
    return out


def _reference_scores(model, features):
    scores = np.full(features.shape[0], model.base_score, dtype=float)
    for tree in model.trees:
        scores += _reference_predict(tree, features)
    return scores


def _prediction_inputs(seed=0, n=60):
    """A model mixing stumps, depth-3 and single-leaf trees, and rows with
    NaN cells in two of three columns."""
    data = gaussian_data(n // 2, n // 2, separation=1.0, seed=seed)
    rng = np.random.default_rng(seed)
    features = data.features.copy()
    features[rng.random(n) < 0.2, 0] = np.nan
    features[rng.random(n) < 0.2, 2] = np.nan
    data = WeightedDataset(
        features=features,
        labels=data.labels,
        weights=data.weights,
        event_ids=data.event_ids,
        column_names=data.column_names,
    )
    costs = uniform_costs(data)
    stumps = train(data, costs, LearnerConfig(kind="stump-boost", rounds=4, seed=seed))
    deep = train(data, costs, LearnerConfig(kind="tree-boost", rounds=4, max_depth=3))
    # one split on each missing side, so NaN cells take both
    both_sides = Tree._from_rows(
        [
            (0, 0.0, 1, 4, True, 0.0),
            (2, 0.5, 2, 3, False, 0.0),
            _leaf_row(-0.5),
            _leaf_row(0.75),
            _leaf_row(0.125),
        ]
    )
    leaf = Tree._from_rows([_leaf_row(0.3)])
    trees = (leaf,) + stumps.trees[:2] + deep.trees[:2] + (both_sides, leaf)
    trees += stumps.trees[2:] + deep.trees[2:]
    model = Model(kind="tree-boost", n_features=3, base_score=stumps.base_score, trees=trees)
    return model, features


def _wide_range_model(n_features=3, n_trees=40, seed=0):
    """Leaf values of either sign from 1e-8 to 2e8, where the order of
    summation shows in the last bits."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        low, high = rng.choice([-1.0, 1.0], 2) * rng.uniform(1.0, 2.0, 2) * 10.0 ** rng.integers(-8, 9, 2)
        trees.append(
            Tree._from_rows(
                [(int(rng.integers(n_features)), 0.0, 1, 2, bool(rng.integers(2)), 0.0),
                 _leaf_row(low), _leaf_row(high)]
            )
        )
    return Model(kind="stump-boost", n_features=n_features, base_score=0.1, trees=tuple(trees))


# cells and thresholds drawn from one pool, so cells equal thresholds; NaN
# is drawn for cells only, since a Tree rejects a NaN split threshold
ROUTING_POOL = (-1.0, 0.0, 0.5, 2.0, math.inf, -math.inf)


@st.composite
def valid_trees(draw, n_features):
    """A tree as a model file allows it: children follow their parent and lie
    inside the tree, and a node may have two parents or none.

    Nodes are numbered level by level and a split's children lie on later
    levels, so the walk takes at most ``depth`` steps (0 to 6).
    """
    depth = draw(st.integers(0, 6))
    starts = np.cumsum([0, 1] + [draw(st.integers(1, 3)) for _ in range(depth)])
    n_nodes = int(starts[-1])
    rows = []
    for level in range(depth + 1):
        for _ in range(starts[level], starts[level + 1]):
            if level == depth or draw(st.integers(0, 3)) == 0:
                rows.append(_leaf_row(draw(st.floats(-100.0, 100.0))))
                continue
            child = st.integers(int(starts[level + 1]), n_nodes - 1)
            rows.append((
                draw(st.integers(0, n_features - 1)),
                draw(st.sampled_from(ROUTING_POOL)),
                draw(child),
                draw(child),
                draw(st.booleans()),
                0.0,
            ))
    return Tree._from_rows(rows)


@st.composite
def prediction_cases(draw):
    n_features = draw(st.integers(1, 4))
    trees = draw(st.lists(valid_trees(n_features), max_size=5))
    model = Model(
        kind="tree-boost",
        n_features=n_features,
        base_score=draw(st.floats(-10.0, 10.0)),
        trees=tuple(trees),
    )
    cell = st.one_of(st.sampled_from(ROUTING_POOL + (math.nan,)), st.floats(-3.0, 3.0))
    n_rows = draw(st.integers(0, 40))
    features = np.array(
        draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features),
                      min_size=n_rows, max_size=n_rows)),
        dtype=float,
    ).reshape(n_rows, n_features)
    # small blocks cut the rows, the trees or both
    block_cells = draw(st.sampled_from([1, 2, 3, 7, 64, learner_module._BLOCK_CELLS]))
    block_rows = draw(st.sampled_from([1, 2, 5, learner_module._BLOCK_ROWS]))
    return model, features, block_cells, block_rows


def _table_arrays(table):
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in vars(table).items()}


class TestPredictionOracle:
    def _assert_matches(self, model, features):
        assert predict_scores(model, features).tobytes() == (
            _reference_scores(model, features).tobytes()
        )
        for tree in model.trees:
            assert tree.predict(features).tobytes() == _reference_predict(tree, features).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_trees_with_missing_values(self, seed):
        model, features = _prediction_inputs(seed)
        self._assert_matches(model, features)

    def test_inputs_cover_both_missing_sides(self):
        model, features = _prediction_inputs(0)
        nan_rows = np.isnan(features[:, 0])
        tree = model.trees[5]
        assert nan_rows.any()
        # NaN in column 0 goes left at the root, then right at node 1
        nan_both = nan_rows & np.isnan(features[:, 2])
        assert nan_both.any()
        assert np.all(_reference_predict(tree, features)[nan_both] == 0.75)
        depths = {int(np.count_nonzero(t.feature >= 0)) for t in model.trees}
        assert {0, 1}.issubset(depths) and max(depths) >= 3

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_few_rows(self, n_rows):
        model, features = _prediction_inputs(1)
        self._assert_matches(model, features[:n_rows])
        assert predict_scores(model, features[:n_rows]).shape == (n_rows,)

    def test_no_trees(self):
        model, features = _prediction_inputs(1)
        empty = Model(kind="tree-boost", n_features=3, base_score=0.25)
        self._assert_matches(empty, features)
        self._assert_matches(empty, features[:0])

    @pytest.mark.parametrize("n_rows", [1, 2, 7, 50])
    def test_summation_order(self, n_rows):
        model = _wide_range_model()
        features = np.random.default_rng(n_rows).normal(size=(n_rows, 3))
        self._assert_matches(model, features)

    def test_wide_range_detects_pairwise_summation(self):
        # the summation test only holds the order if another order differs
        # (np.add.reduce sums one row pairwise)
        model = _wide_range_model()
        rows = np.random.default_rng(1).normal(size=(5, 3))
        differs = []
        for features in np.split(rows, 5):
            outputs = [np.full(1, model.base_score)]
            outputs += [_reference_predict(tree, features) for tree in model.trees]
            reduced = np.add.reduce(np.array(outputs), axis=0)
            differs.append(reduced.tobytes() != _reference_scores(model, features).tobytes())
        assert any(differs)

    @staticmethod
    def _block_shapes(model, features):
        """The (rows, block shape) of each block of a walk, in order."""
        return [
            (rows.indices(features.shape[0])[:2], block.shape)
            for rows, block in learner_module._tree_blocks(model._node_table, features)
        ]

    def test_rows_in_many_blocks(self, monkeypatch):
        model, features = _prediction_inputs(2)
        monkeypatch.setattr(learner_module, "_BLOCK_ROWS", 1)
        # a block holds _BLOCK_CELLS (tree, row) pairs: 7 rows per block, and
        # a short last block
        monkeypatch.setattr(learner_module, "_BLOCK_CELLS", 7 * model.n_trees + 1)
        assert features.shape[0] % 7 != 0
        shapes = self._block_shapes(model, features)
        assert {shape for _, shape in shapes[:-1]} == {(model.n_trees, 7)}
        assert shapes[-1][1] == (model.n_trees, features.shape[0] % 7)
        self._assert_matches(model, features)
        # one row per block, below the smallest block
        monkeypatch.setattr(learner_module, "_BLOCK_CELLS", 1)
        self._assert_matches(model, features)

    def test_row_block_spans_tree_blocks(self, monkeypatch):
        model, features = _prediction_inputs(2)
        features = features[:57]
        # 8 rows per block and a one-row last block; 3 trees per block and
        # a short last tree block
        monkeypatch.setattr(learner_module, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(learner_module, "_BLOCK_CELLS", 28)
        shapes = self._block_shapes(model, features)
        tree_blocks = [3] * (model.n_trees // 3) + [model.n_trees % 3]
        assert 0 < model.n_trees % 3 and len(tree_blocks) > 2
        assert shapes == [
            ((start, min(start + 8, 57)), (trees, min(8, 57 - start)))
            for start in range(0, 57, 8)
            for trees in tree_blocks
        ]
        assert shapes[-1][1][1] == 1
        self._assert_matches(model, features)

    def test_blocks_keep_rows_together(self):
        # a row block holds every row, or at least _BLOCK_ROWS of them
        model = _wide_range_model(n_trees=500)
        for n_rows in (150, 255, 256, 1000):
            shapes = self._block_shapes(model, np.zeros((n_rows, 3)))
            rows = {stop - start for (start, stop), _ in shapes}
            assert min(rows) >= min(n_rows, learner_module._BLOCK_ROWS)
            assert max(trees * n for _, (trees, n) in shapes) <= learner_module._BLOCK_CELLS

    def test_predict_memory_budget(self):
        for n_features, n_trees, n_rows in (
            # a 500-stump model over 150 rows stays in small blocks and
            # builds no (trees, rows) matrix
            (3, 500, 150),
            # one tree over 5,000 rows of 30 columns, in row blocks of 2,500
            # rows: a transposed copy of a row block would take 600,000 bytes
            (30, 1, 5000),
        ):
            model = _wide_range_model(n_features, n_trees)
            features = np.random.default_rng(0).normal(size=(n_rows, n_features))
            expected = predict_scores(model, features)  # builds the node table
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                scores = predict_scores(model, features)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert scores.tobytes() == expected.tobytes()
            assert peak - start <= 256 * 1024, (n_features, n_trees, n_rows)

    # The walk's first step reads each tree's root column for every row of
    # a row block at once; the cases below hold that gather to the stack walk.

    @pytest.mark.parametrize("tree_step", [1, 2, 3])
    def test_tree_blocks_that_start_with_single_leaf_trees(self, tree_step, monkeypatch):
        model, features = _prediction_inputs(3)
        leaf = model.trees[0]
        trees = (leaf, leaf) + model.trees[1:3] + (leaf, leaf, leaf) + model.trees[3:]
        model = replace(model, trees=trees)
        features = features.copy()
        features[::4, 0] = np.nan  # a leaf reads column 0 and routes NaN left
        n_rows = features.shape[0]
        monkeypatch.setattr(learner_module, "_BLOCK_ROWS", n_rows)
        monkeypatch.setattr(learner_module, "_BLOCK_CELLS", tree_step * n_rows)
        shapes = self._block_shapes(model, features)
        assert shapes[0] == ((0, n_rows), (tree_step, n_rows))
        # a tree block after the first starts with a single-leaf tree; with
        # 1 or 2 trees per block, one holds single-leaf trees only
        assert any(trees[first].n_nodes == 1 for first in range(tree_step, len(trees), tree_step))
        self._assert_matches(model, features)

    @pytest.mark.parametrize("missing_left", [True, False])
    def test_missing_root_cells(self, missing_left):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(40, 3))
        features[rng.random((40, 3)) < 0.3] = np.nan
        features[:, 2] = np.nan  # a column with no present cell
        trees = tuple(
            Tree._from_rows([(j, 0.0, 1, 2, missing_left, 0.0), _leaf_row(-1.5 - j),
                             _leaf_row(2.5 + j)])
            for j in range(3)
        )
        model = Model(kind="stump-boost", n_features=3, base_score=0.0, trees=trees)
        self._assert_matches(model, features)
        for j, tree in enumerate(trees):
            out = tree.predict(features)[np.isnan(features[:, j])]
            assert out.size and np.all(out == (-1.5 - j if missing_left else 2.5 + j))

    def test_one_row_blocks_cut_inside_the_trees(self, monkeypatch):
        model, features = _prediction_inputs(4)
        monkeypatch.setattr(learner_module, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(learner_module, "_BLOCK_CELLS", 3)
        shapes = self._block_shapes(model, features)
        assert {n for _, (_, n) in shapes} == {1}
        assert len(shapes) == features.shape[0] * -(-model.n_trees // 3)
        assert model.n_trees % 3  # the last tree block of each row is short
        self._assert_matches(model, features)

    def test_sliced_and_fortran_ordered_features(self):
        model, features = _prediction_inputs(5, n=80)
        wide = np.hstack([features, features[:, ::-1]])
        for view in (features[::2], features[1::3], wide[:, :3], np.asfortranarray(features),
                     np.asfortranarray(wide)[5:50, :3]):
            assert not view.flags.c_contiguous
            self._assert_matches(model, view)
            expected = predict_scores(model, np.ascontiguousarray(view))
            assert predict_scores(model, view).tobytes() == expected.tobytes()

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(prediction_cases())
    def test_random_trees_match_the_stack_walk(self, case):
        model, features, block_cells, block_rows = case
        with mock.patch.multiple(
            learner_module, _BLOCK_CELLS=block_cells, _BLOCK_ROWS=block_rows
        ):
            self._assert_matches(model, features)

    def test_one_table_per_model(self, monkeypatch):
        model, features = _prediction_inputs(0)
        built = []

        class Spy(learner_module._NodeTable):
            def __init__(self, trees):
                built.append(trees)
                super().__init__(trees)

        monkeypatch.setattr(learner_module, "_NodeTable", Spy)
        first = predict_scores(model, features)
        assert predict_scores(model, features[:3]).tobytes() == first[:3].tobytes()
        assert len(built) == 1 and built[0] is model.trees
        # the table is no field: a copy with another threshold builds its own
        moved = model.with_threshold(0.5)
        assert "_node_table" not in repr(moved)
        assert predict_scores(moved, features).tobytes() == first.tobytes()
        assert len(built) == 2 and built[1] is model.trees

    def test_train_builds_no_model_table(self):
        data = gaussian_data(40, 40, seed=3)
        model = train(data, uniform_costs(data), LearnerConfig(kind="tree-boost", rounds=3))
        assert "_node_table" not in vars(model)

    def test_train_builds_no_table(self, monkeypatch):
        # the grower adds each new tree's output to the training scores, so
        # train scores no tree through a node table
        built = []

        class Spy(learner_module._NodeTable):
            def __init__(self, trees):
                built.append(trees)
                super().__init__(trees)

        monkeypatch.setattr(learner_module, "_NodeTable", Spy)
        data = gaussian_data(40, 40, seed=3)
        for subsample in (1.0, 0.5):
            config = LearnerConfig(kind="tree-boost", rounds=3, subsample=subsample)
            assert train(data, uniform_costs(data), config).n_trees == 3
        assert built == []

    def test_boosted_model_extends_the_prior_table(self):
        data = gaussian_data(40, 40, seed=3)
        costs = uniform_costs(data)
        config = LearnerConfig(kind="tree-boost", rounds=1, max_depth=3, seed=3)
        model = train(data, costs, config)
        for _ in range(3):
            model = boost_one_round(model, data, costs, config)
            grown = _table_arrays(model._node_table)
            assert grown == _table_arrays(learner_module._NodeTable(model.trees))
        # an empty model has no table to extend, so its successor builds one
        first = boost_one_round(empty_model("tree-boost", 3), data, costs, config)
        assert "_node_table" not in vars(first)
        np.testing.assert_array_equal(
            predict_scores(first, data), _reference_scores(first, data.features)
        )

    def test_predict_takes_a_matrix_with_every_split_column(self):
        stump = Tree._from_rows([(2, 0.0, 1, 2, True, 0.0), _leaf_row(-1.0), _leaf_row(1.0)])
        with pytest.raises(DataError):
            stump.predict(np.array([-1.0, 5.0, 3.0]))
        with pytest.raises(DataError):
            stump.predict(np.zeros((2, 2)))
        np.testing.assert_array_equal(stump.predict(np.array([[0, 0, -1.0], [0, 0, 3.0]])), [-1, 1])
        # trees are fit on all of a dataset's columns and may use only some
        np.testing.assert_array_equal(stump.predict(np.zeros((2, 5))), [1.0, 1.0])
        leaf = Tree._from_rows([_leaf_row(0.5)])
        np.testing.assert_array_equal(leaf.predict(np.zeros((3, 0))), [0.5, 0.5, 0.5])
        with pytest.raises(DataError):
            leaf.predict(np.zeros(3))

    def test_loaded_model(self, tmp_path):
        model, features = _prediction_inputs(0)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        loaded = load_model(str(path))
        self._assert_matches(loaded, features)
        assert predict_scores(loaded, features).tobytes() == (
            predict_scores(model, features).tobytes()
        )

    def test_loaded_node_with_two_parents(self, tmp_path):
        # the format only asks children to follow their parent, so a file may
        # send both sides of a split to one node
        path = tmp_path / "model.txt"
        path.write_text(
            "amscascade model format 1\nkind tree-boost\nfeatures 1\n"
            "base_score 0.0\nthreshold 0.0\ntrees 1\ntree 0 nodes 4\n"
            "node 0 split 0 0.0 1 1 left\nnode 1 split 0 1.0 2 3 right\n"
            "node 2 leaf -1.0\nnode 3 leaf 2.0\nend\n"
        )
        model = load_model(str(path))
        features = np.array([[-1.0], [0.5], [1.5], [np.nan]])
        self._assert_matches(model, features)
        np.testing.assert_array_equal(predict_scores(model, features), [-1.0, -1.0, 2.0, 2.0])

    def test_loaded_chain_of_shared_nodes(self, tmp_path):
        # sixty splits that each send both sides to the next node: the walk
        # takes one step per level, where following every path would take
        # 2**60 (so the stack-walk oracle is left out here)
        nodes = [f"node {k} split 0 0.0 {k + 1} {k + 1} left\n" for k in range(60)]
        path = tmp_path / "model.txt"
        path.write_text(
            "amscascade model format 1\nkind tree-boost\nfeatures 1\n"
            "base_score 0.0\nthreshold 0.0\ntrees 1\ntree 0 nodes 61\n"
            + "".join(nodes) + "node 60 leaf 0.5\nend\n"
        )
        model = load_model(str(path))
        features = np.array([[-1.0], [1.0], [np.nan]])
        np.testing.assert_array_equal(predict_scores(model, features), [0.5, 0.5, 0.5])


class TestTreeStructure:
    @pytest.mark.parametrize(
        "rows",
        [
            # its own child: the walk used to loop for ever
            [(0, 0.0, 0, 0, True, 0.0)],
            # a child past the end
            [(0, 0.0, 1, 2, True, 0.0), _leaf_row(1.0)],
            # a child before its parent, a cycle through node 0
            [(0, 0.0, 1, 2, True, 0.0), (0, 1.0, 0, 2, False, 0.0), _leaf_row(1.0)],
            [(0, 0.0, -1, 1, True, 0.0), _leaf_row(1.0)],
        ],
    )
    def test_child_outside_the_tree(self, rows):
        with pytest.raises(ValueError, match="child outside the tree"):
            Tree._from_rows(rows)

    def test_nan_split_threshold_is_value_error(self):
        # NaN compares false, so the node would send every present row right;
        # a leaf's threshold is NaN and stays unchecked
        rows = [(0, math.nan, 1, 2, True, 0.0), _leaf_row(1.0), _leaf_row(2.0)]
        with pytest.raises(ValueError, match="^split node 0 has a NaN threshold$"):
            Tree._from_rows(rows)

    def test_array_shapes(self):
        leaf = dict(feature=[-1], threshold=[math.nan], left=[-1], right=[-1],
                    missing_left=[True], value=[0.5])
        assert Tree(**leaf).n_nodes == 1
        for name in leaf:
            with pytest.raises(ValueError, match="one shape"):
                Tree(**{**leaf, name: leaf[name] * 2})
        with pytest.raises(ValueError, match="non-empty"):
            Tree(**{name: [] for name in leaf})
        with pytest.raises(ValueError, match="1-D"):
            Tree(**{name: [value] for name, value in leaf.items()})

    @pytest.mark.parametrize(
        "missing_left, sends_left",
        [
            ([True, False, False], True),
            (np.array([False, True, True]), False),
            ([1, 0, 0], True),
            ([0.0, 1.0, 1.0], False),
            (np.array([1, 0, 0], dtype=np.uint8), True),
        ],
    )
    def test_missing_left_takes_bools_and_exact_zero_or_one(self, missing_left, sends_left):
        tree = Tree(feature=[0, -1, -1], threshold=[0.5, math.nan, math.nan], left=[1, -1, -1],
                    right=[2, -1, -1], missing_left=missing_left, value=[0.0, 1.0, 2.0])
        assert tree.missing_left.dtype == bool
        assert tree.predict(np.array([[math.nan]])).tolist() == [1.0 if sends_left else 2.0]

    @pytest.mark.parametrize(
        "missing_left, shown",
        [
            ([0.5, 0.0, 0.0], "0.5"),
            ([1, 2, 0], "2"),
            ([-1, 0, 0], "-1"),
            ([1.0, math.nan, 0.0], "nan"),
            ([1.0, 0.0, math.inf], "inf"),
            (["left", "right", "right"], "an array of <U5"),
            ([None, None, None], "an array of object"),
        ],
    )
    def test_missing_left_outside_zero_one_is_value_error(self, missing_left, shown):
        with pytest.raises(ValueError, match=f"missing_left must be 0 or 1, got {shown}"):
            Tree(feature=[0, -1, -1], threshold=[0.5, math.nan, math.nan], left=[1, -1, -1],
                 right=[2, -1, -1], missing_left=missing_left, value=[0.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ("tree 0 nodes 1\nnode 0 split 0 0.0 0 0 left\n", "child outside the tree"),
            ("tree 0 nodes 2\nnode 0 split 0 0.0 1 2 left\nnode 1 leaf 1.0\n",
             "child outside the tree"),
            ("tree 0 nodes 0\n", "non-empty"),
        ],
    )
    def test_load_model_reports_a_bad_tree(self, tmp_path, nodes, message):
        path = tmp_path / "model.txt"
        path.write_text(
            "amscascade model format 1\nkind tree-boost\nfeatures 1\n"
            "base_score 0.0\nthreshold 0.0\ntrees 1\n" + nodes + "end\n"
        )
        with pytest.raises(DataError, match=message):
            load_model(str(path))


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LearnerConfig(kind="forest")
        with pytest.raises(ConfigError):
            LearnerConfig(rounds=0)
        with pytest.raises(ConfigError):
            LearnerConfig(learning_rate=1.5)
        with pytest.raises(ConfigError):
            LearnerConfig(subsample=0.0)
        with pytest.raises(ConfigError):
            LearnerConfig(max_depth=0)
        with pytest.raises(ConfigError):
            LearnerConfig(seed=-1)
        with pytest.raises(ConfigError):
            LearnerConfig(min_child_weight=-0.5)
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                LearnerConfig(min_child_weight=value)

    def test_zero_learning_rate_allowed(self):
        assert LearnerConfig(learning_rate=0.0).learning_rate == 0.0

    def test_stump_depth_override(self):
        assert LearnerConfig(kind="stump-boost", max_depth=7).depth == 1
        assert LearnerConfig(kind="tree-boost", max_depth=7).depth == 7
