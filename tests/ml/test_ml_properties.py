"""Hypothesis property tests for metrics, calibration and the logistic fit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.calibration import (
    expected_calibration_error,
    miscalibration,
    reliability_bins,
)
from repro.ml.logistic import LogisticRegressionClassifier, _indicator_blocks, _sigmoid
from repro.ml.metrics import accuracy_score, confusion_matrix, f1_score, roc_auc_score
from repro.rng import as_generator

sizes = st.integers(min_value=1, max_value=200)


@st.composite
def scores_and_labels(draw):
    n = draw(sizes)
    scores = draw(
        hnp.arrays(
            dtype=float,
            shape=n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    labels = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(0, 1)))
    return scores, labels


@st.composite
def prediction_pairs(draw):
    n = draw(sizes)
    y_true = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(0, 1)))
    y_pred = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(0, 1)))
    return y_true, y_pred


class TestMetricProperties:
    @given(prediction_pairs())
    def test_accuracy_in_unit_interval(self, pair):
        y_true, y_pred = pair
        assert 0.0 <= accuracy_score(y_true, y_pred) <= 1.0

    @given(prediction_pairs())
    def test_accuracy_from_confusion_matrix(self, pair):
        y_true, y_pred = pair
        matrix = confusion_matrix(y_true, y_pred)
        assert accuracy_score(y_true, y_pred) == (matrix[0, 0] + matrix[1, 1]) / matrix.sum()

    @given(prediction_pairs())
    def test_f1_in_unit_interval(self, pair):
        y_true, y_pred = pair
        assert 0.0 <= f1_score(y_true, y_pred) <= 1.0

    @given(scores_and_labels())
    def test_auc_in_unit_interval(self, data):
        scores, labels = data
        assert 0.0 <= roc_auc_score(labels, scores) <= 1.0

    @given(scores_and_labels())
    def test_auc_symmetry_under_label_flip(self, data):
        scores, labels = data
        if len(np.unique(labels)) < 2:
            return
        auc = roc_auc_score(labels, scores)
        flipped = roc_auc_score(1 - labels, scores)
        assert abs((auc + flipped) - 1.0) < 1e-9


class TestCalibrationProperties:
    @given(scores_and_labels())
    def test_miscalibration_bounded(self, data):
        scores, labels = data
        assert 0.0 <= miscalibration(scores, labels) <= 1.0

    @given(scores_and_labels(), st.integers(min_value=1, max_value=30))
    def test_ece_bounded(self, data, n_bins):
        scores, labels = data
        assert 0.0 <= expected_calibration_error(scores, labels, n_bins) <= 1.0

    @given(scores_and_labels(), st.integers(min_value=1, max_value=30))
    def test_ece_lower_bounded_by_overall_miscalibration(self, data, n_bins):
        """Binning refines the trivial single-bin partition, so ECE >= |e - o|.

        This is the same triangle-inequality argument as the paper's Theorem 1,
        applied to score bins instead of neighborhoods.
        """
        scores, labels = data
        assert (
            expected_calibration_error(scores, labels, n_bins)
            >= miscalibration(scores, labels) - 1e-9
        )

    @given(scores_and_labels(), st.integers(min_value=1, max_value=30))
    def test_reliability_bins_population_preserved(self, data, n_bins):
        scores, labels = data
        bins = reliability_bins(scores, labels, n_bins)
        assert sum(b.count for b in bins) == scores.size

    @settings(max_examples=50)
    @given(scores_and_labels())
    def test_ece_of_labels_as_scores_is_zero(self, data):
        _, labels = data
        scores = labels.astype(float)
        assert expected_calibration_error(scores, labels, 10) < 1e-9


class DenseLogisticOracle(LogisticRegressionClassifier):
    """The logistic fit with every column kept dense: two full products per epoch.

    This is the straightforward loop the factored fit must reproduce; it
    shares the initialisation, loss, step-halving rule and tolerance test.
    """

    def _fit(self, features, labels, sample_weight):
        n_records, n_features = features.shape
        rng = as_generator(self._seed)
        weights = rng.normal(0.0, 0.01, size=n_features)
        intercept = 0.0
        normalized_weight = sample_weight / sample_weight.sum()
        step = self._learning_rate
        previous_loss = np.inf

        for iteration in range(self._max_iter):
            logits = features @ weights + intercept
            probabilities = _sigmoid(logits)
            error = (probabilities - labels) * normalized_weight
            gradient_w = features.T @ error + self._regularization * weights / n_records
            gradient_b = float(error.sum())

            loss = self._loss(labels, probabilities, normalized_weight, weights)
            if loss > previous_loss + 1e-12:
                step *= 0.5
            previous_loss = loss

            weights -= step * gradient_w
            intercept -= step * gradient_b
            self._n_iterations = iteration + 1
            if max(np.abs(gradient_w).max(initial=0.0), abs(gradient_b)) < self._tol:
                break

        self._weights = weights
        self._intercept = intercept


@st.composite
def logistic_problems(draw):
    """Dense columns, indicator blocks and 0/1 columns, in any column order.

    A block's rows may hold no category, and a block may carry an all-zero
    column or be a single column.  An overlap column copies a block column
    with one more 1, so it is 0/1 yet shares rows with that block.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
        pieces.append(draw(hnp.arrays(dtype=float, shape=(n, 1), elements=values)))
    for _ in range(draw(st.integers(0, 2))):
        width = draw(st.integers(1, 5))
        codes = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(-1, width - 1)))
        block = (codes[:, None] == np.arange(width)).astype(float)
        if draw(st.booleans()):
            block = np.hstack([block, np.zeros((n, 1))])
        pieces.append(block)
        if draw(st.booleans()):
            overlap = block[:, :1].copy()
            overlap[draw(st.integers(0, n - 1))] = 1.0
            pieces.append(overlap)
    order = draw(st.permutations(range(len(pieces))))
    features = np.hstack([pieces[i] for i in order]) if pieces else np.zeros((n, 0))
    labels = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(0, 1)))
    sample_weight = None
    if draw(st.booleans()):
        sample_weight = draw(
            hnp.arrays(dtype=float, shape=n, elements=st.floats(min_value=0.1, max_value=5.0))
        )
    params = dict(
        learning_rate=draw(st.sampled_from([0.1, 0.5, 2.0])),
        max_iter=draw(st.integers(1, 60)),
        regularization=draw(st.sampled_from([0.0, 1e-3, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    return features, labels, sample_weight, params


class TestFactoredLogisticFit:
    @settings(max_examples=200, deadline=None)
    @given(logistic_problems())
    def test_matches_dense_oracle(self, problem):
        features, labels, sample_weight, params = problem
        fitted = LogisticRegressionClassifier(**params).fit(features, labels, sample_weight)
        oracle = DenseLogisticOracle(**params).fit(features, labels, sample_weight)
        assert fitted.n_iterations == oracle.n_iterations
        if not _indicator_blocks(features)[1]:
            assert np.array_equal(fitted.coefficients, oracle.coefficients)
            assert fitted.intercept == oracle.intercept
            assert np.array_equal(fitted.predict_proba(features), oracle.predict_proba(features))
            return
        np.testing.assert_allclose(fitted.coefficients, oracle.coefficients, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(fitted.intercept, oracle.intercept, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(
            fitted.predict_proba(features), oracle.predict_proba(features), rtol=1e-9
        )
