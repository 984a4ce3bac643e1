"""Weighted L2-regularised logistic regression trained by gradient descent."""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..exceptions import TrainingError
from ..registry import register_model
from ..rng import SeedLike, as_generator
from .base import Classifier


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function: ``exp`` only ever sees ``-|z|``."""
    exp_neg = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, exp_neg) / (1.0 + exp_neg)


def _indicator_blocks(
    features: np.ndarray,
) -> Tuple[Union[slice, np.ndarray], List[Tuple[slice, np.ndarray]]]:
    """Factor ``features`` into dense columns and one-hot indicator blocks.

    A block is a run of at least two adjacent columns that hold only 0.0/1.0
    with at most one 1 per row.  Runs are taken greedily from the left: a
    block ends where the next column would put a second 1 in some row.  Each
    block comes back as its column slice and one code per row, the offset of
    the row's 1 within the block, or the block width (a sentinel) for a row
    with no 1.  The dense columns come back as an index array, or as
    ``slice(None)`` (a view of the whole matrix) when there is no block.
    """
    n_features = features.shape[1]
    binary = np.all((features == 0.0) | (features == 1.0), axis=0)

    def one_per_row(start: int, stop: int) -> bool:
        return bool((features[:, start:stop] @ np.ones(stop - start)).max(initial=0.0) <= 1.0)

    blocks: List[Tuple[slice, np.ndarray]] = []
    start = 0
    while start < n_features:
        stop = start + 1
        if binary[start]:
            end = stop
            while end < n_features and binary[end]:
                end += 1
            # The longest valid prefix of the run [start, end), by bisection:
            # adding columns can only add 1s to a row.
            if one_per_row(start, end):
                stop = end
            while end - stop > 1:
                middle = (stop + end) // 2
                if one_per_row(start, middle):
                    stop = middle
                else:
                    end = middle
        width = stop - start
        if width >= 2:
            positions = features[:, start:stop] @ np.arange(1.0, width + 1.0)
            codes = positions.astype(np.intp) - 1
            codes[codes < 0] = width
            blocks.append((slice(start, stop), codes))
        start = stop
    if not blocks:
        return slice(None), []
    dense = np.ones(n_features, dtype=bool)
    for span, _ in blocks:
        dense[span] = False
    return np.flatnonzero(dense), blocks


@register_model(
    "logistic_regression",
    aliases=("logistic", "logreg"),
    summary="L2-regularised logistic regression (full-batch gradient descent)",
    paper_ref="Section 5.3.1",
    paper_order=0,
    config_fields={
        "learning_rate": "learning_rate",
        "max_iter": "max_iter",
        "regularization": "regularization",
        "seed": "seed",
    },
)
class LogisticRegressionClassifier(Classifier):
    """Binary logistic regression.

    Training minimises the weighted negative log-likelihood with an L2 penalty
    on the weights (not on the intercept) using full-batch gradient descent
    with a simple adaptive step size.  The implementation is deterministic for
    a fixed seed.  A one-hot block among the columns (see
    :func:`_indicator_blocks`) enters each epoch as a gather and a
    ``bincount`` over one code per row, so an epoch costs O(n·d) for ``d``
    other columns, not O(n·(d+k)) for a block of width ``k``.

    Parameters
    ----------
    learning_rate:
        Initial gradient-descent step size.
    max_iter:
        Maximum number of epochs.
    regularization:
        L2 penalty strength (``lambda``).
    tol:
        Convergence tolerance on the gradient's infinity norm.
    seed:
        Seed for weight initialisation.
    """

    def __init__(
        self,
        learning_rate: float = 0.1,
        max_iter: int = 300,
        regularization: float = 1e-3,
        tol: float = 1e-6,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if max_iter < 1:
            raise TrainingError("max_iter must be >= 1")
        if regularization < 0:
            raise TrainingError("regularization must be non-negative")
        self._learning_rate = float(learning_rate)
        self._max_iter = int(max_iter)
        self._regularization = float(regularization)
        self._tol = float(tol)
        self._seed = seed
        self._weights: Optional[np.ndarray] = None
        self._intercept: float = 0.0
        self._n_iterations: int = 0

    # -- training --------------------------------------------------------------

    def _fit(self, features: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray) -> None:
        n_records, n_features = features.shape
        rng = as_generator(self._seed)
        weights = rng.normal(0.0, 0.01, size=n_features)
        intercept = 0.0
        normalized_weight = sample_weight / sample_weight.sum()
        step = self._learning_rate
        previous_loss = np.inf
        dense_columns, blocks = _indicator_blocks(features)
        dense = features[:, dense_columns]
        gradient_w = np.empty(n_features)

        for iteration in range(self._max_iter):
            logits = dense @ weights[dense_columns] + intercept
            for span, codes in blocks:
                logits += np.append(weights[span], 0.0)[codes]
            probabilities = _sigmoid(logits)
            error = (probabilities - labels) * normalized_weight
            gradient_w[dense_columns] = dense.T @ error
            for span, codes in blocks:
                width = span.stop - span.start
                gradient_w[span] = np.bincount(codes, error, minlength=width + 1)[:width]
            gradient_w += self._regularization * weights / n_records
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

    def _loss(
        self,
        labels: np.ndarray,
        probabilities: np.ndarray,
        normalized_weight: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        eps = 1e-12
        log_likelihood = normalized_weight @ (
            labels * np.log(probabilities + eps) + (1 - labels) * np.log(1 - probabilities + eps)
        )
        penalty = 0.5 * self._regularization * float(weights @ weights) / labels.shape[0]
        return float(-log_likelihood + penalty)

    # -- inference -----------------------------------------------------------------

    def _predict_proba(self, features: np.ndarray) -> np.ndarray:
        assert self._weights is not None
        return _sigmoid(features @ self._weights + self._intercept)

    # -- introspection ---------------------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Learned feature weights (after :meth:`fit`)."""
        if self._weights is None:
            raise TrainingError("model has not been fitted")
        return self._weights.copy()

    @property
    def intercept(self) -> float:
        return self._intercept

    @property
    def n_iterations(self) -> int:
        """Number of gradient-descent epochs actually executed."""
        return self._n_iterations
