"""Learned stand-in for the expensive log-likelihood.

A ridge regression of the log-likelihood on the flat parameter vector,
refit in closed form at each collection interval. A refit adds the
interval's staged rows to a window that holds the rows of the last
REFIT_WINDOW (6) refits, so a batch stops affecting predictions six
refits after it arrived, and solves one linear system over the window:
the centred normal equations with a penalty of RIDGE_PENALTY (1e-3) x
the mean diagonal of the centred X^T X. The fit draws nothing. The
window is what makes a linear fit work here: the chains move, so a fit
over every row so far ranks held-out likelihoods poorly, and so does,
to a lesser degree, a window of four refits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError


@dataclass
class SurrogateBatch:
    """True-likelihood training rows collected from the replicas."""

    inputs: np.ndarray   # rows x parameter_count
    targets: np.ndarray  # rows, raw log-likelihood values

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ContractError("batch inputs must be 2-d")
        n = self.inputs.shape[0]
        if self.targets.shape != (n,):
            raise ContractError("batch row counts differ")
        if n and not np.all(np.isfinite(self.targets)):
            raise ContractError("batch targets must be finite true likelihoods")

    @property
    def rows(self) -> int:
        return self.inputs.shape[0]


REFIT_WINDOW = 6
RIDGE_PENALTY = 1e-3


class SurrogateModel:
    """Ridge regression of the log-likelihood on theta over the rows of
    the last REFIT_WINDOW train() calls.

    seed is accepted and ignored: the fit draws nothing.
    """

    def __init__(self, input_count: int, seed: int = 0):
        if input_count < 1:
            raise ContractError("surrogate input count must be >= 1")
        self.input_count = input_count
        self.train_count = 0
        self._window = deque(maxlen=REFIT_WINDOW)
        self._slope = np.zeros(input_count)
        self._offset = 0.0     # the fit's value at theta = 0

    def predict(self, theta) -> float:
        """The fit's estimate for one parameter vector."""
        if self.train_count == 0:
            raise ContractError("surrogate queried before first training")
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self._slope.shape:
            raise ContractError(f"surrogate input has shape {theta.shape}, "
                                f"expected {self._slope.shape}")
        return float(self._offset + theta @ self._slope)

    def train(self, batch: SurrogateBatch) -> float:
        """Add batch to the window and refit; returns the window's RMSE
        divided by its target range (0 when every target is equal)."""
        if batch.rows == 0:
            raise ContractError("train called with an empty batch")
        if batch.inputs.shape[1] != self.input_count:
            raise ContractError(
                f"batch rows have {batch.inputs.shape[1]} values, expected "
                f"{self.input_count}")
        self._window.append(batch)
        inputs = np.concatenate([b.inputs for b in self._window])
        targets = np.concatenate([b.targets for b in self._window])
        # centred through the first row, so that a column or target that
        # never changes centres to exact zeros: then equal targets fit a
        # zero slope, and identical rows make a zero X^T X and no penalty
        x = inputs - inputs[0]
        x_mean = x.mean(axis=0)
        x -= x_mean
        y = targets - targets[0]
        y_mean = y.mean()
        y -= y_mean
        gram = x.T @ x
        penalty = RIDGE_PENALTY * np.trace(gram) / self.input_count
        if penalty > 0:
            gram[np.diag_indices_from(gram)] += penalty
            self._slope = np.linalg.solve(gram, x.T @ y)
        else:
            self._slope = np.zeros(self.input_count)
        self._offset = float(targets[0] + y_mean
                             - (inputs[0] + x_mean) @ self._slope)
        self.train_count += 1
        spread = targets.max() - targets.min()
        if spread == 0:
            return 0.0
        residual = x @ self._slope - y
        return float(np.sqrt(np.mean(residual ** 2)) / spread)


BLEND_WINDOW = 3


def blend(l_surrogate: float, recent) -> float:
    """The paper's pseudo-likelihood: an equal-weight mix of the estimate
    and the mean of recent, the values (true or blended) that the
    replica's last BLEND_WINDOW steps used."""
    return 0.5 * float(l_surrogate) + 0.5 * (sum(recent) / len(recent))


def surrogate_rmse(true_values, estimates) -> float:
    """Root mean squared error between two equal-length vectors."""
    a = np.asarray(true_values, dtype=np.float64)
    b = np.asarray(estimates, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError(f"rmse over mismatched shapes {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ContractError("rmse of empty vectors")
    return float(np.sqrt(np.mean((a - b) ** 2)))
