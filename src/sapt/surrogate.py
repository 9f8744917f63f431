"""Learned stand-in for the expensive log-likelihood.

A small ReLU network with a sigmoid output maps a flat parameter vector
to (0,1); training targets are log-likelihood values squashed into [0,1]
by a running min-max scaler so the binary cross-entropy loss is well
defined. The model refits incrementally each collection interval from
its previous weights, keeping its optimizer moments, so later fits start
warm instead of from scratch.

All weights and biases sit in one flat float64 vector, in the order
w1 (L x h1), w2 (h1 x h2), w3 (h2 x 1), b1, b2, b3, each weight matrix
row-major; gradients come back in the same layout, and the Adam moments
m and v are two flat vectors beside it, so one Adam step is a single
pass of vector ops. Every fit uses the same constants: TRAIN_EPOCHS
(10) passes in mini-batches of TRAIN_BATCH_SIZE (32) rows, and Adam
with step size ADAM_STEP_SIZE (1e-3), ADAM_BETA1 (0.9), ADAM_BETA2
(0.999) and ADAM_EPS (1e-8). Ten epochs cost half of twenty, and a
warm-started fit ranks held-out likelihoods as well after ten as after
twenty; at eight and fewer the ranking falls off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError


class TargetScaler:
    """Append-only min-max scaler: bounds only ever widen."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float = math.inf, hi: float = -math.inf):
        self.lo = lo
        self.hi = hi

    @property
    def seen(self) -> bool:
        return math.isfinite(self.lo)

    @property
    def ready(self) -> bool:
        """True once two distinct target values have been observed."""
        return self.hi > self.lo

    def update(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ContractError("scaler update with non-finite target")
        self.lo = min(self.lo, float(values.min()))
        self.hi = max(self.hi, float(values.max()))

    def scale(self, values):
        if not self.seen:
            raise ContractError("scaler has seen no targets yet")
        values = np.asarray(values, dtype=np.float64)
        if not self.ready:
            # single distinct value so far; park everything mid-range
            return np.full(values.shape, 0.5)
        return (values - self.lo) / (self.hi - self.lo)

    def inverse(self, scaled):
        if not self.seen:
            raise ContractError("scaler has seen no targets yet")
        if not self.ready:
            return np.full(np.shape(scaled), self.lo) if np.ndim(scaled) \
                else self.lo
        return self.lo + np.asarray(scaled, dtype=np.float64) * (self.hi - self.lo)


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


TRAIN_EPOCHS = 10
TRAIN_BATCH_SIZE = 32
ADAM_STEP_SIZE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class SurrogateModel:
    """[L, h1, h2, 1] network trained on scaled likelihood targets.

    ReLU after the first two layers, sigmoid on the scalar output. The
    flat parameters, Adam moments and step counter persist across
    train() calls.
    """

    def __init__(self, input_count: int, hidden1: int = 64, hidden2: int = 16,
                 seed: int = 0):
        if min(input_count, hidden1, hidden2) < 1:
            raise ContractError("surrogate layer sizes must be >= 1")
        self.input_count = input_count
        self._rng = np.random.default_rng(seed)
        # (start, stop, shape) of each layer's slice of the flat vector
        layout, start = [], 0
        for shape in ((input_count, hidden1), (hidden1, hidden2),
                      (hidden2, 1), (hidden1,), (hidden2,), (1,)):
            layout.append((start, start + math.prod(shape), shape))
            start += math.prod(shape)
        self._params = np.zeros(start)
        # views (w1, w2, w3, b1, b2, b3) into the flat parameters, each
        # weight row-major over (fan_in, fan_out); built once, since
        # _params is only ever updated in place. A pickle or deep copy
        # turns them into separate arrays that training no longer
        # updates, so a model is not copied or pickled
        self._views = tuple(self._params[start:stop].reshape(shape)
                            for start, stop, shape in layout)
        for w in self._views[:3]:
            w[...] = self._rng.normal(0.0, math.sqrt(2.0 / w.shape[0]),
                                      w.shape)
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        self.adam_step = 0
        self.train_count = 0
        self.scaler = TargetScaler()

    # -- forward ---------------------------------------------------------

    def _forward(self, inputs):
        w1, w2, w3, b1, b2, b3 = self._views
        z1 = inputs @ w1 + b1
        a1 = _relu(z1)
        z2 = a1 @ w2 + b2
        a2 = _relu(z2)
        z3 = a2 @ w3 + b3
        return z1, a1, z2, a2, _sigmoid(z3)

    def predict_scaled(self, inputs) -> np.ndarray:
        """Sigmoid outputs in (0,1) for a matrix of parameter vectors."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_count:
            raise ContractError(
                f"surrogate input has shape {inputs.shape}, expected "
                f"(N, {self.input_count})"
            )
        return self._forward(inputs)[4][:, 0]

    def predict(self, theta) -> float:
        """Inverse-scaled scalar estimate for one parameter vector."""
        if self.train_count == 0:
            raise ContractError("surrogate queried before first training")
        theta = np.asarray(theta, dtype=np.float64)
        out = self.predict_scaled(theta[None, :])[0]
        return float(self.scaler.inverse(out))

    # -- training --------------------------------------------------------

    def _adam_update(self, grad):
        self.adam_step += 1
        t = self.adam_step
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grad * grad)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        self._params -= ADAM_STEP_SIZE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def _gradients(self, inputs, scaled_targets):
        """Flat gradient of the mean cross-entropy, in the _views layout."""
        n = inputs.shape[0]
        _, w2, w3 = self._views[:3]
        z1, a1, z2, a2, out = self._forward(inputs)
        # mean binary cross-entropy with sigmoid output: dJ/dz3 = (out - y)/n
        d_z3 = (out - scaled_targets[:, None]) / n
        g_w3 = a2.T @ d_z3
        g_b3 = d_z3.sum(axis=0)
        d_z2 = (d_z3 @ w3.T) * (z2 > 0)
        g_w2 = a1.T @ d_z2
        g_b2 = d_z2.sum(axis=0)
        d_z1 = (d_z2 @ w2.T) * (z1 > 0)
        g_w1 = inputs.T @ d_z1
        g_b1 = d_z1.sum(axis=0)
        return np.concatenate((g_w1, g_w2, g_w3, g_b1, g_b2, g_b3), axis=None)

    def train(self, batch: SurrogateBatch) -> float:
        """Fit on one collected batch; returns RMSE on its scaled targets.

        The running scaler widens to cover the new targets first, then
        mini-batch Adam runs for TRAIN_EPOCHS epochs. Weights, moments
        and the step counter all carry over from previous calls.
        """
        if batch.rows == 0:
            raise ContractError("train called with an empty batch")
        self.scaler.update(batch.targets)
        scaled = np.asarray(self.scaler.scale(batch.targets))
        inputs = batch.inputs
        n = batch.rows
        for _ in range(TRAIN_EPOCHS):
            order = self._rng.permutation(n)
            for start in range(0, n, TRAIN_BATCH_SIZE):
                idx = order[start:start + TRAIN_BATCH_SIZE]
                self._adam_update(self._gradients(inputs[idx], scaled[idx]))
        self.train_count += 1
        residual = self.predict_scaled(inputs) - scaled
        return float(np.sqrt(np.mean(residual ** 2)))


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
