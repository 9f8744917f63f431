"""Frozen reference for the surrogate network.

This is the per-layer SurrogateModel that sapt.surrogate held before
its weights, biases and Adam moments became flat vectors: six weight
and bias arrays, six m and six v arrays, and an Adam loop over them.
The tests require the flat model to give the same bits, so sampled
chains stay identical for a given seed. Do not edit it to follow
surrogate.py.
"""
import math
from dataclasses import dataclass

import numpy as np

from sapt.exceptions import ContractError
from sapt.surrogate import SurrogateBatch, TargetScaler


@dataclass(frozen=True)
class AdamParams:
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class SurrogateModel:
    def __init__(self, input_count: int, hidden1: int = 64, hidden2: int = 16,
                 seed: int = 0):
        if min(input_count, hidden1, hidden2) < 1:
            raise ContractError("surrogate layer sizes must be >= 1")
        self.input_count = input_count
        self._rng = np.random.default_rng(seed)
        sizes = [(input_count, hidden1), (hidden1, hidden2), (hidden2, 1)]
        self.weights = [self._rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                         (fan_in, fan_out))
                        for fan_in, fan_out in sizes]
        self.biases = [np.zeros(fan_out) for _, fan_out in sizes]
        self._m = [np.zeros_like(w) for w in self.weights] \
            + [np.zeros_like(b) for b in self.biases]
        self._v = [np.zeros_like(w) for w in self.weights] \
            + [np.zeros_like(b) for b in self.biases]
        self.adam_step = 0
        self.train_count = 0
        self.scaler = TargetScaler()

    def _forward(self, inputs):
        z1 = inputs @ self.weights[0] + self.biases[0]
        a1 = _relu(z1)
        z2 = a1 @ self.weights[1] + self.biases[1]
        a2 = _relu(z2)
        z3 = a2 @ self.weights[2] + self.biases[2]
        return z1, a1, z2, a2, _sigmoid(z3)

    def predict_scaled(self, inputs) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_count:
            raise ContractError(
                f"surrogate input has shape {inputs.shape}, expected "
                f"(N, {self.input_count})"
            )
        return self._forward(inputs)[4][:, 0]

    def predict(self, theta) -> float:
        if self.train_count == 0:
            raise ContractError("surrogate queried before first training")
        theta = np.asarray(theta, dtype=np.float64)
        out = self.predict_scaled(theta[None, :])[0]
        return float(self.scaler.inverse(out))

    def _adam_update(self, grads, adam: AdamParams):
        self.adam_step += 1
        t = self.adam_step
        params = self.weights + self.biases
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= adam.beta1
            m += (1.0 - adam.beta1) * g
            v *= adam.beta2
            v += (1.0 - adam.beta2) * (g * g)
            m_hat = m / (1.0 - adam.beta1 ** t)
            v_hat = v / (1.0 - adam.beta2 ** t)
            p -= adam.step_size * m_hat / (np.sqrt(v_hat) + adam.eps)

    def _gradients(self, inputs, scaled_targets):
        n = inputs.shape[0]
        z1, a1, z2, a2, out = self._forward(inputs)
        d_z3 = (out - scaled_targets[:, None]) / n
        g_w3 = a2.T @ d_z3
        g_b3 = d_z3.sum(axis=0)
        d_a2 = d_z3 @ self.weights[2].T
        d_z2 = d_a2 * (z2 > 0)
        g_w2 = a1.T @ d_z2
        g_b2 = d_z2.sum(axis=0)
        d_a1 = d_z2 @ self.weights[1].T
        d_z1 = d_a1 * (z1 > 0)
        g_w1 = inputs.T @ d_z1
        g_b1 = d_z1.sum(axis=0)
        return [g_w1, g_w2, g_w3, g_b1, g_b2, g_b3]

    def train(self, batch: SurrogateBatch, epochs: int = 20,
              adam: AdamParams = AdamParams(), batch_size: int = 32) -> float:
        if batch.rows == 0:
            raise ContractError("train called with an empty batch")
        if epochs < 1 or batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")
        self.scaler.update(batch.targets)
        scaled = np.asarray(self.scaler.scale(batch.targets))
        inputs = batch.inputs
        n = batch.rows
        for _ in range(epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                grads = self._gradients(inputs[idx], scaled[idx])
                self._adam_update(grads, adam)
        self.train_count += 1
        residual = self.predict_scaled(inputs) - scaled
        return float(np.sqrt(np.mean(residual ** 2)))
