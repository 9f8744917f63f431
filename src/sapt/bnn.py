"""One-hidden-layer feedforward classifier used as the sampled model.

All network parameters live in a single flat float64 vector so the
samplers and the surrogate can treat the model as a generic density over
R^L. Layout, in order:

    w      input-to-hidden weights, I*H entries, row-major over (input, hidden)
    del_h  hidden biases, H entries
    v      hidden-to-output weights, H*O entries, row-major over (hidden, output)
    del_o  output biases, O entries

The hidden layer applies a logistic sigmoid; the output layer is linear
and class probabilities come from a softmax over the O outputs.

The likelihood kernel works in place on its own temporaries and reduces
the (N, O) output matrix one class column at a time: the row max with
np.maximum and, for O < 8, the row sum with +=. numpy sums a last axis
shorter than 8 elements in sequence, so the column adds give the bits of
np.sum(axis=-1); from 8 elements on it sums pairwise, so the kernel
keeps the axis sum there. Every function therefore returns the same bits
as the plain formulas (kept in tests/_bnn_reference.py), and a seed gives
the same chains whichever computed them. log_likelihood_and_gradient
gives both from one pass; BnnPosterior remembers its last two results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError

# Probability clamp applied before taking logs. Keeps a fully saturated
# softmax from turning the log-likelihood into -inf and poisoning
# acceptance ratios.
PROB_FLOOR = 1e-308


@dataclass(frozen=True)
class NetworkTopology:
    """Layer sizes (input, hidden, output) of the classifier."""

    input_count: int
    hidden_count: int
    output_count: int

    def __post_init__(self):
        if min(self.input_count, self.hidden_count, self.output_count) < 1:
            raise ContractError(f"layer sizes must all be >= 1, got {self}")

    @property
    def parameter_count(self) -> int:
        i, h, o = self.input_count, self.hidden_count, self.output_count
        return i * h + h * o + h + o


@dataclass(frozen=True)
class PriorConfig:
    """Isotropic Gaussian prior over all weights and biases."""

    sigma_sq: float = 25.0

    def __post_init__(self):
        if not 0 < self.sigma_sq < np.inf:
            raise ContractError(f"prior variance must lie in (0, inf), got {self.sigma_sq}")


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 x)), overwriting x.

    The tanh form stays finite for any float input, no overflow warnings.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def check_theta(theta: np.ndarray, topology: NetworkTopology) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (topology.parameter_count,):
        raise ContractError(
            f"parameter vector has shape {theta.shape}, expected "
            f"({topology.parameter_count},) for {topology}"
        )
    if not np.isfinite(theta).all():
        raise ContractError("parameter vector has non-finite entries")
    return theta


def unpack(theta: np.ndarray, topology: NetworkTopology):
    """Split a flat parameter vector into (w, del_h, v, del_o) views."""
    theta = check_theta(theta, topology)
    i, h, o = topology.input_count, topology.hidden_count, topology.output_count
    n_w = i * h
    w = theta[:n_w].reshape(i, h)
    del_h = theta[n_w:n_w + h]
    v = theta[n_w + h:n_w + h + h * o].reshape(h, o)
    del_o = theta[n_w + h + h * o:]
    return w, del_h, v, del_o


def pack(w, del_h, v, del_o) -> np.ndarray:
    """Inverse of unpack: flatten layer arrays back into one vector."""
    return np.concatenate((w, del_h, v, del_o), axis=None, dtype=np.float64)


# From this many classes on, numpy's last-axis sum is pairwise rather
# than sequential, and column adds would change the bits.
PAIRWISE_SUM_CLASSES = 8


def _exp_shifted_inplace(f: np.ndarray):
    """Overwrite f with exp(f - row max); return f and its row sums.

    Rows run along the last axis. The max is taken one class column at
    a time, and so is the sum below PAIRWISE_SUM_CLASSES classes; both
    give the bits of the last-axis np.max and np.sum.
    """
    classes = f.shape[-1]
    row_max = f[..., 0].copy()
    for j in range(1, classes):
        np.maximum(row_max, f[..., j], out=row_max)
    f -= row_max[..., None]
    np.exp(f, out=f)
    if classes >= PAIRWISE_SUM_CLASSES:
        return f, np.sum(f, axis=-1)
    row_sum = f[..., 0].copy()
    for j in range(1, classes):
        row_sum += f[..., j]
    return f, row_sum


def _softmax_inplace(f: np.ndarray) -> np.ndarray:
    e, row_sum = _exp_shifted_inplace(f)
    e /= row_sum[..., None]
    return e


def softmax(f: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the row max for stability.

    The row max is taken one class column at a time, and so is the row
    sum below 8 classes; at 8 or more the sum runs along the axis, which
    numpy then adds pairwise. Either way the result has the bits of
    exp(f - max) / sum(exp(f - max)) with numpy's last-axis max and sum,
    so chains stay bit-identical. f is not modified.
    """
    return _softmax_inplace(np.array(f, dtype=np.float64))


def _hidden(w, del_h, features):
    pre = features @ w
    pre += del_h
    return _sigmoid_inplace(pre)


def _outputs(hidden, v, del_o):
    out = hidden @ v
    out += del_o
    return out


def forward_batch(theta: np.ndarray, features: np.ndarray,
                  topology: NetworkTopology) -> np.ndarray:
    """Pre-softmax outputs for a feature matrix, one row per sample."""
    w, del_h, v, del_o = unpack(theta, topology)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != topology.input_count:
        raise ContractError(
            f"feature matrix has shape {features.shape}, expected "
            f"(N, {topology.input_count})"
        )
    return _outputs(_hidden(w, del_h, features), v, del_o)


def class_probabilities(theta: np.ndarray, features: np.ndarray,
                        topology: NetworkTopology) -> np.ndarray:
    return _softmax_inplace(forward_batch(theta, features, topology))


def log_likelihood(theta: np.ndarray, dataset, topology: NetworkTopology) -> float:
    """Multinomial log-likelihood: sum over samples of log pi_label.

    Probabilities are clamped below at PROB_FLOOR so the result is
    finite for every finite theta.
    """
    n = dataset.features.shape[0]
    if n < 1:
        raise ContractError("log_likelihood needs a nonempty dataset")
    e, row_sum = _exp_shifted_inplace(
        forward_batch(theta, dataset.features, topology))
    # only the label column is normalized
    picked = e[dataset.row_index, dataset.labels]
    picked /= row_sum
    np.log(np.maximum(picked, PROB_FLOOR, out=picked), out=picked)
    return float(np.sum(picked))


def log_prior(theta: np.ndarray, prior: PriorConfig) -> float:
    """Gaussian log-prior -(L/2) log(sigma^2) - |theta|^2 / (2 sigma^2)."""
    theta = np.asarray(theta, dtype=np.float64)
    if not np.isfinite(theta).all():
        raise ContractError("log_prior requires finite parameters")
    length = theta.size
    quad = float(theta @ theta)
    return -(length / 2.0) * np.log(prior.sigma_sq) - quad / (2.0 * prior.sigma_sq)


def log_prior_gradient(theta: np.ndarray, prior: PriorConfig) -> np.ndarray:
    """Gradient of log_prior: -theta / sigma^2."""
    return -np.asarray(theta, dtype=np.float64) / prior.sigma_sq


def _backprop(theta, dataset, topology, d_out_of):
    """Chain rule from per-sample output derivatives to vector layout.

    d_out_of(probs) gives d(objective)/d(pre-softmax outputs), one row
    per sample, and may overwrite probs; the result is the objective's
    gradient in theta layout.
    """
    w, del_h, v, del_o = unpack(theta, topology)
    features = dataset.features
    hidden = _hidden(w, del_h, features)
    d_out = d_out_of(_softmax_inplace(_outputs(hidden, v, del_o)))
    g_v = hidden.T @ d_out
    g_del_o = d_out.sum(axis=0)
    d_pre = d_out @ v.T
    d_pre *= hidden
    # g_v was the last use of hidden, so 1 - hidden may overwrite it
    d_pre *= np.subtract(1.0, hidden, out=hidden)
    g_w = features.T @ d_pre
    g_del_h = d_pre.sum(axis=0)
    return pack(g_w, g_del_h, g_v, g_del_o)


def log_likelihood_and_gradient(theta: np.ndarray, dataset,
                                topology: NetworkTopology):
    """(log_likelihood, its gradient in vector layout) from one pass.

    The label column of the normalized softmax has log_likelihood's
    picked bits. The gradient is the softmax cross-entropy one,
    d(log pi_label)/df_j = z_j - pi_j per sample; the PROB_FLOOR clamp
    is ignored, so it is the gradient of the unclamped log-likelihood.
    This is the gradient the Langevin drift proposal climbs.
    """
    picked = None

    def d_out_of(probs):
        nonlocal picked
        picked = probs[dataset.row_index, dataset.labels]
        return np.subtract(dataset.one_hot, probs, out=probs)
    grad = _backprop(theta, dataset, topology, d_out_of)
    np.log(np.maximum(picked, PROB_FLOOR, out=picked), out=picked)
    return float(np.sum(picked)), grad


def sse_gradient(theta: np.ndarray, dataset, topology: NetworkTopology) -> np.ndarray:
    """Gradient of E(theta) = sum_t sum_k (z_tk - pi_tk)^2 in vector layout.

    pi are the softmax outputs, z the one-hot targets. The sampler does
    not use this objective; it is kept as a squared-error diagnostic.
    """
    def d_out_of(probs):
        diff = probs - dataset.one_hot
        # dE/df_j = 2 pi_j ((pi_j - z_j) - sum_k (pi_k - z_k) pi_k), per sample
        row_dot = np.sum(diff * probs, axis=1, keepdims=True)
        return 2.0 * probs * (diff - row_dot)
    return _backprop(theta, dataset, topology, d_out_of)


def predict_accuracy(theta: np.ndarray, dataset, topology: NetworkTopology) -> float:
    """Percent of samples whose most probable class matches the label.

    Ties break toward the lowest class index (argmax convention).
    Softmax is monotone, so argmax runs on the pre-softmax outputs.
    """
    n = dataset.features.shape[0]
    if n < 1:
        raise ContractError("predict_accuracy needs a nonempty dataset")
    outputs = forward_batch(theta, dataset.features, topology)
    predicted = np.argmax(outputs, axis=1)
    return 100.0 * float(np.mean(predicted == dataset.labels))


class BnnPosterior:
    """Bundles topology, dataset and prior into log-density callbacks.

    Samplers only touch log_likelihood / log_prior and, for the drift
    proposal, log_likelihood_gradient / log_prior_gradient, so any
    object with those methods (e.g. an analytic toy density in tests)
    can stand in for the network posterior. sse_gradient is the
    squared-error gradient, kept for diagnostics; no sampler calls it.

    A drift step needs gradients at theta and its proposal, then the
    proposal's likelihood: one fused pass gives both, remembered for the
    MEMO_SIZE points used last, keyed by theta's exact shape and bytes.
    The values are the module functions' bits; gradients are read-only.
    """

    MEMO_SIZE = 2  # the current point and its proposal

    def __init__(self, topology: NetworkTopology, dataset, prior: PriorConfig):
        if dataset.features.shape[1] != topology.input_count:
            raise ContractError(
                f"dataset has {dataset.features.shape[1]} features, topology "
                f"expects {topology.input_count}"
            )
        if dataset.one_hot.shape[1] != topology.output_count:
            raise ContractError(
                f"dataset has {dataset.one_hot.shape[1]} classes, topology "
                f"expects {topology.output_count}"
            )
        self.topology = topology
        self.dataset = dataset
        self.prior = prior
        self._memo = {}  # key -> (value, gradient), least recent first

    def _recall(self, theta: np.ndarray):
        """(key, remembered pair or None); a hit becomes the newest."""
        theta = np.asarray(theta, dtype=np.float64)
        key = (theta.shape, theta.tobytes())
        if key in self._memo:
            self._memo[key] = self._memo.pop(key)
        return key, self._memo.get(key)

    def log_likelihood(self, theta: np.ndarray) -> float:
        pair = self._recall(theta)[1] if self._memo else None
        return pair[0] if pair else log_likelihood(theta, self.dataset,
                                                   self.topology)

    def log_prior(self, theta: np.ndarray) -> float:
        return log_prior(theta, self.prior)

    def sse_gradient(self, theta: np.ndarray) -> np.ndarray:
        return sse_gradient(theta, self.dataset, self.topology)

    def log_likelihood_gradient(self, theta: np.ndarray) -> np.ndarray:
        key, pair = self._recall(theta)
        if pair is None:
            pair = log_likelihood_and_gradient(theta, self.dataset,
                                               self.topology)
            pair[1].setflags(write=False)
            self._memo[key] = pair
            if len(self._memo) > self.MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
        return pair[1]

    def log_prior_gradient(self, theta: np.ndarray) -> np.ndarray:
        return log_prior_gradient(theta, self.prior)
