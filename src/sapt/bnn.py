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

The likelihood kernel works in place on its own temporaries. An
elementwise pass applies one IEEE operation per element, so its order
does not change a bit; the reductions and the matrix products, whose
bits depend on layout, keep the plain formulas' layout. Every exp
shift, in the likelihood pass and in the softmax paths, runs on a
contiguous class-major (O, N) copy of the (N, O) outputs; the softmax
paths write the normalized rows back into the outputs. numpy sums a
last axis shorter than PAIRWISE_SUM_CLASSES elements in sequence and a
longer one pairwise, so the shift's axis-0 sum keeps the bits of
np.sum(axis=-1) only below that class count, and sums over the (N, O)
layout from there. Only the bias add changes layout with the row
count: from LONG_ROWS data rows on it folds FOLD_ROWS rows into one
wide row. The label probabilities are read with a flat class-major
index that the Dataset builds once. The log-likelihood gradient
finishes a likelihood pass: it normalizes the shifted outputs, writes
one_hot - probs into the C-contiguous (N, O) outputs, and the backward
pass writes each layer's gradient into its slice of one new vector.
Every function therefore returns the same bits as the plain formulas
(kept in tests/_bnn_reference.py), and a seed gives the same chains
whichever computed them. BnnPosterior remembers its last three results, with
the gradient or the likelihood pass's activations, for drift steps to
reuse.
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


def _views(flat: np.ndarray, topology: NetworkTopology):
    """(w, del_h, v, del_o) views of a flat vector in theta layout."""
    i, h, o = topology.input_count, topology.hidden_count, topology.output_count
    n_w = i * h
    return (flat[:n_w].reshape(i, h), flat[n_w:n_w + h],
            flat[n_w + h:n_w + h + h * o].reshape(h, o),
            flat[n_w + h + h * o:])


def unpack(theta: np.ndarray, topology: NetworkTopology):
    """Split a flat parameter vector into (w, del_h, v, del_o) views."""
    return _views(check_theta(theta, topology), topology)


# From this many classes on, numpy's last-axis sum is pairwise rather
# than sequential, and an axis-0 sum of class rows would change the bits.
PAIRWISE_SUM_CLASSES = 8

# From this many data rows on, a bias add runs along long contiguous rows:
# at 90 x 12 the folded add takes 4.7 us against 1.8 us for the plain
# broadcast, at 7200 x 12 51 us against 85 us.
LONG_ROWS = 1024
# Rows folded into one wide row for a bias add.
FOLD_ROWS = 64


def _exp_shifted_inplace(e: np.ndarray):
    """Overwrite the contiguous class-major (classes, rows) e with
    exp(e - column max); return e and its column sums, one per data row.

    An axis-0 sum adds the class rows in order, which gives the bits
    of the last-axis np.sum over the (rows, classes) layout below
    PAIRWISE_SUM_CLASSES classes; from there the sum runs over that
    layout.
    """
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    if e.shape[0] >= PAIRWISE_SUM_CLASSES:
        return e, np.add.reduce(np.ascontiguousarray(e.T), axis=-1)
    return e, np.add.reduce(e, axis=0)


def _softmax_inplace(f: np.ndarray) -> np.ndarray:
    """Softmax of each row of the 2-D f, overwriting f."""
    e, row_sum = _exp_shifted_inplace(f.T.copy())
    np.divide(e, row_sum, out=f.T)
    return f


def softmax(f: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the row max for stability.

    The result has the bits of exp(f - max) / sum(exp(f - max)) with
    numpy's last-axis max and sum, so chains stay bit-identical. f is
    not modified.
    """
    p = np.array(f, dtype=np.float64)
    _softmax_inplace(p.reshape(-1, p.shape[-1]))
    return p


def _add_bias(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m += b on every row of the C-contiguous m; from LONG_ROWS rows on,
    FOLD_ROWS rows at a time as one wide row."""
    rows, width = m.shape
    if rows < LONG_ROWS:
        m += b
        return m
    body = rows - rows % FOLD_ROWS
    tiled = np.empty((FOLD_ROWS, width))
    tiled[:] = b
    wide = m[:body].reshape(-1, FOLD_ROWS * width)
    wide += tiled.reshape(-1)
    m[body:] += b
    return m


def _forward(theta: np.ndarray, features: np.ndarray,
             topology: NetworkTopology):
    """(v, hidden, pre-softmax outputs) of one forward pass."""
    w, del_h, v, del_o = unpack(theta, topology)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != topology.input_count:
        raise ContractError(
            f"feature matrix has shape {features.shape}, expected "
            f"(N, {topology.input_count})"
        )
    hidden = _sigmoid_inplace(_add_bias(features @ w, del_h))
    return v, hidden, _add_bias(hidden @ v, del_o)


def forward_batch(theta: np.ndarray, features: np.ndarray,
                  topology: NetworkTopology) -> np.ndarray:
    """Pre-softmax outputs for a feature matrix, one row per sample."""
    return _forward(theta, features, topology)[2]


def class_probabilities(theta: np.ndarray, features: np.ndarray,
                        topology: NetworkTopology) -> np.ndarray:
    return _softmax_inplace(forward_batch(theta, features, topology))


def _log_likelihood_pass(theta: np.ndarray, dataset,
                         topology: NetworkTopology):
    """(log_likelihood, the activations _gradient_from takes)."""
    n = dataset.features.shape[0]
    if n < 1:
        raise ContractError("log_likelihood needs a nonempty dataset")
    _, hidden, out = _forward(theta, dataset.features, topology)
    # only the label entry of each row is normalized
    e, row_sum = _exp_shifted_inplace(out.T.copy())
    picked = e.ravel().take(dataset.class_label_index)
    picked /= row_sum
    np.log(np.maximum(picked, PROB_FLOOR, out=picked), out=picked)
    return float(np.add.reduce(picked)), (hidden, out, e, row_sum)


def log_likelihood(theta: np.ndarray, dataset, topology: NetworkTopology) -> float:
    """Multinomial log-likelihood: sum over samples of log pi_label.

    Probabilities are clamped below at PROB_FLOOR so the result is
    finite for every finite theta.
    """
    return _log_likelihood_pass(theta, dataset, topology)[0]


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


def _backward(v, hidden, d_out, features, topology) -> np.ndarray:
    """Chain rule from per-sample output derivatives d_out to one new
    gradient vector in theta layout; overwrites hidden."""
    grad = np.empty(topology.parameter_count)
    g_w, g_del_h, g_v, g_del_o = _views(grad, topology)
    np.matmul(hidden.T, d_out, out=g_v)
    np.add.reduce(d_out, axis=0, out=g_del_o)
    d_pre = d_out @ v.T
    d_pre *= hidden
    # g_v was the last use of hidden, so 1 - hidden may overwrite it
    d_pre *= np.subtract(1.0, hidden, out=hidden)
    np.matmul(features.T, d_pre, out=g_w)
    np.add.reduce(d_pre, axis=0, out=g_del_h)
    return grad


def _gradient_from(theta, activations, dataset, topology) -> np.ndarray:
    """The log-likelihood gradient at theta from the activations of a
    _log_likelihood_pass at theta, which it overwrites."""
    hidden, out, e, row_sum = activations
    e /= row_sum
    d_out = np.subtract(dataset.one_hot, e.T, out=out)
    return _backward(_views(theta, topology)[2], hidden, d_out,
                     dataset.features, topology)


def log_likelihood_and_gradient(theta: np.ndarray, dataset,
                                topology: NetworkTopology):
    """(log_likelihood, its gradient in vector layout) from one pass.

    The gradient is the softmax cross-entropy one, d(log pi_label)/df_j
    = z_j - pi_j per sample; the PROB_FLOOR clamp is ignored, so it is
    the gradient of the unclamped log-likelihood, which the Langevin
    drift proposal climbs.
    """
    theta = np.asarray(theta, dtype=np.float64)
    value, activations = _log_likelihood_pass(theta, dataset, topology)
    return value, _gradient_from(theta, activations, dataset, topology)


def sse_gradient(theta: np.ndarray, dataset, topology: NetworkTopology) -> np.ndarray:
    """Gradient of E(theta) = sum_t sum_k (z_tk - pi_tk)^2 in vector layout.

    pi are the softmax outputs, z the one-hot targets. The sampler does
    not use this objective; it is kept as a squared-error diagnostic.
    """
    v, hidden, out = _forward(theta, dataset.features, topology)
    probs = _softmax_inplace(out)
    diff = probs - dataset.one_hot
    # dE/df_j = 2 pi_j ((pi_j - z_j) - sum_k (pi_k - z_k) pi_k), per sample
    row_dot = np.sum(diff * probs, axis=1, keepdims=True)
    return _backward(v, hidden, 2.0 * probs * (diff - row_dot),
                     dataset.features, topology)


def output_accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    """Percent of rows whose largest entry is at the label.

    Ties break toward the lowest class index (argmax convention).
    Softmax is monotone, so pre-softmax outputs count as their
    probabilities do.
    """
    return 100.0 * float(np.mean(np.argmax(outputs, axis=1) == labels))


def predict_accuracy(theta: np.ndarray, dataset, topology: NetworkTopology) -> float:
    """Percent of samples whose most probable class matches the label,
    by output_accuracy on the pre-softmax outputs."""
    if dataset.features.shape[0] < 1:
        raise ContractError("predict_accuracy needs a nonempty dataset")
    return output_accuracy(forward_batch(theta, dataset.features, topology),
                           dataset.labels)


class BnnPosterior:
    """Bundles topology, dataset and prior into log-density callbacks.

    Samplers only touch log_likelihood / log_prior and, for the drift
    proposal, log_likelihood_gradient / log_prior_gradient, so any
    object with those methods (e.g. an analytic toy density in tests)
    can stand in for the network posterior. sse_gradient is the
    squared-error gradient, kept for diagnostics; no sampler calls it.

    A drift step needs gradients at theta and its proposal, then the
    proposal's likelihood: one fused pass gives both. Once a gradient
    has been served, a likelihood miss also keeps its pass's activations
    (hidden layer, shifted outputs, row sums), and a gradient at that
    point, as a drift step from an accepted random-walk proposal asks
    for, then needs only a backward pass. The MEMO_SIZE entries used
    last are kept, so the current point outlasts one random-walk
    proposal. Entries are keyed by theta's exact shape and bytes and
    hold the module functions' bits; gradients are read-only.
    """

    MEMO_SIZE = 3  # the current point, a drift and a random-walk proposal

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
        # key -> [value, gradient or activations], least recent first
        self._memo = {}

    def _entry(self, theta: np.ndarray, compute) -> list:
        """theta's memo entry, made the newest; a miss stores
        compute(theta, dataset, topology)."""
        key = (theta.shape, theta.tobytes())
        entry = self._memo.pop(key, None)
        if entry is None:
            entry = list(compute(theta, self.dataset, self.topology))
            if len(self._memo) == self.MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
        self._memo[key] = entry
        return entry

    def log_likelihood(self, theta: np.ndarray) -> float:
        if not self._memo:  # no gradient served yet: keep no activations
            return log_likelihood(theta, self.dataset, self.topology)
        theta = np.asarray(theta, dtype=np.float64)
        return self._entry(theta, _log_likelihood_pass)[0]

    def log_prior(self, theta: np.ndarray) -> float:
        return log_prior(theta, self.prior)

    def sse_gradient(self, theta: np.ndarray) -> np.ndarray:
        return sse_gradient(theta, self.dataset, self.topology)

    def log_likelihood_gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        entry = self._entry(theta, log_likelihood_and_gradient)
        if isinstance(entry[1], tuple):  # a likelihood pass's activations
            entry[1] = _gradient_from(theta, entry[1], self.dataset,
                                      self.topology)
        entry[1].setflags(write=False)
        return entry[1]

    def log_prior_gradient(self, theta: np.ndarray) -> np.ndarray:
        return log_prior_gradient(theta, self.prior)
