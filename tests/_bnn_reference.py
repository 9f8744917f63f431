"""Frozen reference for the network's likelihood kernel.

These are the plain numpy formulas that sapt.bnn computed before its
kernel reduced one class column at a time and worked in place. The
tests require the lean kernel to give the same bits, so sampled chains
stay identical for a given seed. Do not edit them to follow bnn.py.
"""
import numpy as np

from sapt.bnn import PROB_FLOOR, unpack


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(f):
    f = np.asarray(f, dtype=np.float64)
    shifted = f - np.max(f, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward_batch(theta, features, topology):
    w, del_h, v, del_o = unpack(theta, topology)
    features = np.asarray(features, dtype=np.float64)
    hidden = _sigmoid(features @ w + del_h)
    return hidden @ v + del_o


def class_probabilities(theta, features, topology):
    return softmax(forward_batch(theta, features, topology))


def log_likelihood(theta, dataset, topology):
    n = dataset.features.shape[0]
    probs = class_probabilities(theta, dataset.features, topology)
    picked = probs[np.arange(n), dataset.labels]
    return float(np.sum(np.log(np.maximum(picked, PROB_FLOOR))))


def _backprop(theta, dataset, topology, d_out_of):
    w, del_h, v, del_o = unpack(theta, topology)
    features = dataset.features
    hidden = _sigmoid(features @ w + del_h)
    d_out = d_out_of(softmax(hidden @ v + del_o))
    g_v = hidden.T @ d_out
    g_del_o = d_out.sum(axis=0)
    d_pre = (d_out @ v.T) * hidden * (1.0 - hidden)
    g_w = features.T @ d_pre
    g_del_h = d_pre.sum(axis=0)
    return np.concatenate((g_w, g_del_h, g_v, g_del_o), axis=None,
                          dtype=np.float64)


def log_likelihood_gradient(theta, dataset, topology):
    return _backprop(theta, dataset, topology,
                     lambda probs: dataset.one_hot - probs)


def sse_gradient(theta, dataset, topology):
    def d_out_of(probs):
        diff = probs - dataset.one_hot
        row_dot = np.sum(diff * probs, axis=1, keepdims=True)
        return 2.0 * probs * (diff - row_dot)
    return _backprop(theta, dataset, topology, d_out_of)
