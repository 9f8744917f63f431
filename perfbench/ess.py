"""Rank-normalized split-chain bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat"
(arXiv:1903.08008): every chain is split in half, all draws of one
quantity are replaced by the normal scores of their average ranks, and
the ESS of the normal scores comes from the multi-chain autocorrelation
truncated by Geyer's initial monotone sequence. numpy only; the normal
quantile comes from statistics.NormalDist.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np


def _score_table(size: int) -> np.ndarray:
    """Phi^-1((r - 3/8) / (size + 1/4)) for r = 1, 1.5, 2, ..., size."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((k / 2.0 - 0.375) / (size + 0.25))
                     for k in range(2, 2 * size + 1)])


def _normal_scores(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Normal scores of the average ranks of all entries of values.

    Ties share their average rank, which is a whole or half number, so
    the score is a lookup in the table _score_table(values.size) built.
    """
    _, inverse, counts = np.unique(values.ravel(), return_inverse=True,
                                   return_counts=True)
    upper = np.cumsum(counts)
    twice_rank = 2 * upper - (counts - 1)      # 2 x 1-based average rank
    return table[twice_rank - 2][inverse].reshape(values.shape)


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1, via FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n]
    return acov / n


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of an (m, n) array (Stan / Geyer estimator)."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    chain_mean = chains.mean(axis=1)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += chain_mean.var(ddof=1)
    if not var_plus > 0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while positive, forced monotone
    pairs = rho[:-1:2] + rho[1::2]
    positive = np.flatnonzero(pairs <= 0.0)
    stop = positive[0] if positive.size else pairs.size
    pairs = np.minimum.accumulate(pairs[:stop])
    tau = -1.0 + 2.0 * float(pairs.sum())
    tau = max(tau, 1.0 / np.log10(m * n))
    return m * n / tau


def _split(draws: np.ndarray) -> np.ndarray:
    """Each of the m chains as two halves -> (2m, n // 2)."""
    half = draws.shape[1] // 2
    if half < 4:
        raise ValueError("bulk ESS needs at least 8 draws per chain")
    return np.concatenate([draws[:, :half], draws[:, -half:]])


def median_bulk_ess(chains: np.ndarray) -> float:
    """Median over parameters of rank-normalized split-chain bulk ESS.

    chains has shape (m, n, parameters); parameters whose draws never
    move (undefined ESS) are left out of the median.
    """
    chains = np.asarray(chains, dtype=np.float64)
    table = _score_table(_split(chains[:, :, 0]).size)
    values = [_ess(_normal_scores(_split(chains[:, :, k]), table))
              for k in range(chains.shape[2])]
    finite = [v for v in values if np.isfinite(v)]
    if not finite:
        raise ValueError("no parameter has a defined ESS")
    return float(np.median(finite))
