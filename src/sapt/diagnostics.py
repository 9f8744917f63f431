"""Posterior summaries and plot-ready file emission.

All files are plain CSV with deterministic %.17g formatting, so writing
the same chain twice produces byte-identical output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .bnn import (PROB_FLOOR, NetworkTopology, forward_batch,
                  output_accuracy, predict_accuracy, softmax)
from .exceptions import ContractError
from .orchestrator import PosteriorChain, RunReport

HISTOGRAM_BINS = 50

# Data rows per forward pass when posterior_accuracy scores a block of
# samples. Per-sample passes against blocks of 1024, 4096 and 16384 rows,
# one 4 x 2000-step chain at thin 10 (median of 7, 2 cores, numpy 2.4):
# iris 90 rows 33.4 / 9.7 / 6.9 / 6.7 ms, cancer 341 rows 53.4 / 34.5 /
# 25.7 / 23.7 ms; 12000 rows keep one sample per block (82-85 ms).
SCORE_ROWS = 4096


@dataclass(frozen=True)
class AccuracySummary:
    """Classification accuracy statistics over retained posterior samples,
    and proper scores of the posterior-mean predictive on the test split.

    All accuracy fields are percentages in [0, 100]. The test_* scores
    are per-row means over the test split: log predictive density (log
    of the label's probability, at most 0), Brier score (squared
    distance to the one-hot label, in [0, 2]) and the accuracy of the
    most probable class.
    """

    train_mean: float
    train_std: float
    train_best: float
    test_mean: float
    test_std: float
    test_best: float
    test_log_predictive_density: float
    test_brier: float
    test_accuracy_posterior_mean: float
    elapsed_minutes: float = 0.0

    def __post_init__(self):
        slack = 1e-9
        for tag, mean, std, best in (
            ("train", self.train_mean, self.train_std, self.train_best),
            ("test", self.test_mean, self.test_std, self.test_best),
        ):
            if std < 0:
                raise ContractError(f"{tag} accuracy std is negative")
            if best < mean - slack:
                raise ContractError(f"{tag} best accuracy below the mean")
            for value in (mean, best):
                if not -slack <= value <= 100 + slack:
                    raise ContractError(f"{tag} accuracy outside [0,100]")
        for name, lo, hi in (("test_log_predictive_density", -math.inf, 0.0),
                             ("test_brier", 0.0, 2.0),
                             ("test_accuracy_posterior_mean", 0.0, 100.0)):
            value = getattr(self, name)
            if not lo - slack <= value <= hi + slack:
                raise ContractError(f"{name} {value} outside [{lo}, {hi}]")

    def to_text(self) -> str:
        return (
            f"train_accuracy_mean {self.train_mean:.8g}\n"
            f"train_accuracy_std {self.train_std:.8g}\n"
            f"train_accuracy_best {self.train_best:.8g}\n"
            f"test_accuracy_mean {self.test_mean:.8g}\n"
            f"test_accuracy_std {self.test_std:.8g}\n"
            f"test_accuracy_best {self.test_best:.8g}\n"
            f"test_log_predictive_density "
            f"{self.test_log_predictive_density:.8g}\n"
            f"test_brier {self.test_brier:.8g}\n"
            f"test_accuracy_posterior_mean "
            f"{self.test_accuracy_posterior_mean:.8g}\n"
            f"elapsed_minutes {self.elapsed_minutes:.8g}\n"
        )


def posterior_accuracy(chain: PosteriorChain, train, test,
                       topology: NetworkTopology, thin: int = 10,
                       elapsed_seconds: float = 0.0) -> AccuracySummary:
    """Accuracy statistics of the retained posterior.

    Every thinned sample is scored on its own, on both splits, and the
    summary reports mean/std/best over those per-sample accuracies. The
    samples are scored in blocks of up to SCORE_ROWS data rows, one
    forward pass per split and block. The test split's outputs give
    each sample's accuracy (the argmax of its outputs) and its class
    probabilities, which are summed, sample by sample in order, into the
    posterior-mean predictive. That predictive gives the log predictive
    density (each label probability clamped below at PROB_FLOOR, as the
    likelihood is), the Brier score and its own accuracy,
    test_accuracy_posterior_mean.
    """
    thetas = chain.combined_posterior(thin)
    if thetas.shape[0] == 0:
        raise ContractError("posterior is empty after thinning")
    block = max(1, SCORE_ROWS // max(train.sample_count, test.sample_count))
    train_acc, test_acc = [], []
    test_sum = np.zeros((test.sample_count, test.class_count))
    for start in range(0, thetas.shape[0], block):
        stack = thetas[start:start + block]
        train_acc.append(predict_accuracy(stack, train, topology))
        outputs = forward_batch(stack, test.features, topology)
        test_acc.append(output_accuracy(outputs, test.labels))
        for probs in softmax(outputs):
            test_sum += probs
    train_acc = np.concatenate(train_acc)
    test_acc = np.concatenate(test_acc)
    test_probs = test_sum / thetas.shape[0]
    picked = test_probs[np.arange(test.sample_count), test.labels]
    return AccuracySummary(
        train_mean=float(train_acc.mean()),
        train_std=float(train_acc.std()),
        train_best=float(train_acc.max()),
        test_mean=float(test_acc.mean()),
        test_std=float(test_acc.std()),
        test_best=float(test_acc.max()),
        elapsed_minutes=elapsed_seconds / 60.0,
        test_log_predictive_density=float(
            np.mean(np.log(np.maximum(picked, PROB_FLOOR)))),
        test_brier=float(np.mean(
            np.sum((test_probs - test.one_hot) ** 2, axis=1))),
        test_accuracy_posterior_mean=output_accuracy(test_sum, test.labels),
    )


def compose_report(report: RunReport, summary: AccuracySummary) -> str:
    """report.txt: the RunReport lines, a blank line, the accuracy lines."""
    return report.to_text() + "\n" + summary.to_text()


def _lines(row: str, *columns) -> str:
    """row % (one value from each column) for every line, as one string.

    Arrays go through ravel().tolist(), so %.17g formats Python floats,
    with the bytes of '{:.17g}'; %d takes ints and %s strings."""
    columns = [c.ravel().tolist() if isinstance(c, np.ndarray) else c
               for c in columns]
    values = columns[0] if len(columns) == 1 else list(
        itertools.chain.from_iterable(zip(*columns)))
    return (row * (len(values) // len(columns))) % tuple(values)


def _histograms(posterior: np.ndarray):
    """(counts, edges) of np.histogram(column, HISTOGRAM_BINS) for every
    posterior column at once: one (parameters, bins) array of counts and
    one (parameters, bins + 1) array of edges, with np.histogram's bits
    and its ValueErrors.

    Each column's edges are np.linspace(min, max, bins + 1), widened by
    0.5 on each side for a constant column. A value's bin is numpy's
    uniform-bin index, moved down one where the value lies below its
    bin's lower edge and up one where it reaches the next edge (not past
    the last bin). Minima and maxima reduce contiguous column copies, as
    np.histogram's do, so a zero keeps the sign it has there.
    """
    values = np.ascontiguousarray(posterior.T)
    first, last = values.min(axis=1), values.max(axis=1)
    if not (np.isfinite(first).all() and np.isfinite(last).all()):
        raise ValueError("autodetected range of a posterior column is not "
                         "finite")
    flat = first == last
    first = np.where(flat, first - 0.5, first)[:, None]
    last = np.where(flat, last + 0.5, last)[:, None]
    span = last - first
    edges = np.arange(HISTOGRAM_BINS + 1.0) * (span / HISTOGRAM_BINS)
    edges += first
    edges[:, -1:] = last
    # a step that underflows to 0 or rounds edges together; linspace's
    # other order for a zero step makes no increasing edges either
    if (edges[:, :-1] >= edges[:, 1:]).any():
        raise ValueError(f"Too many bins for data range. Cannot create "
                         f"{HISTOGRAM_BINS} finite-sized bins.")
    scaled = np.subtract(values, first)
    scaled /= span
    scaled *= HISTOGRAM_BINS
    index = scaled.astype(np.intp)
    index[index == HISTOGRAM_BINS] -= 1
    index -= values < np.take_along_axis(edges, index, axis=1)
    index += ((values >= np.take_along_axis(edges, index + 1, axis=1))
              & (index != HISTOGRAM_BINS - 1))
    index += np.arange(0, values.shape[0] * HISTOGRAM_BINS,
                       HISTOGRAM_BINS)[:, None]
    counts = np.bincount(index.ravel(),
                         minlength=values.shape[0] * HISTOGRAM_BINS)
    return counts.reshape(-1, HISTOGRAM_BINS), edges


def emit_posterior(chain: PosteriorChain, out_dir, thin: int = 1) -> list:
    """Write posterior columns, per-replica traces and histogram summaries.

    posterior_p<k>.csv holds the thinned exploit-phase samples of
    parameter k, one value per line. trace_replica<i>.csv covers every
    step of replica i. histograms.csv bins each parameter's retained
    samples into 50 equal-width bins, as np.histogram does. Each file is
    formatted as one string, one column at a time, and written once.
    Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    posterior = chain.combined_posterior(thin)
    if posterior.shape[0] == 0:
        raise ContractError("nothing to emit: posterior is empty")
    written = []
    for k in range(chain.parameter_count):
        path = out / f"posterior_p{k}.csv"
        path.write_text(_lines("%.17g\n", posterior[:, k]))
        written.append(path)
    for trace in chain.traces:
        path = out / f"trace_replica{trace.replica}.csv"
        path.write_text("step,log_lik,source,phase\n" + _lines(
            "%d,%.17g,%s,%s\n", range(trace.steps), trace.log_liks,
            trace.sources, trace.phases))
        written.append(path)
    counts, edges = _histograms(posterior)
    # each edge formatted once; a bin's lower and upper edge are strings
    edge_text = _lines("%.17g\n", edges).split()
    lower, upper = edge_text[:], edge_text
    del lower[HISTOGRAM_BINS::HISTOGRAM_BINS + 1]
    del upper[::HISTOGRAM_BINS + 1]
    path = out / "histograms.csv"
    path.write_text("parameter,bin_lo,bin_hi,count\n" + _lines(
        "%d,%s,%s,%d\n", np.arange(chain.parameter_count).repeat(
            HISTOGRAM_BINS), lower, upper, counts))
    written.append(path)
    return written


def write_surrogate_trace(chain: PosteriorChain, path) -> int:
    """One row per surrogate-path step: the pseudo value the sampler used
    and the true value there, written as one string. A true value is
    measured where the chain kept the step's proposal; nan means it was
    not measured. Returns the row count."""
    rows = ["step,replica,log_lik,source,true_log_lik\n"]
    for trace in chain.traces:
        rows.append(_lines("%d,%d,%.17g,surrogate,%.17g\n",
                           trace.surrogate_steps, repeat(trace.replica),
                           trace.surrogate_estimates,
                           trace.surrogate_truths))
    Path(path).write_text("".join(rows))
    return sum(trace.surrogate_steps.shape[0] for trace in chain.traces)


def write_manifest(path, entries: dict) -> None:
    """Key-value run echo; enough to reproduce the run bit for bit."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} {value}\n")
