"""Posterior summaries and plot-ready file emission.

All files are plain CSV with deterministic %.17g formatting, so writing
the same chain twice produces byte-identical output.
"""

from __future__ import annotations

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
    summary reports mean/std/best over those per-sample accuracies. One
    forward pass over the test split per sample gives both its accuracy
    (the argmax of the outputs) and its class probabilities, which are
    summed into the posterior-mean predictive. That predictive gives
    the log predictive density (each label probability clamped below at
    PROB_FLOOR, as the likelihood is), the Brier score and its own
    accuracy, test_accuracy_posterior_mean.
    """
    thetas = chain.combined_posterior(thin)
    if thetas.shape[0] == 0:
        raise ContractError("posterior is empty after thinning")
    train_acc = np.array(
        [predict_accuracy(t, train, topology) for t in thetas])
    test_acc = np.empty(thetas.shape[0])
    test_sum = np.zeros((test.sample_count, test.class_count))
    for k, theta in enumerate(thetas):
        outputs = forward_batch(theta, test.features, topology)
        test_acc[k] = output_accuracy(outputs, test.labels)
        test_sum += softmax(outputs)
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
    """row.format of one value from each column per line, as one string;
    arrays go through tolist(), which formats as their elements do."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in columns]
    return "".join(map(row.format, *columns))


def emit_posterior(chain: PosteriorChain, out_dir, thin: int = 1) -> list:
    """Write posterior columns, per-replica traces and histogram summaries.

    posterior_p<k>.csv holds the thinned exploit-phase samples of
    parameter k, one value per line. trace_replica<i>.csv covers every
    step of replica i. histograms.csv bins each parameter's retained
    samples into 50 equal-width bins. Each file is built as one string
    and written once. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    posterior = chain.combined_posterior(thin)
    if posterior.shape[0] == 0:
        raise ContractError("nothing to emit: posterior is empty")
    written = []
    for k in range(chain.parameter_count):
        path = out / f"posterior_p{k}.csv"
        path.write_text(_lines("{:.17g}\n", posterior[:, k]))
        written.append(path)
    for trace in chain.traces:
        path = out / f"trace_replica{trace.replica}.csv"
        path.write_text("step,log_lik,source,phase\n" + _lines(
            "{},{:.17g},{},{}\n", range(trace.steps), trace.log_liks,
            trace.sources, trace.phases))
        written.append(path)
    path = out / "histograms.csv"
    bins = ["parameter,bin_lo,bin_hi,count\n"]
    for k in range(chain.parameter_count):
        counts, edges = np.histogram(posterior[:, k], bins=HISTOGRAM_BINS)
        bins.append(_lines("{},{:.17g},{:.17g},{}\n", repeat(k),
                           edges[:-1], edges[1:], counts))
    path.write_text("".join(bins))
    written.append(path)
    return written


def write_surrogate_trace(chain: PosteriorChain, path) -> int:
    """One row per surrogate-path step: the pseudo value the sampler used
    and the true value there, written as one string. A true value is
    measured where the chain kept the step's proposal; nan means it was
    not measured. Returns the row count."""
    rows = ["step,replica,log_lik,source,true_log_lik\n"]
    for trace in chain.traces:
        rows.append(_lines("{},{},{:.17g},surrogate,{:.17g}\n",
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
