"""Frozen reference for the posterior and surrogate-trace files, and
for the posterior accuracy summary.

These are the per-value write loops that sapt.diagnostics used before
it built each file as one string, and the per-sample scoring loop it
used before it scored blocks of samples. The tests require
emit_posterior, write_surrogate_trace and posterior_accuracy to give
the same bytes and the same summary. Do not edit them to follow
diagnostics.py.
"""
from pathlib import Path

import numpy as np

HISTOGRAM_BINS = 50


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def emit_posterior(chain, out_dir, thin: int = 1) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    posterior = chain.combined_posterior(thin)
    written = []
    for k in range(chain.parameter_count):
        path = out / f"posterior_p{k}.csv"
        with open(path, "w") as fh:
            for value in posterior[:, k]:
                fh.write(_fmt(value) + "\n")
        written.append(path)
    for trace in chain.traces:
        path = out / f"trace_replica{trace.replica}.csv"
        sources, phases = trace.sources, trace.phases
        with open(path, "w") as fh:
            fh.write("step,log_lik,source,phase\n")
            for s in range(trace.steps):
                fh.write(f"{s},{_fmt(trace.log_liks[s])},"
                         f"{sources[s]},{phases[s]}\n")
        written.append(path)
    path = out / "histograms.csv"
    with open(path, "w") as fh:
        fh.write("parameter,bin_lo,bin_hi,count\n")
        for k in range(chain.parameter_count):
            counts, edges = np.histogram(posterior[:, k], bins=HISTOGRAM_BINS)
            for b in range(HISTOGRAM_BINS):
                fh.write(f"{k},{_fmt(edges[b])},{_fmt(edges[b + 1])},"
                         f"{counts[b]}\n")
    written.append(path)
    return written


def write_surrogate_trace(chain, path) -> int:
    rows = 0
    with open(path, "w") as fh:
        fh.write("step,replica,log_lik,source,true_log_lik\n")
        for trace in chain.traces:
            for j in range(trace.surrogate_steps.shape[0]):
                fh.write(f"{trace.surrogate_steps[j]},{trace.replica},"
                         f"{_fmt(trace.surrogate_estimates[j])},surrogate,"
                         f"{_fmt(trace.surrogate_truths[j])}\n")
                rows += 1
    return rows


def posterior_accuracy(chain, train, test, topology, thin: int = 10,
                       elapsed_seconds: float = 0.0):
    """The per-sample scoring loop: one forward pass per split and
    retained sample, each test sample's probabilities summed in order."""
    from sapt.bnn import (PROB_FLOOR, forward_batch, output_accuracy,
                          predict_accuracy, softmax)
    from sapt.diagnostics import AccuracySummary

    thetas = chain.combined_posterior(thin)
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
