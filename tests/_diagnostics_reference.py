"""Frozen reference for the posterior and surrogate-trace files.

These are the per-value write loops that sapt.diagnostics used before
it built each file as one string. The tests require emit_posterior and
write_surrogate_trace to write the same bytes. Do not edit them to
follow diagnostics.py.
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
