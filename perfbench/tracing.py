"""Outside-in tracing of one pipeline run, and the per-layer metrics.

The traced run wraps the public functions each layer exposes, as the
callers look them up: module attributes such as `sapt.orchestrator.
make_proposal` (the name the step engine calls) and methods on
BnnPosterior and SurrogateModel. Each call becomes a span (name, start,
end, parent) kept in memory; a span's self time is its duration minus
its children's. Nothing under src/ changes.

Wrappers do not reach spawned worker processes, so the traced run uses
the sequential schedule; chains are bit-identical across schedules, so
its call counts equal those of the multiprocess run.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sapt import bnn, data, diagnostics, orchestrator, surrogate, tempering

# (owner, attribute, span name); two attributes may share a span name
TRACED = (
    (data, "load_csv", "data.load"),
    (data, "split", "data.split"),
    (orchestrator, "run", "orchestrator.run"),
    (bnn.BnnPosterior, "log_likelihood", "bnn.log_likelihood"),
    (bnn.BnnPosterior, "sse_gradient", "bnn.sse_gradient"),
    (bnn.BnnPosterior, "log_prior", "bnn.log_prior"),
    (surrogate.SurrogateModel, "predict", "surrogate.predict"),
    (surrogate.SurrogateModel, "train", "surrogate.train"),
    (orchestrator, "make_proposal", "tempering.make_proposal"),
    (tempering, "propose_langevin", "tempering.propose_langevin"),
    (orchestrator, "metropolis_step", "tempering.metropolis_step"),
    (orchestrator, "swap_probability", "tempering.swap_probability"),
    (orchestrator, "apply_swap", "tempering.apply_swap"),
    (diagnostics, "posterior_accuracy", "diagnostics.posterior_accuracy"),
    (diagnostics, "predict_accuracy", "diagnostics.predict_accuracy"),
    (diagnostics, "emit_posterior", "diagnostics.emit"),
    (diagnostics, "write_surrogate_trace", "diagnostics.emit"),
)

# Spans under orchestrator.run, grouped into the layers whose times,
# with orchestrator.run's own self time, add up to the traced sample_s
# (the span-list completeness check in layer_metrics).
BUSY_LAYERS = ("bnn.log_likelihood", "bnn.sse_gradient", "bnn.log_prior",
               "surrogate.predict", "surrogate.train")
SELF_LAYERS = {
    "tempering.make_proposal": ("tempering.make_proposal",
                                "tempering.propose_langevin"),
    "tempering.metropolis_step": ("tempering.metropolis_step",),
    "tempering.swap": ("tempering.swap_probability", "tempering.apply_swap"),
}


class Tracer:
    """Spans of one run, plus step and training counters."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self._open = []
        self._drift = False    # the current step's proposal was a drift
        self.steps = {"drift": [0, 0], "rw": [0, 0]}   # [steps, accepted]
        self.train_rows = 0
        self.model = None      # the surrogate snapshot, once trained

    def _span(self, name, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index][1] = start
                spans[index][2] = end
        return traced

    def _counted(self, attribute, fn):
        """Counter hooks that run inside the span of the same call."""
        if attribute == "make_proposal":
            def hook(*args, **kwargs):
                self._drift = False
                return fn(*args, **kwargs)
        elif attribute == "propose_langevin":
            def hook(*args, **kwargs):
                self._drift = True
                return fn(*args, **kwargs)
        elif attribute == "metropolis_step":
            def hook(state, *args, **kwargs):
                new = fn(state, *args, **kwargs)
                tally = self.steps["drift" if self._drift else "rw"]
                tally[0] += 1
                tally[1] += new.accepted_count - state.accepted_count
                return new
        elif attribute == "train":
            def hook(model, batch, *args, **kwargs):
                self.train_rows += batch.rows
                self.model = model
                return fn(model, batch, *args, **kwargs)
        else:
            return fn
        return hook

    @contextmanager
    def installed(self):
        """Wrap every TRACED attribute; restore the originals on exit."""
        originals = []
        try:
            for owner, attribute, name in TRACED:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute,
                        self._span(name, self._counted(attribute, original)))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def summary(self):
        """name -> [calls, busy seconds, self seconds]; zeros for a name
        with no spans."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return out


def likelihood_cost(topology, rows: int):
    """Computed flops and bytes of one log_likelihood call.

    flops: the two matrix products (2 flops per multiply-add), bias adds,
    the tanh-form sigmoid (3 per hidden unit), softmax (5 per output),
    and the label pick, log and sum (3 per row). bytes: features, labels
    and parameters read once, and the hidden and output activations
    written and read once each, all float64 or int64.
    """
    i, h, o = topology.input_count, topology.hidden_count, topology.output_count
    flops = rows * (2 * i * h + 2 * h * o + h + o + 3 * h + 5 * o + 3)
    bytes_moved = 8 * (rows * i + rows + topology.parameter_count
                       + 2 * rows * h + 2 * rows * o)
    return flops, bytes_moved


def ipc_volume(config, target, chain, tracer: Tracer):
    """Messages and bytes the multiprocess schedule would exchange.

    Computed from pickled sizes times the protocol's counts per replica:
    the spawn arguments once, a sync message and its state reply per
    block, a rows message and its snapshot reply per surrogate
    interval, and a done message carrying the trace.
    """
    replicas = config.replica_count
    params = chain.parameter_count
    blocks = -(-config.steps_per_replica // config.swap_interval)
    intervals = blocks // config.blocks_per_interval \
        if config.surrogate_prob > 0 else 0
    last = chain.traces[0]
    state = tempering.ReplicaState(theta=last.samples[-1], temperature=1.0,
                                   log_lik=float(last.log_liks[-1]),
                                   log_prior=0.0)
    spawn = len(pickle.dumps((0, config, target, params, 1.0,
                              config.steps_per_replica)))
    per_block = len(pickle.dumps(("sync", 0, state))) \
        + len(pickle.dumps(("state", state)))
    empty_rows = len(pickle.dumps(("rows", 0, np.empty((0, params)),
                                   np.empty(0))))
    snapshot = len(pickle.dumps(("model", tracer.model)))
    done = sum(len(pickle.dumps(("done", t.replica, t))) for t in chain.traces)
    messages = replicas * (1 + 2 * blocks + 2 * intervals + 1)
    total = (replicas * (spawn + blocks * per_block
                         + intervals * (empty_rows + snapshot))
             + 8 * tracer.train_rows * (params + 1) + done)
    return messages, total


def layer_metrics(tracer: Tracer, op, multiprocess: bool) -> dict:
    """Per-layer metrics of one traced operation (a pipeline.OpResult).

    Raises ValueError when a call count disagrees with the report (the
    likelihood accounting, one proposal and one Metropolis step per
    step, one swap_probability per swap attempt and one apply_swap per
    accepted swap), or when the span list is incomplete: the layer times
    must add up to the traced sample_s. The sum holds by construction
    for the spans listed here; it fails only when a span not grouped in
    BUSY_LAYERS or SELF_LAYERS starts nesting under orchestrator.run.
    A call the wrappers miss is not caught by the sum (its time lands in
    a caller's self time); the call-count checks catch it.
    """
    spans = tracer.summary()

    def calls(name):
        return spans[name][0]

    def busy(name):
        return spans[name][1]

    def self_time(name):
        return spans[name][2]

    def per_call_us(name):
        return 1e6 * busy(name) / calls(name) if calls(name) else 0.0

    report, chain, config, topology = op.report, op.chain, op.config, op.topology
    replicas = config.replica_count
    total_steps = replicas * config.steps_per_replica
    if calls("orchestrator.run") != 1:
        raise ValueError(f"{calls('orchestrator.run')} orchestrator.run spans")
    sample_s = busy("orchestrator.run")

    tracked = sum(int(np.isfinite(t.surrogate_truths).sum())
                  for t in chain.traces)
    expected_calls = report.true_evals + tracked + replicas
    if calls("bnn.log_likelihood") != expected_calls:
        raise ValueError(
            f"log_likelihood calls {calls('bnn.log_likelihood')} != true_evals "
            f"{report.true_evals} + tracked truths {tracked} + replicas "
            f"{replicas}")

    expected = {
        "tempering.make_proposal": total_steps,
        "tempering.metropolis_step": total_steps,
        "tempering.swap_probability": report.swap_attempts,
        "tempering.apply_swap": report.swap_accepts,
    }
    for name, count in expected.items():
        if calls(name) != count:
            raise ValueError(f"{name} calls {calls(name)} != {count}")

    layers = {f"{name}.busy_s": busy(name) for name in BUSY_LAYERS}
    layers.update({f"{group}.self_s": sum(self_time(n) for n in names)
                   for group, names in SELF_LAYERS.items()})
    layers["orchestrator.self_s"] = self_time("orchestrator.run")
    accounted = sum(layers.values())
    if not math.isclose(accounted, sample_s, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"layer times sum to {accounted}, traced sample_s "
                         f"is {sample_s}")

    flops, bytes_moved = likelihood_cost(topology, op.train.sample_count)
    drift, rw = tracer.steps["drift"], tracer.steps["rw"]
    stepped = drift[0] + rw[0]
    if multiprocess:
        target = bnn.BnnPosterior(topology, op.train, config.prior)
        messages, ipc_bytes = ipc_volume(config, target, chain, tracer)
    else:
        messages, ipc_bytes = 0, 0
    metrics = {
        "data.load_s": busy("data.load"),
        "data.split_s": busy("data.split"),
        "bnn.log_likelihood.calls": calls("bnn.log_likelihood"),
        "bnn.log_likelihood.busy_s": busy("bnn.log_likelihood"),
        "bnn.log_likelihood.us_per_call": per_call_us("bnn.log_likelihood"),
        "bnn.log_likelihood.flops_per_call": flops,
        "bnn.log_likelihood.bytes_per_call": bytes_moved,
        "bnn.sse_gradient.calls": calls("bnn.sse_gradient"),
        "bnn.sse_gradient.busy_s": busy("bnn.sse_gradient"),
        "bnn.sse_gradient.us_per_call": per_call_us("bnn.sse_gradient"),
        "bnn.log_prior.calls": calls("bnn.log_prior"),
        "bnn.log_prior.busy_s": busy("bnn.log_prior"),
        "tempering.make_proposal.self_s":
            layers["tempering.make_proposal.self_s"],
        "tempering.metropolis_step.self_s":
            layers["tempering.metropolis_step.self_s"],
        "tempering.swap.self_s": layers["tempering.swap.self_s"],
        "tempering.accept_rate":
            (drift[1] + rw[1]) / stepped if stepped else 0.0,
        "tempering.drift.calls": calls("tempering.propose_langevin"),
        "tempering.drift.accept_rate": drift[1] / drift[0] if drift[0] else 0.0,
        "tempering.rw.accept_rate": rw[1] / rw[0] if rw[0] else 0.0,
        "surrogate.predict.calls": calls("surrogate.predict"),
        "surrogate.predict.busy_s": busy("surrogate.predict"),
        "surrogate.predict.us_per_call": per_call_us("surrogate.predict"),
        "surrogate.train.calls": calls("surrogate.train"),
        "surrogate.train.busy_s": busy("surrogate.train"),
        "surrogate.train.rows": tracer.train_rows,
        "surrogate.path_frac": report.surrogate_evals / total_steps,
        "surrogate.prediction_rmse": report.prediction_rmse or 0.0,
        "surrogate.likelihood_saved_frac":
            1.0 - calls("bnn.log_likelihood") / (total_steps + replicas),
        "orchestrator.self_s": layers["orchestrator.self_s"],
        "orchestrator.swap.attempts": report.swap_attempts,
        "orchestrator.swap.accept_rate": report.swap_acceptance_rate,
        "orchestrator.ipc.messages": messages,
        "orchestrator.ipc.bytes": ipc_bytes,
        "diagnostics.posterior_accuracy_s":
            busy("diagnostics.posterior_accuracy"),
        "diagnostics.predict_accuracy.calls":
            calls("diagnostics.predict_accuracy"),
        "diagnostics.emit_s": busy("diagnostics.emit"),
        "trace.sample_s": sample_s,
    }
    return metrics
