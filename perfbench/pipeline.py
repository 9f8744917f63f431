"""One benchmark operation: the sapt command-line pipeline, checked.

An operation runs what `sapt --dataset ... --out-dir ...` runs, through
the library's public functions and in the same order: load and split
the data, orchestrator.run, posterior_accuracy, then compose_report,
emit_posterior and write_surrogate_trace. Every call goes through the
module attribute (`orchestrator.run`, not a name imported from it), so
the traced run can wrap those attributes from outside.

check_outputs() then verifies the chain, the evaluation accounting, the
report and the files written; any failed check raises OutputError.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sapt import data, diagnostics, orchestrator
from sapt.bnn import NetworkTopology
from sapt.diagnostics import HISTOGRAM_BINS
from sapt.tempering import KIND_LANGEVIN_MIX, KIND_RANDOM_WALK, ProposalConfig

from workloads import (REPLICAS, SWAP_INTERVAL, SYNTH_CLASSES,
                       SYNTH_FEATURES, Workload)

THIN = 10                    # the CLI's default --thin
TRAIN_FRACTION = 0.6         # the CLI's default --train-fraction
SURROGATE_HIDDEN = (64, 16)  # the CLI's default for a dataset given by path
PROPOSALS = {"rw": KIND_RANDOM_WALK, "lg": KIND_LANGEVIN_MIX}


class OutputError(RuntimeError):
    """An operation returned, but its outputs failed a check."""


@dataclass
class OpResult:
    setup_s: float
    sample_s: float
    run_s: float
    test_accuracy: float
    digest: str
    chain: orchestrator.PosteriorChain
    report: orchestrator.RunReport
    config: orchestrator.SamplerConfig
    topology: NetworkTopology
    train: data.Dataset


def setup(workload: Workload, csv_path, seed: int):
    """Load and split the data -> (train, test, topology, surrogate hidden)."""
    if workload.dataset == "synth":
        full = data.load_csv(csv_path, SYNTH_FEATURES, SYNTH_CLASSES,
                             name=Path(csv_path).stem)
        train, test = data.split(full, TRAIN_FRACTION, seed=seed)
        topology = NetworkTopology(SYNTH_FEATURES, workload.hidden,
                                   SYNTH_CLASSES)
        return train, test, topology, SURROGATE_HIDDEN
    entry, train, test = data.load_registered(workload.dataset,
                                              TRAIN_FRACTION, seed=seed)
    return train, test, entry.topology(), entry.surrogate_hidden


def sampler_config(workload: Workload, seed: int, sequential: bool,
                   surrogate_hidden) -> orchestrator.SamplerConfig:
    return orchestrator.SamplerConfig(
        replica_count=REPLICAS,
        total_samples=workload.total_samples,
        swap_interval=SWAP_INTERVAL,
        surrogate_prob=workload.surrogate_prob,
        proposal=ProposalConfig(kind=PROPOSALS[workload.proposal]),
        base_seed=seed,
        sequential_mode=sequential,
        surrogate_hidden=tuple(surrogate_hidden),
    )


def chain_digest(chain: orchestrator.PosteriorChain) -> str:
    """SHA-256 over every replica's samples and log-likelihood trace."""
    h = hashlib.sha256()
    for trace in chain.traces:
        h.update(np.ascontiguousarray(trace.samples).tobytes())
        h.update(np.ascontiguousarray(trace.log_liks).tobytes())
    return h.hexdigest()


def run_operation(workload: Workload, csv_path, seed: int, sequential: bool,
                  out_dir: Path) -> OpResult:
    """Run the pipeline once and check its outputs; raises on failure.

    out_dir is emptied first, so the checks see only this run's files.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    started = time.perf_counter()
    train, test, topology, surrogate_hidden = setup(workload, csv_path, seed)
    config = sampler_config(workload, seed, sequential, surrogate_hidden)
    sample_start = time.perf_counter()
    chain, report = orchestrator.run(config, train, topology)
    sample_end = time.perf_counter()
    summary = diagnostics.posterior_accuracy(
        chain, train, test, topology, thin=THIN,
        elapsed_seconds=report.elapsed_seconds)
    out_dir.mkdir(parents=True)
    (out_dir / "report.txt").write_text(
        diagnostics.compose_report(report, summary))
    diagnostics.emit_posterior(chain, out_dir, thin=THIN)
    if report.surrogate_evals > 0:
        diagnostics.write_surrogate_trace(chain, out_dir / "surrogate_trace.csv")
    finished = time.perf_counter()
    check_outputs(workload, topology, chain, report, out_dir)
    return OpResult(
        setup_s=sample_start - started,
        sample_s=sample_end - sample_start,
        run_s=finished - started,
        test_accuracy=summary.test_mean,
        digest=chain_digest(chain),
        chain=chain,
        report=report,
        config=config,
        topology=topology,
        train=train,
    )


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


def check_outputs(workload: Workload, topology: NetworkTopology, chain,
                  report, out_dir: Path) -> None:
    steps = workload.steps_per_replica
    params = topology.parameter_count
    _expect(not report.partial, f"partial report: {report.failure}")
    _expect(len(chain.traces) == REPLICAS,
            f"{len(chain.traces)} traces, expected {REPLICAS}")
    for trace in chain.traces:
        _expect(trace.samples.shape == (steps, params),
                f"replica {trace.replica} samples {trace.samples.shape}")
        _expect(trace.log_liks.shape == (steps,),
                f"replica {trace.replica} log_liks {trace.log_liks.shape}")
        _expect(bool(np.all(np.isfinite(trace.samples)))
                and bool(np.all(np.isfinite(trace.log_liks))),
                f"replica {trace.replica} chain is not finite")
    evals = report.true_evals + report.surrogate_evals
    _expect(evals == REPLICAS * steps,
            f"true + surrogate evals {evals} != {REPLICAS * steps}")

    retained = sum(len(range(t.exploit_start, t.steps, THIN))
                   for t in chain.traces)
    for k in range(params):
        rows = _line_count(out_dir / f"posterior_p{k}.csv")
        _expect(rows == retained,
                f"posterior_p{k}.csv has {rows} rows, expected {retained}")
    for trace in chain.traces:
        rows = _line_count(out_dir / f"trace_replica{trace.replica}.csv")
        _expect(rows == steps + 1,
                f"trace_replica{trace.replica}.csv has {rows} lines")
    rows = _line_count(out_dir / "histograms.csv")
    _expect(rows == 1 + params * HISTOGRAM_BINS,
            f"histograms.csv has {rows} lines")
    if report.surrogate_evals > 0:
        rows = _line_count(out_dir / "surrogate_trace.csv")
        _expect(rows == 1 + report.surrogate_evals,
                f"surrogate_trace.csv has {rows} lines, expected "
                f"{1 + report.surrogate_evals}")
    report_text = (out_dir / "report.txt").read_text()
    _expect("partial false" in report_text.splitlines(),
            "report.txt does not say partial false")


def output_bytes(out_dir: Path) -> int:
    """Total size of the files an operation wrote."""
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
