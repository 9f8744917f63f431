"""Replica-ensemble driver: tempered exploration, swaps, surrogate refits.

All M replicas run in one process, in one block loop that also owns
the swap generator, the one surrogate and the run's report. Replicas
step in blocks of swap_interval; after every block a neighbor-pair swap
sweep runs over all of them, and at surrogate-interval boundaries the
staged true-likelihood rows (replica 0's first, each in step order)
refit the surrogate; replicas consult it once it has trained. Once a
replica's step budget crosses burn_in_fraction of its total, its
temperature drops to 1 and recorded samples switch to the exploit
phase; only those samples enter the combined posterior. The RunReport
and one ReplicaTrace per replica are the run's only records, written
while it samples, so a run that fails part way keeps every counter.

Determinism contract:

* replica i draws from default_rng(base_seed + i); its first use is the
  initial theta (parameter_count normals of sd INITIAL_THETA_SD, i.e.
  standard normals, whatever the prior sd), then per step: the
  surrogate selector kappa (only when surrogate_prob > 0), the
  proposal draws, and the accept uniform.
* swap decisions come from default_rng(base_seed + replica_count); one
  uniform per considered pair, ascending order, and a pair is skipped
  (no draw) when its lower member just swapped.

The surrogate's closed-form refits draw nothing.

The order in which replicas step within a block never touches these
streams, so a run is reproduced bit for bit by its seed and settings
with the same numpy and BLAS library. With the surrogate on, the BLAS
thread count must match too: the refits' products and solve may round
differently across thread counts. The chains were equal at 1 and 2
BLAS threads in every run checked, but nothing guarantees it: a
shifted estimate can flip an accept decision.

A surrogate-path step compares blend's pseudo-likelihood over the values
the replica's last BLEND_WINDOW steps used (runner.recent). The estimate
decides that one step only: an accepted surrogate-path step measures the
true value at its theta and stores it as the state's log_lik, so every
state, swap decision and trace log_lik is a true value. A rejected
surrogate-path step makes no call. The measurement draws nothing, so
every likelihood call is a start value, a true-path step or a finite
entry of a trace's surrogate_truths; the report's likelihood_calls
counts all three.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .bnn import BnnPosterior, NetworkTopology, PriorConfig
from .exceptions import ConfigError, ContractError
from .surrogate import (BLEND_WINDOW, SurrogateBatch, SurrogateModel, blend,
                        surrogate_rmse)
from .tempering import (PHASE_EXPLOIT, PHASE_TEMPERED, ProposalConfig,
                        ReplicaState, apply_swap, build_ladder, make_proposal,
                        metropolis_step, swap_probability)

log = logging.getLogger(__name__)

SOURCE_TRUE = "true"
SOURCE_SURROGATE = "surrogate"

# sd of the initial theta draw. Unit scale keeps the first states out of
# the saturated region that draws at the prior sd land in.
INITIAL_THETA_SD = 1.0


@dataclass(frozen=True)
class SamplerConfig:
    """Run-shaping knobs; defaults mirror the reference experiments.

    sequential_mode is accepted and ignored: every run steps all
    replicas in one process, and the chains do not depend on it.
    surrogate_hidden is accepted, validated and ignored: the surrogate
    is a linear ridge fit with no hidden layers.
    """

    replica_count: int = 10
    total_samples: int = 50000
    swap_interval: int = 50
    surrogate_interval: int = 50
    surrogate_prob: float = 0.0
    max_temp: float = 5.0
    burn_in_fraction: float = 0.5
    proposal: ProposalConfig = ProposalConfig()
    prior: PriorConfig = PriorConfig()
    base_seed: int = 0
    sequential_mode: bool = False
    surrogate_hidden: tuple = (64, 16)

    def __post_init__(self):
        if self.replica_count < 2:
            raise ConfigError("replica_count must be at least 2")
        if self.total_samples < self.replica_count:
            raise ConfigError("total_samples gives some replica zero steps")
        if self.swap_interval < 1:
            raise ConfigError("swap_interval must be >= 1")
        if self.surrogate_interval < 1 \
                or self.surrogate_interval % self.swap_interval:
            raise ConfigError(
                "surrogate_interval must be a positive multiple of "
                "swap_interval"
            )
        if not 0.0 <= self.surrogate_prob < 1.0:
            raise ConfigError("surrogate_prob must lie in [0,1): at 1 no "
                              "true-likelihood rows are staged after the "
                              "first refit, so the surrogate never refits")
        if not 0.0 < self.burn_in_fraction < 1.0:
            raise ConfigError("burn_in_fraction must lie in (0,1)")
        if not 1.0 <= self.max_temp < math.inf:
            raise ConfigError("max_temp must be finite and >= 1")
        if len(self.surrogate_hidden) != 2 \
                or min(self.surrogate_hidden) < 1:
            raise ConfigError("surrogate_hidden must be two positive sizes")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")

    @property
    def steps_per_replica(self) -> int:
        """Per-replica step budget; a non-divisible remainder is dropped."""
        return self.total_samples // self.replica_count

    @property
    def blocks_per_interval(self) -> int:
        return self.surrogate_interval // self.swap_interval


@dataclass
class ReplicaTrace:
    """One replica's record, one row per Metropolis step, written as it
    steps; the surrogate_* lists become arrays when it finishes."""

    replica: int
    samples: np.ndarray        # steps x parameter_count
    log_liks: np.ndarray       # true log_lik of the state after each step
    exploit_start: int
    surrogate_steps: np.ndarray      # step indices that took the surrogate path
    surrogate_estimates: np.ndarray  # blended values used at those steps
    surrogate_truths: np.ndarray     # true values there, measured at
                                     # accepted steps, else nan

    @property
    def steps(self) -> int:
        return self.samples.shape[0]

    @property
    def sources(self) -> np.ndarray:
        """Per step: SOURCE_SURROGATE at surrogate_steps, else SOURCE_TRUE."""
        surrogate = np.zeros(self.steps, dtype=bool)
        surrogate[self.surrogate_steps] = True
        return np.where(surrogate, SOURCE_SURROGATE, SOURCE_TRUE)

    @property
    def phases(self) -> np.ndarray:
        """Per step: PHASE_EXPLOIT from exploit_start on, else tempered."""
        return np.where(np.arange(self.steps) >= self.exploit_start,
                        PHASE_EXPLOIT, PHASE_TEMPERED)


@dataclass
class PosteriorChain:
    """All replica traces plus the combined post-burn-in view."""

    traces: list
    parameter_count: int

    def combined_posterior(self, thin: int = 1) -> np.ndarray:
        """Exploit-phase samples of every replica, thinned per replica."""
        if thin < 1:
            raise ContractError(f"thin must be >= 1, got {thin}")
        parts = [t.samples[t.exploit_start::thin] for t in self.traces]
        if not parts:
            return np.empty((0, self.parameter_count))
        return np.concatenate(parts)


def _value(x) -> str:
    return "n/a" if x is None else f"{x:.8g}"


@dataclass
class RunReport:
    """Run counters, written while sampling, so a partial report holds
    every counter a full one does; to_text() is the emitted schema, the
    same keys for every run, with n/a for a figure the run lacks."""

    elapsed_seconds: float
    replica_count: int
    steps_per_replica: int
    true_evals: int = 0
    surrogate_evals: int = 0
    likelihood_calls: int = 0   # start values, true-path steps, truths
    swap_attempts: int = 0
    swap_accepts: int = 0
    replica_acceptance: list = field(default_factory=list)
    # per refit: the window's RMSE over its target range
    train_rmse: list = field(default_factory=list)
    # each refit's surrogate interval, counted from 1; an interval that
    # staged no true-likelihood rows has no refit
    refit_intervals: list = field(default_factory=list)
    prediction_rmse: float | None = None            # raw units
    truths_measured: int = 0    # surrogate-path steps prediction_rmse covers
    partial: bool = False
    failure: str = ""

    @property
    def swap_acceptance_rate(self) -> float:
        if self.swap_attempts == 0:
            return 0.0
        return self.swap_accepts / self.swap_attempts

    def to_text(self) -> str:
        lines = [
            f"elapsed_seconds {self.elapsed_seconds:.6f}",
            f"replica_count {self.replica_count}",
            f"steps_per_replica {self.steps_per_replica}",
            f"true_evals {self.true_evals}",
            f"surrogate_evals {self.surrogate_evals}",
            f"likelihood_calls {self.likelihood_calls}",
            f"swap_attempts {self.swap_attempts}",
            f"swap_accepts {self.swap_accepts}",
            f"swap_acceptance_rate {self.swap_acceptance_rate:.8g}",
        ]
        for i, rate in enumerate(self.replica_acceptance):
            lines.append(f"acceptance_rate_replica{i} {rate:.8g}")
        for k, rmse in zip(self.refit_intervals, self.train_rmse,
                           strict=True):
            lines.append(f"surrogate_train_rmse_interval{k} {rmse:.8g}")
        train = np.asarray(self.train_rmse)
        mean, std = (train.mean(), train.std()) if train.size else (None, None)
        lines += [
            f"surrogate_train_rmse_mean_scaled {_value(mean)}",
            f"surrogate_train_rmse_std_scaled {_value(std)}",
            f"surrogate_prediction_rmse {_value(self.prediction_rmse)}",
            f"surrogate_truths_measured {self.truths_measured}",
            f"partial {'true' if self.partial else 'false'}",
        ]
        if self.failure:
            lines.append(f"failure {self.failure}")
        return "\n".join(lines) + "\n"


def swap_sweep(states, rng):
    """One ascending pass of neighbor-pair exchanges.

    Pairs are (0,1), (1,2), ...; each considered pair draws one uniform
    b and swaps iff b <= beta. A pair is skipped without a draw when its
    lower member just swapped, so a replica moves at most once per
    sweep. Returns (new_states, accepted_mask).
    """
    states = list(states)
    accepted = np.zeros(max(len(states) - 1, 0), dtype=bool)
    for p in range(len(states) - 1):
        if p > 0 and accepted[p - 1]:
            continue
        beta = swap_probability(states[p], states[p + 1])
        if rng.uniform() <= beta:
            states[p], states[p + 1] = apply_swap(states[p], states[p + 1])
            accepted[p] = True
    return states, accepted


class _ReplicaRunner:
    """Step engine for one replica: counts into the run's report and
    records into its trace; surrogate is the run's one model."""

    def __init__(self, index: int, config: SamplerConfig, target,
                 parameter_count: int, temperature: float,
                 surrogate: SurrogateModel | None, report: RunReport):
        self.config = config
        self.target = target
        self.report = report
        self.rng = np.random.default_rng(config.base_seed + index)
        theta0 = self.rng.normal(0.0, INITIAL_THETA_SD, parameter_count)
        self.state = ReplicaState(
            theta=theta0, temperature=temperature,
            log_lik=target.log_likelihood(theta0),
            log_prior=target.log_prior(theta0),
        )
        report.likelihood_calls += 1
        self.recent = deque(maxlen=BLEND_WINDOW)
        self.surrogate = surrogate
        self.step = 0
        self._staged: list = []    # (proposal, true log_lik) since last refit
        # filled row by row, so a run keeps no per-step theta arrays alive
        steps = config.steps_per_replica
        self.trace = ReplicaTrace(
            replica=index, samples=np.empty((steps, parameter_count)),
            log_liks=np.empty(steps),
            exploit_start=int(config.burn_in_fraction * steps),
            surrogate_steps=[], surrogate_estimates=[], surrogate_truths=[])

    def _one_step(self) -> None:
        s, trace = self.step, self.trace
        if s == trace.exploit_start:
            self.state = replace(self.state, temperature=1.0)
        s_prob = self.config.surrogate_prob
        # kappa is drawn only when the surrogate is on; 1.0 never passes
        kappa = self.rng.uniform() if s_prob > 0 else 1.0
        proposal, log_q = make_proposal(self.state.theta,
                                        self.target, self.config.proposal,
                                        self.rng, self.state.temperature)
        # it first trains after every replica's surrogate_interval steps
        surrogate_path = kappa < s_prob and self.surrogate.train_count > 0
        if surrogate_path:
            evaluated = blend(self.surrogate.predict(proposal), self.recent)
            self.report.surrogate_evals += 1
            trace.surrogate_steps.append(s)
            trace.surrogate_estimates.append(evaluated)
            trace.surrogate_truths.append(math.nan)
        else:
            evaluated = self.target.log_likelihood(proposal)
            self.report.true_evals += 1
            self.report.likelihood_calls += 1
            if s_prob > 0:
                self._staged.append((proposal, evaluated))
        accepted = self.state.accepted_count
        self.state = metropolis_step(self.state, proposal, log_q, self.target,
                                     self.rng, proposal_log_lik=evaluated)
        if surrogate_path and self.state.accepted_count > accepted:
            # the chain keeps the proposal, so its state holds the truth
            truth = self.target.log_likelihood(proposal)
            self.report.likelihood_calls += 1
            trace.surrogate_truths[-1] = truth
            self.state = replace(self.state, log_lik=truth)
        self.recent.append(evaluated)
        trace.samples[s] = self.state.theta
        trace.log_liks[s] = self.state.log_lik
        self.step += 1

    def finish(self) -> ReplicaTrace:
        trace = self.trace
        if self.step != trace.steps:
            raise ContractError(
                f"replica {trace.replica} finished at step {self.step}, "
                f"expected {trace.steps}"
            )
        trace.surrogate_steps = np.array(trace.surrogate_steps, np.int64)
        trace.surrogate_estimates = np.array(trace.surrogate_estimates)
        trace.surrogate_truths = np.array(trace.surrogate_truths)
        return trace


def _sample(config: SamplerConfig, target, parameter_count: int,
            report: RunReport) -> list:
    """Step every replica block by block; returns their traces.

    Counters, swaps and refit RMSEs go into report as they happen, the
    acceptance and prediction RMSE when sampling stops, failed or not.
    """
    swap_rng = np.random.default_rng(config.base_seed + config.replica_count)
    surrogate = None
    if config.surrogate_prob > 0:
        surrogate = SurrogateModel(parameter_count)
    ladder = build_ladder(config.replica_count, config.max_temp)
    steps = config.steps_per_replica
    runners = [
        _ReplicaRunner(i, config, target, parameter_count,
                       float(ladder[i]), surrogate, report)
        for i in range(config.replica_count)
    ]
    skipped = 0     # surrogate intervals that staged no rows
    try:
        for block in range(-(-steps // config.swap_interval)):
            for runner in runners:
                for _ in range(min(config.swap_interval, steps - runner.step)):
                    runner._one_step()
            states, accepted = swap_sweep(
                [runner.state for runner in runners], swap_rng)
            for runner, state in zip(runners, states):
                runner.state = state
            # a pair is attempted unless its lower member just swapped
            report.swap_attempts += len(accepted) - int(accepted[:-1].sum())
            report.swap_accepts += int(accepted.sum())
            if surrogate is None or (block + 1) % config.blocks_per_interval:
                continue
            rows = [row for runner in runners for row in runner._staged]
            for runner in runners:
                runner._staged = []
            if rows:
                inputs, targets = zip(*rows)
                report.train_rmse.append(surrogate.train(
                    SurrogateBatch(np.array(inputs), np.array(targets))))
                report.refit_intervals.append(
                    (block + 1) // config.blocks_per_interval)
            else:
                skipped += 1
    finally:
        if skipped:
            log.warning("%d of %d surrogate intervals yielded no "
                        "true-likelihood rows; their training was skipped",
                        skipped, skipped + len(report.refit_intervals))
        report.replica_acceptance = [
            runner.state.accepted_count / runner.step if runner.step else 0.0
            for runner in runners]
        truths = np.concatenate([r.trace.surrogate_truths for r in runners])
        estimates = np.concatenate([r.trace.surrogate_estimates
                                    for r in runners])
        measured = np.isfinite(truths)
        report.truths_measured = int(measured.sum())
        if measured.any():
            report.prediction_rmse = surrogate_rmse(truths[measured],
                                                    estimates[measured])
    return [runner.finish() for runner in runners]


def run_target(config: SamplerConfig, target, parameter_count: int):
    """Sample any target exposing log_likelihood / log_prior, plus
    log_likelihood_gradient / log_prior_gradient for drift proposals.

    Returns (PosteriorChain, RunReport). An exception raised while
    sampling is logged with its traceback and ends the run: the chain
    then holds no traces and the report is partial, naming the failure;
    it keeps every counter gathered until then.
    """
    if parameter_count < 1:
        raise ConfigError("parameter_count must be >= 1")
    report = RunReport(elapsed_seconds=0.0,
                       replica_count=config.replica_count,
                       steps_per_replica=config.steps_per_replica)
    started = time.perf_counter()
    try:
        traces = _sample(config, target, parameter_count, report)
    except Exception as exc:
        log.exception("sampling failed; the report is partial")
        traces = []
        report.partial = True
        report.failure = f"{type(exc).__name__}: {exc}"
    report.elapsed_seconds = time.perf_counter() - started
    chain = PosteriorChain(traces=traces, parameter_count=parameter_count)
    return chain, report


def run(config: SamplerConfig, dataset, topology: NetworkTopology):
    """Full protocol on a classification dataset; see run_target."""
    target = BnnPosterior(topology, dataset, config.prior)
    return run_target(config, target, topology.parameter_count)
