"""Single-replica Metropolis-Hastings stepping and replica exchange.

A replica is one chain pinned to a ladder slot. The likelihood term in
its acceptance ratio is divided by the slot temperature; the prior and
any proposal-density correction enter untempered. Swap decisions between
neighboring slots compare untempered log-likelihoods.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, ContractError

log = logging.getLogger(__name__)

KIND_RANDOM_WALK = "random_walk"
KIND_LANGEVIN_MIX = "langevin_mix"

PHASE_TEMPERED = "tempered"
PHASE_EXPLOIT = "exploit"


def build_ladder(replica_count: int, max_temp: float) -> np.ndarray:
    """Geometric temperature ladder from 1.0 up to max_temp.

    temps[i] = max_temp ** (i / (replica_count - 1)); both endpoints are
    exact. max_temp = 1 is allowed and gives a flat all-ones ladder.
    """
    if replica_count < 2:
        raise ConfigError(f"ladder needs at least 2 replicas, got {replica_count}")
    if not 1.0 <= max_temp < math.inf:
        raise ConfigError(f"max_temp must be finite and >= 1, got {max_temp}")
    exponents = np.arange(replica_count) / (replica_count - 1)
    temps = float(max_temp) ** exponents
    temps[0] = 1.0
    temps[-1] = float(max_temp)
    return temps


@dataclass(frozen=True)
class ReplicaState:
    """Sampler state of one ladder slot.

    log_lik and log_prior cache the current theta's values so rejected
    steps cost nothing; log_lik is stored untempered. Swaps move theta
    and the caches; the slot keeps temperature and accepted_count.
    """

    theta: np.ndarray
    temperature: float
    log_lik: float
    log_prior: float
    accepted_count: int = 0


@dataclass(frozen=True)
class ProposalConfig:
    """Proposal scheme and its step sizes.

    rw_step_sd is the random-walk noise sd. lg_learning_rate is the
    Langevin step h of the drift proposal: its mean moves h times the
    gradient of the tempered log posterior and its noise sd is
    sqrt(2 h). lg_prob is the drift share of langevin_mix steps.
    """

    kind: str = KIND_RANDOM_WALK
    rw_step_sd: float = 0.025
    lg_learning_rate: float = 0.02
    lg_prob: float = 0.5

    def __post_init__(self):
        if self.kind not in (KIND_RANDOM_WALK, KIND_LANGEVIN_MIX):
            raise ConfigError(f"unknown proposal kind {self.kind!r}")
        if not 0 < self.rw_step_sd < math.inf:
            raise ConfigError("rw_step_sd must be positive and finite")
        if not 0 < self.lg_learning_rate < math.inf:
            raise ConfigError("lg_learning_rate must be positive and finite")
        if not 0.0 <= self.lg_prob <= 1.0:
            raise ConfigError("lg_prob must lie in [0,1]")


def propose_rw(theta: np.ndarray, step_sd: float, rng) -> np.ndarray:
    """Random-walk proposal: theta plus iid Gaussian noise (symmetric)."""
    if step_sd <= 0:
        raise ContractError(f"step_sd must be positive, got {step_sd}")
    return theta + rng.normal(0.0, step_sd, size=theta.shape)


def langevin_log_q_ratio(theta, proposal, grad_theta, grad_proposal,
                         learning_rate: float, step_sd: float) -> float:
    """log q(theta | proposal) - log q(proposal | theta).

    Both proposal densities are isotropic Gaussians centered one descent
    step away from their conditioning point; the shared normalization
    cancels, leaving only the two quadratic forms.
    """
    two_var = 2.0 * step_sd * step_sd
    log_fwd = -_squared_distance(proposal, theta, grad_theta,
                                 learning_rate) / two_var
    log_rev = -_squared_distance(theta, proposal, grad_proposal,
                                 learning_rate) / two_var
    return log_rev - log_fwd


def _squared_distance(x, start, grad, learning_rate: float) -> float:
    """|x - (start - learning_rate * grad)|^2, in one temporary."""
    d = learning_rate * grad
    np.subtract(start, d, out=d)
    np.subtract(x, d, out=d)
    return float(np.add.reduce(np.square(d, out=d)))


def energy_gradient(theta: np.ndarray, target, temperature: float):
    """Gradient of U = -(log_likelihood / T + log_prior), the energy
    whose exp(-U) the replica at temperature T samples."""
    grad = target.log_likelihood_gradient(theta) / temperature
    grad += target.log_prior_gradient(theta)
    return np.negative(grad, out=grad)


def propose_langevin(theta: np.ndarray, target, config: ProposalConfig, rng,
                     temperature: float = 1.0):
    """Metropolis-adjusted Langevin proposal with its density correction.

    With h = lg_learning_rate and U the tempered energy above, the
    proposal is theta - h * grad U(theta) + sqrt(2 h) * N(0, I)
    (Roberts & Tweedie 1996). Returns (proposal, log_q_ratio); the
    ratio needs the energy gradient at the proposal too. The target
    must expose log_likelihood_gradient and log_prior_gradient; no
    likelihood value is computed here.
    """
    step = config.lg_learning_rate
    noise_sd = math.sqrt(2.0 * step)
    grad = energy_gradient(theta, target, temperature)
    proposal = theta - step * grad + rng.normal(0.0, noise_sd,
                                                size=theta.shape)
    grad_star = energy_gradient(proposal, target, temperature)
    ratio = langevin_log_q_ratio(theta, proposal, grad, grad_star,
                                 step, noise_sd)
    return proposal, ratio


def make_proposal(theta: np.ndarray, target, config: ProposalConfig, rng,
                  temperature: float = 1.0):
    """Next proposal per the configured scheme -> (proposal, log_q_ratio).

    temperature is the replica's current slot temperature; only the
    drift proposal uses it. langevin_mix draws the scheme selector
    before any proposal noise so a replica's RNG stream is consumed in
    a fixed order.
    """
    if config.kind == KIND_RANDOM_WALK:
        return propose_rw(theta, config.rw_step_sd, rng), 0.0
    if rng.uniform() < config.lg_prob:
        return propose_langevin(theta, target, config, rng, temperature)
    return propose_rw(theta, config.rw_step_sd, rng), 0.0


def acceptance_probability(delta_log_lik: float, temperature: float,
                           delta_log_prior: float, log_q_ratio: float) -> float:
    """min(1, exp(delta_log_lik / T + delta_log_prior + log_q_ratio)).

    Only the likelihood difference is tempered. A +inf exponent, such as
    a proposal of positive density from a state of zero density, gives
    1. A -inf or nan exponent gives nan, which callers treat as a
    certain rejection.
    """
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    exponent = delta_log_lik / temperature + delta_log_prior + log_q_ratio
    if math.isnan(exponent) or exponent == -math.inf:
        return float("nan")
    return float(np.exp(min(0.0, exponent)))


def metropolis_step(state: ReplicaState, proposal: np.ndarray,
                    log_q_ratio: float, target, rng,
                    proposal_log_lik: float) -> ReplicaState:
    """One tempered accept/reject decision for a replica.

    proposal_log_lik is the caller's value at the proposal, true or a
    surrogate estimate; only the target's prior is evaluated here. On
    acceptance the returned state carries the proposal, its cached
    values and accepted_count + 1; a rejection returns state itself, so
    the caller's chain records the previous sample again.
    A proposal of zero density (log value -inf) is an ordinary
    rejection; a nan likelihood, prior or proposal correction rejects
    and logs a diagnostic.
    """
    prop_ll = float(proposal_log_lik)
    prop_lp = target.log_prior(proposal)
    prob = acceptance_probability(prop_ll - state.log_lik, state.temperature,
                                  prop_lp - state.log_prior, log_q_ratio)
    u = rng.uniform()
    if math.isnan(prob):
        if any(map(math.isnan, (prop_ll, prop_lp, log_q_ratio))):
            log.warning("non-finite acceptance exponent at T=%g (log_lik*=%g, "
                        "log_prior*=%g, log_q_ratio=%g); rejecting",
                        state.temperature, prop_ll, prop_lp, log_q_ratio)
        accept = False
    else:
        accept = u <= prob
    if accept:
        return ReplicaState(theta=proposal, temperature=state.temperature,
                            log_lik=prop_ll, log_prior=prop_lp,
                            accepted_count=state.accepted_count + 1)
    return state


def swap_probability(state_i: ReplicaState, state_j: ReplicaState) -> float:
    """Exchange probability for a (cold, hot) neighbor pair.

    beta = min(1, exp((1/T_j - 1/T_i) * (L_j - L_i))) with untempered
    log-likelihoods. Equal temperatures (the all-ones exploit ladder)
    give beta = 1; a pair ordered hot-to-cold is a contract violation.
    """
    if state_j.temperature < state_i.temperature:
        raise ContractError(
            f"swap pair must be ordered cold to hot, got temperatures "
            f"{state_i.temperature} and {state_j.temperature}"
        )
    exponent = (1.0 / state_j.temperature - 1.0 / state_i.temperature) \
        * (state_j.log_lik - state_i.log_lik)
    return float(np.exp(min(0.0, exponent)))


def _cached_values(state: ReplicaState) -> dict:
    return dict(theta=state.theta, log_lik=state.log_lik,
                log_prior=state.log_prior)


def apply_swap(state_i: ReplicaState, state_j: ReplicaState):
    """Exchange theta and cached values; slots keep temperature and
    accepted_count."""
    return (replace(state_i, **_cached_values(state_j)),
            replace(state_j, **_cached_values(state_i)))
