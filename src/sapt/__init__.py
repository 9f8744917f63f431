"""Surrogate-assisted parallel tempering for Bayesian neural networks.

An ensemble of MCMC replicas samples the posterior of a one-hidden-layer
classifier across a geometric temperature ladder, exchanging states at
fixed intervals. A small learned model can stand in for the expensive
likelihood on a coin-flip fraction of steps, trained on the true values
collected while sampling.
"""

from .bnn import (BnnPosterior, NetworkTopology, PriorConfig,
                  log_likelihood, log_likelihood_gradient, log_prior,
                  log_prior_gradient, predict_accuracy, sse_gradient)
from .data import (Dataset, load_csv, load_registered, load_registry,
                   one_hot, split)
from .diagnostics import AccuracySummary, emit_posterior, posterior_accuracy
from .exceptions import ConfigError, ContractError, DataFormatError
from .orchestrator import (PosteriorChain, ReplicaTrace, RunReport,
                           SamplerConfig, run, run_target, swap_sweep)
from .surrogate import (LikelihoodHistory, SurrogateBatch, SurrogateModel,
                        blend, surrogate_rmse)
from .tempering import (ProposalConfig, ReplicaState, TemperatureLadder,
                        acceptance_probability, apply_swap, build_ladder,
                        make_proposal, metropolis_step, propose_langevin,
                        propose_rw, swap_probability)

__version__ = "0.1.0"

__all__ = [
    "AccuracySummary", "BnnPosterior", "ConfigError", "ContractError",
    "DataFormatError", "Dataset", "LikelihoodHistory", "NetworkTopology",
    "PosteriorChain", "PriorConfig", "ProposalConfig", "ReplicaState",
    "ReplicaTrace", "RunReport", "SamplerConfig", "SurrogateBatch",
    "SurrogateModel", "TemperatureLadder", "acceptance_probability",
    "apply_swap", "blend", "build_ladder", "emit_posterior",
    "load_csv", "load_registered", "load_registry", "log_likelihood",
    "log_likelihood_gradient", "log_prior", "log_prior_gradient",
    "make_proposal", "metropolis_step", "one_hot",
    "posterior_accuracy", "predict_accuracy", "propose_langevin",
    "propose_rw", "run", "run_target", "split", "sse_gradient",
    "surrogate_rmse", "swap_probability", "swap_sweep",
    "__version__",
]
