"""Surrogate-assisted parallel tempering for Bayesian neural networks.

An ensemble of MCMC replicas samples the posterior of a one-hidden-layer
classifier across a geometric temperature ladder, exchanging states at
fixed intervals. A small learned model can stand in for the expensive
likelihood on a coin-flip fraction of steps, trained on the true values
collected while sampling.
"""

__version__ = "0.1.0"
