"""Known-answer tests: the tempered ensemble against a conjugate posterior.

GaussianToyTarget has a closed-form Normal posterior, so the mean and sd
of the sampled chains can be compared with posterior_mean_sd(). Each
case pools four base seeds of 4 replicas x 10 000 steps (max_temp 5,
random-walk sd 0.5, swap_interval 10).

Bands come from the standard error of the pooled figures, taken as the
spread of the four per-seed figures over sqrt(4), on base seeds 0-300,
400-700 and 800-1100. Pooled exploit layout: sd ratio 0.994, 1.001 and
0.997 (se 0.002-0.005), mean offset -0.001, -0.008 and +0.005 sd (se
0.005-0.010). The bands, sd ratio within 0.03 of 1 and mean within 0.05
sd, are about six se of the widest spread. With the ladder kept, the
cold rung read sd ratios of 1.069, 1.077 and 1.074 (se 0.003-0.014).
"""

import numpy as np
import pytest
from numpy.random import default_rng

from sapt.orchestrator import SamplerConfig, run_target
from sapt.tempering import ProposalConfig

from _targets import GaussianToyTarget

BASE_SEEDS = (0, 100, 200, 300)
STEPS = 10_000
REPLICAS = 4
# slot 0's samples from this step on, with the ladder kept
LADDER_FROM = 2000
SD_RATIO_BAND = 0.03
MEAN_OFFSET_BAND = 0.05  # in posterior sd


def conjugate_target():
    return GaussianToyTarget(default_rng(5).normal(1, 1, 20), 1.0, 1.0)


def sampled(burn_in_fraction, pick):
    """pick(chain) of every base seed's run, pooled into one array."""
    target = conjugate_target()
    parts = []
    for seed in BASE_SEEDS:
        cfg = SamplerConfig(replica_count=REPLICAS,
                            total_samples=REPLICAS * STEPS, swap_interval=10,
                            max_temp=5.0, burn_in_fraction=burn_in_fraction,
                            proposal=ProposalConfig(rw_step_sd=0.5),
                            base_seed=seed)
        chain, report = run_target(cfg, target, 1)
        assert not report.partial
        parts.append(pick(chain)[:, 0])
    return target, np.concatenate(parts)


def check_against_posterior(target, samples):
    mean, sd = target.posterior_mean_sd()
    assert abs(samples.std() / sd - 1.0) <= SD_RATIO_BAND
    assert abs(samples.mean() - mean) / sd <= MEAN_OFFSET_BAND


def test_pooled_exploit_layout_matches_posterior():
    # every replica's exploit half, at temperature 1
    check_against_posterior(*sampled(0.5, lambda c: c.combined_posterior()))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 8: today's swap rule sends the better state to the "
    "hotter rung and skips pairs by the last acceptance, so the cold "
    "rung's sd reads about 1.07 x the posterior's"))
def test_cold_rung_with_ladder_kept_matches_posterior():
    # burn_in_fraction 0.999 keeps the ladder to the last 10 steps
    check_against_posterior(*sampled(
        0.999, lambda c: c.traces[0].samples[LADDER_FROM:]))
