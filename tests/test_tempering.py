from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from sapt.exceptions import ConfigError, ContractError
from sapt.tempering import (
    KIND_LANGEVIN_MIX,
    KIND_RANDOM_WALK,
    PHASE_EXPLOIT,
    PHASE_TEMPERED,
    ProposalConfig,
    ReplicaState,
    acceptance_probability,
    apply_swap,
    build_ladder,
    energy_gradient,
    langevin_log_q_ratio,
    make_proposal,
    metropolis_step,
    propose_langevin,
    propose_rw,
    swap_probability,
)

from _targets import QuadraticTarget, TruncatedNormalTarget


def make_state(theta, temperature, target, **kw):
    theta = np.asarray(theta, dtype=np.float64)
    return ReplicaState(theta=theta, temperature=temperature,
                        log_lik=target.log_likelihood(theta),
                        log_prior=target.log_prior(theta), **kw)


class TestLadder:
    def test_geometric_with_exact_endpoints(self):
        ladder = build_ladder(10, 5.0)
        assert ladder[0] == 1.0
        assert ladder[-1] == 5.0
        ratios = ladder[1:] / ladder[:-1]
        npt.assert_allclose(ratios, 1.1958131745004019, rtol=1e-12)

    def test_flat_ladder_allowed(self):
        npt.assert_array_equal(build_ladder(4, 1.0), np.ones(4))

    def test_monotone_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            tmax = float(rng.uniform(1.0, 50.0))
            temps = build_ladder(m, tmax)
            assert temps.shape == (m,)
            assert np.all(np.diff(temps) >= 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            build_ladder(1, 5.0)
        for max_temp in (0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                build_ladder(4, max_temp)


class TestAcceptanceProbability:
    def test_known_value(self):
        npt.assert_allclose(acceptance_probability(-2.0, 2.0, 0.0, 0.0),
                            0.36787944117144232, rtol=1e-14)

    def test_improvement_is_certain(self):
        assert acceptance_probability(3.0, 1.0, 0.0, 0.0) == 1.0

    def test_high_temperature_flattens(self):
        assert acceptance_probability(-50.0, 1e9, 0.0, 0.0) > 0.999999

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = acceptance_probability(rng.normal(0, 10), rng.uniform(0.5, 8),
                                       rng.normal(0, 2), rng.normal(0, 2))
            assert 0.0 <= p <= 1.0

    def test_non_finite_exponent_is_nan(self):
        assert np.isnan(acceptance_probability(float("nan"), 1.0, 0.0, 0.0))
        assert np.isnan(acceptance_probability(-float("inf"), 1.0, 0.0, 0.0))
        # leaving a zero-density state is certain
        assert acceptance_probability(float("inf"), 1.0, 0.0, 0.0) == 1.0

    def test_rejects_bad_temperature(self):
        with pytest.raises(ContractError):
            acceptance_probability(-1.0, 0.0, 0.0, 0.0)


class TestProposals:
    def test_rw_noise_scale(self):
        rng = np.random.default_rng(5)
        theta = np.zeros(1000)
        draws = np.concatenate(
            [propose_rw(theta, 0.025, rng) for _ in range(200)])
        assert 0.0245 < draws.std() < 0.0255
        assert abs(draws.mean()) < 1e-4

    def test_rw_rejects_bad_sd(self):
        with pytest.raises(ContractError):
            propose_rw(np.zeros(3), 0.0, np.random.default_rng(0))

    @staticmethod
    def energy_grad(target, theta, temperature):
        # U = -(log_lik / T + log_prior), the tempered energy
        return -(target.log_likelihood_gradient(theta) / temperature
                 + target.log_prior_gradient(theta))

    def test_langevin_mean_descends_quadratic(self):
        # mean is theta - h grad U; the draw moves toward the mode
        target = QuadraticTarget(center=[2.0, -1.0, 0.5])
        h, temperature = 0.5, 2.0
        config = ProposalConfig(kind=KIND_LANGEVIN_MIX, lg_learning_rate=h)
        theta = np.array([5.0, 5.0, 5.0])
        proposal, _ = propose_langevin(theta, target, config,
                                       np.random.default_rng(7), temperature)
        mean = theta - h * self.energy_grad(target, theta, temperature)
        ref = np.random.default_rng(7)
        npt.assert_allclose(proposal,
                            mean + ref.normal(0.0, np.sqrt(2 * h), size=3),
                            rtol=1e-13)
        mode = target.center / (1.0 + temperature / 100.0)
        assert np.sum((proposal - mode) ** 2) \
            < 0.7 * np.sum((theta - mode) ** 2)

    def test_langevin_ratio_zero_when_gradient_free(self):
        target = QuadraticTarget(center=[0.0, 0.0])
        h = 0.5
        config = ProposalConfig(kind=KIND_LANGEVIN_MIX, lg_learning_rate=h)
        rng = np.random.default_rng(9)
        # at the center both gradients vanish, so the forward kernel is
        # centered on theta; the ratio uses the energy gradients
        proposal, ratio = propose_langevin(np.zeros(2), target, config, rng)
        grad = self.energy_grad(target, proposal, 1.0)
        expected = langevin_log_q_ratio(np.zeros(2), proposal,
                                        np.zeros(2), grad, h, np.sqrt(2 * h))
        npt.assert_allclose(ratio, expected, rtol=1e-12)

    def test_langevin_ratio_hand_case(self):
        lr, sd = 0.1, 0.2
        theta = np.array([0.0])
        proposal = np.array([1.0])
        g_theta = np.array([3.0])
        g_prop = np.array([-2.0])
        mean_fwd = theta - lr * g_theta
        mean_rev = proposal - lr * g_prop
        want = (-np.sum((theta - mean_rev) ** 2)
                + np.sum((proposal - mean_fwd) ** 2)) / (2 * sd * sd)
        got = langevin_log_q_ratio(theta, proposal, g_theta, g_prop, lr, sd)
        npt.assert_allclose(got, want, rtol=1e-13)

    def test_mix_consumes_selector_before_noise(self):
        # fixed draw order keeps replica streams alignable across schemes
        target = QuadraticTarget(center=[0.0, 0.0, 0.0])
        config = ProposalConfig(kind=KIND_LANGEVIN_MIX, lg_prob=0.0)
        theta = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(11)
        proposal, ratio = make_proposal(theta, target, config, rng)
        ref = np.random.default_rng(11)
        ref.uniform()
        npt.assert_array_equal(proposal,
                               theta + ref.normal(0.0, 0.025, size=3))
        assert ratio == 0.0

    def test_mix_drift_replays_selector_then_noise(self):
        # the selector, then sqrt(2 h) N(0, I) noise on the drift mean
        target = QuadraticTarget(center=[2.0, -1.0, 0.5])
        h, temperature = 0.02, 2.0
        config = ProposalConfig(kind=KIND_LANGEVIN_MIX, lg_learning_rate=h,
                                lg_prob=1.0)
        theta = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(37)
        proposal, _ = make_proposal(theta, target, config, rng, temperature)
        ref = np.random.default_rng(37)
        ref.uniform()
        mean = theta - h * energy_gradient(theta, target, temperature)
        npt.assert_array_equal(proposal,
                               mean + ref.normal(0.0, np.sqrt(2 * h), size=3))
        assert rng.random() == ref.random()

    def test_pure_rw_draws_no_selector(self):
        target = QuadraticTarget(center=[0.0])
        config = ProposalConfig(kind=KIND_RANDOM_WALK)
        theta = np.array([4.0])
        rng = np.random.default_rng(13)
        proposal, ratio = make_proposal(theta, target, config, rng)
        ref = np.random.default_rng(13)
        npt.assert_array_equal(proposal, theta + ref.normal(0.0, 0.025, 1))
        assert ratio == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ProposalConfig(kind="gibbs")
        for value in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ProposalConfig(rw_step_sd=value)
            with pytest.raises(ConfigError):
                ProposalConfig(lg_learning_rate=value)
        with pytest.raises(ConfigError):
            ProposalConfig(lg_prob=1.5)


class TestMetropolisStep:
    def test_improvement_accepted_at_t1(self):
        target = QuadraticTarget(center=[0.0, 0.0])
        state = make_state([3.0, 3.0], 1.0, target)
        proposal = np.array([0.1, 0.1])
        new = metropolis_step(state, proposal, 0.0, target,
                              np.random.default_rng(17),
                              target.log_likelihood(proposal))
        npt.assert_array_equal(new.theta, proposal)
        assert new.accepted_count == 1
        assert new.log_lik == target.log_likelihood(proposal)

    def test_hopeless_proposal_rejected(self):
        target = QuadraticTarget(center=[0.0, 0.0])
        state = make_state([0.0, 0.0], 1.0, target)
        proposal = np.array([1e4, 1e4])
        new = metropolis_step(state, proposal, 0.0, target,
                              np.random.default_rng(19),
                              target.log_likelihood(proposal))
        npt.assert_array_equal(new.theta, state.theta)
        assert new.accepted_count == 0
        assert new is state
        assert new.log_lik == state.log_lik

    def test_accept_uniform_replays_the_stream(self):
        # one uniform per step, accepted when it is <= the probability
        target = QuadraticTarget(center=[0.0])
        state = make_state([0.0], 1.0, target)
        proposal = np.array([1.2])
        log_lik = target.log_likelihood(proposal)
        prob = acceptance_probability(
            log_lik - state.log_lik, 1.0,
            target.log_prior(proposal) - state.log_prior, 0.0)
        decisions = set()
        for seed in range(40):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = metropolis_step(state, proposal, 0.0, target, rng, log_lik)
            accept = ref.uniform() <= prob
            assert (new is not state) == accept
            assert rng.random() == ref.random()
            decisions.add(accept)
        assert decisions == {True, False}

    def test_precomputed_log_lik_respected(self):
        # surrogate path hands in an estimate; target must not be called
        class Exploding:
            def log_likelihood(self, theta):
                raise AssertionError("true likelihood touched")

            def log_prior(self, theta):
                return 0.0

        target = QuadraticTarget(center=[0.0])
        state = make_state([0.0], 1.0, target)
        new = metropolis_step(state, np.array([0.5]), 0.0, Exploding(),
                              np.random.default_rng(23),
                              proposal_log_lik=state.log_lik + 5.0)
        assert new.accepted_count == 1
        assert new.log_lik == state.log_lik + 5.0

    def test_nan_exponent_rejects_and_warns(self, caplog):
        class NanTarget(QuadraticTarget):
            def log_likelihood(self, theta):
                return float("nan")

        target = QuadraticTarget(center=[0.0])
        state = make_state([0.0], 1.0, target)
        nan_target = NanTarget(center=[0.0])
        proposal = np.array([0.1])
        with caplog.at_level("WARNING", logger="sapt.tempering"):
            new = metropolis_step(state, proposal, 0.0, nan_target,
                                  np.random.default_rng(29),
                                  nan_target.log_likelihood(proposal))
        assert new.accepted_count == 0
        assert new is state
        assert any("non-finite" in r.message for r in caplog.records)

    def test_zero_density_state_takes_any_finite_proposal(self, caplog):
        target = TruncatedNormalTarget(2.0)
        state = make_state([2.5], 1.0, target)
        with caplog.at_level("WARNING", logger="sapt.tempering"):
            for seed in range(20):
                proposal = np.array([1.9])
                new = metropolis_step(state, proposal, 0.0, target,
                                      np.random.default_rng(seed),
                                      target.log_likelihood(proposal))
                assert new.accepted_count == 1
                assert new.log_lik == target.log_likelihood(np.array([1.9]))
        assert not caplog.records

    def test_zero_density_proposal_rejects_quietly(self, caplog):
        target = TruncatedNormalTarget(2.0)
        inside = make_state([1.0], 1.0, target)
        outside = make_state([2.5], 1.0, target)
        with caplog.at_level("WARNING", logger="sapt.tempering"):
            for state in (inside, outside):
                proposal = np.array([3.0])
                new = metropolis_step(state, proposal, 0.0, target,
                                      np.random.default_rng(31),
                                      target.log_likelihood(proposal))
                assert new is state
        assert not caplog.records


class TestSwap:
    def test_known_value(self):
        target = QuadraticTarget(center=[0.0])
        cold = make_state([0.0], 1.0, target)
        hot = make_state([0.0], 2.0, target)
        cold = replace(cold, log_lik=-10.0)
        hot = replace(hot, log_lik=-8.0)
        npt.assert_allclose(swap_probability(cold, hot),
                            0.36787944117144232, rtol=1e-14)

    def test_equal_temperatures_always_swap(self):
        target = QuadraticTarget(center=[0.0])
        a = make_state([1.0], 1.0, target)
        b = make_state([-4.0], 1.0, target)
        assert swap_probability(a, b) == 1.0

    def test_depends_only_on_differences(self):
        target = QuadraticTarget(center=[0.0])
        rng = np.random.default_rng(37)
        for _ in range(20):
            li, lj = rng.normal(0, 5, 2)
            shift = rng.normal(0, 10)
            a = make_state([0.0], 1.0, target)
            b = make_state([0.0], 3.0, target)
            p1 = swap_probability(replace(a, log_lik=li),
                                  replace(b, log_lik=lj))
            p2 = swap_probability(replace(a, log_lik=li + shift),
                                  replace(b, log_lik=lj + shift))
            npt.assert_allclose(p1, p2, rtol=1e-12)

    def test_inverted_pair_is_contract_error(self):
        target = QuadraticTarget(center=[0.0])
        cold = make_state([0.0], 1.0, target)
        hot = make_state([0.0], 2.0, target)
        with pytest.raises(ContractError):
            swap_probability(hot, cold)

    def test_apply_swap_moves_values_not_slots(self):
        target = QuadraticTarget(center=[0.0, 0.0])
        a = make_state([1.0, 2.0], 1.0, target, accepted_count=5)
        b = make_state([-3.0, 4.0], 2.5, target)
        new_a, new_b = apply_swap(a, b)
        npt.assert_array_equal(new_a.theta, b.theta)
        npt.assert_array_equal(new_b.theta, a.theta)
        assert new_a.log_lik == b.log_lik
        assert new_a.log_prior == b.log_prior
        assert new_a.temperature == 1.0
        assert new_b.temperature == 2.5
        assert new_a.accepted_count == 5

    def test_apply_swap_involution(self):
        target = QuadraticTarget(center=[0.0, 0.0])
        a = make_state([1.0, 2.0], 1.0, target)
        b = make_state([-3.0, 4.0], 2.5, target)
        c, d = apply_swap(*apply_swap(a, b))
        npt.assert_array_equal(c.theta, a.theta)
        npt.assert_array_equal(d.theta, b.theta)
        assert c.log_lik == a.log_lik
        assert d.log_lik == b.log_lik


def test_phase_constants_distinct():
    assert PHASE_TEMPERED != PHASE_EXPLOIT
