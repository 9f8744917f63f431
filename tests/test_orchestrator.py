import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import numpy.testing as npt
import pytest

import sapt.orchestrator as orchestrator
from sapt import bnn
from sapt.bnn import BnnPosterior, NetworkTopology, PriorConfig
from sapt.data import load_registered, make_dataset
from sapt.exceptions import ConfigError, ContractError
from sapt.orchestrator import (
    SOURCE_SURROGATE,
    SOURCE_TRUE,
    PosteriorChain,
    RunReport,
    SamplerConfig,
    run,
    run_target,
    swap_sweep,
)
from sapt.surrogate import surrogate_rmse
from sapt.tempering import (
    KIND_LANGEVIN_MIX,
    PHASE_EXPLOIT,
    PHASE_TEMPERED,
    ProposalConfig,
    ReplicaState,
    build_ladder,
)

import _bnn_reference
from _targets import (CountingTarget, FailingTarget, QuadraticTarget,
                      TruncatedNormalTarget)

DIM = 3
CENTER = [1.0, -2.0, 0.5]


def quad_target():
    return QuadraticTarget(center=CENTER)


class Decision(NamedTuple):
    before: ReplicaState
    proposal: np.ndarray
    log_lik: float        # the value the decision compared
    after: ReplicaState   # as metropolis_step returned it
    surrogate: bool       # orchestrator.blend made log_lik

    @property
    def accepted(self) -> bool:
        return self.after.accepted_count > self.before.accepted_count


def record_decisions(monkeypatch) -> dict:
    """Every Metropolis decision of the runs that follow, per replica
    (keyed by its generator) in stepping order. A decision took the
    surrogate path when orchestrator.blend made the value it compared."""
    decisions = {}
    blended = []
    original_blend = orchestrator.blend
    original_step = orchestrator.metropolis_step

    def blending(*args):
        blended.append(original_blend(*args))
        return blended[-1]

    def recording(state, proposal, log_q, tgt, rng, **kw):
        value = kw["proposal_log_lik"]
        surrogate = bool(blended)
        if surrogate:
            assert blended.pop() == value
        new = original_step(state, proposal, log_q, tgt, rng, **kw)
        decisions.setdefault(rng, []).append(
            Decision(state, proposal.copy(), value, new, surrogate))
        return new

    monkeypatch.setattr(orchestrator, "blend", blending)
    monkeypatch.setattr(orchestrator, "metropolis_step", recording)
    return decisions


def small_config(**kw):
    base = dict(replica_count=3, total_samples=600, swap_interval=20,
                surrogate_interval=20, max_temp=4.0, base_seed=42)
    base.update(kw)
    return SamplerConfig(**base)


class TestSamplerConfig:
    def test_derived_quantities(self):
        cfg = small_config()
        assert cfg.steps_per_replica == 200
        assert cfg.blocks_per_interval == 1
        cfg2 = small_config(surrogate_interval=60)
        assert cfg2.blocks_per_interval == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(replica_count=1)
        with pytest.raises(ConfigError):
            small_config(total_samples=2)
        with pytest.raises(ConfigError):
            small_config(swap_interval=0)
        with pytest.raises(ConfigError):
            small_config(surrogate_interval=30)  # not a multiple of 20
        with pytest.raises(ConfigError):
            small_config(surrogate_prob=1.5)
        with pytest.raises(ConfigError):
            small_config(surrogate_prob=1.0)  # the surrogate would never refit
        with pytest.raises(ConfigError):
            small_config(burn_in_fraction=1.0)
        with pytest.raises(ConfigError):
            small_config(burn_in_fraction=0.0)
        for max_temp in (0.9, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                small_config(max_temp=max_temp)
        with pytest.raises(ConfigError):
            small_config(base_seed=-1)


class TestSwapSweep:
    def states_at(self, log_liks, temps):
        return [ReplicaState(theta=np.array([float(i)]), temperature=t,
                             log_lik=ll, log_prior=0.0)
                for i, (ll, t) in enumerate(zip(log_liks, temps))]

    def test_accepted_swap_exchanges_neighbors(self):
        # the exchange exponent (1/T_j - 1/T_i)(L_j - L_i) is positive
        # exactly when the hotter slot holds the lower value
        temps = build_ladder(3, 4.0)
        states = self.states_at([-1.0, -50.0, -60.0], temps)
        swapped, mask = swap_sweep(states, np.random.default_rng(0))
        assert mask[0]
        assert swapped[0].log_lik == -50.0
        assert swapped[1].log_lik == -1.0
        npt.assert_array_equal([s.temperature for s in swapped], temps)

    def test_pair_exclusivity(self):
        # after pair (i, i+1) swaps, pair (i+1, i+2) sits out the sweep
        temps = build_ladder(4, 4.0)
        states = self.states_at([-1.0, -50.0, -2.0, -3.0], temps)
        _, mask = swap_sweep(states, np.random.default_rng(1))
        assert mask.shape == (3,)
        assert mask[0]
        assert not mask[1]

    def test_flat_ladder_all_swap(self):
        states = self.states_at([-5.0, -4.0, -3.0], np.ones(3))
        _, mask = swap_sweep(states, np.random.default_rng(2))
        # beta = 1 at equal temperatures; exclusivity blocks the second pair
        assert mask[0]
        assert not mask[1]

    def test_single_pair_statistics(self):
        temps = build_ladder(2, 2.0)
        rng = np.random.default_rng(3)
        hits = 0
        trials = 20000
        for _ in range(trials):
            _, mask = swap_sweep(self.states_at([-10.0, -8.0], temps), rng)
            hits += int(mask[0])
        # beta = exp(-1); binomial three-sigma band
        assert abs(hits / trials - 0.36787944117144232) < 0.011


class TestRunBasics:
    def test_shapes_and_accounting(self):
        cfg = small_config()
        chain, report = run_target(cfg, quad_target(), DIM)
        assert isinstance(chain, PosteriorChain)
        assert isinstance(report, RunReport)
        assert len(chain.traces) == 3
        for trace in chain.traces:
            assert trace.samples.shape == (200, DIM)
            assert trace.log_liks.shape == (200,)
            assert trace.steps == 200
            assert trace.exploit_start == 100
            assert set(trace.sources) <= {SOURCE_TRUE, SOURCE_SURROGATE}
            assert list(trace.phases[:100]) == [PHASE_TEMPERED] * 100
            assert list(trace.phases[100:]) == [PHASE_EXPLOIT] * 100
        assert report.replica_count == 3
        assert report.steps_per_replica == 200

    def test_posterior_size_and_thin(self):
        cfg = small_config()
        chain, _ = run_target(cfg, quad_target(), DIM)
        post = chain.combined_posterior()
        assert post.shape == (300, DIM)
        thinned = chain.combined_posterior(thin=10)
        assert thinned.shape == (30, DIM)
        with pytest.raises(ContractError):
            chain.combined_posterior(thin=0)

    def test_conservation_without_surrogate(self):
        cfg = small_config()
        _, report = run_target(cfg, quad_target(), DIM)
        assert report.true_evals == 600
        assert report.surrogate_evals == 0
        assert report.train_rmse == []
        assert report.prediction_rmse is None

    def test_posterior_concentrates_on_center(self):
        # wider steps than the default so the chain mixes within budget
        cfg = small_config(total_samples=6000, base_seed=7,
                           proposal=ProposalConfig(rw_step_sd=0.5))
        chain, report = run_target(cfg, quad_target(), DIM)
        post = chain.combined_posterior()
        npt.assert_allclose(post.mean(axis=0), CENTER, atol=0.35)
        assert 0.0 < report.swap_acceptance_rate <= 1.0
        for rate in report.replica_acceptance:
            assert 0.0 < rate < 1.0

    def test_langevin_mix_runs(self):
        cfg = small_config(
            proposal=ProposalConfig(kind=KIND_LANGEVIN_MIX,
                                    lg_learning_rate=0.05))
        chain, _ = run_target(cfg, quad_target(), DIM)
        assert chain.combined_posterior().shape == (300, DIM)

    def test_swap_counts_match_decisions(self, monkeypatch):
        calls = {"probability": 0, "swap": 0}
        probability = orchestrator.swap_probability
        swap = orchestrator.apply_swap

        def counted_probability(a, b):
            calls["probability"] += 1
            return probability(a, b)

        def counted_swap(a, b):
            calls["swap"] += 1
            return swap(a, b)

        monkeypatch.setattr(orchestrator, "swap_probability",
                            counted_probability)
        monkeypatch.setattr(orchestrator, "apply_swap", counted_swap)
        cfg = small_config(replica_count=5, total_samples=1000,
                           swap_interval=10, surrogate_interval=10)
        _, report = run_target(cfg, quad_target(), DIM)
        # exclusivity skips some pairs, so attempts fall below 4 per sweep
        assert calls["swap"] > 0
        assert report.swap_attempts == calls["probability"] < 4 * 20
        assert report.swap_accepts == calls["swap"]

    def test_minus_inf_likelihood_is_a_rejection(self):
        """A target may return -inf outside its support: such a proposal
        is rejected and the run goes on. Every start draw here lies
        inside the box."""
        class Boxed(QuadraticTarget):
            outside = 0

            def log_likelihood(self, theta):
                if np.abs(theta).max() >= 2.0:
                    self.outside += 1
                    return -math.inf
                return super().log_likelihood(theta)

        target = Boxed(np.zeros(DIM))
        cfg = small_config(proposal=ProposalConfig(rw_step_sd=1.0))
        chain, report = run_target(cfg, target, DIM)
        assert "partial false" in report.to_text().splitlines()
        assert target.outside > 100
        for trace in chain.traces:
            assert np.abs(trace.samples).max() < 2.0
            assert np.isfinite(trace.log_liks).all()

    def test_chain_leaves_a_minus_inf_start(self, caplog):
        """Seed 3 starts replica 0 at 2.04, outside the support: its first
        finite proposal is a certain accept, and no -inf proposal logs."""
        cfg = SamplerConfig(replica_count=2, total_samples=400, base_seed=3,
                            proposal=ProposalConfig(rw_step_sd=1.0))
        with caplog.at_level("WARNING"):
            chain, report = run_target(cfg, TruncatedNormalTarget(2.0), 1)
        assert not report.partial
        assert not caplog.records
        for trace in chain.traces:
            assert np.abs(trace.samples).max() < 2.0
            assert np.isfinite(trace.log_liks).all()

    def test_report_text_schema(self):
        cfg = small_config()
        _, report = run_target(cfg, quad_target(), DIM)
        text = report.to_text()
        for key in ["elapsed_seconds", "replica_count", "true_evals",
                    "surrogate_evals", "surrogate_truths_measured 0",
                    "swap_attempts",
                    "swap_accepts", "partial false"]:
            assert key in text


class TestTemperatureSchedule:
    @pytest.mark.parametrize("burn_in_fraction, exploit_start",
                             [(0.5, 100), (0.33, 66), (0.004, 0)])
    def test_slot_temperature_at_every_step(self, monkeypatch,
                                            burn_in_fraction, exploit_start):
        """Slot i steps at build_ladder(...)[i] before exploit_start and
        at 1 from there on, whatever the swaps move; 66 falls inside a
        swap block, and exploit_start 0 leaves no tempered step."""
        decisions = record_decisions(monkeypatch)
        cfg = small_config(burn_in_fraction=burn_in_fraction)
        chain, _ = run_target(cfg, quad_target(), DIM)
        ladder = build_ladder(cfg.replica_count, cfg.max_temp)
        assert len(decisions) == cfg.replica_count
        for i, (slot, trace) in enumerate(zip(decisions.values(),
                                              chain.traces)):
            assert trace.exploit_start == exploit_start
            exploit_steps = trace.steps - exploit_start
            assert [d.before.temperature for d in slot] \
                == [ladder[i]] * exploit_start + [1.0] * exploit_steps


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = small_config(surrogate_prob=0.5)
        a_chain, a_rep = run_target(cfg, quad_target(), DIM)
        b_chain, b_rep = run_target(cfg, quad_target(), DIM)
        for ta, tb in zip(a_chain.traces, b_chain.traces):
            npt.assert_array_equal(ta.samples, tb.samples)
            npt.assert_array_equal(ta.log_liks, tb.log_liks)
            npt.assert_array_equal(ta.sources, tb.sources)
        assert a_rep.true_evals == b_rep.true_evals
        assert a_rep.swap_accepts == b_rep.swap_accepts

    def test_seed_changes_trajectories(self):
        a_chain, _ = run_target(small_config(), quad_target(), DIM)
        b_chain, _ = run_target(small_config(base_seed=43), quad_target(), DIM)
        assert not np.array_equal(a_chain.traces[0].samples,
                                  b_chain.traces[0].samples)

    @staticmethod
    def check_sequential_mode_changes_nothing(cfg_seq):
        """sequential_mode is accepted and ignored: a run is the same under
        either value."""
        cfg_par = SamplerConfig(**{**cfg_seq.__dict__,
                                   "sequential_mode": False})
        seq_chain, seq_rep = run_target(cfg_seq, quad_target(), DIM)
        par_chain, par_rep = run_target(cfg_par, quad_target(), DIM)
        assert len(par_chain.traces) == len(seq_chain.traces) == 3
        for ts, tp in zip(seq_chain.traces, par_chain.traces):
            npt.assert_array_equal(ts.samples, tp.samples)
            npt.assert_array_equal(ts.log_liks, tp.log_liks)
            npt.assert_array_equal(ts.sources, tp.sources)
            npt.assert_array_equal(ts.surrogate_estimates,
                                   tp.surrogate_estimates)
        # every counter and RMSE equal; only the wall time may differ
        par_rep.elapsed_seconds = seq_rep.elapsed_seconds
        assert seq_rep == par_rep
        assert seq_rep.swap_accepts > 0
        assert not par_rep.partial
        return seq_rep

    def test_parallel_matches_sequential(self):
        self.check_sequential_mode_changes_nothing(
            small_config(total_samples=360, swap_interval=10,
                         surrogate_interval=10, sequential_mode=True))

    def test_parallel_matches_sequential_with_surrogate(self):
        # a surrogate run steps both paths and refits
        report = self.check_sequential_mode_changes_nothing(
            small_config(total_samples=360, swap_interval=10,
                         surrogate_interval=20, surrogate_prob=0.5,
                         sequential_mode=True))
        assert report.surrogate_evals > 0 and report.train_rmse


class TestSurrogatePath:
    def surrogate_cfg(self, **kw):
        return small_config(total_samples=1800, swap_interval=25,
                            surrogate_interval=50, surrogate_prob=0.5,
                            **kw)

    def test_conservation_exact(self):
        cfg = self.surrogate_cfg()
        _, report = run_target(cfg, quad_target(), DIM)
        assert report.surrogate_evals > 0
        assert report.true_evals + report.surrogate_evals == 1800

    def test_warmup_interval_is_all_true(self):
        cfg = self.surrogate_cfg()
        chain, _ = run_target(cfg, quad_target(), DIM)
        for trace in chain.traces:
            assert all(s == SOURCE_TRUE for s in trace.sources[:50])

    def test_post_warmup_fraction(self):
        cfg = self.surrogate_cfg()
        chain, _ = run_target(cfg, quad_target(), DIM)
        used = sum(np.sum(np.asarray(t.sources[50:]) == SOURCE_SURROGATE)
                   for t in chain.traces)
        total = sum(len(t.sources[50:]) for t in chain.traces)
        # binomial(total, 0.5) within four sigma
        sigma = np.sqrt(total * 0.25)
        assert abs(used - 0.5 * total) < 4 * sigma

    def test_truths_measured_where_estimates_kept(self, monkeypatch):
        """A true value is measured exactly where the chain kept a
        surrogate-path proposal, and the RMSE covers those values."""
        decisions = record_decisions(monkeypatch)
        target = quad_target()
        chain, report = run_target(self.surrogate_cfg(), target, DIM)
        kept = []
        for trace, rows in zip(chain.traces, decisions.values()):
            rows = [d for d in rows if d.surrogate]
            kept_here = np.array([d.accepted for d in rows], dtype=bool)
            npt.assert_array_equal(trace.surrogate_estimates,
                                   [d.log_lik for d in rows])
            npt.assert_array_equal(np.isfinite(trace.surrogate_truths),
                                   kept_here)
            npt.assert_array_equal(
                trace.surrogate_truths[kept_here],
                [target.log_likelihood(d.proposal) for d in rows
                 if d.accepted])
            kept.append(kept_here)
        kept = np.concatenate(kept)
        assert 0 < kept.sum() < kept.size == report.surrogate_evals
        truths = np.concatenate([t.surrogate_truths for t in chain.traces])
        estimates = np.concatenate([t.surrogate_estimates
                                    for t in chain.traces])
        # the RMSE covers the true values the run measured, and says how
        # many those were
        assert report.truths_measured == kept.sum()
        assert report.prediction_rmse == surrogate_rmse(truths[kept],
                                                        estimates[kept])
        assert (f"surrogate_truths_measured {report.truths_measured}"
                in report.to_text().splitlines())

    def test_measuring_makes_no_extra_call(self, monkeypatch):
        """Measuring costs no extra likelihood call: a kept surrogate-path
        proposal is measured once and a rejected one never."""
        decisions = record_decisions(monkeypatch)
        target = CountingTarget(CENTER)
        chain, report = run_target(self.surrogate_cfg(), target, DIM)
        # every call is a start value, a true-path step or a measured
        # true value
        measured = sum(int(np.isfinite(t.surrogate_truths).sum())
                       for t in chain.traces)
        assert report.truths_measured == measured > 0
        assert len(target.thetas) == report.true_evals + measured + 3
        assert report.true_evals + report.surrogate_evals == 1800
        called = Counter(target.thetas)
        rows = [d for rows in decisions.values() for d in rows
                if d.surrogate]
        assert len(rows) == report.surrogate_evals
        for d in rows:
            assert called[d.proposal.tobytes()] == int(d.accepted)
        assert any(d.accepted for d in rows) \
            and not all(d.accepted for d in rows)

    @pytest.mark.parametrize("sequential", [True, False])
    def test_true_path_never_compares_against_estimate(self, monkeypatch,
                                                       sequential):
        """An estimate decides its one step only: the state every decision
        starts from, both states of every swap decision and every trace
        row hold the true log-likelihood at their theta. sequential_mode
        is ignored, so this holds under either value."""
        decisions = record_decisions(monkeypatch)
        swap_pairs = []
        original_swap = orchestrator.swap_probability

        def recording_swap(state_i, state_j):
            swap_pairs.append((state_i, state_j))
            return original_swap(state_i, state_j)

        monkeypatch.setattr(orchestrator, "swap_probability", recording_swap)
        target = quad_target()
        chain, _ = run_target(self.surrogate_cfg(sequential_mode=sequential),
                              target, DIM)
        rows = [d for rows in decisions.values() for d in rows]
        # surrogate-path steps were kept, and later decisions start there
        assert any(d.surrogate and d.accepted for d in rows)
        assert any(not d.surrogate for d in rows)
        for d in rows:
            assert d.before.log_lik == target.log_likelihood(d.before.theta)
        assert swap_pairs
        for state in (s for pair in swap_pairs for s in pair):
            assert state.log_lik == target.log_likelihood(state.theta)
        for trace in chain.traces:
            for s in range(trace.steps):
                assert trace.log_liks[s] \
                    == target.log_likelihood(trace.samples[s])

    def test_blend_averages_the_last_three_used_values(self, monkeypatch):
        """A surrogate-path step blends the values its replica's last
        min(3, k) steps used, true or blended, in step order, where k is
        the number of steps the replica has taken."""
        used = {}          # a runner's rng -> (value, blended) per step
        windows = []       # the window of the step being decided
        lengths = Counter()
        blended_in_window = 0
        original_blend = orchestrator.blend
        original_step = orchestrator.metropolis_step

        def blending(estimate, recent):
            windows.append(list(recent))
            return original_blend(estimate, recent)

        def recording(state, proposal, log_q, tgt, rng, **kw):
            nonlocal blended_in_window
            steps = used.setdefault(rng, [])
            surrogate = bool(windows)
            if surrogate:
                last = steps[-3:]
                assert windows.pop() == [value for value, _ in last]
                lengths[len(last)] += 1
                blended_in_window += any(b for _, b in last)
            steps.append((kw["proposal_log_lik"], surrogate))
            return original_step(state, proposal, log_q, tgt, rng, **kw)

        monkeypatch.setattr(orchestrator, "blend", blending)
        monkeypatch.setattr(orchestrator, "metropolis_step", recording)
        # the first refit follows every replica's first step
        cfg = small_config(swap_interval=1, surrogate_interval=1,
                           surrogate_prob=0.5)
        _, report = run_target(cfg, quad_target(), DIM)
        assert sum(lengths.values()) == report.surrogate_evals
        assert lengths[1] > 0 and lengths[2] > 0 and lengths[3] > 0
        assert blended_in_window > 0

    @pytest.mark.parametrize("surrogate_prob", [0.0, 0.5])
    def test_likelihood_calls_count_every_call(self, surrogate_prob):
        target = CountingTarget(CENTER)
        cfg = small_config(total_samples=1800, swap_interval=25,
                           surrogate_interval=50,
                           surrogate_prob=surrogate_prob)
        _, report = run_target(cfg, target, DIM)
        assert report.likelihood_calls == len(target.thetas)
        assert (f"likelihood_calls {report.likelihood_calls}"
                in report.to_text().splitlines())
        # a rejected surrogate-path step saves its call
        saved = report.surrogate_evals - report.truths_measured
        assert report.likelihood_calls == 1800 + cfg.replica_count - saved
        assert saved > 0 or surrogate_prob == 0.0

    def test_train_rmse_schedule(self):
        # 600 steps per replica, interval 50: training at every boundary
        cfg = self.surrogate_cfg()
        _, report = run_target(cfg, quad_target(), DIM)
        assert len(report.train_rmse) == 12
        for rmse in report.train_rmse:
            assert 0.0 <= rmse < 1.0

    def test_refit_lines_name_their_intervals(self):
        """An interval that stages no true-likelihood rows is skipped, and
        each refit's report line names its own interval, not its count."""
        cfg = small_config(total_samples=1800, swap_interval=5,
                           surrogate_interval=10, surrogate_prob=0.97)
        chain, report = run_target(cfg, quad_target(), DIM)
        # interval k refits iff some replica took a true-path step in it
        true_steps = set()
        for trace in chain.traces:
            true_path = np.ones(trace.steps, dtype=bool)
            true_path[trace.surrogate_steps] = False
            true_steps.update(np.flatnonzero(true_path).tolist())
        intervals = sorted({s // 10 + 1 for s in true_steps})
        assert intervals != list(range(1, len(intervals) + 1))
        assert len(report.train_rmse) == len(intervals)
        written = [line for line in report.to_text().splitlines()
                   if line.startswith("surrogate_train_rmse_interval")]
        assert written == [f"surrogate_train_rmse_interval{k} {rmse:.8g}"
                           for k, rmse in zip(intervals, report.train_rmse)]
        assert report.refit_intervals == intervals

    def test_training_rows_in_runner_then_step_order(self, monkeypatch):
        """Each refit gets every runner's true-path rows since the last
        one: runner 0's first, each runner's in step order."""
        decisions = record_decisions(monkeypatch)
        used = Counter()    # a runner's rng -> its decisions already trained
        batch_rows = []
        original_train = orchestrator.SurrogateModel.train

        def capturing(model, batch, *args, **kwargs):
            batch_rows.append(batch.rows)
            expected = []
            for rng, rows in decisions.items():
                expected += [(d.proposal, d.log_lik)
                             for d in rows[used[rng]:] if not d.surrogate]
                used[rng] = len(rows)
            npt.assert_array_equal(batch.inputs,
                                   np.array([x for x, _ in expected]))
            npt.assert_array_equal(batch.targets,
                                   np.array([y for _, y in expected]))
            return original_train(model, batch, *args, **kwargs)

        monkeypatch.setattr(orchestrator.SurrogateModel, "train", capturing)
        cfg = small_config(total_samples=1800, swap_interval=10,
                           surrogate_interval=30, surrogate_prob=0.5)
        _, report = run_target(cfg, quad_target(), DIM)
        # runner 0 steps first, so decisions holds the runners in order
        assert len(decisions) == 3
        assert len(batch_rows) == len(report.train_rmse) == 600 // 30
        assert batch_rows[0] == 3 * 30
        assert report.surrogate_evals > 0

    def test_surrogate_steps_recorded(self):
        cfg = self.surrogate_cfg()
        chain, report = run_target(cfg, quad_target(), DIM)
        per_trace = [len(t.surrogate_steps) for t in chain.traces]
        assert sum(per_trace) == report.surrogate_evals
        for trace in chain.traces:
            assert all(s >= 50 for s in trace.surrogate_steps)
            assert len(trace.surrogate_estimates) == len(trace.surrogate_steps)


class TestFailurePaths:
    def test_likelihood_exception_yields_partial_report(self):
        cfg = small_config()
        target = FailingTarget(center=CENTER, fail_after=50)
        chain, report = run_target(cfg, target, DIM)
        assert report.partial
        assert report.failure == "RuntimeError: likelihood backend gave up"
        assert "partial true" in report.to_text()
        assert chain.traces == []

    @pytest.mark.parametrize("sequential", [True, False])
    def test_partial_report_keeps_every_counter(self, monkeypatch,
                                                sequential):
        # the run fails at its 501st likelihood call. A refit runs after
        # its interval's calls, so the failing run refits wherever the
        # same run on a target that never fails has made at most 500 calls
        # by then. A rejected surrogate-path step makes no call, but this
        # target accepts most of them: 447 calls before refit 3 and 597
        # before refit 4, so 3 refits. Both counts are pins of this seed's
        # surrogate chain and move whenever that chain does. sequential_mode
        # is ignored, so the counts are the same under either value
        cfg = small_config(total_samples=1800, swap_interval=25,
                           surrogate_interval=50, surrogate_prob=0.5,
                           sequential_mode=sequential)
        counting = CountingTarget(CENTER)
        calls_at_refit = []
        original = orchestrator.SurrogateModel.train

        def counted(model, batch, *args, **kwargs):
            calls_at_refit.append(len(counting.thetas))
            return original(model, batch, *args, **kwargs)

        monkeypatch.setattr(orchestrator.SurrogateModel, "train", counted)
        run_target(cfg, counting, DIM)
        refits = sum(calls <= 500 for calls in calls_at_refit)
        assert calls_at_refit[2:4] == [447, 597]
        assert refits == 3

        target = FailingTarget(center=CENTER, fail_after=500)
        chain, report = run_target(cfg, target, DIM)
        assert report.partial
        assert report.swap_attempts > 0
        assert len(report.train_rmse) == refits
        assert chain.traces == []
        # every successful likelihood call is a start value, a true-path
        # step or the measured true value of a kept estimate
        assert report.true_evals > 0 and report.truths_measured > 0
        assert report.true_evals + report.truths_measured \
            + cfg.replica_count == report.likelihood_calls == 500
        assert report.truths_measured < report.surrogate_evals
        assert len(report.replica_acceptance) == cfg.replica_count
        text = report.to_text().splitlines()
        for key in ("true_evals", "surrogate_evals", "likelihood_calls",
                    "swap_attempts", "swap_accepts"):
            assert f"{key} {getattr(report, key)}" in text
        assert f"surrogate_truths_measured {report.truths_measured}" in text
        for i, rate in enumerate(report.replica_acceptance):
            assert f"acceptance_rate_replica{i} {rate:.8g}" in text
        for k, rmse in enumerate(report.train_rmse, start=1):
            assert f"surrogate_train_rmse_interval{k} {rmse:.8g}" in text


class TestBnnRun:
    def test_run_wrapper_smoke(self, tiny_dataset, tiny_topology):
        cfg = small_config(total_samples=450, swap_interval=15,
                           surrogate_interval=15)
        chain, report = run(cfg, tiny_dataset, tiny_topology)
        post = chain.combined_posterior()
        assert post.shape[1] == tiny_topology.parameter_count
        assert report.true_evals == 450

    def test_rejects_mismatched_topology(self, tiny_dataset):
        cfg = small_config()
        with pytest.raises(ContractError):
            run(cfg, tiny_dataset, NetworkTopology(5, 3, 2))

    def test_skipped_refits_warn_once(self, caplog):
        """The cancer-surrogate benchmark workload at sub-seed 1000 with
        surrogate_prob 0.999: most of its 40 intervals stage no true
        likelihood rows, and the run logs one warning that counts them."""
        entry, train, _ = load_registered("cancer", 0.6, seed=1000)
        cfg = SamplerConfig(replica_count=4, total_samples=8000,
                            swap_interval=50, surrogate_prob=0.999,
                            base_seed=1000)
        with caplog.at_level("WARNING", logger="sapt.orchestrator"):
            _, report = run(cfg, train, entry.topology())
        warned = [r.getMessage() for r in caplog.records
                  if "no true-likelihood rows" in r.getMessage()]
        refits = len(report.refit_intervals)
        assert 0 < refits < 40
        assert len(warned) == 1
        assert warned[0].startswith(f"{40 - refits} of 40 ")


class PlainPosterior(BnnPosterior):
    """BnnPosterior without its memo: every call is a fresh pass."""

    def log_likelihood(self, theta):
        return bnn.log_likelihood(theta, self.dataset, self.topology)

    def log_likelihood_gradient(self, theta):
        return BnnPosterior(self.topology, self.dataset,
                            self.prior).log_likelihood_gradient(theta)


class ReferencePosterior(BnnPosterior):
    """BnnPosterior whose every likelihood and gradient call runs the
    reference formulas."""

    def log_likelihood(self, theta):
        return _bnn_reference.log_likelihood(theta, self.dataset,
                                             self.topology)

    def log_likelihood_gradient(self, theta):
        return _bnn_reference.log_likelihood_gradient(theta, self.dataset,
                                                      self.topology)


class TestPosteriorMemoRuns:
    @pytest.mark.parametrize("surrogate_prob", [0.0, 0.5])
    def test_fewer_passes_same_chains(self, surrogate_prob, iris,
                                      monkeypatch):
        """With drift steps, the memo saves backward and forward passes,
        and the chains stay bit for bit those of fresh passes. Once it
        has served a gradient, no replica's run of consecutive steps here
        passes a theta forward twice: three entries keep the current
        point through a random-walk proposal, where two did not. A
        longer run can still see the current point evicted by three
        newer entries (6 of 8004 points on iris-lg at sub-seed 9000)."""
        counts = {"_forward": 0, "_backward": 0}
        seen = set()    # thetas passed forward in this run of steps
        repeats = []
        stepping = [None]
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(bnn, name)):
                counts[_name] += 1
                if _name == "_forward" and counts["_backward"]:
                    key = args[0].tobytes()
                    if key in seen:
                        repeats.append(key)
                    seen.add(key)
                return _fn(*args)
            monkeypatch.setattr(bnn, name, counted)

        def one_step(runner, _fn=orchestrator._ReplicaRunner._one_step):
            # the other replicas' steps in between may evict any entry
            if stepping[0] is not runner:
                stepping[0] = runner
                seen.clear()
            return _fn(runner)
        monkeypatch.setattr(orchestrator._ReplicaRunner, "_one_step",
                            one_step)
        topo = NetworkTopology(4, 5, 3)
        cfg = small_config(
            total_samples=480, swap_interval=10, surrogate_interval=40,
            surrogate_prob=surrogate_prob,
            proposal=ProposalConfig(kind=KIND_LANGEVIN_MIX))
        runs = {}
        for kind in (BnnPosterior, PlainPosterior):
            for name in counts:
                counts[name] = 0
            stepping[0] = None
            repeats.clear()
            target = kind(topo, iris[1], cfg.prior)
            runs[kind] = (run_target(cfg, target, topo.parameter_count),
                          dict(counts), len(repeats))
        (memo, memo_report), memo_counts, memo_repeats = runs[BnnPosterior]
        (plain, plain_report), plain_counts, _ = runs[PlainPosterior]
        assert not memo_report.partial and not plain_report.partial
        for name in counts:
            assert 0 < memo_counts[name] < plain_counts[name], name
        assert memo_repeats == 0
        for a, b in zip(memo.traces, plain.traces, strict=True):
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.log_liks, b.log_liks)
            assert np.array_equal(a.surrogate_estimates,
                                  b.surrogate_estimates)


class TestLeanKernelChains:
    """Chains sampled with the lean likelihood kernel equal, bit for bit,
    those sampled with the reference formulas, below and above the
    8-class point where the row-sum order changes."""

    def dataset(self, classes, iris):
        if classes == 3:
            return iris[1]
        rng = np.random.default_rng(5)
        labels = np.arange(72) % classes
        features = rng.normal(size=(72, 4)) + 0.3 * labels[:, None]
        return make_dataset(features, labels, classes)

    @pytest.mark.parametrize("classes", [3, 9])
    def test_chains_match_reference_kernel(self, classes, iris):
        ds = self.dataset(classes, iris)
        topo = NetworkTopology(4, 5, classes)
        cfg = small_config(
            total_samples=480, swap_interval=10, surrogate_interval=40,
            surrogate_prob=0.5,
            proposal=ProposalConfig(kind=KIND_LANGEVIN_MIX))
        lean, lean_report = run(cfg, ds, topo)
        reference, reference_report = run_target(
            cfg, ReferencePosterior(topo, ds, cfg.prior),
            topo.parameter_count)
        assert not lean_report.partial and not reference_report.partial
        for a, b in zip(lean.traces, reference.traces):
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.log_liks, b.log_liks)

