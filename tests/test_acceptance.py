"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line with the measured numbers; the
asserts carry the same numbers so a failure is self-explaining. Scale
is deliberately small (M=4, 8000 total samples for the dataset runs)
so the whole file runs in seconds.
"""
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt

from sapt.bnn import forward_batch, softmax, sse_gradient
from sapt.data import load_registered
from sapt.diagnostics import posterior_accuracy
from sapt.orchestrator import (
    INITIAL_THETA_SD,
    SOURCE_SURROGATE,
    SOURCE_TRUE,
    SamplerConfig,
    run,
    run_target,
    swap_sweep,
)
from sapt.surrogate import SurrogateBatch, SurrogateModel, surrogate_rmse
from sapt.tempering import (
    KIND_LANGEVIN_MIX,
    ProposalConfig,
    ReplicaState,
    acceptance_probability,
    apply_swap,
    build_ladder,
    make_proposal,
    metropolis_step,
    propose_rw,
    swap_probability,
)

from _targets import GaussianToyTarget, QuadraticTarget

DESK_SEEDS = (1, 2, 3)


def verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return detail


def dataset_accuracy(name, proposal, surrogate_prob):
    """3-seed test accuracy means at the small benchmark scale."""
    means = []
    elapsed = 0.0
    for seed in DESK_SEEDS:
        entry, train, test = load_registered(name, seed=seed)
        config = SamplerConfig(replica_count=4, total_samples=8000,
                               proposal=proposal,
                               surrogate_prob=surrogate_prob,
                               base_seed=seed)
        start = time.perf_counter()
        chain, report = run(config, train, entry.topology())
        elapsed += time.perf_counter() - start
        summary = posterior_accuracy(chain, train, test, entry.topology())
        means.append(summary.test_mean)
    return float(np.mean(means)), means, elapsed


def test_criterion_1_iris_langevin_accuracy():
    proposal = ProposalConfig(kind=KIND_LANGEVIN_MIX)
    mean, means, elapsed = dataset_accuracy("iris", proposal, 0.0)
    ok = mean >= 90.0 and elapsed < 300.0
    detail = verdict(1, ok,
                     f"iris gradient-mix test accuracy mean {mean:.2f} over "
                     f"seeds {list(DESK_SEEDS)} = {[f'{m:.2f}' for m in means]}, "
                     f"need >= 90, elapsed {elapsed:.0f}s")
    assert ok, detail


def test_criterion_2_cancer_surrogate_accuracy():
    mean, means, elapsed = dataset_accuracy("cancer", ProposalConfig(), 0.5)
    ok = mean >= 88.0
    detail = verdict(2, ok,
                     f"cancer surrogate-assisted test accuracy mean {mean:.2f} "
                     f"over seeds {list(DESK_SEEDS)} = "
                     f"{[f'{m:.2f}' for m in means]}, need >= 88")
    assert ok, detail


def test_criterion_3_evaluation_savings():
    config = SamplerConfig(replica_count=4, total_samples=16000,
                           swap_interval=50, surrogate_interval=50,
                           surrogate_prob=0.5, base_seed=11)
    target = QuadraticTarget(center=[0.3, -0.7, 1.1])
    chain, report = run_target(config, target, 3)
    conserved = report.true_evals + report.surrogate_evals == 16000
    warmup = config.surrogate_interval
    true_after = sum(np.sum(np.asarray(t.sources[warmup:]) == SOURCE_TRUE)
                     for t in chain.traces)
    total_after = sum(len(t.sources[warmup:]) for t in chain.traces)
    fraction = true_after / total_after
    ok = conserved and total_after >= 10 ** 4 and 0.45 <= fraction <= 0.55
    detail = verdict(3, ok,
                     f"true-evaluation fraction {fraction:.4f} over "
                     f"{total_after} post-warmup steps, need [0.45, 0.55]; "
                     f"conservation {report.true_evals}+"
                     f"{report.surrogate_evals}=16000 {conserved}")
    assert ok, detail


def test_criterion_4_oracle_equivalence():
    replicas, steps, base_seed = 3, 300, 123
    config = SamplerConfig(replica_count=replicas,
                           total_samples=replicas * steps,
                           swap_interval=50, surrogate_interval=50,
                           surrogate_prob=0.0, max_temp=5.0,
                           base_seed=base_seed)
    dim = 3
    target = QuadraticTarget(center=[1.0, -1.0, 0.5])
    chain, _ = run_target(config, target, dim)

    # independent reference: the documented stream contract, written out
    # with nothing but the step primitives
    ladder = build_ladder(replicas, config.max_temp)
    rngs = [np.random.default_rng(base_seed + i) for i in range(replicas)]
    manager_rng = np.random.default_rng(base_seed + replicas)
    states = []
    for i in range(replicas):
        theta0 = rngs[i].normal(0.0, INITIAL_THETA_SD, dim)
        states.append(ReplicaState(
            theta=theta0, temperature=ladder[i],
            log_lik=target.log_likelihood(theta0),
            log_prior=target.log_prior(theta0)))
    exploit_start = int(config.burn_in_fraction * steps)
    samples = [[] for _ in range(replicas)]
    log_liks = [[] for _ in range(replicas)]
    for block in range(steps // config.swap_interval):
        for i in range(replicas):
            for k in range(config.swap_interval):
                s = block * config.swap_interval + k
                if s == exploit_start:
                    states[i] = replace(states[i], temperature=1.0)
                proposal, log_q = make_proposal(states[i].theta, target,
                                                config.proposal, rngs[i])
                states[i] = metropolis_step(states[i], proposal, log_q,
                                            target, rngs[i],
                                            target.log_likelihood(proposal))
                samples[i].append(states[i].theta)
                log_liks[i].append(states[i].log_lik)
        states, _ = swap_sweep(states, manager_rng)

    identical = all(
        np.array_equal(chain.traces[i].samples, np.array(samples[i]))
        and np.array_equal(chain.traces[i].log_liks, np.array(log_liks[i]))
        for i in range(replicas))
    detail = verdict(4, identical,
                     f"{replicas} replicas x {steps} steps bit-identical to "
                     f"the plain-tempering reference: {identical}")
    assert identical, detail


def test_criterion_5_conjugate_gaussian_toy():
    data_rng = np.random.default_rng(202)
    target = GaussianToyTarget(y=data_rng.normal(1.0, 0.5, 20),
                               noise_sd=0.5, prior_var=4.0)
    want_mean, want_sd = target.posterior_mean_sd()
    rng = np.random.default_rng(303)
    theta = np.array([0.0])
    state = ReplicaState(theta=theta, temperature=1.0,
                         log_lik=target.log_likelihood(theta),
                         log_prior=target.log_prior(theta))
    total, burn = 200_000, 20_000
    draws = np.empty(total)
    for s in range(total):
        proposal = propose_rw(state.theta, 0.5, rng)
        state = metropolis_step(state, proposal, 0.0, target, rng,
                                target.log_likelihood(proposal))
        draws[s] = state.theta[0]
    kept = draws[burn:]
    mean_err = abs(kept.mean() - want_mean)
    sd_err = abs(kept.std() - want_sd)
    ok = mean_err <= 0.02 and sd_err <= 0.05
    detail = verdict(5, ok,
                     f"single-chain posterior mean off by {mean_err:.5f} "
                     f"(limit 0.02), sd off by {sd_err:.5f} (limit 0.05) "
                     f"against the conjugate answer")
    assert ok, detail


def test_criterion_6_gradient_matches_finite_differences():
    entry, train, _ = load_registered("iris", seed=0)
    topo = entry.topology()
    assert topo.parameter_count == 99

    def sse(theta):
        probs = softmax(forward_batch(theta, train.features, topo))
        return np.sum((train.one_hot - probs) ** 2)

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        theta = rng.normal(0.0, 1.0, topo.parameter_count)
        got = sse_gradient(theta, train, topo)
        fd = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            fd[i] = (sse(up) - sse(down)) / 2e-5
        denom = np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(np.max(np.abs(got - fd) / denom)))
    ok = worst < 1e-4
    detail = verdict(6, ok,
                     f"worst relative gradient error {worst:.3g} over 20 "
                     f"random points on the 4-12-3 network, need < 1e-4")
    assert ok, detail


def test_criterion_7_swap_formula():
    cold = ReplicaState(theta=np.zeros(1), temperature=1.0,
                        log_lik=-10.0, log_prior=0.0)
    hot = ReplicaState(theta=np.zeros(1), temperature=2.0,
                       log_lik=-8.0, log_prior=0.0)
    beta = swap_probability(cold, hot)
    rng = np.random.default_rng(505)
    trials = 10 ** 5
    empirical = float(np.mean(rng.uniform(size=trials) <= beta))
    target_rate = 0.36787944117144232
    ok = abs(empirical - target_rate) < 0.01
    detail = verdict(7, ok,
                     f"empirical swap rate {empirical:.5f} over {trials} "
                     f"trials at (T=1,2; L=-10,-8), need exp(-1) +- 0.01")
    assert ok, detail


def test_criterion_8_surrogate_sanity():
    # data shaped like what the sampler stages: random-walk trajectories,
    # one per replica slot, targets -|theta|^2, every 5th row held out
    dim, walks, rows_per_walk = 99, 4, 50
    rng = np.random.default_rng(606)
    model = SurrogateModel(dim)
    positions = [rng.normal(0.0, 1.0, dim) for _ in range(walks)]
    train_rmses = []
    held_inputs, held_targets = [], []
    for _ in range(10):
        rows, values = [], []
        for w in range(walks):
            for _ in range(rows_per_walk):
                positions[w] = positions[w] + rng.normal(0.0, 0.05, dim)
                rows.append(positions[w].copy())
                values.append(-np.sum(positions[w] ** 2))
        inputs, targets = np.array(rows), np.array(values)
        hold = np.arange(inputs.shape[0]) % 5 == 4
        held_inputs.append(inputs[hold])
        held_targets.append(targets[hold])
        batch = SurrogateBatch(inputs[~hold], targets[~hold])
        train_rmses.append(model.train(batch))
    truth = np.concatenate(held_targets)
    predicted = np.array([model.predict(t)
                          for t in np.concatenate(held_inputs)])

    def ranks(v):
        out = np.empty(v.size)
        out[np.argsort(v)] = np.arange(v.size)
        return out

    rank_corr = float(np.corrcoef(ranks(truth), ranks(predicted))[0, 1])
    raw_rmse = surrogate_rmse(truth, predicted)
    scaled_rmse = float(np.mean(train_rmses))
    pattern = raw_rmse > 10.0 * scaled_rmse
    ok = rank_corr > 0.8 and pattern
    detail = verdict(8, ok,
                     f"held-out rank correlation {rank_corr:.3f} (need > 0.8); "
                     f"raw prediction RMSE {raw_rmse:.2f} vs mean scaled "
                     f"training RMSE {scaled_rmse:.4f}, ratio "
                     f"{raw_rmse / scaled_rmse:.0f}x (need > 10x)")
    assert ok, detail


def test_criterion_9_invariant_suite():
    failures = []
    rng = np.random.default_rng(808)

    # softmax rows normalize
    for _ in range(50):
        p = softmax(rng.normal(0, 5, size=4))
        if abs(p.sum() - 1.0) > 1e-12:
            failures.append("softmax normalization")
            break

    # ladder endpoints and constant geometric ratio
    ladder = build_ladder(10, 5.0)
    ratios = ladder[1:] / ladder[:-1]
    if ladder[0] != 1.0 or ladder[-1] != 5.0 \
            or not np.allclose(ratios, ratios[0], rtol=1e-12):
        failures.append("ladder endpoints/ratio")

    # acceptance probability bounded
    for _ in range(200):
        p = acceptance_probability(rng.normal(0, 8), rng.uniform(0.5, 6),
                                   rng.normal(0, 3), rng.normal(0, 3))
        if not 0.0 <= p <= 1.0:
            failures.append("acceptance probability bounds")
            break

    # an improving proposal is always taken at T=1
    target = QuadraticTarget(center=[0.0, 0.0])
    state = ReplicaState(theta=np.array([4.0, 4.0]), temperature=1.0,
                         log_lik=target.log_likelihood(np.array([4.0, 4.0])),
                         log_prior=target.log_prior(np.array([4.0, 4.0])))
    proposal = np.array([0.5, 0.5])
    better = metropolis_step(state, proposal, 0.0, target,
                             np.random.default_rng(1),
                             target.log_likelihood(proposal))
    if better.accepted_count != 1:
        failures.append("improvement accepted at T=1")

    # swapping twice restores the pair
    a = replace(state, temperature=1.0)
    b = replace(state, theta=np.array([-1.0, 2.0]), temperature=3.0,
                log_lik=-5.0)
    back_a, back_b = apply_swap(*apply_swap(a, b))
    if not (np.array_equal(back_a.theta, a.theta)
            and np.array_equal(back_b.theta, b.theta)
            and back_a.log_lik == a.log_lik):
        failures.append("swap involution")

    # chain-length accounting and deterministic re-runs
    config = SamplerConfig(replica_count=3, total_samples=900,
                           swap_interval=30, surrogate_interval=30,
                           base_seed=17)
    chain_a, _ = run_target(config, target, 2)
    chain_b, _ = run_target(config, target, 2)
    steps_each = config.steps_per_replica
    retained = chain_a.combined_posterior().shape[0]
    expected = sum(t.steps - t.exploit_start for t in chain_a.traces)
    if [t.steps for t in chain_a.traces] != [steps_each] * 3 \
            or retained != expected \
            or abs(retained - 3 * steps_each * 0.5) > 3:
        failures.append("chain-length accounting")
    if not all(np.array_equal(ta.samples, tb.samples)
               for ta, tb in zip(chain_a.traces, chain_b.traces)):
        failures.append("deterministic re-run")

    ok = not failures
    detail = verdict(9, ok, "all invariants hold" if ok
                     else "failed: " + "; ".join(failures))
    assert ok, detail
