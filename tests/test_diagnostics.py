import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from sapt import bnn, diagnostics
from sapt.bnn import NetworkTopology, predict_accuracy
from sapt.data import make_dataset
from sapt.diagnostics import (
    HISTOGRAM_BINS,
    AccuracySummary,
    compose_report,
    emit_posterior,
    posterior_accuracy,
    write_manifest,
    write_surrogate_trace,
)
from sapt.exceptions import ContractError
from sapt.orchestrator import (PosteriorChain, ReplicaTrace, SamplerConfig,
                               run, run_target)
from sapt.tempering import ProposalConfig

import _diagnostics_reference as ref
from _targets import FailingTarget, QuadraticTarget

SURROGATE_FIGURES = ("surrogate_train_rmse_mean_scaled",
                     "surrogate_train_rmse_std_scaled",
                     "surrogate_prediction_rmse")


@pytest.fixture(scope="module")
def bnn_chain(tiny_dataset, tiny_topology):
    cfg = SamplerConfig(replica_count=2, total_samples=400, swap_interval=10,
                        surrogate_interval=10, max_temp=3.0, base_seed=4)
    chain, report = run(cfg, tiny_dataset, tiny_topology)
    return chain, report


@pytest.fixture(scope="module")
def surrogate_chain():
    cfg = SamplerConfig(replica_count=2, total_samples=800, swap_interval=20,
                        surrogate_interval=40, surrogate_prob=0.5,
                        max_temp=3.0, base_seed=6)
    return run_target(cfg, QuadraticTarget(center=[0.5, -0.5]), 2)


class TestAccuracySummary:
    SCORES = {"test_log_predictive_density": -0.25, "test_brier": 0.5,
              "test_accuracy_posterior_mean": 88.0}

    def test_validation(self):
        with pytest.raises(ContractError):
            AccuracySummary(50.0, -1.0, 60.0, 50.0, 1.0, 60.0, **self.SCORES)
        with pytest.raises(ContractError):
            AccuracySummary(50.0, 1.0, 40.0, 50.0, 1.0, 60.0, **self.SCORES)
        with pytest.raises(ContractError):
            AccuracySummary(150.0, 1.0, 160.0, 50.0, 1.0, 60.0, **self.SCORES)
        for scores in ({"test_log_predictive_density": 0.1},
                       {"test_brier": 2.5},
                       {"test_accuracy_posterior_mean": -1.0}):
            with pytest.raises(ContractError):
                AccuracySummary(50.0, 1.0, 60.0, 50.0, 1.0, 60.0,
                                **{**self.SCORES, **scores})

    def test_to_text_keys(self):
        s = AccuracySummary(90.0, 1.0, 95.0, 85.0, 2.0, 92.0,
                            elapsed_minutes=1.5, **self.SCORES)
        text = s.to_text()
        for key in ["train_accuracy_mean 90", "test_accuracy_best 92",
                    "elapsed_minutes 1.5", "test_log_predictive_density -0.25",
                    "test_brier 0.5", "test_accuracy_posterior_mean 88"]:
            assert key in text


class TestPosteriorAccuracy:
    def test_per_sample_matches_recount(self, bnn_chain, tiny_dataset,
                                        tiny_topology):
        chain, _ = bnn_chain
        summary = posterior_accuracy(chain, tiny_dataset, tiny_dataset,
                                     tiny_topology, thin=5)
        thetas = chain.combined_posterior(5)
        accs = np.array([predict_accuracy(t, tiny_dataset, tiny_topology)
                         for t in thetas])
        npt.assert_allclose(summary.train_mean, accs.mean(), rtol=1e-12)
        npt.assert_allclose(summary.train_std, accs.std(), rtol=1e-12)
        npt.assert_allclose(summary.train_best, accs.max(), rtol=1e-12)
        # the test split is scored without predict_accuracy, to its bits
        assert summary.train_mean == summary.test_mean
        assert summary.train_std == summary.test_std
        assert summary.train_best == summary.test_best

    def test_each_sample_scored_once_per_split(
            self, bnn_chain, tiny_dataset, tiny_topology, monkeypatch):
        # blocks of 7: the 40 retained samples end in a block of 5
        chain, _ = bnn_chain
        monkeypatch.setattr(diagnostics, "SCORE_ROWS",
                            7 * tiny_dataset.sample_count)
        blocks = []
        forward = bnn._forward

        def counted(theta, *args):
            blocks.append(np.array(theta, ndmin=2))
            return forward(theta, *args)

        monkeypatch.setattr(bnn, "_forward", counted)
        posterior_accuracy(chain, tiny_dataset, tiny_dataset, tiny_topology,
                           thin=5)
        thetas = chain.combined_posterior(5)
        assert thetas.shape[0] == 40
        assert [len(b) for b in blocks] == [7] * 10 + [5, 5]
        assert sum(len(b) for b in blocks) == 2 * thetas.shape[0]
        # a train pass, then a test pass over the same block, in order
        for split_blocks in (blocks[::2], blocks[1::2]):
            assert np.array_equal(np.concatenate(split_blocks), thetas)

    @pytest.mark.parametrize("rows, classes, score_rows", [
        (40, 2, 1),                           # one sample per block
        (40, 2, 7 * 40),                      # 40 = 5 x 7 + 5
        (bnn.LONG_ROWS + 1, 3, None),         # folded bias adds, 13 x 3 + 1
        (300, 9, None),                       # pairwise class sums
        (bnn.LONG_ROWS + 100, 9, None)])
    def test_blocks_match_per_sample_scores(self, rows, classes, score_rows,
                                            monkeypatch):
        if score_rows is not None:
            monkeypatch.setattr(diagnostics, "SCORE_ROWS", score_rows)
        rng = np.random.default_rng([rows, classes])
        topology = NetworkTopology(4, 6, classes)
        splits = [make_dataset(rng.normal(size=(n, 4)),
                               rng.integers(0, classes, n), classes)
                  for n in (rows, rows // 2 + 1)]
        # scales from near-ties to saturated outputs
        samples = rng.normal(size=(40, topology.parameter_count)) \
            * rng.choice([0.01, 1.0, 30.0], size=(40, 1))
        trace = ReplicaTrace(
            replica=0, samples=samples, log_liks=np.zeros(40),
            exploit_start=0, surrogate_steps=np.empty(0, np.int64),
            surrogate_estimates=np.empty(0), surrogate_truths=np.empty(0))
        chain = PosteriorChain(traces=[trace], parameter_count=samples.shape[1])
        got = posterior_accuracy(chain, *splits, topology, thin=1,
                                 elapsed_seconds=3.0)
        want = ref.posterior_accuracy(chain, *splits, topology, thin=1,
                                      elapsed_seconds=3.0)
        assert got == want
        assert got.to_text() == want.to_text()

    def test_duplicated_chain_mean_invariance(self, bnn_chain, tiny_dataset,
                                              tiny_topology):
        # stacking the same traces twice cannot change the mean accuracy
        chain, _ = bnn_chain
        doubled = chain.__class__(traces=chain.traces + chain.traces,
                                  parameter_count=chain.parameter_count)
        a = posterior_accuracy(chain, tiny_dataset, tiny_dataset,
                               tiny_topology, thin=5)
        b = posterior_accuracy(doubled, tiny_dataset, tiny_dataset,
                               tiny_topology, thin=5)
        npt.assert_allclose(a.train_mean, b.train_mean, rtol=1e-12)

    def test_predictive_scores_by_hand(self):
        # 1-1-2 network with zero hidden-to-output weights: every row's
        # class probabilities are softmax(del_o), (1/2, 1/2) for one
        # sample and (3/4, 1/4) for the other; their mean is (5/8, 3/8)
        topology = NetworkTopology(1, 1, 2)
        test = make_dataset([[0.3], [-1.2], [2.0]], [0, 1, 0], 2)
        samples = np.array([[0.7, -0.4, 0.0, 0.0, 0.0, 0.0],
                            [0.7, -0.4, 0.0, 0.0, math.log(3.0), 0.0]])
        trace = ReplicaTrace(
            replica=0, samples=samples, log_liks=np.zeros(2),
            exploit_start=0, surrogate_steps=np.empty(0, np.int64),
            surrogate_estimates=np.empty(0), surrogate_truths=np.empty(0))
        chain = PosteriorChain(traces=[trace], parameter_count=6)
        summary = posterior_accuracy(chain, test, test, topology, thin=1)
        lpd = (2 * math.log(5 / 8) + math.log(3 / 8)) / 3
        # label 0: (3/8)^2 + (3/8)^2; label 1: (5/8)^2 + (5/8)^2
        brier = (2 * 18 / 64 + 50 / 64) / 3
        npt.assert_allclose(summary.test_log_predictive_density, lpd,
                            rtol=1e-14)
        npt.assert_allclose(summary.test_brier, brier, rtol=1e-14)
        npt.assert_allclose(summary.test_accuracy_posterior_mean, 200 / 3,
                            rtol=1e-14)
        text = summary.to_text().splitlines()
        for key, value in (("test_log_predictive_density", lpd),
                           ("test_brier", brier),
                           ("test_accuracy_posterior_mean", 200 / 3)):
            assert f"{key} {value:.8g}" in text

    def test_elapsed_minutes_passthrough(self, bnn_chain, tiny_dataset,
                                         tiny_topology):
        chain, _ = bnn_chain
        summary = posterior_accuracy(chain, tiny_dataset, tiny_dataset,
                                     tiny_topology, thin=5,
                                     elapsed_seconds=90.0)
        assert summary.elapsed_minutes == 1.5

    def test_errors(self, bnn_chain, tiny_dataset, tiny_topology):
        chain, _ = bnn_chain
        empty = chain.__class__(traces=[], parameter_count=2)
        with pytest.raises(ContractError):
            posterior_accuracy(empty, tiny_dataset, tiny_dataset,
                               tiny_topology)


def report_keys(text: str) -> set:
    """The keys of a report's non-blank lines, each checked to be
    `key value` and written once, without the indexed per-replica and
    per-interval keys."""
    lines = [line for line in text.splitlines() if line]
    for line in lines:
        assert re.fullmatch(r"[a-z0-9_]+ \S+", line), line
    keys = [line.split(" ")[0] for line in lines]
    assert len(set(keys)) == len(keys)
    return {key for key in keys if not re.fullmatch(
        r"(acceptance_rate_replica|surrogate_train_rmse_interval)\d+", key)}


class TestReports:
    def test_stub_without_surrogate(self, bnn_chain):
        # without the surrogate, its figures are n/a under the same keys
        _, report = bnn_chain
        text = report.to_text().splitlines()
        for key in SURROGATE_FIGURES:
            assert f"{key} n/a" in text
        assert "surrogate_evals 0" in text
        assert "surrogate_truths_measured 0" in text

    def test_stub_when_budget_ends_before_first_refit(self):
        # surrogate_prob > 0, but 40 steps per replica end before the
        # first refit at step 50: no figure to write, so each reads n/a
        cfg = SamplerConfig(replica_count=2, total_samples=80,
                            swap_interval=10, surrogate_interval=50,
                            surrogate_prob=0.5, base_seed=3)
        _, report = run_target(cfg, QuadraticTarget(center=[0.5, -0.5]), 2)
        assert report.train_rmse == [] and report.surrogate_evals == 0
        text = report.to_text().splitlines()
        for key in SURROGATE_FIGURES:
            assert f"{key} n/a" in text
        assert not any(line.startswith("surrogate_train_rmse_interval")
                       for line in text)

    def test_surrogate_block(self, surrogate_chain):
        _, report = surrogate_chain
        text = report.to_text()
        rmse = np.asarray(report.train_rmse)
        assert rmse.size > 0 and report.prediction_rmse is not None
        for line in (f"surrogate_evals {report.surrogate_evals}",
                     f"surrogate_train_rmse_mean_scaled {rmse.mean():.8g}",
                     f"surrogate_train_rmse_std_scaled {rmse.std():.8g}",
                     f"surrogate_prediction_rmse "
                     f"{report.prediction_rmse:.8g}"):
            assert line in text.splitlines()
        assert "n/a" not in text

    def test_compose_report_sections(self, bnn_chain, tiny_dataset,
                                     tiny_topology):
        chain, report = bnn_chain
        summary = posterior_accuracy(chain, tiny_dataset, tiny_dataset,
                                     tiny_topology, thin=5)
        text = compose_report(report, summary)
        assert text == report.to_text() + "\n" + summary.to_text()
        for key in ["replica_count 2", "test_accuracy_mean",
                    "surrogate_prediction_rmse n/a"]:
            assert key in text

    def test_every_run_writes_one_key_schema(self, bnn_chain,
                                             surrogate_chain, tiny_dataset,
                                             tiny_topology):
        chain, plain = bnn_chain
        _, surrogate = surrogate_chain
        assert plain.surrogate_evals == 0 < surrogate.surrogate_evals
        summary = posterior_accuracy(chain, tiny_dataset, tiny_dataset,
                                     tiny_topology, thin=5)
        keys = report_keys(compose_report(plain, summary))
        assert report_keys(compose_report(surrogate, summary)) == keys
        # a run that fails part way writes the same RunReport keys
        cfg = SamplerConfig(replica_count=2, total_samples=800,
                            swap_interval=20, surrogate_interval=40,
                            surrogate_prob=0.5, max_temp=3.0, base_seed=6)
        _, partial = run_target(
            cfg, FailingTarget(center=[0.5, -0.5], fail_after=300), 2)
        assert partial.partial and partial.train_rmse
        lines = partial.to_text().splitlines()
        assert lines[-1] == f"failure {partial.failure}"
        assert report_keys("\n".join(lines[:-1])) \
            == report_keys(surrogate.to_text())


class TestEmission:
    def test_files_and_shapes(self, surrogate_chain, tmp_path):
        chain, _ = surrogate_chain
        written = emit_posterior(chain, tmp_path, thin=2)
        names = {p.name for p in written}
        assert "posterior_p0.csv" in names
        assert "posterior_p1.csv" in names
        assert "trace_replica0.csv" in names
        assert "trace_replica1.csv" in names
        assert "histograms.csv" in names
        post = chain.combined_posterior(2)
        col = np.loadtxt(tmp_path / "posterior_p0.csv")
        npt.assert_array_equal(col, post[:, 0])
        trace_lines = (tmp_path / "trace_replica0.csv").read_text().splitlines()
        assert trace_lines[0] == "step,log_lik,source,phase"
        assert len(trace_lines) == 1 + chain.traces[0].steps
        hist_lines = (tmp_path / "histograms.csv").read_text().splitlines()
        assert hist_lines[0] == "parameter,bin_lo,bin_hi,count"
        assert len(hist_lines) == 1 + HISTOGRAM_BINS * chain.parameter_count
        counts = np.array([int(line.split(",")[-1])
                           for line in hist_lines[1:]])
        assert counts.reshape(chain.parameter_count, -1).sum(axis=1).tolist() \
            == [post.shape[0], post.shape[0]]

    def test_reemission_is_byte_identical(self, surrogate_chain, tmp_path):
        chain, _ = surrogate_chain
        first = tmp_path / "a"
        second = tmp_path / "b"
        emit_posterior(chain, first, thin=2)
        emit_posterior(chain, second, thin=2)
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    @pytest.mark.parametrize("thin", [1, 2])
    def test_files_match_reference_bytes(self, surrogate_chain, tmp_path,
                                         thin):
        chain, _ = surrogate_chain
        truths = np.concatenate([t.surrogate_truths for t in chain.traces])
        assert np.isnan(truths).any() and np.isfinite(truths).any()
        written = emit_posterior(chain, tmp_path / "new", thin=thin)
        expected = ref.emit_posterior(chain, tmp_path / "ref", thin=thin)
        assert [p.name for p in written] == [p.name for p in expected]
        for path, ref_path in zip(written, expected):
            assert path.read_bytes() == ref_path.read_bytes(), path.name
        new, old = tmp_path / "surrogate.csv", tmp_path / "ref.csv"
        assert write_surrogate_trace(chain, new) \
            == ref.write_surrogate_trace(chain, old)
        assert new.read_bytes() == old.read_bytes()

    @staticmethod
    def columns_chain(columns) -> PosteriorChain:
        """A chain whose retained posterior has the given columns, split
        across two replicas."""
        samples = np.stack(columns, axis=1)
        half = (samples.shape[0] + 1) // 2
        return PosteriorChain(traces=[ReplicaTrace(
            replica=r, samples=part, log_liks=np.zeros(len(part)),
            exploit_start=0, surrogate_steps=np.empty(0, np.int64),
            surrogate_estimates=np.empty(0), surrogate_truths=np.empty(0))
            for r, part in enumerate((samples[:half], samples[half:]))],
            parameter_count=samples.shape[1])

    def assert_reference_bytes(self, chain, tmp_path):
        written = emit_posterior(chain, tmp_path / "new", thin=1)
        expected = ref.emit_posterior(chain, tmp_path / "ref", thin=1)
        assert [p.name for p in written] == [p.name for p in expected]
        for path, ref_path in zip(written, expected):
            assert path.read_bytes() == ref_path.read_bytes(), path.name
        return (tmp_path / "new" / "histograms.csv").read_text()

    @pytest.mark.parametrize("rows", [2, 3, 64, 300])
    def test_histogram_edge_columns_match_reference_bytes(self, rows,
                                                          tmp_path):
        # columns that reach np.histogram's special cases, side by side
        ramp = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
        text = self.assert_reference_bytes(self.columns_chain([
            np.full(rows, 0.3),                           # constant
            np.resize(ramp, rows),                        # on bin edges
            np.resize(ramp[::-1] * 7.0 - 3.0, rows),
            np.resize([2.5, 2.5, -1.0, 2.5, 0.7], rows),  # repeated max
            np.resize([-1.0, 0.0, -0.0], rows),           # max is a zero
            np.resize([-1.0, -0.0, 0.0], rows),
            np.resize([-0.0, 2.0, 0.0], rows),            # min is a zero
            np.resize([0.0, -0.0], rows),                 # zeros, constant
            np.resize([0.0, -0.0, *[-1.0] * 62], rows),  # reduce order
            np.resize([-0.0, -1.0, -1.0, 0.0], rows),
            np.resize([1e-310, -1e-310, 3e-311], rows),   # subnormal steps
            np.resize([2e-320, 0.0, 1e-322], rows),
            np.resize([1e300, -1e300, 3e299], rows),      # near overflow
            np.resize([7e307, -7e307], rows),
            np.random.default_rng(rows).normal(size=rows),
        ]), tmp_path)
        assert ",-0," in text

    def test_histograms_of_a_single_retained_row(self, tmp_path):
        self.assert_reference_bytes(self.columns_chain(
            [np.array([value]) for value in
             (0.3, -0.0, 0.0, 1e-310, -7.5, 1e13)]), tmp_path)

    @pytest.mark.parametrize("column", [[1e300], [0.0, 1e-322],
                                        [1.7e308, -1.7e308]])
    def test_histograms_refuse_what_np_histogram_refuses(self, column,
                                                         tmp_path):
        # constant at 1e300, 0.5 rounds away; a span of 20 subnormal
        # steps cannot hold 50 bins; a span that overflows to inf
        chain = self.columns_chain([np.array(column), np.zeros(len(column))])
        with pytest.raises(ValueError) as expected:
            ref.emit_posterior(chain, tmp_path / "ref", thin=1)
        with pytest.raises(ValueError) as got:
            emit_posterior(chain, tmp_path / "new", thin=1)
        assert str(got.value) == str(expected.value)

    def test_surrogate_trace_rows(self, surrogate_chain, tmp_path):
        chain, report = surrogate_chain
        path = tmp_path / "surrogate_trace.csv"
        rows = write_surrogate_trace(chain, path)
        assert rows == report.surrogate_evals
        lines = path.read_text().splitlines()
        assert lines[0] == "step,replica,log_lik,source,true_log_lik"
        assert len(lines) == 1 + rows
        assert all(line.split(",")[3] == "surrogate" for line in lines[1:])

    def test_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"dataset": "iris", "seed": 3})
        assert path.read_text() == "dataset iris\nseed 3\n"
