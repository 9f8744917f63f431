import numpy as np
import numpy.testing as npt
import pytest

from sapt.bnn import (
    PROB_FLOOR,
    BnnPosterior,
    NetworkTopology,
    PriorConfig,
    check_theta,
    class_probabilities,
    forward_batch,
    log_likelihood,
    log_likelihood_and_gradient,
    log_prior,
    log_prior_gradient,
    predict_accuracy,
    softmax,
    sse_gradient,
)
from sapt import bnn
from sapt.data import load_csv, make_dataset, registry_entry, resolve_data_file
from sapt.exceptions import ContractError

import _bnn_reference as ref

# Hand-computed 2-2-2 instance; layout [w row-major, del_h, v row-major, del_o].
THETA_222 = np.array([0.1, -0.2, 0.3, 0.4, 0.05, -0.05,
                      0.7, -0.6, 0.5, 0.2, 0.01, 0.02])
X_222 = np.array([0.5, -1.5])
TOPO_222 = NetworkTopology(2, 2, 2)
F_222 = np.array([0.45977834517017247, -0.16386519248468056])
SOFTMAX_222 = np.array([0.65104676011057196, 0.34895323988942804])
LOGLIK_222_LABEL0 = -0.42917381122624555


def forward(theta, x, topology):
    """Pre-softmax outputs for one input row."""
    return forward_batch(theta, np.asarray(x)[None, :], topology)[0]


def one_row_dataset(x, label, class_count):
    return make_dataset(x[None, :], np.array([label]), class_count)


class TestTopology:
    def test_parameter_count(self):
        topo = NetworkTopology(4, 12, 3)
        assert topo.parameter_count == 4 * 12 + 12 * 3 + 12 + 3 == 99
        assert TOPO_222.parameter_count == 12

    def test_rejects_nonpositive(self):
        for bad in [(0, 2, 2), (2, 0, 2), (2, 2, 0)]:
            with pytest.raises(Exception):
                NetworkTopology(*bad)

    def test_check_theta_rejects_bad(self):
        with pytest.raises(ContractError):
            check_theta(np.zeros(11), TOPO_222)
        bad = THETA_222.copy()
        bad[3] = np.nan
        with pytest.raises(ContractError):
            check_theta(bad, TOPO_222)


class TestSoftmax:
    def test_uniform(self):
        npt.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), rtol=1e-15)

    def test_two_to_one(self):
        npt.assert_allclose(softmax(np.array([np.log(2.0), 0.0])),
                            [2 / 3, 1 / 3], rtol=1e-14)

    def test_large_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        # exp(-1000) underflows double precision entirely
        npt.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_normalization_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            f = rng.normal(0, 3, size=rng.integers(2, 8))
            p = softmax(f)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_shift_invariance(self):
        f = np.array([0.3, -1.2, 2.5])
        npt.assert_allclose(softmax(f), softmax(f + 123.4), rtol=1e-12)


class TestForward:
    def test_zero_theta_gives_zero_output(self):
        out = forward(np.zeros(12), X_222, TOPO_222)
        npt.assert_array_equal(out, np.zeros(2))

    def test_single_unit_half(self):
        topo = NetworkTopology(1, 1, 1)
        theta = np.array([0.0, 0.0, 1.0, 0.0])  # w=0, del_h=0, v=1, del_o=0
        npt.assert_allclose(forward(theta, np.array([0.0]), topo), [0.5],
                            rtol=1e-15)

    def test_hand_computed_instance(self):
        npt.assert_allclose(forward(THETA_222, X_222, TOPO_222), F_222,
                            rtol=1e-13)
        probs = class_probabilities(THETA_222, X_222[None, :], TOPO_222)
        npt.assert_allclose(probs[0], SOFTMAX_222, rtol=1e-13)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        topo = NetworkTopology(3, 4, 2)
        theta = rng.normal(size=topo.parameter_count)
        xs = rng.normal(size=(6, 3))
        batch = forward_batch(theta, xs, topo)
        for t in range(6):
            npt.assert_allclose(batch[t], forward(theta, xs[t], topo),
                                rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            forward(THETA_222, np.zeros(3), TOPO_222)


class TestLogLikelihood:
    def test_hand_computed_instance(self):
        ds = one_row_dataset(X_222, 0, 2)
        npt.assert_allclose(log_likelihood(THETA_222, ds, TOPO_222),
                            LOGLIK_222_LABEL0, rtol=1e-13)

    def test_half_probability_rows(self):
        # v maps the two hidden units symmetrically, so both classes tie
        topo = NetworkTopology(1, 1, 2)
        theta = np.zeros(topo.parameter_count)
        ds = make_dataset(np.array([[0.2], [0.4]]), np.array([0, 1]), 2)
        npt.assert_allclose(log_likelihood(theta, ds, topo),
                            -1.3862943611198906, rtol=1e-13)

    def test_iris_zero_theta(self):
        entry = registry_entry("iris")
        full = load_csv(resolve_data_file(entry), entry.attribute_count,
                        entry.class_count)
        topo = entry.topology()
        got = log_likelihood(np.zeros(topo.parameter_count), full, topo)
        npt.assert_allclose(got, -164.79184330021645, rtol=1e-12)

    def test_never_positive_and_floor_keeps_finite(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.normal(size=(8, 2)), rng.integers(0, 2, 8), 2)
        for scale in [0.1, 1.0, 50.0, 1000.0]:
            theta = rng.normal(0, scale, size=TOPO_222.parameter_count)
            ll = log_likelihood(theta, ds, TOPO_222)
            assert np.isfinite(ll)
            assert ll <= 0.0
        assert PROB_FLOOR > 0.0

    def test_pure(self):
        ds = one_row_dataset(X_222, 1, 2)
        a = log_likelihood(THETA_222, ds, TOPO_222)
        b = log_likelihood(THETA_222.copy(), ds, TOPO_222)
        assert a == b


class TestLogPrior:
    def test_zero_theta(self):
        npt.assert_allclose(log_prior(np.zeros(2), PriorConfig(25.0)),
                            -3.2188758248682007, rtol=1e-14)

    def test_shifted_component(self):
        npt.assert_allclose(log_prior(np.array([5.0, 0.0]), PriorConfig(25.0)),
                            -3.7188758248682007, rtol=1e-14)

    def test_maximized_at_origin(self):
        rng = np.random.default_rng(13)
        prior = PriorConfig(25.0)
        at_zero = log_prior(np.zeros(10), prior)
        for _ in range(50):
            theta = rng.normal(0, 3, size=10)
            assert log_prior(theta, prior) < at_zero

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        theta = rng.normal(size=7)
        sigma_sq = 4.0
        want = -3.5 * np.log(sigma_sq) - theta @ theta / (2 * sigma_sq)
        npt.assert_allclose(log_prior(theta, PriorConfig(sigma_sq)), want,
                            rtol=1e-14)


    def test_variance_must_be_positive_and_finite(self):
        # at inf log_prior is -inf everywhere and every step is rejected
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ContractError):
                PriorConfig(bad)


class TestLogDensityGradients:
    def test_log_likelihood_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        topo = NetworkTopology(2, 3, 3)
        ds = make_dataset(rng.normal(size=(6, 2)), rng.integers(0, 3, 6), 3)
        for _ in range(5):
            theta = rng.normal(0, 1.0, size=topo.parameter_count)
            want = np.empty_like(theta)
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += 1e-5
                down[i] -= 1e-5
                want[i] = (log_likelihood(up, ds, topo)
                           - log_likelihood(down, ds, topo)) / 2e-5
            grad = log_likelihood_and_gradient(theta, ds, topo)[1]
            npt.assert_allclose(grad, want, rtol=1e-5, atol=1e-8)

    def test_log_prior_gradient(self):
        theta = np.array([1.0, -2.0, 0.5])
        npt.assert_allclose(log_prior_gradient(theta, PriorConfig(4.0)),
                            [-0.25, 0.5, -0.125], rtol=1e-15)


class TestSseGradient:
    def central_difference(self, theta, ds, topo, h=1e-5):
        def sse(t):
            probs = class_probabilities(t, ds.features, topo)
            return np.sum((ds.one_hot - probs) ** 2)

        grad = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            grad[i] = (sse(up) - sse(down)) / (2 * h)
        return grad

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        ds = make_dataset(rng.normal(size=(5, 2)), rng.integers(0, 2, 5), 2)
        for _ in range(5):
            theta = rng.normal(0, 1.0, size=TOPO_222.parameter_count)
            got = sse_gradient(theta, ds, TOPO_222)
            want = self.central_difference(theta, ds, TOPO_222)
            npt.assert_allclose(got, want, rtol=1e-4, atol=1e-8)

    def test_duplicated_dataset_doubles(self):
        rng = np.random.default_rng(23)
        feats = rng.normal(size=(4, 2))
        labels = rng.integers(0, 2, 4)
        ds = make_dataset(feats, labels, 2)
        ds2 = make_dataset(np.vstack([feats, feats]),
                           np.concatenate([labels, labels]), 2)
        theta = rng.normal(size=TOPO_222.parameter_count)
        npt.assert_allclose(sse_gradient(theta, ds2, TOPO_222),
                            2 * sse_gradient(theta, ds, TOPO_222), rtol=1e-12)


class TestPredictAccuracy:
    def test_perfect_and_tie_break(self, tiny_dataset, tiny_topology):
        # zero theta ties every class; lowest index wins, so class-0 share
        zero = np.zeros(tiny_topology.parameter_count)
        assert predict_accuracy(zero, tiny_dataset, tiny_topology) == 50.0

    def test_matches_recount(self, tiny_dataset, tiny_topology):
        rng = np.random.default_rng(29)
        theta = rng.normal(size=tiny_topology.parameter_count)
        probs = class_probabilities(theta, tiny_dataset.features,
                                    tiny_topology)
        want = 100.0 * np.mean(np.argmax(probs, axis=1)
                               == tiny_dataset.labels)
        assert predict_accuracy(theta, tiny_dataset, tiny_topology) == want


class TestBnnPosterior:
    def test_delegates_to_module_functions(self, tiny_dataset, tiny_topology):
        rng = np.random.default_rng(31)
        prior = PriorConfig()
        post = BnnPosterior(tiny_topology, tiny_dataset, prior)
        theta = rng.normal(size=tiny_topology.parameter_count)
        assert post.log_likelihood(theta) == log_likelihood(
            theta, tiny_dataset, tiny_topology)
        assert post.log_prior(theta) == log_prior(theta, prior)
        npt.assert_array_equal(post.sse_gradient(theta),
                               sse_gradient(theta, tiny_dataset,
                                            tiny_topology))
        npt.assert_array_equal(post.log_likelihood_gradient(theta),
                               log_likelihood_and_gradient(
                                   theta, tiny_dataset, tiny_topology)[1])
        npt.assert_array_equal(post.log_prior_gradient(theta),
                               log_prior_gradient(theta, prior))

    def test_rejects_shape_mismatch(self, tiny_dataset):
        with pytest.raises(ContractError):
            BnnPosterior(NetworkTopology(3, 2, 2), tiny_dataset, PriorConfig())


class TestPosteriorMemo:
    """BnnPosterior remembers (log-likelihood, gradient) of the three
    points it used last and serves the module functions' bits."""

    @pytest.fixture
    def post(self, tiny_dataset, tiny_topology):
        return BnnPosterior(tiny_topology, tiny_dataset, PriorConfig())

    @pytest.fixture
    def passes(self, monkeypatch):
        """Thetas handed to the fused pass, in call order."""
        seen = []
        fused = bnn.log_likelihood_and_gradient

        def counted(theta, dataset, topology):
            seen.append(np.array(theta))
            return fused(theta, dataset, topology)
        monkeypatch.setattr(bnn, "log_likelihood_and_gradient", counted)
        return seen

    def thetas(self, count, tiny_topology):
        rng = np.random.default_rng(11)
        return [rng.normal(size=tiny_topology.parameter_count)
                for _ in range(count)]

    def test_served_values_equal_module_functions(self, post, passes,
                                                  tiny_dataset, tiny_topology):
        a, = self.thetas(1, tiny_topology)
        first = post.log_likelihood_gradient(a)
        again = post.log_likelihood_gradient(a.copy())
        value = post.log_likelihood(a.copy())
        assert len(passes) == 1
        assert again is first
        assert value == log_likelihood(a, tiny_dataset, tiny_topology)
        assert np.array_equal(again, log_likelihood_and_gradient(
            a, tiny_dataset, tiny_topology)[1])

    def test_least_recently_used_is_evicted(self, post, passes,
                                            tiny_topology):
        a, b, c, d = self.thetas(4, tiny_topology)
        post.log_likelihood_gradient(a)
        post.log_likelihood_gradient(b)
        post.log_likelihood_gradient(c)
        post.log_likelihood(a)
        post.log_likelihood_gradient(a)
        post.log_likelihood_gradient(d)
        assert len(passes) == 4
        post.log_likelihood_gradient(a)
        post.log_likelihood_gradient(c)
        post.log_likelihood_gradient(d)
        assert len(passes) == 4
        post.log_likelihood_gradient(b)
        assert len(passes) == 5

    def test_mutated_theta_is_recomputed(self, post, passes, tiny_dataset,
                                         tiny_topology):
        a, = self.thetas(1, tiny_topology)
        post.log_likelihood_gradient(a)
        a[0] += 0.5
        grad = post.log_likelihood_gradient(a)
        assert len(passes) == 2
        assert np.array_equal(grad, log_likelihood_and_gradient(
            a, tiny_dataset, tiny_topology)[1])
        assert post.log_likelihood(a) == log_likelihood(a, tiny_dataset,
                                                        tiny_topology)

    def test_wrong_shape_raises_even_with_the_same_bytes(self, post,
                                                         tiny_topology):
        a, = self.thetas(1, tiny_topology)
        post.log_likelihood_gradient(a)
        for shaped in (a.reshape(1, -1), a.reshape(-1, 1)):
            with pytest.raises(ContractError):
                post.log_likelihood_gradient(shaped)
            with pytest.raises(ContractError):
                post.log_likelihood(shaped)
        with pytest.raises(ContractError):
            post.log_likelihood_gradient(a[:-1])

    def test_gradient_is_read_only(self, post, tiny_topology):
        a, = self.thetas(1, tiny_topology)
        grad = post.log_likelihood_gradient(a)
        with pytest.raises(ValueError):
            grad[0] = 1.0
        assert post.log_likelihood_gradient(a) is grad


class TestActivationReuse:
    """A gradient at a point whose likelihood BnnPosterior computed last
    finishes from that pass's activations, with the fused pass's bits."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Forward and backward passes, by the kernel functions."""
        counts = {"_forward": 0, "_backward": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(bnn, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(bnn, name, counted)
        return counts

    @pytest.mark.parametrize("classes, rows", [
        (3, 90), (3, 1023), (3, 1024), (3, 1025), (9, 90), (9, 1025)])
    def test_reuse_matches_fused_and_reference(self, classes, rows, passes):
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            value, fused = log_likelihood_and_gradient(theta, ds, topo)
            post = BnnPosterior(topo, ds, PriorConfig())
            post.log_likelihood_gradient(theta + 1.0)
            before = dict(passes)
            assert post.log_likelihood(theta) == value
            grad = post.log_likelihood_gradient(theta.copy())
            assert passes["_forward"] - before["_forward"] == 1
            assert passes["_backward"] - before["_backward"] == 1
            assert np.array_equal(grad, fused)
            assert np.array_equal(grad,
                                  ref.log_likelihood_gradient(theta, ds, topo))
            assert value == ref.log_likelihood(theta, ds, topo)
            with pytest.raises(ValueError):
                grad[0] = 1.0
            assert post.log_likelihood_gradient(theta) is grad
            assert post.log_likelihood(theta) == value
            assert dict(passes) == {name: before[name] + 1
                                    for name in passes}

    def test_current_point_survives_a_random_walk_store(self, passes):
        theta, ds, topo = lean_case(3, 90, 1.0)
        current, drift, walk = (theta + shift for shift in (0.0, 0.1, 0.2))
        expected = log_likelihood_and_gradient(walk, ds, topo)[1]
        passes.update(_forward=0, _backward=0)
        post = BnnPosterior(topo, ds, PriorConfig())
        # a rejected drift step from current, then a random-walk proposal
        post.log_likelihood_gradient(current)
        post.log_likelihood_gradient(drift)
        post.log_likelihood(drift)
        post.log_likelihood(walk)
        assert passes == {"_forward": 3, "_backward": 2}
        post.log_likelihood_gradient(current)
        assert passes == {"_forward": 3, "_backward": 2}
        # the walk was accepted; a random-walk proposal from it is rejected
        post.log_likelihood(walk + 0.1)
        assert np.array_equal(post.log_likelihood_gradient(walk), expected)
        assert passes == {"_forward": 4, "_backward": 3}

    def test_nothing_kept_before_a_gradient(self, passes):
        theta, ds, topo = lean_case(3, 90, 1.0)
        post = BnnPosterior(topo, ds, PriorConfig())
        post.log_likelihood(theta)
        post.log_likelihood_gradient(theta)
        assert passes == {"_forward": 2, "_backward": 1}


# Wide enough hidden layer that theta sd 30 drives some label
# probabilities below PROB_FLOOR.
LEAN_HIDDEN = 128
LEAN_SDS = (0.3, 1.0, 5.0, 30.0)


def lean_case(classes, rows, sd):
    """(theta, dataset, topology) with the least likely class as the
    label of every other row, so the floor clamp is reached."""
    rng = np.random.default_rng([classes, rows, int(sd * 10)])
    topo = NetworkTopology(4, LEAN_HIDDEN, classes)
    theta = rng.normal(0.0, sd, size=topo.parameter_count)
    features = rng.normal(size=(rows, 4))
    labels = rng.integers(0, classes, rows)
    least = np.argmin(ref.forward_batch(theta, features, topo), axis=1)
    labels[::2] = least[::2]
    return theta, make_dataset(features, labels, classes), topo


# 1025 and 1500 rows take the long-row path; neither is a multiple of
# FOLD_ROWS, so the folded bias add leaves remainder rows.
@pytest.mark.parametrize("rows", [1, 5, 300, 1025, 1500])
@pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 10])
class TestLeanKernelBitIdentity:
    """The kernel gives the reference formulas' bits and leaves its
    inputs alone, on both sides of the 8-class reduction rule and of
    LONG_ROWS."""

    def test_log_likelihood(self, classes, rows):
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            assert log_likelihood(theta, ds, topo) == \
                ref.log_likelihood(theta, ds, topo)

    def test_softmax_one_and_two_dimensional(self, classes, rows):
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            f = ref.forward_batch(theta, ds.features, topo)
            kept = f.copy()
            assert np.array_equal(softmax(f), ref.softmax(f))
            assert np.array_equal(softmax(f[0]), ref.softmax(f[0]))
            assert np.array_equal(f, kept)

    def test_exp_shift_in_both_layouts(self, classes, rows):
        # a last-bit change in one row sum can vanish in the summed
        # log-likelihood, so the shift of the contiguous class-major copy
        # is checked on its own against the (rows, classes) formulas
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            f = ref.forward_batch(theta, ds.features, topo)
            e = np.exp(f - np.max(f, axis=-1, keepdims=True))
            got, got_sum = bnn._exp_shifted_inplace(f.T.copy())
            assert np.array_equal(got, e.T)
            assert np.array_equal(got_sum, np.sum(e, axis=-1))

    def test_softmax_three_dimensional(self, classes, rows):
        theta, ds, topo = lean_case(classes, rows, 5.0)
        f = ref.forward_batch(theta, ds.features, topo)
        f3 = np.stack([f, -f, 2.0 * f], axis=1)
        kept = f3.copy()
        assert np.array_equal(softmax(f3), ref.softmax(f3))
        assert np.array_equal(f3, kept)

    def test_forward_and_class_probabilities(self, classes, rows):
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            assert np.array_equal(forward_batch(theta, ds.features, topo),
                                  ref.forward_batch(theta, ds.features, topo))
            assert np.array_equal(
                class_probabilities(theta, ds.features, topo),
                ref.class_probabilities(theta, ds.features, topo))

    def test_gradients(self, classes, rows):
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            post = BnnPosterior(topo, ds, PriorConfig())
            assert np.array_equal(post.log_likelihood_gradient(theta),
                                  ref.log_likelihood_gradient(theta, ds, topo))
            assert np.array_equal(sse_gradient(theta, ds, topo),
                                  ref.sse_gradient(theta, ds, topo))

    def test_log_likelihood_and_gradient(self, classes, rows):
        for sd in LEAN_SDS:
            theta, ds, topo = lean_case(classes, rows, sd)
            value, grad = log_likelihood_and_gradient(theta, ds, topo)
            assert value == ref.log_likelihood(theta, ds, topo)
            assert np.array_equal(grad,
                                  ref.log_likelihood_gradient(theta, ds, topo))

    def test_inputs_unmodified(self, classes, rows):
        theta, ds, topo = lean_case(classes, rows, 5.0)
        kept = [a.copy() for a in (theta, ds.features, ds.labels, ds.one_hot)]
        log_likelihood(theta, ds, topo)
        log_likelihood_and_gradient(theta, ds, topo)
        forward_batch(theta, ds.features, topo)
        class_probabilities(theta, ds.features, topo)
        sse_gradient(theta, ds, topo)
        predict_accuracy(theta, ds, topo)
        for before, after in zip(kept, (theta, ds.features, ds.labels,
                                        ds.one_hot)):
            assert np.array_equal(before, after)


def test_lean_cases_reach_the_floor():
    clamped = 0
    for classes in (2, 3, 7, 8, 10):
        theta, ds, topo = lean_case(classes, 300, 30.0)
        probs = ref.class_probabilities(theta, ds.features, topo)
        clamped += int(np.sum(probs[np.arange(300), ds.labels] < PROB_FLOOR))
    assert clamped > 0


def test_lean_row_counts_straddle_the_long_path():
    assert 300 < bnn.LONG_ROWS <= 1025
    assert 1025 % bnn.FOLD_ROWS and 1500 % bnn.FOLD_ROWS
