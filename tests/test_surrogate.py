import warnings
from collections import deque

import numpy as np
import numpy.testing as npt
import pytest

import sapt.surrogate as surrogate
from sapt.exceptions import ContractError
from sapt.surrogate import (
    BLEND_WINDOW,
    SurrogateBatch,
    SurrogateModel,
    blend,
    surrogate_rmse,
)


def batch_from(fn, thetas):
    thetas = np.asarray(thetas, dtype=np.float64)
    targets = np.array([fn(t) for t in thetas])
    return SurrogateBatch(thetas, targets)


def sphere(theta):
    return -float(theta @ theta)


class TestSurrogateBatch:
    def test_rows_and_empty(self):
        b = SurrogateBatch(np.empty((0, 99)), np.empty(0))
        assert b.rows == 0
        assert b.inputs.shape == (0, 99)

    def test_validation(self):
        with pytest.raises(ContractError):
            SurrogateBatch(np.zeros(3), np.zeros(3))
        with pytest.raises(ContractError):
            SurrogateBatch(np.zeros((2, 3)), np.zeros(1))
        with pytest.raises(ContractError):
            SurrogateBatch(np.zeros((1, 2)), np.array([np.inf]))


def window_batches(count, rows=30, dim=5, seed=0):
    """count batches of a random walk in dim, scored by sphere."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0.0, 0.1, (count * rows, dim)), axis=0)
    return [batch_from(sphere, walk[k * rows:(k + 1) * rows])
            for k in range(count)]


class TestSurrogateModel:
    def test_predict_before_training_is_error(self):
        model = SurrogateModel(4, seed=0)
        with pytest.raises(ContractError):
            model.predict(np.zeros(4))

    @pytest.mark.parametrize("theta", [np.zeros(5), np.zeros(3),
                                       np.zeros((1, 4))],
                             ids=["too-long", "too-short", "row-matrix"])
    def test_predict_rejects_wrong_width(self, theta):
        model = SurrogateModel(4)
        model.train(batch_from(sphere, np.eye(4)))
        with pytest.raises(ContractError):
            model.predict(theta)

    def test_train_rejects_wrong_width(self):
        model = SurrogateModel(4)
        with pytest.raises(ContractError):
            model.train(batch_from(sphere, np.eye(5)))
        assert model.train_count == 0

    def test_train_rejects_empty_batch(self):
        model = SurrogateModel(2, seed=0)
        with pytest.raises(ContractError):
            model.train(SurrogateBatch(np.empty((0, 2)), np.empty(0)))

    def test_recovers_affine_target(self):
        """On a design whose centred columns are orthogonal with equal
        norms, the ridge slope is the true slope shrunk by exactly
        1 / (1 + RIDGE_PENALTY); the fit recovers it to round-off."""
        dim = 6
        center = np.linspace(-1.0, 2.0, dim)
        design = center + 0.3 * np.concatenate((np.eye(dim), -np.eye(dim)))
        slope = np.array([3.0, -1.5, 0.25, 8.0, -4.0, 0.5])

        def affine(theta):
            return -120.0 + float(theta @ slope)

        model = SurrogateModel(dim)
        rmse = model.train(batch_from(affine, design))
        shrunk = slope / (1.0 + surrogate.RIDGE_PENALTY)
        for theta in np.random.default_rng(1).normal(size=(20, dim)):
            want = affine(center) + (theta - center) @ shrunk
            npt.assert_allclose(model.predict(theta), want, rtol=1e-13)
        # the residual left is the shrinkage, a small share of the range
        assert 0 < rmse < 2 * surrogate.RIDGE_PENALTY

    def test_matches_augmented_least_squares(self):
        """The fit is the centred ridge solution: the same slope as a
        least-squares solve of the centred rows stacked on sqrt(penalty)
        times the identity."""
        batches = window_batches(3, dim=5, seed=4)
        model = SurrogateModel(5)
        for b in batches:
            model.train(b)
        inputs = np.concatenate([b.inputs for b in batches])
        targets = np.concatenate([b.targets for b in batches])
        x = inputs - inputs.mean(axis=0)
        y = targets - targets.mean()
        penalty = surrogate.RIDGE_PENALTY * np.mean(np.sum(x * x, axis=0))
        stacked = np.vstack((x, np.sqrt(penalty) * np.eye(5)))
        slope = np.linalg.lstsq(stacked, np.concatenate((y, np.zeros(5))),
                                rcond=None)[0]
        theta = inputs[-1] + 0.05
        want = targets.mean() + (theta - inputs.mean(axis=0)) @ slope
        npt.assert_allclose(model.predict(theta), want, rtol=1e-10)

    def test_batch_leaves_window_after_six_refits(self):
        assert surrogate.REFIT_WINDOW == 6
        later = window_batches(6, seed=2)
        first = [window_batches(1, seed=seed)[0] for seed in (7, 8)]
        models = [SurrogateModel(5), SurrogateModel(5)]
        held = np.random.default_rng(3).normal(size=(10, 5))
        for model, batch in zip(models, first):
            model.train(batch)
        for k, batch in enumerate(later, start=1):
            for model in models:
                model.train(batch)
            a, b = ([m.predict(t) for t in held] for m in models)
            # the first batches differ, so predictions do until the
            # sixth later refit pushes them out of the window
            assert (a == b) == (k == 6), k

    def test_constant_target_converges(self):
        rng = np.random.default_rng(3)
        model = SurrogateModel(5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rmse = model.train(SurrogateBatch(rng.normal(size=(64, 5)),
                                              np.full(64, -40.0)))
        # equal targets fit a zero slope: every prediction is that value
        assert rmse == 0.0
        assert model.predict(rng.normal(size=5)) == -40.0

    def test_identical_rows_predict_mean(self):
        rng = np.random.default_rng(5)
        targets = rng.normal(-40.0, 3.0, 40)
        model = SurrogateModel(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rmse = model.train(SurrogateBatch(
                np.tile(rng.normal(size=5), (40, 1)), targets))
            got = [model.predict(t) for t in rng.normal(size=(10, 5))]
        npt.assert_allclose(got, targets.mean(), rtol=1e-14)
        assert rmse == pytest.approx(targets.std() / np.ptp(targets))

    def test_same_batches_same_bits(self):
        batches = window_batches(8, seed=9)
        held = np.random.default_rng(10).normal(size=(10, 5))
        runs = []
        for seed in (11, 12):
            model = SurrogateModel(5, seed=seed)
            rmses = [model.train(b) for b in batches]
            runs.append((rmses, [model.predict(t) for t in held]))
        assert runs[0] == runs[1]
        assert model.train_count == 8


class TestHistoryAndBlend:
    def test_ring_of_three(self):
        recent = deque(maxlen=BLEND_WINDOW)
        for v in [-1.0, -2.0, -3.0, -4.0]:
            recent.append(v)
        npt.assert_allclose(blend(-3.0, recent), -3.0, rtol=1e-15)

    def test_mean_during_warmup(self):
        recent = deque(maxlen=BLEND_WINDOW)
        recent.append(-10.0)
        assert blend(-10.0, recent) == -10.0

    def test_blend_known_value(self):
        assert blend(-10.0, [-12.0, -12.0, -12.0]) == -11.0

    def test_blend_fixed_point(self):
        assert blend(-7.5, (-7.5, -7.5)) == -7.5


class TestSurrogateRmse:
    def test_known_value(self):
        npt.assert_allclose(surrogate_rmse([0.0, 0.0], [3.0, 4.0]),
                            3.5355339059327376, rtol=1e-14)

    def test_zero_for_identical(self):
        v = np.arange(5.0)
        assert surrogate_rmse(v, v) == 0.0

    def test_errors(self):
        with pytest.raises(ContractError):
            surrogate_rmse([1.0], [1.0, 2.0])
        with pytest.raises(ContractError):
            surrogate_rmse([], [])
