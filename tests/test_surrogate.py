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
    TargetScaler,
    blend,
    surrogate_rmse,
)

import _surrogate_reference


def batch_from(fn, thetas):
    thetas = np.asarray(thetas, dtype=np.float64)
    targets = np.array([fn(t) for t in thetas])
    return SurrogateBatch(thetas, targets)


def sphere(theta):
    return -float(theta @ theta)


class TestTargetScaler:
    def test_bounds_only_widen(self):
        s = TargetScaler()
        assert not s.seen
        s.update([-5.0, -2.0])
        assert (s.lo, s.hi) == (-5.0, -2.0)
        s.update([-3.0])
        assert (s.lo, s.hi) == (-5.0, -2.0)
        s.update([-10.0, 1.0])
        assert (s.lo, s.hi) == (-10.0, 1.0)

    def test_scale_and_inverse_roundtrip(self):
        s = TargetScaler()
        s.update([-20.0, 0.0])
        vals = np.array([-20.0, -10.0, 0.0])
        npt.assert_allclose(s.scale(vals), [0.0, 0.5, 1.0], atol=1e-15)
        npt.assert_allclose(s.inverse(s.scale(vals)), vals, atol=1e-12)

    def test_degenerate_single_value(self):
        s = TargetScaler()
        s.update([-7.0])
        assert s.seen and not s.ready
        npt.assert_array_equal(s.scale([-7.0, -7.0]), [0.5, 0.5])
        assert s.inverse(0.5) == -7.0

    def test_errors(self):
        s = TargetScaler()
        with pytest.raises(ContractError):
            s.scale([1.0])
        with pytest.raises(ContractError):
            s.update([np.nan])
        s.update([])  # no-op, still unseen
        assert not s.seen


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


class TestSurrogateModel:
    def test_predict_before_training_is_error(self):
        model = SurrogateModel(4, seed=0)
        with pytest.raises(ContractError):
            model.predict(np.zeros(4))

    def test_predict_scaled_shape_error(self):
        model = SurrogateModel(4, seed=0)
        with pytest.raises(ContractError):
            model.predict_scaled(np.zeros((2, 5)))

    def test_train_rejects_empty_batch(self):
        model = SurrogateModel(2, seed=0)
        with pytest.raises(ContractError):
            model.train(SurrogateBatch(np.empty((0, 2)), np.empty(0)))

    def test_constant_target_converges(self, monkeypatch):
        monkeypatch.setattr(surrogate, "TRAIN_EPOCHS", 5)
        rng = np.random.default_rng(3)
        thetas = rng.normal(size=(64, 5))
        model = SurrogateModel(5, hidden1=16, hidden2=8, seed=1)
        b = SurrogateBatch(thetas, np.full(64, -40.0))
        model.train(b)
        # degenerate scaler pins every prediction to the single seen value
        assert model.predict(rng.normal(size=5)) == -40.0

    def test_loss_decreases_on_single_row(self, monkeypatch):
        monkeypatch.setattr(surrogate, "TRAIN_EPOCHS", 40)
        rng = np.random.default_rng(5)
        model = SurrogateModel(3, hidden1=8, hidden2=4, seed=2)
        anchor = batch_from(sphere, rng.normal(size=(2, 3)))
        model.scaler.update(anchor.targets)
        row = batch_from(sphere, anchor.inputs[:1])

        def bce():
            y = model.scaler.scale(row.targets)
            p = np.clip(model.predict_scaled(row.inputs), 1e-12, 1.0 - 1e-12)
            return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

        before = bce()
        model.train(row)
        assert bce() < before

    def test_learns_smooth_map(self, monkeypatch):
        monkeypatch.setattr(surrogate, "TRAIN_EPOCHS", 20)
        rng = np.random.default_rng(7)
        train_thetas = rng.normal(size=(600, 6))
        model = SurrogateModel(6, hidden1=32, hidden2=16, seed=3)
        rmse = None
        for _ in range(5):
            rmse = model.train(batch_from(sphere, train_thetas))
        assert rmse < 0.08
        held = rng.normal(size=(100, 6))
        got = np.array([model.predict(t) for t in held])
        want = np.array([sphere(t) for t in held])
        corr = np.corrcoef(got, want)[0, 1]
        assert corr > 0.9
        assert model.train_count == 5

    def test_training_is_seeded(self, monkeypatch):
        monkeypatch.setattr(surrogate, "TRAIN_EPOCHS", 3)
        rng = np.random.default_rng(9)
        thetas = rng.normal(size=(50, 4))
        runs = []
        for _ in range(2):
            model = SurrogateModel(4, hidden1=8, hidden2=4, seed=11)
            model.train(batch_from(sphere, thetas))
            runs.append(model.predict_scaled(thetas))
        npt.assert_array_equal(runs[0], runs[1])

    def test_adam_defaults(self):
        assert (surrogate.ADAM_STEP_SIZE, surrogate.ADAM_BETA1,
                surrogate.ADAM_BETA2, surrogate.ADAM_EPS) == \
            (1e-3, 0.9, 0.999, 1e-8)
        assert (surrogate.TRAIN_EPOCHS, surrogate.TRAIN_BATCH_SIZE) == \
            (10, 32)


class TestFlatModelMatchesReference:
    """The flat-vector model gives the same bits as the frozen per-layer
    reference: same initial draws, same gradients in the same layout,
    same Adam arithmetic per element."""

    # 45 rows leave a last mini-batch of 13; one row is a batch of one
    @pytest.mark.parametrize("rows", [1, 45, 64])
    def test_predictions_equal_after_training(self, rows, monkeypatch):
        monkeypatch.setattr(surrogate, "TRAIN_EPOCHS", 3)
        rng = np.random.default_rng(rows)
        thetas = rng.normal(size=(rows, 6))
        held = rng.normal(size=(20, 6))
        flat = SurrogateModel(6, hidden1=16, hidden2=8, seed=4)
        ref = _surrogate_reference.SurrogateModel(6, hidden1=16, hidden2=8,
                                                  seed=4)
        assert np.array_equal(flat.predict_scaled(held),
                              ref.predict_scaled(held))
        for fit in range(1, 4):
            batch = batch_from(sphere, thetas + 0.1 * fit)
            assert flat.train(batch) == ref.train(batch, epochs=3)
            if fit in (1, 3):
                assert np.array_equal(flat.predict_scaled(held),
                                      ref.predict_scaled(held))
                assert flat.predict(held[0]) == ref.predict(held[0])
        assert flat.adam_step == ref.adam_step


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
