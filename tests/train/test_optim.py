"""Tests for SGD and Adam."""

import numpy as np
import pytest

from repro.train import SGD, Adam


def quadratic_grads(params):
    """Gradients of f(x) = ½‖x‖² — converging to zero."""
    return {k: v.copy() for k, v in params.items()}


class TestSGD:
    def test_single_step(self):
        params = {"w": np.array([1.0, -2.0])}
        SGD(lr=0.1).step(params, {"w": np.array([1.0, 1.0])})
        assert np.allclose(params["w"], [0.9, -2.1])

    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = SGD(lr=0.3)
        for _ in range(50):
            opt.step(params, quadratic_grads(params))
        assert np.abs(params["w"]).max() < 1e-6

    def test_momentum_accelerates(self):
        def run(momentum):
            params = {"w": np.array([5.0])}
            opt = SGD(lr=0.05, momentum=momentum)
            for _ in range(20):
                opt.step(params, quadratic_grads(params))
            return abs(float(params["w"][0]))

        assert run(0.9) < run(0.0)

    def test_unknown_param_rejected(self):
        with pytest.raises(KeyError):
            SGD().step({"w": np.zeros(2)}, {"v": np.zeros(2)})

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_missing_grads_leave_param_untouched(self):
        params = {"w": np.ones(2), "frozen": np.ones(2)}
        SGD(lr=0.5).step(params, {"w": np.ones(2)})
        assert np.allclose(params["frozen"], 1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0, -3.0, 2.0])}
        opt = Adam(lr=0.2)
        for _ in range(200):
            opt.step(params, quadratic_grads(params))
        assert np.abs(params["w"]).max() < 1e-3

    def test_first_step_magnitude_is_lr(self):
        # Bias correction makes the first update ≈ lr · sign(grad).
        params = {"w": np.array([1.0])}
        Adam(lr=0.01).step(params, {"w": np.array([123.0])})
        assert params["w"][0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_state_tracks_multiple_params(self):
        params = {"a": np.ones(2), "b": np.ones(3)}
        opt = Adam(lr=0.1)
        for _ in range(3):
            opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
        assert params["a"].shape == (2,)
        assert (params["a"] < 1.0).all()

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam(lr=-1.0)


class TestStateAllocation:
    """Optimizer state is allocated on a parameter's first step only,
    and the trajectory is the eagerly initialised one's, bit for bit."""

    @staticmethod
    def _counting_zeros_like(monkeypatch):
        calls = []
        zeros_like = np.zeros_like

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return zeros_like(*args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counted)
        return calls

    def test_adam_allocates_on_first_step_only(self, monkeypatch):
        params = {"a": np.ones(2, np.float32), "b": np.ones((3, 2), np.float32)}
        opt = Adam(lr=0.1)
        calls = self._counting_zeros_like(monkeypatch)
        opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
        assert sorted(calls) == [(2,), (2,), (3, 2), (3, 2)]
        calls.clear()
        for _ in range(3):
            opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
        assert calls == []

    def test_sgd_momentum_allocates_on_first_step_only(self, monkeypatch):
        params = {"w": np.ones(4, np.float32)}
        opt = SGD(lr=0.1, momentum=0.9)
        opt.step(params, {"w": np.ones(4, np.float32)})
        velocity = opt._velocity["w"]
        calls = self._counting_zeros_like(monkeypatch)
        opt.step(params, {"w": np.ones(4, np.float32)})
        assert calls == [] and opt._velocity["w"] is not velocity

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_adam_trajectory_unchanged(self, dtype):
        """Against the textbook update with zero-initialised moments."""
        rng = np.random.default_rng(3)
        params = {"w": rng.normal(size=(5, 3)).astype(dtype)}
        want = params["w"].copy()
        m = np.zeros_like(want)
        v = np.zeros_like(want)
        opt = Adam(lr=0.05)
        for t in range(1, 6):
            grad = rng.normal(size=want.shape).astype(dtype)
            # A zero gradient entry keeps the signed-zero path covered.
            grad[0, 0] = 0.0
            opt.step(params, {"w": grad})
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            want = want - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert params["w"].tobytes() == want.tobytes()
