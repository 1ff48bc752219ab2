"""Unit tests for differentiable functions."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.helpers import numeric_gradient


def check_gradient(build_loss, array, atol=1e-6):
    x = Tensor(array.copy(), requires_grad=True)
    build_loss(x).backward()
    numeric = numeric_gradient(lambda a: build_loss(Tensor(a)).item(), array)
    assert np.allclose(x.grad, numeric, atol=atol)


class TestElementwise:
    def test_exp(self, rng):
        check_gradient(lambda x: F.exp(x).sum(), rng.normal(size=(3, 2)))

    def test_log(self, rng):
        array = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda x: F.log(x).sum(), array)

    def test_tanh(self, rng):
        check_gradient(lambda x: F.tanh(x).sum(), rng.normal(size=(5,)))

    def test_relu(self, rng):
        array = rng.normal(size=(8,)) + 0.05  # avoid the kink at 0
        check_gradient(lambda x: F.relu(x).sum(), array)

    def test_relu_zero_below(self):
        out = F.relu(Tensor([-1.0, 2.0]))
        assert np.allclose(out.data, [0.0, 2.0])

    def test_sigmoid(self, rng):
        check_gradient(lambda x: F.sigmoid(x).sum(), rng.normal(size=(5,)))

    def test_sigmoid_range(self, rng):
        out = F.sigmoid(Tensor(rng.normal(size=10) * 10))
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 5))))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(2, 3))
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        assert np.allclose(a, b)

    def test_overflow_stability(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_gradient(self, rng):
        weights = rng.normal(size=(3, 4))
        check_gradient(
            lambda x: (F.softmax(x) * weights).sum(), rng.normal(size=(3, 4))
        )

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(3, 4))
        direct = F.log_softmax(Tensor(logits)).data
        composed = np.log(F.softmax(Tensor(logits)).data)
        assert np.allclose(direct, composed)

    def test_log_softmax_gradient(self, rng):
        weights = rng.normal(size=(3, 4))
        check_gradient(
            lambda x: (F.log_softmax(x) * weights).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_log_softmax_extreme_logits(self):
        out = F.log_softmax(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()


class TestGather:
    def test_selects_elements(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = F.gather(x, np.array([2, 0]))
        assert np.allclose(out.data, [2.0, 3.0])

    def test_gradient_routes_to_selected(self, rng):
        indices = np.array([1, 0, 2])
        check_gradient(
            lambda x: (F.gather(x, indices) * np.array([1.0, 2.0, 3.0])).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_shape_validation(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            F.gather(x, np.array([0]))
        with pytest.raises(ValueError):
            F.gather(Tensor(np.zeros(3)), np.array([0]))


class TestCombinators:
    def test_concatenate_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 2)))
        out = F.concatenate([a, b], axis=0)
        assert out.shape == (3, 2)

    def test_concatenate_gradients(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = F.concatenate([a, b], axis=1)
        (out * out).sum().backward()
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)

    def test_stack_gradients(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * out).sum().backward()
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)


class TestLosses:
    def test_mse_value(self):
        loss = F.mse_loss(Tensor([1.0, 3.0]), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(5.0)

    def test_mse_gradient(self, rng):
        target = rng.normal(size=(4,))
        check_gradient(
            lambda x: F.mse_loss(x, target), rng.normal(size=(4,))
        )

    def test_mse_target_detached(self):
        target = Tensor([1.0], requires_grad=True)
        pred = Tensor([0.0], requires_grad=True)
        F.mse_loss(pred, target).backward()
        assert target.grad is None
