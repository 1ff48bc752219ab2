"""Unit tests for the queueing substrate."""

import numpy as np
import pytest

from repro.envs.queues import QueueBank, QueueUpdate, clip


class TestClip:
    def test_scalar(self):
        assert clip(1.5, 0.0, 1.0) == 1.0
        assert clip(-0.5, 0.0, 1.0) == 0.0
        assert clip(0.4, 0.0, 1.0) == pytest.approx(0.4)

    def test_vector(self):
        out = clip(np.array([-1.0, 0.5, 2.0]), 0.0, 1.0)
        assert np.allclose(out, [0.0, 0.5, 1.0])


class TestQueueUpdate:
    def test_paper_quantities(self):
        """q_tilde = |raw| and q_hat = |q_max - q_tilde| per Eq. (1)."""
        update = QueueUpdate(
            previous=np.array([0.1, 0.9]),
            raw=np.array([-0.2, 1.3]),
            q_max=1.0,
        )
        assert np.allclose(update.levels, [0.0, 1.0])
        assert np.allclose(update.q_tilde, [0.2, 1.3])
        assert np.allclose(update.q_hat, [0.8, 0.3])
        assert list(update.empty) == [True, False]
        assert list(update.overflow) == [False, True]

    def test_overflow_amount(self):
        update = QueueUpdate(
            previous=np.array([0.9, 0.5]),
            raw=np.array([1.4, 0.5]),
            q_max=1.0,
        )
        assert update.overflow_amount == pytest.approx(0.4)

    def test_exact_boundary_counts_as_event(self):
        update = QueueUpdate(
            previous=np.array([0.5, 0.5]),
            raw=np.array([0.0, 1.0]),
            q_max=1.0,
        )
        assert update.empty[0]
        assert update.overflow[1]


class TestQueueBank:
    def test_reset_constant(self):
        bank = QueueBank(3, 1.0, initial_level=0.5)
        levels = bank.reset()
        assert np.allclose(levels, 0.5)

    def test_reset_uniform(self, rng):
        bank = QueueBank(100, 1.0, initial_level="uniform")
        levels = bank.reset(rng)
        assert np.all(levels >= 0) and np.all(levels <= 1)
        assert levels.std() > 0.1

    def test_uniform_needs_rng(self):
        bank = QueueBank(2, 1.0, initial_level="uniform")
        with pytest.raises(ValueError):
            bank.reset()

    def test_step_updates_levels(self):
        bank = QueueBank(2, 1.0, initial_level=0.5)
        bank.reset()
        update = bank.step(outflow=[0.2, 0.0], inflow=[0.0, 0.3])
        assert np.allclose(bank.levels, [0.3, 0.8])
        assert np.allclose(update.previous, 0.5)

    def test_step_clips(self):
        bank = QueueBank(2, 1.0, initial_level=0.5)
        bank.reset()
        bank.step(outflow=[1.0, 0.0], inflow=[0.0, 1.0])
        assert np.allclose(bank.levels, [0.0, 1.0])

    def test_scalar_broadcast(self):
        bank = QueueBank(3, 1.0, initial_level=0.6)
        bank.reset()
        bank.step(outflow=0.3, inflow=0.0)
        assert np.allclose(bank.levels, 0.3)

    def test_negative_flow_rejected(self):
        bank = QueueBank(1, 1.0)
        bank.reset()
        with pytest.raises(ValueError):
            bank.step(outflow=-0.1, inflow=0.0)
        with pytest.raises(ValueError):
            bank.step(outflow=0.0, inflow=-0.1)

    def test_batched_flows_broadcast_to_the_bank(self):
        """Scalar, per-queue and per-env flows combine by broadcasting,
        exactly as if expanded to the bank's shape first."""
        flows = [
            (0.1, [0.0, 0.2]),
            (np.array([[0.05], [0.0], [0.3]]), 0.25),
            ([0.2, 0.1], np.full((3, 2), 0.1)),
        ]
        bank = QueueBank(2, 1.0, initial_level=0.5, n_envs=3)
        expanded = QueueBank(2, 1.0, initial_level=0.5, n_envs=3)
        bank.reset()
        expanded.reset()
        for outflow, inflow in flows:
            update = bank.step(outflow=outflow, inflow=inflow)
            reference = expanded.step(
                outflow=np.broadcast_to(outflow, (3, 2)),
                inflow=np.broadcast_to(inflow, (3, 2)),
            )
            assert update.raw.shape == (3, 2)
            assert np.array_equal(update.raw, reference.raw)
            assert np.array_equal(bank.levels, expanded.levels)

    @pytest.mark.parametrize(
        "shape", [(3, 3), (2, 3, 2), (4,)],
        ids=["too_many_columns", "extra_leading_axis", "wrong_width"],
    )
    @pytest.mark.parametrize("flow", ["inflow", "outflow"])
    def test_flow_that_does_not_broadcast_rejected(self, shape, flow):
        bank = QueueBank(2, 1.0, initial_level=0.5, n_envs=3)
        bank.reset()
        flows = {"inflow": 0.0, "outflow": 0.0, flow: np.zeros(shape)}
        with pytest.raises(ValueError):
            bank.step(**flows)
        assert np.array_equal(bank.levels, np.full((3, 2), 0.5))

    def test_levels_always_in_bounds(self, rng):
        bank = QueueBank(4, 1.0, initial_level=0.5)
        bank.reset()
        for _ in range(200):
            bank.step(
                outflow=rng.uniform(0, 0.5, 4), inflow=rng.uniform(0, 0.5, 4)
            )
            assert np.all(bank.levels >= 0.0)
            assert np.all(bank.levels <= 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_queues": 0, "capacity": 1.0},
            {"n_queues": 1, "capacity": 0.0},
            {"n_queues": 1, "capacity": 1.0, "initial_level": 2.0},
            {"n_queues": 1, "capacity": 1.0, "initial_level": "gaussian"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueueBank(**kwargs)

    def test_repr(self):
        assert "n_queues=2" in repr(QueueBank(2, 1.0))
