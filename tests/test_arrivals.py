"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.config import SingleHopConfig
from repro.envs.arrivals import (
    BernoulliBurstArrivals,
    DeterministicArrivals,
    TruncatedPoissonArrivals,
    UniformArrivals,
)
from repro.envs.multi_hop import MultiHopOffloadEnv, layered_topology
from repro.envs.single_hop import SingleHopOffloadEnv


class TestUniformArrivals:
    def test_paper_range(self, rng):
        """b ~ U(0, w_p * q_max) with Table II's w_p = 0.3, q_max = 1."""
        process = UniformArrivals(0.3, 1.0)
        samples = process.sample(rng, 10_000)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 0.3)
        assert samples.mean() == pytest.approx(0.15, abs=0.01)

    def test_mean(self):
        assert UniformArrivals(0.3, 1.0).mean == pytest.approx(0.15)

    def test_zero_rate(self, rng):
        assert np.all(UniformArrivals(0.0, 1.0).sample(rng, 10) == 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UniformArrivals(-0.1, 1.0)

    @pytest.mark.parametrize("n_rows", [1, 16])
    @pytest.mark.parametrize("high", [0.0, 0.3, 7.5])
    def test_sample_batch_matches_per_row_draws(self, n_rows, high):
        """The one-block kernel is bitwise the stack of serial draws and
        leaves every row generator where the serial draws leave it."""
        process = UniformArrivals(high, 1.0)
        block_rngs = [np.random.default_rng(seed) for seed in range(n_rows)]
        row_rngs = [np.random.default_rng(seed) for seed in range(n_rows)]
        for _ in range(20):
            block = process.sample_batch(block_rngs, 4)
            rows = np.stack([process.sample(rng, 4) for rng in row_rngs])
            assert block.dtype == rows.dtype
            assert block.tobytes() == rows.tobytes()
        for got, expected in zip(block_rngs, row_rngs):
            assert got.bit_generator.state == expected.bit_generator.state


class TestNonFiniteArrivalBounds:
    """A NaN or infinite arrival bound is rejected when the env is built,
    not at the first step (nor returned as non-finite arrivals)."""

    @pytest.mark.parametrize(
        "w_p, q_max",
        [
            (float("nan"), 1.0),
            (float("inf"), 1.0),
            (0.3, float("nan")),
            (0.3, float("inf")),
            (0.0, float("inf")),
        ],
    )
    def test_uniform_arrivals_reject(self, w_p, q_max):
        with pytest.raises(ValueError, match="finite"):
            UniformArrivals(w_p, q_max)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"w_p": float("nan")},
            {"w_p": float("inf")},
            # "uniform" start: a fixed 0.5 start is already range-checked.
            {"queue_capacity": float("nan"), "initial_queue_level": "uniform"},
        ],
    )
    def test_single_hop_env_rejects(self, overrides):
        with pytest.raises(ValueError):
            SingleHopOffloadEnv(SingleHopConfig(**overrides))

    def test_multi_hop_env_rejects(self):
        with pytest.raises(ValueError):
            MultiHopOffloadEnv(layered_topology((3, 2, 1)), w_p=float("nan"))


class TestBernoulliBurstArrivals:
    def test_values_binary(self, rng):
        process = BernoulliBurstArrivals(0.3, 0.5)
        samples = process.sample(rng, 1000)
        assert set(np.unique(samples)) <= {0.0, 0.5}

    def test_mean(self, rng):
        process = BernoulliBurstArrivals(0.25, 0.8)
        assert process.mean == pytest.approx(0.2)
        samples = process.sample(rng, 20_000)
        assert samples.mean() == pytest.approx(0.2, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliBurstArrivals(1.5, 0.1)
        with pytest.raises(ValueError):
            BernoulliBurstArrivals(0.5, -0.1)


class TestTruncatedPoissonArrivals:
    def test_cap_respected(self, rng):
        process = TruncatedPoissonArrivals(rate=10.0, packet_size=0.1, cap=0.4)
        samples = process.sample(rng, 1000)
        assert np.all(samples <= 0.4)

    def test_mean_without_truncation(self, rng):
        process = TruncatedPoissonArrivals(rate=1.0, packet_size=0.1, cap=10.0)
        samples = process.sample(rng, 50_000)
        assert samples.mean() == pytest.approx(0.1, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedPoissonArrivals(-1.0, 0.1, 1.0)


class TestDeterministicArrivals:
    def test_constant(self, rng):
        process = DeterministicArrivals(0.25)
        assert np.all(process.sample(rng, 5) == 0.25)
        assert process.mean == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicArrivals(-1.0)


class TestReprs:
    def test_all_reprs(self):
        assert "Uniform" in repr(UniformArrivals(0.3, 1.0))
        assert "Bernoulli" in repr(BernoulliBurstArrivals(0.1, 0.5))
        assert "Poisson" in repr(TruncatedPoissonArrivals(1.0, 0.1, 1.0))
        assert "Deterministic" in repr(DeterministicArrivals(0.1))
