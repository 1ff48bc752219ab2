"""Shared fixtures for the test suite."""

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running integration tests (excluded by the CI fast job)",
    )


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def sweep_rows(monkeypatch):
    """Rows of every compiled adjoint reverse sweep run during the test.

    A sweep folded over ``G`` weight groups runs ``2 * G * 2**n`` rows; a
    row sweep runs ``2 * B``.
    """
    from repro.quantum import gradients

    rows = []
    sweep = gradients._sweep

    def spy(prog, circuit, stacked, *args):
        rows.append(stacked.shape[0])
        return sweep(prog, circuit, stacked, *args)

    monkeypatch.setattr(gradients, "_sweep", spy)
    return rows
