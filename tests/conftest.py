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


@pytest.fixture
def simulated(monkeypatch):
    """Names of the ``CircuitProgram`` calls that simulate rows for the
    folded adjoint (``prefix_states``, ``suffix_unitary``), in call order."""
    from repro.quantum.program import CircuitProgram

    calls = []
    for name in ("prefix_states", "suffix_unitary"):
        method = getattr(CircuitProgram, name)

        def spy(self, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(CircuitProgram, name, spy)
    return calls


@pytest.fixture
def encoded_rows(monkeypatch):
    """Rows of every ``CircuitProgram.prefix_states`` call (the rows run
    through the encoding prefix) made during the test."""
    from repro.quantum.program import CircuitProgram

    rows = []
    prefix_states = CircuitProgram.prefix_states

    def spy(self, inputs, weights, batch, *args):
        rows.append(batch)
        return prefix_states(self, inputs, weights, batch, *args)

    monkeypatch.setattr(CircuitProgram, "prefix_states", spy)
    return rows


@pytest.fixture
def recomputing(monkeypatch):
    """Call to make every later update forward a plain ``run`` that keeps
    no states, so each adjoint backward simulates its rows again — the
    reference the state-reusing update must match bit for bit."""
    from repro.quantum.backends import StatevectorBackend

    def run_states(self, circuit, observables, inputs=None, weights=None,
                   batch_size=None):
        return self.run(circuit, observables, inputs, weights, batch_size), None

    return lambda: monkeypatch.setattr(
        StatevectorBackend, "run_states", run_states
    )


@pytest.fixture(params=["fresh", "reused"])
def program_state(request, monkeypatch):
    """Run a test on fresh compiled programs, then on reused ones.

    ``reused`` fills a program's trailing-block cache with decoy weight
    rows of the same shape (the real rows shifted) before every
    ``suffix_unitary`` call, so the real call meets a cache holding other
    weights' unitaries.  It must still build or find its own, and leave
    every decoy's cached unitary unchanged.  One slot is left for the real
    rows, so a test's repeated calls still hit its own entry.  A program
    whose trailing block holds no weight gate builds no unitary and keeps
    no cache, so there is nothing to reuse.
    """
    if request.param == "fresh":
        return
    from repro.quantum import program

    suffix_unitary = program.CircuitProgram.suffix_unitary

    def reused(self, weights):
        if not self.suffix_has_weights:
            return suffix_unitary(self, weights)
        rows = program._weight_rows(weights)
        decoys = [
            suffix_unitary(self, rows + 0.25 * (k + 1))
            for k in range(self._SUFFIX_CACHE_SIZE - 1)
        ]
        kept = [decoy.copy() for decoy in decoys]
        out = suffix_unitary(self, weights)
        for decoy, copy in zip(decoys, kept):
            assert decoy.tobytes() == copy.tobytes(), (
                "a later call changed a cached unitary"
            )
        return out

    monkeypatch.setattr(program.CircuitProgram, "suffix_unitary", reused)
