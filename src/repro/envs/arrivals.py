"""Packet arrival processes feeding the edge queues.

The paper draws edge arrivals uniformly: ``b ~ U(0, w_P * q_max)``.  The
additional processes here exercise the environment under burstier traffic in
the robustness ablations and provide deterministic streams for tests.

Every process also exposes :meth:`ArrivalProcess.sample_batch`, the leading-
batch-axis kernel used by the lockstep vector environments: one row per
environment copy, each drawn from that copy's *own* generator so a batched
rollout consumes RNG streams exactly like independent serial environments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ArrivalProcess",
    "UniformArrivals",
    "BernoulliBurstArrivals",
    "TruncatedPoissonArrivals",
    "DeterministicArrivals",
]


class ArrivalProcess:
    """Base class: per-step arrival sampling, serial or batched over envs.

    Subclasses implement ``sample(rng, n)``; the batched kernel stacks one
    per-environment draw per row.  Keeping one ``rng`` per row (rather than
    one generator for the whole block) is deliberate: it makes row ``i`` of
    a vectorised environment bit-identical to a serial environment seeded
    with the same stream, which is what the step-for-step equivalence tests
    pin down.
    """

    def sample(self, rng, n):
        """Arrival volume for ``n`` queues of one environment."""
        raise NotImplementedError

    def sample_batch(self, rngs, n):
        """Arrival volumes ``(len(rngs), n)`` — row ``i`` from ``rngs[i]``."""
        return np.stack([self.sample(rng, n) for rng in rngs])


class UniformArrivals(ArrivalProcess):
    """The paper's process: i.i.d. ``U(0, w_p * q_max)`` per edge per step."""

    def __init__(self, w_p, q_max):
        if w_p < 0:
            raise ValueError("w_p must be non-negative")
        self.high = float(w_p) * float(q_max)
        # NaN slips past the sign check above; the batched kernel would
        # return non-finite arrivals instead of raising at the first step.
        if not (np.isfinite(self.high) and self.high >= 0.0):
            raise ValueError(
                f"arrival bound w_p * q_max must be finite and >= 0, got "
                f"w_p={w_p!r}, q_max={q_max!r}"
            )

    @property
    def mean(self):
        """Expected arrival volume per step."""
        return self.high / 2.0

    def sample(self, rng, n):
        """Arrival volume for ``n`` queues."""
        return rng.uniform(0.0, self.high, size=n)

    def sample_batch(self, rngs, n):
        """Arrival volumes ``(len(rngs), n)`` — row ``i`` from ``rngs[i]``.

        ``uniform(0, high, n)`` is ``0.0 + high * r`` over ``n`` doubles
        ``r`` from ``random``, so filling the block with raw doubles and
        scaling it once gives the same bits and leaves every generator in
        the same state, without one argument-parsing call per row.
        """
        block = np.empty((len(rngs), n))
        for rng, row in zip(rngs, block):
            rng.random(out=row)
        block *= self.high
        return block

    def __repr__(self):
        return f"UniformArrivals(high={self.high})"


class BernoulliBurstArrivals(ArrivalProcess):
    """Bursty traffic: with probability ``p`` a burst of fixed size arrives."""

    def __init__(self, burst_probability, burst_size):
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        if burst_size < 0:
            raise ValueError("burst_size must be non-negative")
        self.burst_probability = float(burst_probability)
        self.burst_size = float(burst_size)

    @property
    def mean(self):
        """Expected arrival volume per step."""
        return self.burst_probability * self.burst_size

    def sample(self, rng, n):
        """Arrival volume for ``n`` queues."""
        bursts = rng.random(n) < self.burst_probability
        return np.where(bursts, self.burst_size, 0.0)

    def __repr__(self):
        return (
            f"BernoulliBurstArrivals(p={self.burst_probability}, "
            f"size={self.burst_size})"
        )


class TruncatedPoissonArrivals(ArrivalProcess):
    """Poisson packet counts of fixed size, truncated at a volume cap."""

    def __init__(self, rate, packet_size, cap):
        if rate < 0 or packet_size < 0 or cap < 0:
            raise ValueError("rate, packet_size and cap must be non-negative")
        self.rate = float(rate)
        self.packet_size = float(packet_size)
        self.cap = float(cap)

    @property
    def mean(self):
        """Expected arrival volume per step (ignoring truncation)."""
        return min(self.rate * self.packet_size, self.cap)

    def sample(self, rng, n):
        """Arrival volume for ``n`` queues."""
        counts = rng.poisson(self.rate, size=n)
        return np.minimum(counts * self.packet_size, self.cap)

    def __repr__(self):
        return (
            f"TruncatedPoissonArrivals(rate={self.rate}, "
            f"packet_size={self.packet_size}, cap={self.cap})"
        )


class DeterministicArrivals(ArrivalProcess):
    """Fixed arrival volume every step (testing aid)."""

    def __init__(self, volume):
        if volume < 0:
            raise ValueError("volume must be non-negative")
        self.volume = float(volume)

    @property
    def mean(self):
        """Expected (= exact) arrival volume per step."""
        return self.volume

    def sample(self, rng, n):
        """Arrival volume for ``n`` queues."""
        return np.full(n, self.volume)

    def __repr__(self):
        return f"DeterministicArrivals(volume={self.volume})"
