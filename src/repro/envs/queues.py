"""Clipped queue dynamics with under/overflow accounting.

Implements the paper's queue update

    q_{t+1} = clip(q_t - u_t + b_t, 0, q_max)

for a bank of queues at once, while recording exactly the quantities the
reward (Eq. 1) and the Fig. 3 metrics need: the *pre-clip* value
``raw = q_t - u_t + b_t``, whether the queue bottomed out (``raw <= 0``),
whether it overflowed (``raw >= q_max``), and the magnitudes
``q_tilde = |raw|`` and ``q_hat = |q_max - q_tilde|``.

Every kernel accepts an optional leading batch axis: a bank constructed
with ``n_envs=N`` holds ``(N, n_queues)`` levels and updates all ``N``
environment copies in one vectorised call, which is what the lockstep
:mod:`repro.envs.vector` environments build on.  All arithmetic is
elementwise, so a batched update is bit-identical per row to ``N``
independent serial updates.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "clip",
    "check_flows",
    "penalty_magnitudes",
    "lost_to_overflow",
    "QueueUpdate",
    "QueueBank",
]

_EVENT_ATOL = 1e-12


def clip(value, low, high):
    """The paper's clip: ``min(high, max(value, low))`` (vectorised)."""
    return np.minimum(high, np.maximum(np.asarray(value, dtype=np.float64), low))


def check_flows(*flows):
    """``ValueError`` unless every flow is non-negative.  ``.min() < 0``
    gives ``np.any(flow < 0)``'s verdict (NaN passes both) without the
    Python-level wrapper; flows are never empty here."""
    for flow in flows:
        if flow.min() < 0:
            raise ValueError("outflow and inflow must be non-negative")


def _settle(raw, capacity):
    """Clip pre-computed ``raw = q - u + b`` into ``[0, capacity]``;
    returns ``(levels, events)``, where ``events[0]`` is the empty mask
    (``raw <= 0``) and ``events[1]`` the overflow mask (``raw >= q_max``),
    both within ``_EVENT_ATOL``.  The masks share one array so that one
    reduction counts both."""
    levels = clip(raw, 0.0, capacity)
    events = np.empty((2,) + np.shape(raw), dtype=bool)
    np.less_equal(raw, _EVENT_ATOL, out=events[0])
    np.greater_equal(raw, capacity - _EVENT_ATOL, out=events[1])
    return levels, events


def penalty_magnitudes(raw, capacity):
    """Eq. (1)'s ``(q_tilde, q_hat)``: ``|raw|`` and ``|q_max - q_tilde|``."""
    q_tilde = np.abs(raw)
    return q_tilde, np.abs(capacity - q_tilde)


def lost_to_overflow(raw, levels, overflow):
    """Elementwise packet mass lost to overflow: ``raw - levels`` where a
    queue overflowed, 0 elsewhere."""
    return np.maximum(np.where(overflow, raw - levels, 0.0), 0.0)


class QueueUpdate:
    """Full accounting of one queue-bank transition.

    Attributes:
        previous: Queue levels before the update.
        raw: Pre-clip values ``q - u + b``.
        levels: Post-clip queue levels.
        empty: Boolean mask of underflow events (``raw <= 0``).
        overflow: Boolean mask of overflow events (``raw >= q_max``).
        q_tilde: ``|raw|`` — the underflow penalty magnitude of Eq. (1).
        q_hat: ``|q_max - q_tilde|`` — the overflow penalty magnitude.
    """

    __slots__ = (
        "previous",
        "raw",
        "levels",
        "empty",
        "overflow",
        "q_tilde",
        "q_hat",
    )

    def __init__(self, previous, raw, q_max):
        self.previous = previous
        self.raw = raw
        self.levels, (self.empty, self.overflow) = _settle(raw, q_max)
        self.q_tilde, self.q_hat = penalty_magnitudes(raw, q_max)

    @property
    def overflow_excess(self):
        """Elementwise packet mass lost to overflow (same shape as levels)."""
        return lost_to_overflow(self.raw, self.levels, self.overflow)

    @property
    def overflow_amount(self):
        """Total packet mass lost to overflow this step (summed over all axes)."""
        return float(self.overflow_excess.sum())


class QueueBank:
    """A vector of queues sharing one capacity, optionally batched over envs.

    Args:
        n_queues: Number of queues in the bank.
        capacity: ``q_max`` shared by every queue.
        initial_level: Starting level for :meth:`reset`, either a scalar in
            ``[0, capacity]`` or ``"uniform"`` for random initialisation.
        n_envs: ``None`` for a single environment (levels ``(n_queues,)``) or
            the number of lockstep environment copies (levels
            ``(n_envs, n_queues)``).
    """

    def __init__(self, n_queues, capacity, initial_level=0.5, n_envs=None):
        if n_queues < 1:
            raise ValueError("n_queues must be >= 1")
        if not (np.isfinite(capacity) and capacity > 0):
            raise ValueError(
                f"capacity must be positive and finite, got {capacity!r}"
            )
        if n_envs is not None and n_envs < 1:
            raise ValueError("n_envs must be None or >= 1")
        self.n_queues = int(n_queues)
        self.capacity = float(capacity)
        self.n_envs = None if n_envs is None else int(n_envs)
        if not isinstance(initial_level, str):
            initial_level = float(initial_level)
            if not 0.0 <= initial_level <= self.capacity:
                raise ValueError(
                    f"initial level {initial_level} outside [0, {self.capacity}]"
                )
        elif initial_level != "uniform":
            raise ValueError(f"unknown initial level mode {initial_level!r}")
        self.initial_level = initial_level
        self.levels = np.zeros(self.shape)

    @property
    def shape(self):
        """Level-array shape: ``(n_queues,)`` or ``(n_envs, n_queues)``."""
        if self.n_envs is None:
            return (self.n_queues,)
        return (self.n_envs, self.n_queues)

    def reset(self, rng=None):
        """Re-initialise every level; returns the starting level array.

        In batched mode one ``rng`` draws the whole block at once; use
        :meth:`reset_row` when each environment copy must consume its own
        stream (the serial-equivalence contract of the vector envs).
        """
        if isinstance(self.initial_level, str):
            if rng is None:
                raise ValueError("uniform initialisation needs an rng")
            self.levels = rng.uniform(0.0, self.capacity, size=self.shape)
        else:
            self.levels = np.full(self.shape, self.initial_level)
        return self.levels.copy()

    def reset_row(self, row, rng=None):
        """Re-initialise one environment row from its own generator.

        Draws exactly what a serial bank's :meth:`reset` would draw from
        ``rng``, so row ``i`` of a batched bank stays stream-identical to an
        independent serial environment.
        """
        if self.n_envs is None:
            raise ValueError("reset_row needs a batched bank (n_envs set)")
        if isinstance(self.initial_level, str):
            if rng is None:
                raise ValueError("uniform initialisation needs an rng")
            self.levels[row] = rng.uniform(
                0.0, self.capacity, size=self.n_queues
            )
        else:
            self.levels[row] = self.initial_level
        return self.levels[row].copy()

    def step(self, outflow, inflow):
        """Apply one clipped update; returns a :class:`QueueUpdate`.

        Args:
            outflow: ``u_t`` per queue (scalar or array broadcastable to
                the bank's shape).
            inflow: ``b_t`` per queue (scalar or broadcastable array).
        """
        outflow = self._flow(outflow)
        inflow = self._flow(inflow)
        check_flows(outflow, inflow)
        previous = self.levels.copy()
        raw = previous - outflow + inflow
        update = QueueUpdate(previous, raw, self.capacity)
        self.levels = update.levels.copy()
        return update

    def advance(self, raw):
        """Clip pre-computed ``raw = q - u + b`` into the new levels;
        returns ``(levels, events)``, where ``events[0]`` is the empty mask
        and ``events[1]`` the overflow mask.

        :meth:`step` without its flow checks, :class:`QueueUpdate` or
        copies, for the vector envs, which build ``raw`` from flows they
        made themselves: the same clip and event thresholds, so the same
        bits.  ``levels`` becomes the bank's level array as it is, so a
        caller that keeps it must copy the bank's levels before writing to
        them.
        """
        levels, events = _settle(raw, self.capacity)
        self.levels = levels
        return levels, events

    def _flow(self, flow):
        """A flow as float64; ``ValueError`` unless it broadcasts to the
        bank's shape (``broadcast_shapes`` raises for incompatible shapes,
        the comparison catches extra axes)."""
        flow = np.asarray(flow, dtype=np.float64)
        if flow.ndim and flow.shape != self.shape and (
            np.broadcast_shapes(flow.shape, self.shape) != self.shape
        ):
            raise ValueError(
                f"flow of shape {flow.shape} does not broadcast to the "
                f"bank's shape {self.shape}"
            )
        return flow

    def __repr__(self):
        return (
            f"QueueBank(n_queues={self.n_queues}, capacity={self.capacity}, "
            f"n_envs={self.n_envs}, levels={np.round(self.levels, 3)})"
        )
