"""Parent-worker protocol of the process-sharded rollout and serving workers.

Both sides speak one tagged-tuple protocol over a ``multiprocessing`` pipe:
every request is ``(command, *payload)`` and every reply is
``("ok", result)`` or ``("error", traceback_text)``.  Everything a worker
exchanges with its parent — commands, actor weight broadcasts, RNG stream
states, episode stats and transition blocks, checkpoints, serving
probability blocks — rides the reply pickle.  :class:`PipeChannel` is the
parent's end and :class:`WorkerEndpoint` the worker's.

Two failure modes are kept distinct because they demand opposite reactions:

- :class:`WorkerCrashError` — the worker *process* died (killed, segfault,
  OOM).  The work itself may be fine; the caller restarts the worker from
  its last checkpoint and replays the in-flight command.
- :class:`WorkerTaskError` — the worker executed the command and raised.
  This is deterministic (a replay would raise again), so it propagates to
  the caller instead of triggering a restart loop.

RNG streams cross the process boundary as plain bit-generator state dicts
(:func:`get_rng_state` / :func:`rng_from_state`) so the parent can hand its
action-sampling stream to every worker and adopt the advanced stream back —
the mechanism behind the subsystem's bit-exact determinism contract.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = [
    "WorkerCrashError",
    "WorkerTaskError",
    "get_rng_state",
    "rng_from_state",
    "PipeChannel",
    "ShmRingChannel",
    "WorkerEndpoint",
]


class WorkerCrashError(RuntimeError):
    """The worker process died mid-conversation (restart and replay)."""


class WorkerTaskError(RuntimeError):
    """The worker ran the command and raised (deterministic; do not replay)."""


def get_rng_state(rng):
    """Portable snapshot of a ``numpy.random.Generator``'s stream position."""
    return copy.deepcopy(rng.bit_generator.state)


def rng_from_state(state):
    """Rebuild a generator at the exact stream position of a snapshot."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = copy.deepcopy(state)
    return np.random.Generator(bit_generator)


class PipeChannel:
    """One duplex pickle-pipe to a worker, with crash/task error separation.

    Args:
        process: The worker's ``multiprocessing.Process`` (liveness checks).
        connection: The parent end of the pipe.
    """

    def __init__(self, process, connection):
        self.process = process
        self.connection = connection

    def send(self, message):
        """Ship one request; raises :class:`WorkerCrashError` on a dead peer."""
        if not self.process.is_alive():
            raise WorkerCrashError(
                f"worker pid={self.process.pid} is dead "
                f"(exitcode={self.process.exitcode})"
            )
        try:
            self.connection.send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise WorkerCrashError(
                f"worker pid={self.process.pid} pipe closed on send: {exc}"
            ) from exc

    def recv(self):
        """Await one reply; unwraps ``("ok", result)`` / raises on errors."""
        try:
            tag, payload = self.connection.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashError(
                f"worker pid={self.process.pid} died before replying "
                f"(exitcode={self.process.exitcode})"
            ) from exc
        if tag == "error":
            raise WorkerTaskError(
                f"worker pid={self.process.pid} raised:\n{payload}"
            )
        return payload

    def close(self):
        """Close the parent end of the pipe."""
        try:
            self.connection.close()
        except OSError:
            pass


class ShmRingChannel(PipeChannel):
    """Never instantiated: the shared-memory transport is gone.

    ``perfbench/layers.py`` still times this class's ``recv`` as a
    ``parallel.recv_wait`` target, so it keeps a binding of its own.  An
    alias of :class:`PipeChannel` would make that install wrap
    ``PipeChannel.recv`` a second time and count every reply twice.
    """

    recv = PipeChannel.recv


class WorkerEndpoint:
    """Worker end of the pipe: receive commands, send tagged replies."""

    def __init__(self, connection):
        self.connection = connection

    def recv(self):
        return self.connection.recv()

    def send_ok(self, result):
        self.connection.send(("ok", result))

    def send_error(self, traceback_text):
        self.connection.send(("error", traceback_text))

    def close(self):
        try:
            self.connection.close()
        except OSError:
            pass
