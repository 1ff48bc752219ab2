"""Host-speed factor: how fast this host runs a fixed reference computation
right now, relative to the reference host.

On a shared machine the same code runs up to ~2x slower for minutes at a
time while other tenants load the host; CPU time rises with wall time, so
the slowdown is not preemption and no per-process clock removes it.  The
benchmark therefore probes the host between operations — while the program
is idle — and divides every time it reports by the run's median slowdown
(rates are multiplied), or, for request latencies, by the slowdown of the
probes around each request.  The run's factor is kept in the result file.

The probe mixes interpreter dispatch with small complex matmuls, the same
kind of work as the program's 16-amplitude circuit kernels.  A workload
that keeps several CPUs busy at once is probed on as many CPUs at once,
and a probe takes as long as its slowest copy, since such a workload waits
for its slowest process too.  A change that keeps work running between
operations (a background thread, busy-polling workers) would slow the
probe and flatter the scaled numbers; compare the ``host_factor`` of
parent and change to rule that out.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "HostProbe", "HostSpeed", "probe"]

# Median single-CPU probe time on the reference host (2 vCPU x86_64,
# numpy 2.4, CPython 3.11) during a quiet period.
REFERENCE_PROBE_S = 0.0028
# Median one-byte pipe round trip between two processes sharing one CPU
# of the reference host.
REFERENCE_ECHO_S = 25e-6
# Probes a local factor takes the median of: about half a second of serving
# rounds, long enough to shrug off one odd probe, short enough to follow
# load that comes and goes.
LOCAL_WINDOW = 9

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_STATES = _RNG.standard_normal((64, 16)) + 0j


def probe():
    """Seconds the reference computation takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    states = _STATES
    for _ in range(120):
        states = states @ _MATRIX
        states = states / np.abs(states).max()
    return time.perf_counter() - start


def _helper_main(connection):
    """Answer probe (``p``) and echo (``e``) requests until told to stop."""
    while True:
        request = connection.recv_bytes()
        if request == b"p":
            connection.send_bytes(repr(probe()).encode())
        elif request == b"e":
            connection.send_bytes(b"e")
        else:
            break


class HostProbe:
    """Probes the host on ``cpus`` CPUs at once (clamped to the CPUs this
    process may use).  Beyond the first, each probe copy runs in a helper
    process started here; use as a context manager, or call :meth:`close`.

    With ``echoes`` a probe also times that many one-byte round trips to a
    helper process: the hand-over a request/response workload pays on
    every request, which a loaded host slows differently from computation.
    """

    def __init__(self, cpus=1, echoes=0):
        self.echoes = echoes
        self._helpers = []
        n_copies = self._n_copies = min(cpus, len(os.sched_getaffinity(0)))
        context = multiprocessing.get_context("fork")
        for _ in range(max(n_copies - 1, 1 if echoes else 0)):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_helper_main, args=(child_end,), daemon=True
            )
            process.start()
            child_end.close()
            self._helpers.append((process, parent_end))

    def probe(self):
        """Seconds the slowest copy of one simultaneous probe took, plus
        the echo round trips."""
        copies = self._helpers[:self._n_copies - 1]
        for _, connection in copies:
            connection.send_bytes(b"p")
        sample = probe()
        for _, connection in copies:
            sample = max(sample, float(connection.recv_bytes()))
        if self.echoes:
            connection = self._helpers[0][1]
            start = time.perf_counter()
            for _ in range(self.echoes):
                connection.send_bytes(b"e")
                connection.recv_bytes()
            sample += time.perf_counter() - start
        return sample

    @property
    def pids(self):
        """Process ids of the helper processes."""
        return [process.pid for process, _ in self._helpers]

    def phase(self):
        """A fresh :class:`HostSpeed` for one measurement phase."""
        return HostSpeed(self)

    def close(self):
        """Stop the helper processes and wait for them."""
        for process, connection in self._helpers:
            connection.send_bytes(b"s")
            connection.close()
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join()
        self._helpers = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()


class HostSpeed:
    """The probes of one measurement phase."""

    def __init__(self, prober):
        self.prober = prober
        self.samples = []

    def probe(self):
        """Take one probe; returns its duration in seconds."""
        self.samples.append(self.prober.probe())
        return self.samples[-1]

    @property
    def reference(self):
        """What one probe takes on the reference host."""
        return REFERENCE_PROBE_S + self.prober.echoes * REFERENCE_ECHO_S

    @property
    def factor(self):
        """Median slowdown against the reference host (1.0 = reference)."""
        return statistics.median(self.samples) / self.reference

    def local_factors(self):
        """Slowdown around each probe: the median of the
        :data:`LOCAL_WINDOW` probes centred on it, against the reference
        host.  Follows load that comes and goes within a run, which the
        run's median misses."""
        half = LOCAL_WINDOW // 2
        return [
            statistics.median(self.samples[max(0, i - half):i + half + 1])
            / self.reference
            for i in range(len(self.samples))
        ]
