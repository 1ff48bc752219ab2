"""Flight recorder: an always-on ring of recent events for postmortems.

The crash restart-and-requeue path (``ShardedRolloutCollector``)
deliberately swallows the evidence — the worker is dead, its state
discarded, the work replayed.  The flight recorder keeps a fixed-size,
lock-cheap ring of the last N structured events per process (span
begin/end, commands, restarts, overflow terminations) so that when a
worker crashes, an exception goes unhandled, or a training update turns
non-finite, the moments *before* the failure can be dumped to a
postmortem file.

Two ring backends:

- **memory** (default): a ``collections.deque(maxlen=N)`` of event dicts.
  Appends are GIL-atomic — no lock on the hot path — which is what makes
  "always on" affordable.
- **file**: an mmap-backed fixed-slot ring (:func:`attach_file`).  A
  SIGKILLed process can't dump its own ring, so workers write theirs to a
  file the *parent* recovers after the kill.  Slots carry a sequence
  number and a JSON payload; recovery drops torn slots and orders by
  sequence.

Dumping is gated on a configured directory (``REPRO_OBS_FLIGHT_DIR`` or
:func:`set_dump_dir`): with no directory, :func:`dump` is a no-op, so
deliberately crash-heavy test suites don't litter postmortems.  Recording
itself is on by default (``REPRO_OBS_FLIGHT=0`` disables) but span events
only reach the ring while telemetry is also enabled — the telemetry-off
hot path stays a single flag check.
"""

from __future__ import annotations

import collections
import io
import json
import mmap
import os
import struct
import sys
import threading
import time
import traceback

from repro.obs import trace as _trace

__all__ = [
    "FlightRecorder",
    "attach_file",
    "dump",
    "dump_dir",
    "enabled",
    "install_excepthook",
    "read_file",
    "record",
    "recorder",
    "set_dump_dir",
    "set_enabled",
]

DEFAULT_CAPACITY = 256
DEFAULT_SLOT_BYTES = 512

# File-ring layout: header then n_slots fixed slots.
#   header: magic "FLR1" | u32 version | u32 n_slots | u32 slot_bytes
#   slot:   u64 seq (0 = empty) | u32 payload_len | payload (JSON, utf-8)
_MAGIC = b"FLR1"
_HEADER = struct.Struct("<4sIII")
_SLOT_HEADER = struct.Struct("<QI")


class FlightRecorder:
    """A fixed-capacity drop-oldest ring of structured events."""

    def __init__(self, capacity=DEFAULT_CAPACITY, path=None,
                 slot_bytes=DEFAULT_SLOT_BYTES):
        self.capacity = int(capacity)
        self.path = path
        if path is None:
            self._ring = collections.deque(maxlen=self.capacity)
            self._mmap = None
        else:
            self._ring = None
            self._slot_bytes = int(slot_bytes)
            self._seq = 0
            self._lock = threading.Lock()
            self._open_file(path)

    # -- file backend -------------------------------------------------

    def _open_file(self, path):
        size = _HEADER.size + self.capacity * self._slot_bytes
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.ftruncate(fd, size)
            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self._mmap[:_HEADER.size] = _HEADER.pack(
            _MAGIC, 1, self.capacity, self._slot_bytes
        )

    def _write_slot(self, payload):
        self._seq += 1
        seq = self._seq
        index = (seq - 1) % self.capacity
        offset = _HEADER.size + index * self._slot_bytes
        room = self._slot_bytes - _SLOT_HEADER.size
        if len(payload) > room:
            payload = payload[:room]  # torn JSON; recovery drops it
        # Payload first, live sequence number last: a write cut anywhere
        # leaves either the old valid slot or a seq whose JSON fails to
        # parse — never a silently wrong event.
        self._mmap[offset:offset + _SLOT_HEADER.size] = _SLOT_HEADER.pack(
            0, len(payload)
        )
        start = offset + _SLOT_HEADER.size
        self._mmap[start:start + len(payload)] = payload
        self._mmap[offset:offset + _SLOT_HEADER.size] = _SLOT_HEADER.pack(
            seq, len(payload)
        )

    # -- shared API ---------------------------------------------------

    def record(self, event):
        """Append one event dict, dropping the oldest beyond capacity."""
        if self._ring is not None:
            self._ring.append(event)
            return
        payload = json.dumps(event, sort_keys=True).encode()
        with self._lock:
            self._write_slot(payload)

    def events(self):
        """The retained events, oldest first."""
        if self._ring is not None:
            return list(self._ring)
        with self._lock:
            return _read_slots(self._mmap)

    def close(self):
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None


def _read_slots(buf):
    magic, version, n_slots, slot_bytes = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC or version != 1:
        return []
    found = []
    for index in range(n_slots):
        offset = _HEADER.size + index * slot_bytes
        seq, length = _SLOT_HEADER.unpack_from(buf, offset)
        if seq == 0 or length > slot_bytes - _SLOT_HEADER.size:
            continue
        start = offset + _SLOT_HEADER.size
        try:
            event = json.loads(buf[start:start + length].decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue  # torn slot
        if isinstance(event, dict):
            found.append((seq, event))
    found.sort(key=lambda item: item[0])
    return [event for _, event in found]


def read_file(path):
    """Recover the events of a (possibly dead) process's file ring."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError:
        return []
    if len(buf) < _HEADER.size:
        return []
    return _read_slots(buf)


# ---------------------------------------------------------------------------
# Process-global recorder
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()
_ENABLED = os.environ.get("REPRO_OBS_FLIGHT", "1") != "0"
_DUMP_DIR = os.environ.get("REPRO_OBS_FLIGHT_DIR") or None
_RECORDER = None
_DUMP_COUNTER = 0
# Every event's pid and tid, read once per process and thread instead of
# once per event; a forked child reads both again.
_PID = os.getpid()
_THREAD = threading.local()


def _refresh_ids():
    global _PID, _THREAD
    _PID = os.getpid()
    _THREAD = threading.local()


os.register_at_fork(after_in_child=_refresh_ids)


def _native_id():
    try:
        return _THREAD.tid
    except AttributeError:
        _THREAD.tid = tid = threading.get_native_id()
        return tid


def enabled():
    return _ENABLED


def set_enabled(flag):
    """Toggle recording; returns the previous value."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = bool(flag)
    return prior


def recorder():
    """The process's recorder, created (memory-backed) on first use."""
    global _RECORDER
    if _RECORDER is None:
        with _LOCK:
            if _RECORDER is None:
                capacity = int(
                    os.environ.get("REPRO_OBS_FLIGHT_CAPACITY",
                                   DEFAULT_CAPACITY)
                )
                _RECORDER = FlightRecorder(capacity)
    return _RECORDER


def attach_file(path, capacity=None):
    """Re-back the process recorder with a file ring at ``path``.

    Events already in the memory ring carry over, so nothing recorded
    before the worker learned its ring path is lost.
    """
    global _RECORDER
    with _LOCK:
        prior = _RECORDER
        if capacity is None:
            capacity = prior.capacity if prior is not None else int(
                os.environ.get("REPRO_OBS_FLIGHT_CAPACITY", DEFAULT_CAPACITY)
            )
        fresh = FlightRecorder(capacity, path=path)
        if prior is not None:
            for event in prior.events():
                fresh.record(event)
            prior.close()
        _RECORDER = fresh
    return _RECORDER


def record(kind, **fields):
    """Ring one event: ``kind`` plus fields, stamped t_us/pid/tid."""
    if not _ENABLED:
        return
    recorder().record({
        "kind": kind,
        "t_us": _trace.now_us(),
        "pid": _PID,
        "tid": _native_id(),
        **fields,
    })


# ---------------------------------------------------------------------------
# Postmortem dumps
# ---------------------------------------------------------------------------


def dump_dir():
    return _DUMP_DIR


def set_dump_dir(path):
    """Configure where postmortems land (None disables dumping)."""
    global _DUMP_DIR
    prior = _DUMP_DIR
    _DUMP_DIR = path
    return prior


def dump(reason, extra=None, worker_events=None):
    """Write a postmortem JSON file; returns its path (None when gated).

    The document carries this process's ring, optional recovered
    ``worker_events`` (a dead worker's file ring), and free-form ``extra``
    context — enough to see the commands and spans leading up to the
    failure.
    """
    global _DUMP_COUNTER
    if _DUMP_DIR is None or not _ENABLED:
        return None
    with _LOCK:
        _DUMP_COUNTER += 1
        count = _DUMP_COUNTER
    document = {
        "reason": reason,
        "pid": os.getpid(),
        "unix_time": time.time(),
        "trace_id": _trace.trace_id(),
        "events": recorder().events(),
    }
    if worker_events is not None:
        document["worker_events"] = worker_events
    if extra:
        document["extra"] = extra
    os.makedirs(_DUMP_DIR, exist_ok=True)
    safe_reason = "".join(
        c if c.isalnum() or c in "-_" else "_" for c in str(reason)
    )
    path = os.path.join(
        _DUMP_DIR, f"flight-{safe_reason}-{os.getpid()}-{count}.json"
    )
    with open(path, "w") as f:
        json.dump(document, f, sort_keys=True, indent=1)
        f.write("\n")
    return path


def install_excepthook():
    """Dump the ring on any unhandled exception, then defer to the prior hook."""
    prior = sys.excepthook

    def _hook(exc_type, exc_value, tb):
        try:
            detail = io.StringIO()
            traceback.print_exception(exc_type, exc_value, tb, file=detail)
            record("unhandled_exception", error=str(exc_value))
            dump("unhandled-exception", extra={
                "exception": detail.getvalue(),
            })
        except Exception:
            pass
        prior(exc_type, exc_value, tb)

    _hook._repro_flight = True
    if getattr(prior, "_repro_flight", False):
        return prior
    sys.excepthook = _hook
    return _hook


def reset():
    """Test hook: drop the recorder and restore env-derived settings."""
    global _RECORDER, _ENABLED, _DUMP_DIR, _DUMP_COUNTER
    with _LOCK:
        if _RECORDER is not None:
            _RECORDER.close()
        _RECORDER = None
        _DUMP_COUNTER = 0
    _ENABLED = os.environ.get("REPRO_OBS_FLIGHT", "1") != "0"
    _DUMP_DIR = os.environ.get("REPRO_OBS_FLIGHT_DIR") or None
