"""Asyncio + stdlib-HTTP policy server.

A deliberately small HTTP/1.1 front (no external dependencies — the repo
constraint) over the micro-batcher:

- ``POST /v1/act`` — one decision: ``{"observation": [...], "agent": 0,
  "greedy": false}`` -> ``{"action": 2, "probs": [...], "generation": 1}``.
- ``POST /v1/act-batch`` — many rows atomically: ``{"observations":
  [[...], ...], "agents": [...], "greedy": false}``.
- ``GET /healthz`` — liveness + the serving generation.
- ``GET /v1/stats`` — batcher histogram, reload counters, request totals.
- ``GET /metrics`` — the telemetry view (``docs/observability.md``):
  batch-occupancy histogram, queue-wait p50/p99, flush-reason counters,
  reload counts.  The server enables ``repro.obs`` for its lifetime.

With ``--log-requests`` every request additionally emits one structured
JSON access-log line at flush time (request id, batch id, queue-wait µs,
flush reason) to stderr.

Every request is checked before it joins a micro-batch: its observation
width must equal the policy's, every value must be finite, every agent
must be an integer in ``[0, n_agents)`` and ``greedy`` must be a JSON
boolean (a list of them for a batch).  A failure answers 400 for that
request alone; it never reaches the batch, so it cannot fail the requests
flushed with it.  A failure while a batch is evaluated — a policy that is not a
distribution (non-finite weights, say) or an engine fault — is the
server's, not the request's: every request in that batch answers 500
naming the cause, and the server keeps serving.

Connections are keep-alive; each request parks on the batcher until its
micro-batch flushes, so thousands of idle connections cost only their
coroutine.  Overload (``max_pending`` exceeded) answers 503 — shedding at
the door keeps p99 bounded for the admitted traffic.

Run standalone with ``python -m repro.serving.server --checkpoint ckpt.npz``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro import obs
from repro.config import ServingConfig, SingleHopConfig
from repro.obs import flight as _flight
from repro.obs import trace as _trace
from repro.marl.checkpoint import checkpoint_info
from repro.serving.batcher import MicroBatcher, OverloadedError
from repro.serving.client import read_message
from repro.serving.engine import FrameworkSpec, PolicyEngine
from repro.serving.reload import CheckpointWatcher

__all__ = ["PolicyServer", "main"]


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error", 503: "Service Unavailable"}


class _BatchFailure(RuntimeError):
    """Evaluating a request's micro-batch failed (answered with 500)."""


def _agent_index(value):
    """A request's agent as an ``int``; anything but a finite integral
    number raises ``ValueError`` (answered 400).

    ``json.loads`` reads ``Infinity`` and ``1e999`` as infinite floats,
    which ``int()`` cannot convert, and ``int(1.5)`` would quietly serve
    agent 1.
    """
    if type(value) is int:  # not bool, which JSON's true and false become
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"agent must be a finite integer, got {value!r}")


def _greedy_flag(value):
    """A request's greedy flag; anything but a JSON boolean raises
    ``ValueError`` (answered 400).

    Read by truthiness, the string ``"false"`` would serve the argmax.
    """
    if isinstance(value, bool):
        return value
    raise ValueError(f"greedy must be a boolean, got {value!r}")


def _write_response(writer, status, document, keep_alive=True):
    body = json.dumps(document).encode()
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, '')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    writer.write(head.encode("latin1") + body)


class PolicyServer:
    """The serving tier: engine + micro-batcher + watcher + HTTP front.

    Args:
        spec: :class:`~repro.serving.engine.FrameworkSpec` for the policy.
        config: :class:`~repro.config.ServingConfig`.
        checkpoint_path: Optional checkpoint to serve (and watch for hot
            reload when ``config.reload_poll_ms > 0``).

    Use as an async context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, spec=None, config=None, checkpoint_path=None,
                 engine=None):
        self.config = config if config is not None else ServingConfig()
        self.checkpoint_path = checkpoint_path
        if engine is None:
            engine = PolicyEngine(
                spec if spec is not None else FrameworkSpec(),
                checkpoint_path=checkpoint_path,
                sample_seed=self.config.sample_seed,
            )
        self.engine = engine
        env_config = engine.spec.env_config
        if env_config is None:
            env_config = SingleHopConfig()
        self._observation_size = env_config.observation_size
        self._n_agents = env_config.n_agents
        # Swappable sink for the structured access log (tests point it at a
        # StringIO); one JSON line per request, written at flush time.
        self.access_log_stream = sys.stderr
        self.batcher = MicroBatcher(
            engine,
            max_batch=self.config.max_batch,
            max_wait_us=self.config.max_wait_us,
            max_pending=self.config.max_pending,
            flush_observer=(
                self._log_batch if self.config.log_requests else None
            ),
        )
        self.watcher = None
        self._server = None
        self._loop = None
        self._obs_prev = None
        self._trace_root = None
        self._trace_root_started = 0
        self._trace_owner = False
        self._request_seq = 0
        self.request_count = 0
        self.error_count = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self):
        """Bind the socket and start the reload watcher; returns self."""
        # The serving tier runs with telemetry on for its lifetime — the
        # /metrics surface is part of its contract.  The previous flag is
        # restored on stop() so embedding tests don't leak the enable.
        self._obs_prev = obs.set_enabled(True)
        # One trace spans the server's lifetime; every request span parents
        # back to the ``serving.server`` root, whose event is emitted at
        # stop() once its duration is known.
        self._trace_owner = not _trace.active()
        obs.begin_trace(label="serving")
        self._trace_root = _trace.new_span_id()
        self._trace_root_started = _trace.now_us()
        _trace.set_default_parent(self._trace_root)
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.checkpoint_path and self.config.reload_poll_ms > 0:
            initial = None
            try:
                initial = checkpoint_info(self.checkpoint_path).get("checksum")
            except (OSError, ValueError):
                pass
            self.watcher = CheckpointWatcher(
                self.checkpoint_path,
                self._apply_checkpoint,
                poll_interval=self.config.reload_poll_ms / 1000.0,
                initial_checksum=initial,
            )
            self.watcher.start()
        return self

    @property
    def port(self):
        """The actually bound port (resolves config.port=0)."""
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    async def stop(self):
        if self.watcher is not None:
            self.watcher.stop()
            self.watcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.engine.close()
        if self._trace_root is not None:
            _trace.emit_manual_span(
                "serving.server",
                t_us=self._trace_root_started,
                dur_us=_trace.now_us() - self._trace_root_started,
                span_id=self._trace_root,
            )
            _trace.set_default_parent(None)
            self._trace_root = None
            if self._trace_owner:
                obs.end_trace()
        if self._obs_prev is not None:
            obs.set_enabled(self._obs_prev)
            self._obs_prev = None

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, tb):
        await self.stop()

    # -- hot reload -----------------------------------------------------------

    def _apply_checkpoint(self, path, header):
        """Watcher-thread callback: shadow-load, then swap on the loop.

        The build+load+warm cost is paid here, off the loop; the loop only
        executes the pointer flip (between batches).
        """
        shadow = self.engine.load_shadow(path)
        self._loop.call_soon_threadsafe(self.engine.swap, shadow, path)

    # -- request handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer):
        buffer = bytearray()  # read but not yet parsed (pipelined requests)
        try:
            while True:
                try:
                    request = await read_message(reader, buffer)
                except (ValueError, asyncio.IncompleteReadError,
                        ConnectionError):
                    break
                if request is None:
                    break
                fields, headers, body = request
                method, path = fields[0], fields[1]
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, document = await self._dispatch(
                        method, path, body
                    )
                except OverloadedError as exc:
                    status, document = 503, {"error": str(exc)}
                except _BatchFailure as exc:
                    status, document = 500, {"error": str(exc)}
                except (KeyError, TypeError, ValueError,
                        json.JSONDecodeError) as exc:
                    status, document = 400, {"error": str(exc)}
                self.request_count += 1
                if status != 200:
                    self.error_count += 1
                _write_response(writer, status, document, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Shutdown cancels parked handlers; the transport is closed
                # either way, so finishing quietly is correct.
                pass

    async def _dispatch(self, method, path, body):
        if method == "POST" and path == "/v1/act":
            return await self._act(body)
        if method == "POST" and path == "/v1/act-batch":
            return await self._act_batch(body)
        if method == "GET" and path == "/healthz":
            return 200, self._health()
        if method == "GET" and path == "/v1/stats":
            return 200, self._stats()
        if method == "GET" and path == "/metrics":
            return 200, self._metrics()
        return 404, {"error": f"no route for {method} {path}"}

    def _next_meta(self):
        """Access-log tag for one request group (None when logging is off).

        Called inside the request span, so the tag links the log line to
        the trace: a slow request's ``trace_id``/``span_id`` can be looked
        up straight in the exported timeline.
        """
        if not self.config.log_requests:
            return None
        self._request_seq += 1
        meta = {"request_id": self._request_seq}
        if obs.trace_id() is not None:
            meta["trace_id"] = obs.trace_id()
            meta["span_id"] = obs.current_span_id()
        return meta

    def _log_batch(self, batch_id, trigger, entries, generation):
        """Flush-observer callback: one JSON line per request in the batch."""
        for meta, rows, wait_us in entries:
            line = {
                "event": "request",
                "request_id": None if meta is None else meta["request_id"],
                "batch_id": batch_id,
                "rows": rows,
                "queue_wait_us": round(wait_us, 1),
                "flush": trigger,
                "generation": generation,
            }
            if meta is not None and meta.get("trace_id") is not None:
                line["trace_id"] = meta["trace_id"]
                line["span_id"] = meta.get("span_id")
            print(json.dumps(line), file=self.access_log_stream, flush=True)

    def _request_token(self, request_span):
        """``trace_id:span_id`` response tag (the X-Request-Id analogue)."""
        span_id = getattr(request_span, "span_id", None)
        if span_id is None:
            return None
        return f"{obs.trace_id()}:{span_id}"

    def _check_rows(self, observations, agents):
        """Reject a malformed request before it joins a micro-batch (one
        bad request must not fail every request flushed with it)."""
        if observations.shape[1] != self._observation_size:
            raise ValueError(
                f"observations need {self._observation_size} features, "
                f"got {observations.shape[1]}"
            )
        if not np.isfinite(observations).all():
            raise ValueError("observations must be finite")
        for agent in agents:
            if not 0 <= agent < self._n_agents:
                raise ValueError(
                    f"agent indices must be in [0, {self._n_agents}), "
                    f"got {agent}"
                )

    async def _submit(self, observations, agents, greedy):
        """Queue vetted rows on the batcher; returns its result.

        :meth:`_check_rows` already vetted the request, so anything but
        overload raised here came from evaluating the batch and becomes a
        :class:`_BatchFailure` — never a 400, whatever its type.
        """
        try:
            return await self.batcher.submit(
                observations, agents, greedy, meta=self._next_meta()
            )
        except OverloadedError:
            raise
        except Exception as exc:  # noqa: BLE001 — every fault answers 500
            raise _BatchFailure(
                f"evaluating the batch failed: {type(exc).__name__}: {exc}"
            ) from exc

    async def _act(self, body):
        payload = json.loads(body)
        observation = np.asarray(payload["observation"], dtype=np.float64)
        if observation.ndim != 1:
            raise ValueError("observation must be a flat vector")
        agent = _agent_index(payload["agent"])
        greedy = _greedy_flag(payload.get("greedy", False))
        self._check_rows(observation[None], (agent,))
        with obs.span("serving.request") as request_span:
            actions, probs, generation = await self._submit(
                observation[None], [agent], [greedy]
            )
        document = {
            "action": int(actions[0]),
            "probs": probs[0].tolist(),
            "generation": generation,
        }
        token = self._request_token(request_span)
        if token is not None:
            document["request_id"] = token
        return 200, document

    async def _act_batch(self, body):
        payload = json.loads(body)
        observations = np.asarray(payload["observations"], dtype=np.float64)
        if observations.ndim != 2:
            raise ValueError("observations must be (R, obs_size)")
        agents = [_agent_index(a) for a in payload["agents"]]
        greedy = payload.get("greedy", False)
        if isinstance(greedy, list):
            greedy = [_greedy_flag(g) for g in greedy]
        else:
            greedy = [_greedy_flag(greedy)] * len(agents)
        if len(agents) != observations.shape[0] or len(greedy) != len(agents):
            raise ValueError(
                "observations, agents, and greedy must agree in length"
            )
        self._check_rows(observations, agents)
        with obs.span("serving.request") as request_span:
            actions, probs, generation = await self._submit(
                observations, agents, greedy
            )
        document = {"actions": actions.tolist(), "generation": generation}
        if payload.get("return_probs", False):
            document["probs"] = probs.tolist()
        token = self._request_token(request_span)
        if token is not None:
            document["request_id"] = token
        return 200, document

    def _health(self):
        return {
            "status": "ok",
            "generation": self.engine.generation,
            "checkpoint": self.engine.checkpoint_path,
        }

    def _stats(self):
        stats = dict(self.batcher.stats)
        stats["batch_size_hist"] = {
            str(size): count
            for size, count in sorted(stats["batch_size_hist"].items())
        }
        document = {
            "requests": self.request_count,
            "errors": self.error_count,
            "generation": self.engine.generation,
            "pending_rows": self.batcher.pending_rows,
            "batcher": stats,
        }
        if self.watcher is not None:
            document["reload"] = dict(self.watcher.stats)
        return document

    def _metrics(self):
        """The telemetry document behind ``GET /metrics``.

        Built from the global ``repro.obs`` registry (enabled for the
        server's lifetime), so it also surfaces whatever the engine layers
        below record — program cache hit rates, say — next to
        the serving tier's own histograms.
        """
        snap = obs.snapshot()
        counters = snap["counters"]
        histograms = snap["histograms"]

        def hist_doc(name):
            state = histograms.get(name)
            if state is None:
                return {"count": 0}
            return {
                "count": state["count"],
                "sum": state["sum"],
                "min": state["min"],
                "max": state["max"],
                "edges": state["edges"],
                "counts": state["counts"],
                "p50": obs.histogram_quantile(state, 0.5),
                "p99": obs.histogram_quantile(state, 0.99),
            }

        document = {
            "telemetry_enabled": obs.enabled(),
            "requests": self.request_count,
            "errors": self.error_count,
            "generation": self.engine.generation,
            "pending_rows": self.batcher.pending_rows,
            "batch_occupancy": hist_doc("serving.batch_rows"),
            "queue_wait_us": hist_doc("serving.queue_wait_us"),
            "flush_reasons": {
                "size": counters.get("serving.flush.size", 0),
                "time": counters.get("serving.flush.time", 0),
            },
            "rejected": counters.get(
                "serving.rejected", self.batcher.stats["rejected"]
            ),
            "reloads": (
                self.watcher.stats["reloads"] if self.watcher is not None
                else 0
            ),
        }
        if self.watcher is not None:
            document["reload"] = dict(self.watcher.stats)
        return document


def main(argv=None):
    """CLI entry point: serve a checkpoint until interrupted."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint .npz to serve (and hot-reload)")
    parser.add_argument("--framework", default="proposed")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-us", type=int, default=2000)
    parser.add_argument("--reload-poll-ms", type=int, default=200,
                        help="checkpoint watcher poll interval (0 disables)")
    parser.add_argument("--log-requests", action="store_true",
                        help="emit one structured JSON access-log line per "
                             "request to stderr (off by default)")
    parser.add_argument("--flight-dir", default=None,
                        help="directory for flight-recorder postmortem "
                             "dumps (unhandled exceptions); unset disables "
                             "dumping")
    args = parser.parse_args(argv)

    if args.flight_dir:
        _flight.set_dump_dir(args.flight_dir)
        _flight.install_excepthook()

    config = ServingConfig(
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        reload_poll_ms=args.reload_poll_ms,
        host=args.host,
        port=args.port,
        log_requests=args.log_requests,
    )
    spec = FrameworkSpec(name=args.framework)

    async def _serve():
        server = PolicyServer(spec, config, checkpoint_path=args.checkpoint)
        await server.start()
        # Flushed: with --port 0 a supervisor reading a pipe learns the
        # bound port from this line.
        print(f"serving {args.framework} on {config.host}:{server.port}",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
