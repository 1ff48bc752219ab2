"""The benchmark's three seeded workloads.

Each workload builds its inputs from the seed alone, sets up several times
(the median is ``setup_s``), measures for the requested seconds, checks its
outputs, and returns a :class:`RunResult`.  A traced run measures an
untraced half and a traced half of the budget, each on a fresh set-up, so
the per-layer numbers come with their own tracing overhead.  Every phase
probes the host between operations, and times are reported at reference
host speed (see :mod:`hostspeed`).

- ``mapg_train`` — the paper's CTDE actor-critic trainer at paper scale.
- ``es_sharded`` — evolutionary strategies over a 32-member population at
  the T=350 horizon, sharded over two rollout workers.
- ``serve_team`` — team decisions (one ``/v1/act-batch`` of 4 rows per env
  step) against a policy server in a child process, closed loop over two
  keep-alive connections.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from repro import obs
from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.checkpoint import save_checkpoint
from repro.marl.frameworks import build_framework
from repro.serving.client import AsyncServingClient, ServerError, ServingClient

from hostspeed import HostProbe
from layers import LayerTimer, layer_totals

__all__ = ["WORKLOADS", "RunResult", "run_workload"]

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 5
# Timed epochs a training run always completes, whatever the time budget,
# so the reward-trajectory digest covers the same epochs in every run.
DIGEST_EPOCHS = 3

# Why each workload exists is in BENCHMARK.json and README.md.
# ``busy_cpus``: CPUs a workload keeps busy at once (the trainer; two
# rollout workers; load process and server sharing one CPU), which is how
# many CPUs the host probe runs on; ``echoes``: process round trips each
# probe adds, for the request/response workload (see hostspeed.py).
WORKLOADS = {
    "mapg_train": {
        "kind": "train",
        "framework": "proposed",
        "trainer": "mapg",
        "episode_limit": 50,
        "episodes_per_epoch": 8,
        "rollout_envs": 8,
        "rollout_workers": 1,
        "busy_cpus": 1,
    },
    "es_sharded": {
        "kind": "train",
        "framework": "proposed",
        "trainer": "es",
        "es_population": 32,
        "episode_limit": 350,
        "episodes_per_epoch": 1,
        "rollout_envs": 1,
        "rollout_workers": 2,
        "rollout_transport": "auto",
        "busy_cpus": 2,
    },
    "serve_team": {
        "kind": "serve",
        "framework": "proposed",
        "episode_limit": 50,
        "checkpoint_epochs": 1,
        "episodes_per_epoch": 8,
        "rollout_envs": 8,
        "recorded_episodes": 8,
        "connections": 2,
        "max_wait_us": 0,
        "reload_poll_ms": 0,
        "probs_every": 16,
        "busy_cpus": 1,
        "echoes": 100,
    },
}


_TIME_UNITS = ("s", "ms", "us")


class RunResult:
    """Everything one run measured: metrics, checks and provenance."""

    def __init__(self):
        self.metrics = {}          # name -> (value, unit)
        self.attempted = 0
        self.failed = 0
        self.problems = []         # failed output checks, human-readable
        self.info = {}             # provenance stamped into the result file
        self.breakdown = []        # traced runs: per-layer table rows

    def metric(self, name, value, unit, factor=1.0):
        """Record a metric; times are divided by the phase's host-speed
        factor and rates multiplied by it."""
        if unit in _TIME_UNITS:
            value = value / factor
        elif unit == "1/s":
            value = value * factor
        self.metrics[name] = (float(value), unit)

    def problem(self, message):
        self.problems.append(message)

    @property
    def correct(self):
        return not self.problems and self.failed == 0


# -- shared helpers -----------------------------------------------------------


def quantile(values, q):
    """Inclusive-method quantile ``q`` in (0, 1) of a non-empty sequence."""
    if len(values) == 1:
        return values[0]
    n = 1000
    return statistics.quantiles(values, n=n, method="inclusive")[
        int(round(q * n)) - 1
    ]


def _rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid):
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids.extend(int(k) for k in f.read().split())
    except OSError:
        pass
    return kids


def peak_rss_mb(exclude=()):
    """Peak resident set of this process plus its live descendants, MB,
    leaving out the ``exclude`` pids (the benchmark's own helpers)."""
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        if pid in exclude:
            continue
        total += _rss_kb(pid)
        todo.extend(_children(pid))
    return total / 1024.0


def reward_digest(records):
    """Exact digest of a reward trajectory (hex floats, order kept)."""
    text = ",".join(float(r["total_reward"]).hex() for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_is_finite(record):
    return all(
        math.isfinite(v) for v in record.values()
        if isinstance(v, (int, float))
    )


# -- training workloads -------------------------------------------------------


def _build_trainer_framework(cfg, seed, **overrides):
    cfg = {**cfg, **overrides}
    train = {
        "episodes_per_epoch": cfg["episodes_per_epoch"],
        "rollout_envs": cfg["rollout_envs"],
        "rollout_workers": cfg["rollout_workers"],
        "trainer": cfg.get("trainer", "mapg"),
    }
    if train["trainer"] == "es":
        train["es_population"] = cfg["es_population"]
    if "rollout_transport" in cfg:
        train["rollout_transport"] = cfg["rollout_transport"]
    return build_framework(
        cfg["framework"],
        seed=seed,
        env_config=SingleHopConfig(episode_limit=cfg["episode_limit"]),
        train_config=TrainingConfig(**train),
    )


def _steps_per_epoch(cfg):
    members = cfg.get("es_population", 1) if cfg.get("trainer") == "es" else 1
    return cfg["episodes_per_epoch"] * members * cfg["episode_limit"]


def _set_up_trainer(cfg, seed, result):
    """Build + warm-up epoch; returns ``(framework, seconds, record)``."""
    start = time.perf_counter()
    framework = _build_trainer_framework(cfg, seed)
    try:
        record = framework.trainer.train_epoch()
    except BaseException:
        framework.close()
        raise
    elapsed = time.perf_counter() - start
    result.attempted += 1
    if not record_is_finite(record):
        result.failed += 1
        result.problem(f"warm-up epoch record is not finite: {record}")
    return framework, elapsed, record


def _time_epochs(trainer, seconds, result, speed):
    """Run epochs for ``seconds`` (at least :data:`DIGEST_EPOCHS`), probing
    the host after each."""
    times, records = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < DIGEST_EPOCHS:
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            record = trainer.train_epoch()
        except Exception as exc:  # noqa: BLE001 — a failed epoch, reported
            result.failed += 1
            result.problem(f"epoch {len(times) + 1} raised {exc!r}")
            break
        times.append(time.perf_counter() - t0)
        records.append(record)
        speed.probe()
        if not record_is_finite(record):
            result.failed += 1
            result.problem(f"epoch record is not finite: {record}")
    return times, records


def _epoch_metrics(result, times, steps_per_epoch, factor):
    """Epoch-time metrics; one request is one ``train_epoch`` call.

    Throughputs are taken at the median epoch, so a burst of load from
    elsewhere on the host moves them no more than it moves the median.
    """
    ms = [t * 1e3 for t in times]
    p50_ms = statistics.median(ms)
    result.metric("env_steps_per_s", steps_per_epoch * 1e3 / p50_ms, "1/s",
                  factor)
    result.metric("requests_per_s", 1e3 / p50_ms, "1/s", factor)
    result.metric("epoch_ms_p50", p50_ms, "ms", factor)
    result.metric("epoch_ms_p90", quantile(ms, 0.90), "ms", factor)
    result.metric("latency_ms_p50", p50_ms, "ms", factor)
    result.metric("latency_ms_p99", quantile(ms, 0.99), "ms", factor)
    result.info["host_factor"] = factor
    result.info["samples"] = len(times)


def _setup_metric(result, setups, factor):
    """Median set-up time, scaled by the factor of the measurement that
    follows it: a few probes between set-ups read the host far less
    steadily, and the host's speed drifts over minutes, not seconds."""
    result.metric("setup_s", statistics.median(setups), "s", factor)


def _check_es_against_in_process(cfg, seed, warmup_record, result):
    """The sharded warm-up generation must equal an in-process one."""
    reference = _build_trainer_framework(cfg, seed, rollout_workers=1)
    try:
        record = reference.trainer.train_epoch()
    finally:
        reference.close()
    if record != warmup_record:
        result.problem(
            "sharded warm-up generation differs from the in-process "
            f"generation at the same seed: {warmup_record} != {record}"
        )


def _run_training(cfg, seed, seconds, result, host):
    setups, digests, framework = [], [], None
    speed = host.phase()
    try:
        for _ in range(SETUP_REPEATS):
            if framework is not None:
                framework.close()
            framework, elapsed, warmup = _set_up_trainer(cfg, seed, result)
            setups.append(elapsed)
            digests.append(reward_digest([warmup]))
        if len(set(digests)) != 1:
            result.problem(f"same-seed warm-up digests differ: {digests}")
        trainer = framework.trainer
        if cfg["trainer"] == "es":
            collector = trainer.sharded_collector()
            result.info["transport"] = collector.transport
            _check_es_against_in_process(cfg, seed, warmup, result)
        times, records = _time_epochs(trainer, seconds, result, speed)
        result.metric("peak_rss_mb", peak_rss_mb(host.pids), "MB")
    finally:
        if framework is not None:
            framework.close()
    _setup_metric(result, setups, speed.factor)
    _epoch_metrics(result, times, _steps_per_epoch(cfg), speed.factor)
    result.info["digest"] = reward_digest([warmup] + records[:DIGEST_EPOCHS])


def _critic_classifier(framework):
    """Split ``quantum.backward`` into actor and critic sweeps."""
    layer = getattr(getattr(framework.trainer, "critic", None), "layer", None)
    critic_circuit = None if layer is None else layer.vqc.circuit

    def classify(layer, args):
        if layer != "quantum.backward":
            return layer
        if args[0] is critic_circuit:
            return "quantum.backward_critic"
        return "quantum.backward_actor"

    return classify


def _trace_training(cfg, seed, seconds, result, host):
    half = seconds / 2.0
    base_speed, speed = host.phase(), host.phase()
    # Untraced half: the overhead baseline.
    framework, _, _ = _set_up_trainer(cfg, seed, result)
    try:
        base_times, _ = _time_epochs(
            framework.trainer, half, result, base_speed
        )
    finally:
        framework.close()
    # Traced half: wrappers go in before the build, so sharded workers fork
    # with them; telemetry on makes workers ship their counters back.
    timer = LayerTimer()
    timer.install()
    previous = obs.set_enabled(True)
    framework = None
    try:
        framework, _, _ = _set_up_trainer(cfg, seed, result)
        timer.classify = _critic_classifier(framework)
        if cfg["trainer"] == "es":
            result.info["transport"] = framework.trainer.sharded_collector(
            ).transport
        obs.reset()
        times, _ = _time_epochs(framework.trainer, half, result, speed)
        counters = obs.snapshot()["counters"]
    finally:
        if framework is not None:
            framework.close()
        obs.set_enabled(previous)
        timer.uninstall()
    n_workers = cfg["rollout_workers"] if cfg["trainer"] == "es" else 1
    # The tail metrics come from the untraced half.
    _epoch_metrics(result, base_times, _steps_per_epoch(cfg),
                   base_speed.factor)
    _layer_metrics(result, counters, len(times), "epoch", speed.factor,
                   n_workers)
    _overhead_metric(result, times, base_times, speed, base_speed)
    _breakdown(result, counters, len(times), statistics.median(times),
               speed.factor)


# -- per-layer metrics --------------------------------------------------------


def _overhead_metric(result, traced, untraced, speed, base_speed):
    """Traced over untraced median operation time, each at reference
    host speed, minus 1."""
    result.metric(
        "trace.overhead",
        (statistics.median(traced) / speed.factor)
        / (statistics.median(untraced) / base_speed.factor) - 1.0,
        "ratio",
    )


def _layer_metrics(result, counters, n_ops, per, factor, n_workers=1):
    """Per-op layer metrics from obs counters; times at reference speed."""
    totals = layer_totals(counters)
    n_ops = max(1, n_ops)

    def metric(name, value, unit):
        result.metric(name, value, unit, factor)

    def seconds(layer, field="ns"):
        return totals.get(layer, {}).get(field, 0) / 1e9 / n_ops

    def count(layer, field):
        return totals.get(layer, {}).get(field, 0) / n_ops

    result.info["per_layer_unit"] = per
    result.info["samples"] = n_ops
    result.info["host_factor"] = factor
    metric("quantum.backward_actor_s", seconds("quantum.backward_actor"), "s")
    metric("quantum.backward_critic_s", seconds("quantum.backward_critic"),
           "s")
    metric("quantum.backward_rows",
           count("quantum.backward_actor", "rows")
           + count("quantum.backward_critic", "rows"), "count")
    metric("actors.update_forward_s", seconds("actors.update_forward"), "s")
    metric("critics.forward_s", seconds("critics.forward"), "s")
    metric("nn.optim_s", seconds("nn.optim"), "s")
    metric("buffer.s", seconds("buffer"), "s")
    metric("trainer.update_s", seconds("trainer.update"), "s")
    metric("trainer.self_s", seconds("epoch", "self_ns"), "s")
    metric("actors.infer_s", seconds("actors.infer"), "s")
    metric("actors.infer_rows", count("actors.infer", "rows"), "count")
    metric("quantum.evals", counters.get("program.evals", 0) / n_ops, "count")
    metric("quantum.kernel_dispatches",
           counters.get("program.kernel_dispatches", 0) / n_ops, "count")
    metric("envs.step_s", seconds("envs.step"), "s")
    metric("envs.step_calls", count("envs.step", "calls"), "count")
    metric("rollout.collect_s", seconds("rollout.collect"), "s")
    metric("rollout.self_s", seconds("rollout.collect", "self_ns"), "s")
    metric("evolution.update_s", seconds("evolution.update"), "s")
    collect_s = seconds("parallel.collect")
    metric("parallel.collect_s", collect_s, "s")
    metric("parallel.recv_wait_s", seconds("parallel.recv_wait"), "s")
    metric("parallel.bytes_per_epoch",
           counters.get("shm.payload_bytes", 0) / n_ops, "B")
    busy_s = counters.get("span.worker.collect.total_ns", 0) / 1e9 / n_ops
    metric("parallel.worker_busy_s", busy_s, "s")
    metric("parallel.idle_share",
           1.0 - busy_s / (n_workers * collect_s) if collect_s > 0 else 0.0,
           "ratio")
    metric("serving.infer_s", seconds("serving.infer"), "s")
    # Serving-only metrics; the serving workload overwrites them.
    metric("serving.batch_rows_mean", 0.0, "count")
    metric("serving.queue_wait_us_p50", 0.0, "us")
    metric("serving.overhead_ms_p50", 0.0, "ms")
    metric("failed_share", result.failed / max(1, result.attempted), "ratio")


_BREAKDOWN_LAYERS = (
    "epoch", "rollout.collect", "actors.infer", "envs.step", "buffer",
    "trainer.update", "critics.forward", "actors.update_forward",
    "quantum.backward_actor", "quantum.backward_critic", "nn.optim",
    "parallel.collect", "parallel.recv_wait", "evolution.update",
    "serving.infer",
)


def _breakdown(result, counters, n_ops, op_s_p50, factor):
    """Per-layer table rows: calls, time and self time (at reference host
    speed) and share of the median op, per op."""
    totals = layer_totals(counters)
    n_ops = max(1, n_ops)
    op_ns = op_s_p50 * 1e9
    for layer in _BREAKDOWN_LAYERS:
        entry = totals.get(layer)
        if not entry or not entry["calls"]:
            continue
        result.breakdown.append({
            "layer": layer,
            "calls": entry["calls"] / n_ops,
            "ms": entry["ns"] / n_ops / 1e6 / factor,
            "self_ms": entry["self_ns"] / n_ops / 1e6 / factor,
            "share": entry["ns"] / n_ops / op_ns,
        })
    epoch = totals.get("epoch")
    if epoch and epoch["ns"]:
        result.info["epoch_coverage"] = 1.0 - epoch["self_ns"] / epoch["ns"]
        backward = sum(
            totals.get(k, {}).get("ns", 0)
            for k in ("quantum.backward_actor", "quantum.backward_critic")
        )
        result.info["backward_share"] = backward / epoch["ns"]


# -- serving workload ---------------------------------------------------------


def _serving_inputs(cfg, seed, directory):
    """A checkpoint trained for one epoch plus team observations recorded
    from the env at the seed; returns ``(path, episodes, n_actions)``."""
    framework = _build_trainer_framework(
        {**cfg, "trainer": "mapg", "rollout_workers": 1}, seed
    )
    try:
        framework.train(n_epochs=cfg["checkpoint_epochs"])
        path = save_checkpoint(framework, os.path.join(directory, "policy"))
        rng = np.random.default_rng(seed)
        env = framework.env
        episodes = []
        for _ in range(cfg["recorded_episodes"]):
            observations, _ = env.reset()
            steps = []
            for _ in range(cfg["episode_limit"]):
                steps.append([[float(x) for x in o] for o in observations])
                actions = framework.actors.act(observations, rng)
                observations = env.step(actions).observations
            episodes.append(steps)
        n_actions = framework.actors.actors[0].n_actions
    finally:
        framework.close()
    return path, episodes, n_actions


def _serving_cpu():
    """The one CPU the load process and the server share.

    On a shared host an idle vCPU is descheduled and slow to wake, so a
    ping-pong across two CPUs measures the hypervisor's wake-up latency as
    much as the server; on one CPU each hand-over is a context switch.
    """
    return {max(os.sched_getaffinity(0))}


def _pin(pids):
    """Pin processes (the server, the probe helpers) to the serving CPU."""
    for pid in pids:
        os.sched_setaffinity(pid, _serving_cpu())


class _ServerProcess:
    """The policy server in a child process (``serve_child.py``)."""

    def __init__(self, root, checkpoint, cfg, seed, totals_path=None):
        command = [
            sys.executable, os.path.join(HERE, "serve_child.py"),
            "--checkpoint", checkpoint,
            "--seed", str(seed),
            "--episode-limit", str(cfg["episode_limit"]),
            "--max-wait-us", str(cfg["max_wait_us"]),
            "--reload-poll-ms", str(cfg["reload_poll_ms"]),
        ]
        if totals_path is not None:
            command += ["--totals", totals_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if p
        )
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=root, text=True
        )
        try:
            _pin([self.process.pid])
            self.port = self._read_port(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout):
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("policy server did not start in time")
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"policy server failed to start: {line!r}")
        return int(line.split()[1])

    def stop(self):
        """Graceful stop (the traced child writes its totals on the way
        out); kills the child if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _payload(observations, return_probs):
    return {
        "observations": observations,
        "agents": list(range(len(observations))),
        "greedy": False,
        "return_probs": return_probs,
    }


def _response_problem(document, n_agents, n_actions, with_probs):
    """Why a team-decision response is invalid, or None."""
    actions = document.get("actions")
    if not isinstance(actions, list) or len(actions) != n_agents:
        return f"expected {n_agents} actions, got {actions!r}"
    if any(not isinstance(a, int) or not 0 <= a < n_actions
           for a in actions):
        return f"action outside [0, {n_actions}): {actions!r}"
    if document.get("generation") != 1:
        return f"generation {document.get('generation')!r} != 1"
    if with_probs:
        probs = document.get("probs")
        if not isinstance(probs, list) or len(probs) != n_agents:
            return f"expected {n_agents} probability rows, got {probs!r}"
        for row in probs:
            if len(row) != n_actions or abs(math.fsum(row) - 1.0) > 1e-9:
                return f"probabilities do not sum to 1: {row!r}"
    return None


class _TeamLoad:
    """Closed-loop team-decision load over keep-alive connections."""

    def __init__(self, cfg, episodes, n_actions, result):
        self.cfg = cfg
        self.n_agents = len(episodes[0][0])
        self.n_actions = n_actions
        self.result = result
        self.payloads = [
            [(_payload(obs_, False), _payload(obs_, True)) for obs_ in steps]
            for steps in episodes
        ]

    def check(self, document, with_probs):
        problem = _response_problem(
            document, self.n_agents, self.n_actions, with_probs
        )
        if problem is not None:
            self.result.failed += 1
            if len(self.result.problems) < 5:
                self.result.problem(problem)

    def first_answer(self, port):
        """One synchronous request; the end of server set-up."""
        client = ServingClient("127.0.0.1", port)
        try:
            self.result.attempted += 1
            document = client.request(
                "POST", "/v1/act-batch", self.payloads[0][0][1]
            )
            self.check(document, True)
        finally:
            client.close()

    async def _episode(self, client, episode, deadline, out):
        """One episode of team decisions, in order, on one connection."""
        result = self.result
        steps = self.payloads[episode % len(self.payloads)]
        start = time.perf_counter()
        for step, (plain, with_probs) in enumerate(steps):
            if time.perf_counter() >= deadline:
                return
            want_probs = (
                (episode * len(steps) + step) % self.cfg["probs_every"] == 0
            )
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                document = await client.request(
                    "POST", "/v1/act-batch",
                    with_probs if want_probs else plain,
                )
            except ServerError as exc:
                result.failed += 1
                if len(result.problems) < 5:
                    result.problem(f"request failed: {exc}")
                continue
            out["latencies"].append(time.perf_counter() - t0)
            self.check(document, want_probs)
        out["episodes"].append(time.perf_counter() - start)

    async def _drive(self, port, seconds, speed):
        """Rounds of one episode per connection, closed loop within a
        round; the host is probed between rounds, while the server idles."""
        # ``rounds``: latency and episode counts after each round; the
        # round's probe is ``speed.samples`` at the same index.
        out = {"latencies": [], "episodes": [], "rounds": []}
        clients = [AsyncServingClient("127.0.0.1", port)
                   for _ in range(self.cfg["connections"])]
        try:
            for client in clients:
                await client.connect()
            start = time.perf_counter()
            deadline = start + seconds
            probing, episode = 0.0, 0
            while time.perf_counter() < deadline:
                await asyncio.gather(*(
                    self._episode(client, episode + i, deadline, out)
                    for i, client in enumerate(clients)
                ))
                episode += len(clients)
                probing += speed.probe()
                out["rounds"].append(
                    (len(out["latencies"]), len(out["episodes"]))
                )
            out["elapsed"] = time.perf_counter() - start - probing
        finally:
            for client in clients:
                await client.close()
        return out

    def run(self, port, seconds, speed):
        """``{"latencies", "episodes", "rounds", "elapsed"}`` of one load
        phase."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, _serving_cpu())
        try:
            return asyncio.run(self._drive(port, seconds, speed))
        finally:
            os.sched_setaffinity(0, cpus)


def _scratch_dir(root):
    path = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def _remove_scratch(path):
    for name in os.listdir(path):
        os.unlink(os.path.join(path, name))
    os.rmdir(path)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run's scratch directory is still there


def _start_server(root, checkpoint, cfg, seed, load, totals_path=None):
    """Start a server child and wait for its first answer; returns
    ``(server, seconds)``."""
    start = time.perf_counter()
    server = _ServerProcess(root, checkpoint, cfg, seed, totals_path)
    try:
        load.first_answer(server.port)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _locally_scaled_ms(phase, speed, key, index):
    """The phase's ``key`` times in ms, each at reference host speed by the
    probes around its round (``index`` picks the round's count of them)."""
    times, start = phase[key], 0
    scaled = []
    for factor, counts in zip(speed.local_factors(), phase["rounds"]):
        end = counts[index]
        scaled.extend(t * 1e3 / factor for t in times[start:end])
        start = end
    return scaled


def _serving_metrics(result, phase, connections, speed):
    """Request metrics; one serving epoch is one episode on a connection,
    and every request decides one env step.

    Request hand-overs feel load that comes and goes within seconds, so
    each round's times are scaled by the probes around that round rather
    than by the run's median factor (see :meth:`HostSpeed.local_factors`).
    The closed loop's throughput is taken at the median latency
    (connections / median latency), like the training workloads' at the
    median epoch; the measured completions per second are kept as
    ``completed_per_s``.
    """
    ms = _locally_scaled_ms(phase, speed, "latencies", 0)
    episode_ms = _locally_scaled_ms(phase, speed, "episodes", 1)
    rate = connections * 1e3 / statistics.median(ms)
    result.info["completed_per_s"] = len(ms) / phase["elapsed"]
    result.metric("env_steps_per_s", rate, "1/s")
    result.metric("requests_per_s", rate, "1/s")
    result.metric("epoch_ms_p50", statistics.median(episode_ms), "ms")
    result.metric("epoch_ms_p90", quantile(episode_ms, 0.90), "ms")
    result.metric("latency_ms_p50", statistics.median(ms), "ms")
    result.metric("latency_ms_p99", quantile(ms, 0.99), "ms")
    result.info["host_factor"] = speed.factor
    result.info["samples"] = len(ms)
    result.info["episode_samples"] = len(episode_ms)


def _run_serving(cfg, seed, seconds, result, host, root):
    _pin(host.pids)
    scratch = _scratch_dir(root)
    speed = host.phase()
    server = None
    try:
        checkpoint, episodes, n_actions = _serving_inputs(cfg, seed, scratch)
        load = _TeamLoad(cfg, episodes, n_actions, result)
        setups = []
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = _start_server(root, checkpoint, cfg, seed, load)
            setups.append(elapsed)
        phase = load.run(server.port, seconds, speed)
        result.metric("peak_rss_mb", peak_rss_mb(host.pids), "MB")
    finally:
        if server is not None:
            server.stop()
        _remove_scratch(scratch)
    _setup_metric(result, setups, speed.factor)
    _serving_metrics(result, phase, cfg["connections"], speed)
    result.info["digest"] = hashlib.sha256(
        json.dumps(episodes).encode()
    ).hexdigest()[:16]


def _trace_serving(cfg, seed, seconds, result, host, root):
    _pin(host.pids)
    half = seconds / 2.0
    base_speed, speed = host.phase(), host.phase()
    scratch = _scratch_dir(root)
    try:
        checkpoint, episodes, n_actions = _serving_inputs(cfg, seed, scratch)
        load = _TeamLoad(cfg, episodes, n_actions, result)
        server, _ = _start_server(root, checkpoint, cfg, seed, load)
        try:
            base = load.run(server.port, half, base_speed)
        finally:
            server.stop()
        totals_path = os.path.join(scratch, "totals.json")
        server, _ = _start_server(
            root, checkpoint, cfg, seed, load, totals_path
        )
        try:
            traced = load.run(server.port, half, speed)
            client = ServingClient("127.0.0.1", server.port)
            try:
                metrics = client.metrics()
            finally:
                client.close()
        finally:
            server.stop()
        with open(totals_path) as f:
            counters = json.load(f)["counters"]
    finally:
        _remove_scratch(scratch)
    # Per request: the load's requests plus the set-up's first answer.
    n_requests = len(traced["latencies"]) + 1
    # The tail metrics come from the untraced half.
    _serving_metrics(result, base, cfg["connections"], base_speed)
    _layer_metrics(result, counters, n_requests, "request", speed.factor)
    latency_p50_ms = statistics.median(traced["latencies"]) * 1e3
    infer_ms = layer_totals(counters).get("serving.infer", {}).get("ns", 0)
    infer_ms /= 1e6 * n_requests
    occupancy = metrics["batch_occupancy"]
    result.metric(
        "serving.batch_rows_mean",
        occupancy["sum"] / occupancy["count"] if occupancy["count"] else 0.0,
        "count",
    )
    result.metric("serving.queue_wait_us_p50",
                  metrics["queue_wait_us"].get("p50", 0.0), "us",
                  speed.factor)
    result.metric("serving.overhead_ms_p50", latency_p50_ms - infer_ms, "ms",
                  speed.factor)
    _overhead_metric(result, traced["latencies"], base["latencies"], speed,
                     base_speed)
    _breakdown(result, counters, n_requests, latency_p50_ms / 1e3,
               speed.factor)


# -- entry point --------------------------------------------------------------


def _stop_resource_tracker():
    """Stop multiprocessing's resource tracker, if this run started one,
    and wait for it to end.

    Shared-memory rings start the tracker as a process of its own; left
    alone it outlives the benchmark by a moment while it looks for leaks.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_workload(name, seed, seconds, trace, root):
    """Run one workload; returns its :class:`RunResult`.  Every process the
    run starts has ended when this returns or raises."""
    cfg = WORKLOADS[name]
    result = RunResult()
    result.info["config"] = dict(cfg)
    if cfg["kind"] == "serve":
        result.info["server_config"] = {
            "max_wait_us": cfg["max_wait_us"],
            "reload_poll_ms": cfg["reload_poll_ms"],
            "connections": cfg["connections"],
        }
    try:
        with HostProbe(cfg["busy_cpus"], cfg.get("echoes", 0)) as host:
            if cfg["kind"] == "serve":
                run = _trace_serving if trace else _run_serving
                run(cfg, seed, seconds, result, host, root)
            else:
                run = _trace_training if trace else _run_training
                run(cfg, seed, seconds, result, host)
    finally:
        _stop_resource_tracker()
    return result
