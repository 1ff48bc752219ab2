"""Per-layer call timing for the traced benchmark run.

:class:`LayerTimer` wraps the public entry points of each layer — class
methods, and the module-level bindings through which callers reach a
function (``repro.marl.actors._qbackward`` and friends) — with timers that
record, per layer, the call count, the inclusive time and the self time
(inclusive time minus the time of timed layers entered while it ran).

Timings land in ``repro.obs`` counters named ``layer.<name>.{calls,ns,
self_ns,rows}``.  Sharded rollout workers are forked after the wrappers are
installed, so they time their own calls and ship the counters back with
every collect reply, like every other counter.  The wrappers record only
while telemetry is enabled; untraced runs never install them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import numpy as np

from repro import obs

__all__ = ["LAYER_TARGETS", "LayerTimer", "layer_totals"]

# (layer, "module:attribute path", what a call's rows count, or None).  A
# "Class.method" path wraps the method on the class; a bare name rebinds the
# module attribute, which is how a caller's imported binding is reached.
LAYER_TARGETS = (
    ("epoch", "repro.marl.trainer:CTDETrainer.train_epoch", None),
    ("epoch", "repro.marl.evolution.trainer:ESTrainer.train_epoch", None),
    ("trainer.update", "repro.marl.trainer:CTDETrainer.update", None),
    ("buffer", "repro.marl.buffer:RolloutBuffer.add_episodes", None),
    ("buffer", "repro.marl.buffer:RolloutBuffer.batch", None),
    ("critics.forward", "repro.marl.trainer:paired_critic_values", None),
    ("actors.update_forward",
     "repro.marl.actors:QuantumActorGroup.stacked_log_policies", None),
    ("quantum.backward", "repro.marl.actors:_qbackward", "inputs"),
    ("quantum.backward", "repro.marl.critics:_qbackward", "inputs"),
    ("quantum.backward", "repro.nn.quantum_layer:_qbackward", "inputs"),
    ("nn.optim", "repro.nn.optim:Adam.step", None),
    ("nn.optim", "repro.marl.trainer:clip_grad_norm", None),
    ("actors.infer",
     "repro.marl.actors:QuantumActorGroup.batch_probabilities",
     "observations"),
    ("actors.infer",
     "repro.marl.evolution.population:PopulationActorGroup"
     ".batch_probabilities", "observations"),
    ("envs.step", "repro.envs.vector:VectorEnv.step", None),
    ("rollout.collect",
     "repro.marl.rollout:VectorRolloutCollector.run_rounds", None),
    ("evolution.update", "repro.marl.evolution.es:ESOptimizer.step", None),
    ("evolution.update", "repro.marl.evolution.es:perturb_population", None),
    ("parallel.collect",
     "repro.marl.parallel.collector:ShardedRolloutCollector.collect", None),
    ("parallel.recv_wait",
     "repro.marl.parallel.transport:PipeChannel.recv", None),
    ("parallel.recv_wait",
     "repro.marl.parallel.transport:ShmRingChannel.recv", None),
    ("serving.infer", "repro.serving.engine:PolicyEngine.act", None),
)


def _rows_of(kind, args, kwargs):
    """Work rows of one call: circuit input rows or observation rows."""
    if kind == "inputs":
        # quantum.gradients.backward(circuit, observables, inputs, ...)
        inputs = args[2] if len(args) > 2 else kwargs.get("inputs")
        return 0 if inputs is None else int(np.shape(inputs)[0])
    # batch_probabilities(self, observations): (N, n_agents, obs) rows.
    shape = np.shape(args[1])
    return int(shape[0] * shape[1])


class LayerTimer:
    """Installs (and removes) the timing wrappers of :data:`LAYER_TARGETS`.

    Args:
        classify: Optional ``fn(layer, args) -> layer`` that refines a
            layer name from the call's arguments; the benchmark uses it to
            split ``quantum.backward`` into actor and critic sweeps by
            circuit identity.
    """

    def __init__(self, classify=None):
        self.classify = classify
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, rows_kind):
        timer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not obs.enabled():
                return fn(*args, **kwargs)
            stack = timer._stack()
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                name = layer
                if timer.classify is not None:
                    name = timer.classify(layer, args)
                obs.counter(f"layer.{name}.calls").inc()
                obs.counter(f"layer.{name}.ns").inc(elapsed)
                obs.counter(f"layer.{name}.self_ns").inc(elapsed - children)
                if rows_kind is not None:
                    obs.counter(f"layer.{name}.rows").inc(
                        _rows_of(rows_kind, args, kwargs)
                    )

        return timed

    def install(self):
        """Wrap every target; returns self."""
        if self._restore:
            raise RuntimeError("layer timers are already installed")
        for layer, path, rows_kind in LAYER_TARGETS:
            module_name, attr_path = path.split(":")
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(layer, original, rows_kind))
            self._restore.append((owner, attr, original))
        return self

    def uninstall(self):
        """Put every original binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def layer_totals(counters):
    """``{layer: {"calls", "ns", "self_ns", "rows"}}`` from obs counters."""
    totals = {}
    for key, value in counters.items():
        if not key.startswith("layer."):
            continue
        name, _, field = key[len("layer."):].rpartition(".")
        totals.setdefault(
            name, {"calls": 0, "ns": 0, "self_ns": 0, "rows": 0}
        )[field] = value
    return totals
