"""Low-latency policy serving: micro-batched inference over trained VQCs.

The paper's end state is per-user offloading decisions made online under
heavy traffic; this package is that tier.  A checkpoint is loaded into a
warm framework, concurrent decision requests are adaptively coalesced into
single stacked circuit evaluations (:mod:`repro.serving.batcher`), and new
checkpoints hot-swap in between batches without dropping a request
(:mod:`repro.serving.reload`).  Every micro-batch is evaluated in the
server's own process: a batch of 4-qubit actors costs less to evaluate
than to ship to another process.
``docs/serving.md`` has the architecture tour.
"""

from repro.serving.batcher import MicroBatcher, OverloadedError
from repro.serving.client import AsyncServingClient, ServerError, ServingClient
from repro.serving.engine import (
    FrameworkSpec,
    PolicyEngine,
    build_inference_framework,
    select_actions,
)
from repro.serving.reload import CheckpointWatcher
from repro.serving.server import PolicyServer

__all__ = [
    "AsyncServingClient",
    "CheckpointWatcher",
    "FrameworkSpec",
    "MicroBatcher",
    "OverloadedError",
    "PolicyEngine",
    "PolicyServer",
    "ServerError",
    "ServingClient",
    "build_inference_framework",
    "select_actions",
]
