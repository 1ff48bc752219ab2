"""Environment substrate: multi-agent API, queueing dynamics, offloading env."""

from repro.envs.arrivals import (
    ArrivalProcess,
    BernoulliBurstArrivals,
    DeterministicArrivals,
    TruncatedPoissonArrivals,
    UniformArrivals,
)
from repro.envs.base import Discrete, FeatureSpace, MultiAgentEnv, StepResult
from repro.envs.queues import QueueBank, QueueUpdate, clip
from repro.envs.multi_hop import MultiHopOffloadEnv, layered_topology
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.envs.vector import (
    MultiHopVectorEnv,
    SingleHopVectorEnv,
    VectorEnv,
    VectorStepResult,
    make_vector_env,
)

__all__ = [
    "Discrete",
    "FeatureSpace",
    "MultiAgentEnv",
    "StepResult",
    "QueueBank",
    "QueueUpdate",
    "clip",
    "ArrivalProcess",
    "UniformArrivals",
    "BernoulliBurstArrivals",
    "TruncatedPoissonArrivals",
    "DeterministicArrivals",
    "SingleHopOffloadEnv",
    "MultiHopOffloadEnv",
    "layered_topology",
    "VectorEnv",
    "VectorStepResult",
    "SingleHopVectorEnv",
    "MultiHopVectorEnv",
    "make_vector_env",
]
