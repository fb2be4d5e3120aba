"""Workload generation: query traces, open-loop clients and arrival models."""

from .arrival import OpenLoopClient
from .arrival_models import (
    ArrivalModel,
    BurstyArrival,
    ConstantArrival,
    DiurnalArrival,
    FlashCrowdArrival,
    TraceArrival,
    build_arrival_model,
    synthesize_trace,
)
from .query_trace import QueryDescriptor, QueryTrace
from .service_time import WorkerFanoutModel, WorkerServiceTimeModel

__all__ = [
    "OpenLoopClient",
    "ArrivalModel",
    "ConstantArrival",
    "DiurnalArrival",
    "BurstyArrival",
    "FlashCrowdArrival",
    "TraceArrival",
    "build_arrival_model",
    "synthesize_trace",
    "QueryDescriptor",
    "QueryTrace",
    "WorkerFanoutModel",
    "WorkerServiceTimeModel",
]
