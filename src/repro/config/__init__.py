"""Typed configuration schema, trace files, and cross-field validation.

Specs are frozen dataclasses built in Python: the experiment catalog and
the fleet build them, and the runtime hashes them as cache keys.
"""

from .schema import (
    BlindIsolationSpec,
    BurstySpec,
    ClusterSpec,
    CpuBullySpec,
    CpuCycleSpec,
    DiskBullySpec,
    DiskSpec,
    DiurnalSpec,
    ExperimentSpec,
    FlashCrowdSpec,
    HdfsSpec,
    IndexServeSpec,
    IoThrottleSpec,
    MachineSpec,
    MemoryGuardSpec,
    MlTrainingSpec,
    PerfIsoSpec,
    SchedulerSpec,
    StaticCoreSpec,
    TraceSpec,
    VolumeSpec,
    WorkloadSpec,
)
from .traces import dump_trace_text, load_trace_file, parse_trace_text, save_trace_file
from .validation import validate_cluster, validate_experiment

__all__ = [
    "BlindIsolationSpec",
    "BurstySpec",
    "ClusterSpec",
    "CpuBullySpec",
    "CpuCycleSpec",
    "DiskBullySpec",
    "DiskSpec",
    "DiurnalSpec",
    "ExperimentSpec",
    "FlashCrowdSpec",
    "HdfsSpec",
    "IndexServeSpec",
    "IoThrottleSpec",
    "MachineSpec",
    "MemoryGuardSpec",
    "MlTrainingSpec",
    "PerfIsoSpec",
    "SchedulerSpec",
    "StaticCoreSpec",
    "TraceSpec",
    "VolumeSpec",
    "WorkloadSpec",
    "dump_trace_text",
    "load_trace_file",
    "parse_trace_text",
    "save_trace_file",
    "validate_cluster",
    "validate_experiment",
]
