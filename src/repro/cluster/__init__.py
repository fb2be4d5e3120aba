"""Multi-machine serving cluster: layout, routing, Autopilot, sampled fan-out."""

from .autopilot import Autopilot, ConfigStore, ManagedService
from .layout import ClusterLayout, IndexMachineInfo
from .sampled import SampledClusterModel, SampledLayerStats
from .simulated import ClusterResult, ClusterScenario, SimulatedCluster

__all__ = [
    "Autopilot",
    "ConfigStore",
    "ManagedService",
    "ClusterLayout",
    "IndexMachineInfo",
    "SampledClusterModel",
    "SampledLayerStats",
    "ClusterResult",
    "ClusterScenario",
    "SimulatedCluster",
]
