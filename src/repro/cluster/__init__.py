"""Multi-machine serving cluster: layout, routing, config store, sampled fan-out."""

from .autopilot import ConfigStore
from .layout import ClusterLayout, IndexMachineInfo
from .sampled import SampledClusterModel, SampledLayerStats
from .simulated import ClusterResult, ClusterScenario, SimulatedCluster

__all__ = [
    "ConfigStore",
    "ClusterLayout",
    "IndexMachineInfo",
    "SampledClusterModel",
    "SampledLayerStats",
    "ClusterResult",
    "ClusterScenario",
    "SimulatedCluster",
]
