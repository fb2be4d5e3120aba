"""Discrete-event simulation kernel used by every substrate in the library."""

from .engine import SimulationEngine
from .events import Event, EventPriority
from .randomness import RandomStreams

__all__ = [
    "SimulationEngine",
    "Event",
    "EventPriority",
    "RandomStreams",
]
