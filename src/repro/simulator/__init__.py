"""Flow-level network simulator (SSFnet substitute for the Fig. 11 experiments)."""

from .events import EventHandle, Simulator
from .simulation import (
    FlowLevelSimulation,
    SimulationResult,
    proportional_split_ratios,
    simulate_protocol,
)

__all__ = [
    "EventHandle",
    "Simulator",
    "FlowLevelSimulation",
    "SimulationResult",
    "proportional_split_ratios",
    "simulate_protocol",
]
