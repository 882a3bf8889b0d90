"""Discrete-event simulation substrate (tuple-level validation)."""

from .adaptation import DesAdaptationResult, DesAdaptationRunner
from .channels import DEFAULT_CHANNEL, ChannelConfig
from .engine import DesEngine, DesResult, measure_throughput
from .kernel import (
    Acquire,
    Get,
    ParkUntilNonEmpty,
    Put,
    Release,
    Request,
    SimLock,
    SimQueue,
    Simulator,
    Timeout,
    WakeAt,
)

__all__ = [
    "ChannelConfig",
    "DEFAULT_CHANNEL",
    "DesAdaptationResult",
    "DesAdaptationRunner",
    "DesEngine",
    "DesResult",
    "measure_throughput",
    "Acquire",
    "Get",
    "ParkUntilNonEmpty",
    "Put",
    "Release",
    "Request",
    "SimLock",
    "SimQueue",
    "Simulator",
    "Timeout",
    "WakeAt",
]
