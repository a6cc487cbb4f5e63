"""Discrete-event simulation engine.

This subpackage is the execution substrate for every system model in the
reproduction: a heap-based event scheduler (:class:`Simulator`),
generator-based processes (:class:`Process`), and shared resources used to
model bandwidth pools (:class:`ReservationPool`, :class:`FairSharePool`).

The engine is deliberately small -- it implements exactly the primitives the
paper's systems need -- but it is a genuine general-purpose DES core: the
cloud simulator, the smart-AP replay rig, and the ODR evaluator all run on
it unmodified.
"""

from repro.sim.clock import (
    DAY,
    HOUR,
    MINUTE,
    SECOND,
    WEEK,
    format_duration,
    kbps,
    mbps,
    gbps,
)
from repro.sim.engine import Interrupt, Process, SimulationError, Simulator, Timeout
from repro.sim.randomness import RngFactory, derive_seed, substream
from repro.sim.resources import FairSharePool, ReservationPool

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "format_duration",
    "kbps",
    "mbps",
    "gbps",
    "Simulator",
    "Process",
    "Timeout",
    "Interrupt",
    "SimulationError",
    "ReservationPool",
    "FairSharePool",
    "RngFactory",
    "derive_seed",
    "substream",
]
