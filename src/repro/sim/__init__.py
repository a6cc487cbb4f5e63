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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SECOND": "repro.sim.clock",
    "MINUTE": "repro.sim.clock",
    "HOUR": "repro.sim.clock",
    "DAY": "repro.sim.clock",
    "WEEK": "repro.sim.clock",
    "format_duration": "repro.sim.clock",
    "kbps": "repro.sim.clock",
    "mbps": "repro.sim.clock",
    "gbps": "repro.sim.clock",
    "Simulator": "repro.sim.engine",
    "Process": "repro.sim.engine",
    "Timeout": "repro.sim.engine",
    "Interrupt": "repro.sim.engine",
    "SimulationError": "repro.sim.engine",
    "ReservationPool": "repro.sim.resources",
    "FairSharePool": "repro.sim.resources",
    "RngFactory": "repro.sim.randomness",
    "derive_seed": "repro.sim.randomness",
    "substream": "repro.sim.randomness",
})
