"""repro.faults -- deterministic fault injection + resilience policies.

Public surface:

* :class:`FaultSpec` / :class:`FaultPlan` -- seeded, JSON-loadable
  schedules of fault windows (:func:`default_chaos_plan` is the
  built-in one).
* :class:`FaultInjector` -- delivers a plan into a run, either through
  the engine's interrupt machinery or as a pure query API for the
  analytic replay paths.
* :class:`RetryPolicy` / :class:`CircuitBreaker` /
  :class:`TransferCheckpoint` / :class:`ResiliencePolicies` -- the
  recovery side.

The chaos driver lives in :mod:`repro.faults.chaos` (also ``python -m
repro.faults``).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AP_KILL_KINDS": "repro.faults.plan",
    "CLOUD_KINDS": "repro.faults.plan",
    "DEFAULT_CHAOS_SEED": "repro.faults.plan",
    "INTERRUPT_KINDS": "repro.faults.injector",
    "DEFAULT_POLICIES": "repro.faults.policies",
    "KIND_DOMAINS": "repro.faults.plan",
    "SERVE_KILL_KINDS": "repro.faults.plan",
    "SERVE_KINDS": "repro.faults.plan",
    "WEDGE_KINDS": "repro.faults.plan",
    "CircuitBreaker": "repro.faults.policies",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "FaultSpec": "repro.faults.plan",
    "ResiliencePolicies": "repro.faults.policies",
    "RetryPolicy": "repro.faults.policies",
    "TransferCheckpoint": "repro.faults.policies",
    "ap_chaos_predownload": "repro.faults.resilience",
    "ap_entity_name": "repro.faults.plan",
    "correlated_slots": "repro.faults.plan",
    "default_chaos_plan": "repro.faults.plan",
    "serve_slot_of": "repro.faults.plan",
    "validate_serve_plan": "repro.faults.plan",
})
