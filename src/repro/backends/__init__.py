"""repro.backends: pluggable multi-backend ODR.

A registry of download *backends* (cloud, smart AP, D2D peers,
cooperative AP caches) and routing *policies* (the paper's strategies
plus a DAWN-style delay-aware scorer), composed by name into drop-in
:class:`~repro.core.strategies.ComposedStrategy` instances.  Run
``python -m repro.backends`` for the deterministic (backend set,
policy) comparison scorecard.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "UNREACHABLE_DELAY": "repro.backends.base",
    "Backend": "repro.backends.base",
    "BackendEstimate": "repro.backends.base",
    "Policy": "repro.backends.base",
    "backend_by_name": "repro.backends.base",
    "CloudBackend": "repro.backends.builtin",
    "SmartApBackend": "repro.backends.builtin",
    "D2dBackend": "repro.backends.builtin",
    "CoopApCacheBackend": "repro.backends.builtin",
    "CooperativeApCache": "repro.backends.coopcache",
    "FaultGate": "repro.backends.faultgate",
    "CloudOnlyPolicy": "repro.backends.policies",
    "SmartApOnlyPolicy": "repro.backends.policies",
    "AlwaysHybridPolicy": "repro.backends.policies",
    "AmsPolicy": "repro.backends.policies",
    "OdrPolicy": "repro.backends.policies",
    "DelayAwarePolicy": "repro.backends.policies",
    "STRATEGY_SPECS": "repro.backends.registry",
    "BuildContext": "repro.backends.registry",
    "UnknownBackendError": "repro.backends.registry",
    "UnknownPolicyError": "repro.backends.registry",
    "UnknownStrategyError": "repro.backends.registry",
    "backend_names": "repro.backends.registry",
    "compose": "repro.backends.registry",
    "create_backend": "repro.backends.registry",
    "create_policy": "repro.backends.registry",
    "policy_names": "repro.backends.registry",
    "register_backend": "repro.backends.registry",
    "register_policy": "repro.backends.registry",
    "resolve_strategy": "repro.backends.registry",
    "strategy_names": "repro.backends.registry",
})
