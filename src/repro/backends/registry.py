"""Name-based registry of backends, policies, and strategy compositions.

Everything routes through three tables:

* backend factories (``cloud``, ``smart-ap``, ``d2d``, ``coop-ap``);
* policy factories (the five legacy strategy policies plus
  ``delay-aware``);
* :data:`STRATEGY_SPECS`, naming which backend set each strategy name
  composes with which policy.

Factories receive a :class:`BuildContext` so one registration works in
every host: the web service passes a live content database, the replay
engines also pass the workload catalog (which unlocks catalog-mode
cooperative caching and true file sizes), the fault harness passes an
injector.  :func:`resolve_strategy` is the single public entry point --
``resolve_strategy("odr", database=db)`` hands back a drop-in
:class:`~repro.core.strategies.ComposedStrategy`.

Third parties extend the tables with :func:`register_backend` /
:func:`register_policy` (plain decorators) and may pass explicit
``backend_names`` to :func:`resolve_strategy` to compose ad hoc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.backends.base import Backend, Policy
from repro.backends.builtin import (
    CloudBackend,
    CoopApCacheBackend,
    D2dBackend,
    SmartApBackend,
)
from repro.backends.coopcache import CooperativeApCache
from repro.backends.policies import (
    AlwaysHybridPolicy,
    AmsPolicy,
    CloudOnlyPolicy,
    DelayAwarePolicy,
    OdrPolicy,
    SmartApOnlyPolicy,
)
from repro.cloud.database import ContentDatabase
from repro.core.odr import OdrMiddleware

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.core.strategies import ComposedStrategy
    from repro.faults.injector import FaultInjector
    from repro.workload.catalog import FileCatalog


class UnknownBackendError(ValueError):
    """Raised for a backend name nobody registered."""


class UnknownPolicyError(ValueError):
    """Raised for a policy name nobody registered."""


class UnknownStrategyError(ValueError):
    """Raised for a strategy name with no composition spec."""


@dataclass
class BuildContext:
    """Everything a factory may want; hosts fill in what they have."""

    database: Optional[ContentDatabase] = None
    catalog: Optional["FileCatalog"] = None
    middleware: Optional[OdrMiddleware] = None
    cache: Optional[CooperativeApCache] = None
    options: dict = field(default_factory=dict)

    def require_database(self) -> ContentDatabase:
        if self.database is None:
            raise ValueError("this factory needs a content database")
        return self.database


_BACKENDS: dict[str, Callable[[BuildContext], Backend]] = {}
_POLICIES: dict[str, Callable[[BuildContext], Policy]] = {}


def register_backend(name: str):
    """Decorator: register a backend factory under ``name``."""
    def decorator(factory: Callable[[BuildContext], Backend]):
        _BACKENDS[name] = factory
        return factory
    return decorator


def register_policy(name: str):
    """Decorator: register a policy factory under ``name``."""
    def decorator(factory: Callable[[BuildContext], Policy]):
        _POLICIES[name] = factory
        return factory
    return decorator


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_POLICIES))


def create_backend(name: str, build: Optional[BuildContext] = None
                   ) -> Backend:
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; "
            f"known: {', '.join(backend_names())}") from None
    return factory(build or BuildContext())


def create_policy(name: str, build: Optional[BuildContext] = None
                  ) -> Policy:
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; "
            f"known: {', '.join(policy_names())}") from None
    return factory(build or BuildContext())


@register_backend("cloud")
def _cloud_backend(build: BuildContext) -> Backend:
    return CloudBackend()


@register_backend("smart-ap")
def _smart_ap_backend(build: BuildContext) -> Backend:
    return SmartApBackend()


@register_backend("d2d")
def _d2d_backend(build: BuildContext) -> Backend:
    from repro.backends.builtin import D2D_NEIGHBOR_SHARE
    return D2dBackend(
        neighbor_share=build.options.get("d2d_neighbor_share",
                                         D2D_NEIGHBOR_SHARE))


@register_backend("coop-ap")
def _coop_ap_backend(build: BuildContext) -> Backend:
    cache = build.cache
    if cache is None and build.catalog is not None:
        cache = CooperativeApCache.from_catalog(build.catalog)
    return CoopApCacheBackend(cache=cache)


@register_policy("cloud-only")
def _cloud_only_policy(build: BuildContext) -> Policy:
    return CloudOnlyPolicy()


@register_policy("smart-ap-only")
def _smart_ap_only_policy(build: BuildContext) -> Policy:
    return SmartApOnlyPolicy()


@register_policy("always-hybrid")
def _always_hybrid_policy(build: BuildContext) -> Policy:
    return AlwaysHybridPolicy()


@register_policy("ams")
def _ams_policy(build: BuildContext) -> Policy:
    return AmsPolicy(popularity_threshold=build.options.get(
        "popularity_threshold", 85))


@register_policy("odr")
def _odr_policy(build: BuildContext) -> Policy:
    middleware = build.middleware
    if middleware is None:
        middleware = OdrMiddleware(build.require_database())
    return OdrPolicy(middleware)


@register_policy("delay-aware")
def _delay_aware_policy(build: BuildContext) -> Policy:
    from repro.backends.policies import DEFAULT_DEADLINE_SECONDS
    return DelayAwarePolicy(deadline_seconds=build.options.get(
        "deadline_seconds", DEFAULT_DEADLINE_SECONDS))


#: strategy name -> (backend names in preference order, policy name).
#: The first five reproduce the paper's strategies exactly; the last is
#: the registry-native composition over all four backends.
STRATEGY_SPECS: dict[str, tuple[tuple[str, ...], str]] = {
    "cloud-only": (("cloud",), "cloud-only"),
    "smart-ap-only": (("smart-ap",), "smart-ap-only"),
    "always-hybrid": (("cloud", "smart-ap"), "always-hybrid"),
    "ams": (("cloud", "smart-ap"), "ams"),
    "odr": (("cloud", "smart-ap"), "odr"),
    "delay-aware": (("coop-ap", "d2d", "smart-ap", "cloud"),
                    "delay-aware"),
}


def strategy_names() -> tuple[str, ...]:
    return tuple(sorted(STRATEGY_SPECS))


def compose(name: str, *, database: Optional[ContentDatabase] = None,
            catalog: Optional["FileCatalog"] = None,
            middleware: Optional[OdrMiddleware] = None,
            cache: Optional[CooperativeApCache] = None,
            **options) -> tuple[tuple[Backend, ...], Policy]:
    """Build the (backend set, policy) pair of a named strategy."""
    try:
        backend_spec, policy_name = STRATEGY_SPECS[name]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; "
            f"known: {', '.join(strategy_names())}") from None
    if middleware is not None and database is None:
        database = middleware.database
    build = BuildContext(database=database, catalog=catalog,
                         middleware=middleware, cache=cache,
                         options=options)
    backends = tuple(create_backend(backend, build)
                     for backend in backend_spec)
    return backends, create_policy(policy_name, build)


def resolve_strategy(name: str, *,
                     database: Optional[ContentDatabase] = None,
                     catalog: Optional["FileCatalog"] = None,
                     middleware: Optional[OdrMiddleware] = None,
                     cache: Optional[CooperativeApCache] = None,
                     faults: Optional["FaultInjector"] = None,
                     backend_names: Optional[Sequence[str]] = None,
                     **options) -> "ComposedStrategy":
    """The public front door: a ready-to-use strategy by name.

    ``backend_names`` overrides the spec's backend set (the policy still
    comes from the spec), letting the comparison engine sweep ad hoc
    (backend set, policy) combinations.
    """
    from repro.core.strategies import ComposedStrategy

    backends, policy = compose(name, database=database, catalog=catalog,
                               middleware=middleware, cache=cache,
                               **options)
    if backend_names is not None:
        build = BuildContext(database=database, catalog=catalog,
                             middleware=middleware, cache=cache,
                             options=options)
        backends = tuple(create_backend(backend, build)
                         for backend in backend_names)
    gate = None
    if faults is not None:
        from repro.backends.faultgate import FaultGate
        gate = FaultGate(faults)
    return ComposedStrategy(name, backends, policy, database=database,
                            catalog=catalog, fault_gate=gate)
