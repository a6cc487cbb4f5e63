"""Metric instruments: Counter, Gauge, Histogram, and their no-op twins.

Every instrument belongs to a :class:`~repro.obs.registry.MetricsRegistry`
and reports observations back to it so the registry can maintain
sim-time-binned series (one at a time here, or per bin through
:meth:`~repro.obs.registry.MetricsRegistry.record_bins`).  The no-op
variants short-circuit everything: call sites hold an instrument
reference obtained once at construction time, so the disabled path
costs a single attribute-bound method call.

Naming convention (enforced loosely, documented in DESIGN.md):
``repro_<subsystem>_<name>``, with Prometheus-style suffixes (``_total``
for counters, unit suffixes like ``_bytes`` / ``_seconds`` / ``_gbps``
where applicable).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.histogram import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry

#: Quantiles exported for every histogram.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)

#: Aggregation kinds used by the registry's series binning.
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"


def render_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Prometheus-style rendered metric identity, e.g. ``x{isp="cernet"}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class Instrument:
    """Common identity plumbing for all instrument kinds."""

    __slots__ = ("name", "labels", "_registry")

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._registry = registry

    @property
    def full_name(self) -> str:
        return render_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.full_name}>"


class Counter(Instrument):
    """Monotonically increasing count (events, bytes, rejections)."""

    __slots__ = ("value",)

    kind = KIND_COUNTER

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: tuple[tuple[str, str], ...] = ()):
        super().__init__(registry, name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._registry._record(self, amount)


class Gauge(Instrument):
    """Point-in-time level (queue depth, committed bandwidth).

    Tracks the peak level seen, which is what capacity planning reads
    (e.g. peak event-heap depth of a simulation run).
    """

    __slots__ = ("value", "peak")

    kind = KIND_GAUGE

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: tuple[tuple[str, str], ...] = ()):
        super().__init__(registry, name, labels)
        self.value = 0.0
        self.peak = -math.inf

    def set(self, value: float) -> None:
        self._registry._record(self, value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)


class Histogram(Instrument):
    """Value distribution backed by the streaming quantile sketch."""

    __slots__ = ("sketch",)

    kind = KIND_HISTOGRAM

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: tuple[tuple[str, str], ...] = ()):
        super().__init__(registry, name, labels)
        self.sketch = QuantileSketch()

    @property
    def value(self) -> float:
        """Summary scalar: the running mean (for snapshot views)."""
        return self.sketch.mean

    @property
    def count(self) -> int:
        return self.sketch.count

    def observe(self, value: float) -> None:
        self.sketch.add(value)
        self._registry._record(self, 1.0)

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)


# -- null objects -------------------------------------------------------------
#
# One shared instance per kind: obtaining an instrument from the NOOP
# registry allocates nothing, and every mutating method is a bare
# ``pass``: an unmetered run makes no intake call at all
# (``tests/test_obs.py``).

class NoopCounter:
    __slots__ = ()
    kind = KIND_COUNTER
    name = "noop"
    labels: tuple[tuple[str, str], ...] = ()
    full_name = "noop"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NoopGauge:
    __slots__ = ()
    kind = KIND_GAUGE
    name = "noop"
    labels: tuple[tuple[str, str], ...] = ()
    full_name = "noop"
    value = 0.0
    peak = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class NoopHistogram:
    __slots__ = ()
    kind = KIND_HISTOGRAM
    name = "noop"
    labels: tuple[tuple[str, str], ...] = ()
    full_name = "noop"
    value = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


NOOP_COUNTER = NoopCounter()
NOOP_GAUGE = NoopGauge()
NOOP_HISTOGRAM = NoopHistogram()
