"""The metrics registry: instruments, sim-time-binned series, spans.

One :class:`MetricsRegistry` is threaded through a run (cloud week, AP
replay campaign, ODR evaluation); every subsystem obtains instruments
from it by name.  The registry stamps each observation with *simulation*
time (from whatever clock the :class:`~repro.sim.engine.Simulator` bound)
plus wall time, and aggregates observations into fixed-width sim-time
bins so a week-long run exports a bounded series per metric instead of
one row per event.

``NOOP`` is the null-object registry: it hands out shared do-nothing
instruments, so uninstrumented runs (the default everywhere) pay only a
no-op method call per observation point.  The hottest counts (engine
events, cloud tasks and fetches) are kept as plain state by their owners
and folded in per sim-time bin through :meth:`record_bins`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from repro.obs.instruments import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    SUMMARY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    Instrument,
)

#: Default sim-time bin width for exported series: 5 minutes, matching
#: the paper's Figure 11 bandwidth-burden binning.
DEFAULT_BIN_WIDTH = 300.0

_InstrumentKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """Owns instruments, their sim-time series, and recorded spans."""

    enabled = True

    def __init__(self, bin_width: float = DEFAULT_BIN_WIDTH,
                 clock: Optional[Callable[[], float]] = None):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self._bin_width = bin_width
        self._clock = clock
        self._instruments: dict[_InstrumentKey, Instrument] = {}
        # instrument key -> {bin index -> [value, wall time of last update]}
        self._series: dict[_InstrumentKey, dict[int, list[float]]] = {}
        self._spans: list[dict[str, Any]] = []

    # -- clock -----------------------------------------------------------------

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Bind the simulation-time source (e.g. ``lambda: sim.now``)."""
        self._clock = clock

    def now(self) -> float:
        """Current simulation time, 0.0 when no clock is bound."""
        clock = self._clock
        return clock() if clock is not None else 0.0

    @property
    def bin_width(self) -> float:
        return self._bin_width

    # -- instrument factories --------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def _get_or_create(self, factory: type, name: str,
                       labels: dict[str, Any]):
        key = (name, _label_key(labels) if labels else ())
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(self, name, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, cannot re-register as "
                f"{factory.kind}")  # type: ignore[attr-defined]
        return instrument

    # -- observation intake ----------------------------------------------------

    def _record(self, instrument: Instrument, amount: float) -> None:
        """One live observation (a histogram's amount is its count of
        one), in the bin of the clock's sim time."""
        clock = self._clock
        sim_time = clock() if clock is not None else 0.0
        self._fold(instrument, int(sim_time // self._bin_width), amount,
                   time.time())

    def record_bins(self, instrument: Instrument, bins: Iterable[int],
                    amounts: Iterable[float], peak: float = -math.inf
                    ) -> None:
        """Fold amounts into an instrument's sim-time ``bins``.

        A counter adds each to its value and bin, a histogram to its
        bin's observation count.  A gauge takes each as its bin's level
        and the last as its value; it peaks at the largest or ``peak``.
        """
        wall = time.time()
        for index, amount in zip(bins, amounts):
            self._fold(instrument, index, amount, wall)
        if peak > -math.inf and peak > instrument.peak:
            instrument.peak = peak

    def _fold(self, instrument: Instrument, index: int, amount: float,
              wall: float) -> None:
        key = (instrument.name, instrument.labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = {}
        kind = instrument.kind
        if kind is KIND_GAUGE:
            instrument.value = amount
            if amount > instrument.peak:
                instrument.peak = amount
        elif kind is KIND_COUNTER:
            instrument.value += amount
        entry = series.get(index)
        if entry is None:
            series[index] = [amount, wall]
        else:
            entry[0] = amount if kind is KIND_GAUGE else entry[0] + amount
            entry[1] = wall

    def record_span(self, name: str, sim_start: float, sim_end: float,
                    wall_seconds: float,
                    attrs: Optional[dict[str, Any]] = None) -> None:
        """Fold one finished span into the registry (see ``obs.tracing``)."""
        self._spans.append({
            "name": name, "sim_start": sim_start, "sim_end": sim_end,
            "wall_seconds": wall_seconds, "attrs": dict(attrs or {})})
        self.histogram(f"repro_trace_{name}_wall_seconds").sketch.add(
            wall_seconds)

    # -- views -----------------------------------------------------------------

    def instruments(self) -> Iterator[Instrument]:
        yield from self._instruments.values()

    def metric_names(self) -> set[str]:
        return {name for name, _labels in self._instruments}

    @property
    def spans(self) -> list[dict[str, Any]]:
        return self._spans

    def snapshot(self) -> dict[str, float]:
        """Rendered-name -> current scalar value for every instrument."""
        return {instrument.full_name: instrument.value
                for instrument in self._instruments.values()}

    def series(self, name: str, **labels: Any
               ) -> list[tuple[float, float]]:
        """(bin start sim-time, value) pairs for one instrument."""
        key = (name, _label_key(labels))
        bins = self._series.get(key, {})
        return [(index * self._bin_width, entry[0])
                for index, entry in sorted(bins.items())]

    def to_rows(self) -> list[dict[str, Any]]:
        """Flatten registry state into export rows (see ``obs.exporters``).

        Three row types: ``summary`` (one per instrument, cumulative
        state), ``series`` (one per instrument per sim-time bin), and
        ``span`` (one per recorded span).
        """
        rows: list[dict[str, Any]] = []
        for key, instrument in self._instruments.items():
            labels = dict(instrument.labels)
            summary: dict[str, Any] = {
                "type": "summary", "metric": instrument.name,
                "labels": labels, "kind": instrument.kind,
                "value": instrument.value,
            }
            if isinstance(instrument, Gauge) and instrument.peak > -math.inf:
                summary["peak"] = instrument.peak    # a set gauge's peak
            elif isinstance(instrument, Histogram):
                sketch = instrument.sketch
                summary["count"] = sketch.count
                summary["sum"] = sketch.total
                if sketch.count:
                    summary["min"] = sketch.min_value
                    summary["max"] = sketch.max_value
                for q in SUMMARY_QUANTILES:
                    summary[f"p{int(q * 100)}"] = sketch.quantile(q)
            rows.append(summary)
            for bin_index, entry in sorted(
                    self._series.get(key, {}).items()):
                rows.append({
                    "type": "series", "metric": instrument.name,
                    "labels": labels, "kind": instrument.kind,
                    "sim_time": bin_index * self._bin_width,
                    "wall_time": entry[1], "value": entry[0]})
        for span in self._spans:
            rows.append({"type": "span", **span})
        return rows


class NoopRegistry:
    """Null-object registry: same surface, zero cost, no state."""

    enabled = False

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        pass

    def now(self) -> float:
        return 0.0

    @property
    def bin_width(self) -> float:
        return DEFAULT_BIN_WIDTH

    def counter(self, name: str, **labels: Any):
        return NOOP_COUNTER

    def gauge(self, name: str, **labels: Any):
        return NOOP_GAUGE

    def histogram(self, name: str, **labels: Any):
        return NOOP_HISTOGRAM

    def record_bins(self, instrument: Any, bins: Iterable[int],
                    amounts: Iterable[float], peak: float = -math.inf
                    ) -> None:
        pass

    def record_span(self, name: str, sim_start: float, sim_end: float,
                    wall_seconds: float,
                    attrs: Optional[dict[str, Any]] = None) -> None:
        pass

    def instruments(self) -> Iterator[Instrument]:
        return iter(())

    def metric_names(self) -> set[str]:
        return set()

    @property
    def spans(self) -> list[dict[str, Any]]:
        return []

    def snapshot(self) -> dict[str, float]:
        return {}

    def series(self, name: str, **labels: Any
               ) -> list[tuple[float, float]]:
        return []

    def to_rows(self) -> list[dict[str, Any]]:
        return []


#: The shared do-nothing registry; the default ``metrics=`` everywhere.
NOOP = NoopRegistry()

#: What instrumented code accepts: a real registry or the null object.
AnyRegistry = Union[MetricsRegistry, NoopRegistry]
