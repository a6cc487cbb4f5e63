"""repro.obs -- sim-time-aware observability for the reproduction.

The subsystem every other layer reports into:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  streaming :class:`Histogram` instruments, whose observations are
  stamped with **simulation** time (bound from the
  :class:`~repro.sim.engine.Simulator` clock) as well as wall time and
  aggregated into fixed-width sim-time bins;
* :func:`span` -- lightweight tracing of logical work units;
* exporters -- JSONL event log (round-trippable via :func:`load_jsonl`),
  Prometheus text dump, and a rendered summary table;
* :data:`NOOP` -- the null-object registry, the default ``metrics=``
  everywhere, making instrumentation free when disabled.

Metric naming convention: ``repro_<subsystem>_<name>`` with
Prometheus-style unit suffixes (``_total``, ``_bytes``, ``_seconds``,
``_gbps``).  See DESIGN.md's Observability section for the inventory.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MetricsRegistry": "repro.obs.registry",
    "NoopRegistry": "repro.obs.registry",
    "NOOP": "repro.obs.registry",
    "NOOP_COUNTER": "repro.obs.instruments",
    "NOOP_GAUGE": "repro.obs.instruments",
    "NOOP_HISTOGRAM": "repro.obs.instruments",
    "AnyRegistry": "repro.obs.registry",
    "Counter": "repro.obs.instruments",
    "Gauge": "repro.obs.instruments",
    "Histogram": "repro.obs.instruments",
    "QuantileSketch": "repro.obs.histogram",
    "SpanHandle": "repro.obs.tracing",
    "span": "repro.obs.tracing",
    "SUMMARY_QUANTILES": "repro.obs.instruments",
    "DEFAULT_BIN_WIDTH": "repro.obs.registry",
    "FORMATS": "repro.obs.exporters",
    "render_name": "repro.obs.instruments",
    "export": "repro.obs.exporters",
    "write_jsonl": "repro.obs.exporters",
    "load_jsonl": "repro.obs.exporters",
    "render_prometheus": "repro.obs.exporters",
    "render_summary_table": "repro.obs.exporters",
    "summary_table": "repro.obs.exporters",
})
