"""Experiment drivers: one module per paper figure/table.

Each driver consumes a shared :class:`ExperimentContext` (one synthetic
week, one cloud run, one AP replay -- built lazily and memoised) and
returns an :class:`ExperimentReport` holding paper-vs-measured rows plus
a rendered text table.  EXPERIMENTS.md is generated from these reports,
and the scorecard (:mod:`repro.experiments.scorecard`) checks each
report's rows and data against the paper's figure and table bounds.
"""

from repro.experiments.base import ExperimentReport, REGISTRY, register
from repro.experiments.context import ExperimentContext, default_context

# Importing the driver modules populates the registry.
from repro.experiments import (  # noqa: F401  (registration side effects)
    workload_stats,
    fig05_filesize,
    fig06_07_popularity,
    fig08_speeds,
    fig09_delays,
    fig10_failure,
    fig11_bandwidth,
    table1_hardware,
    fig13_14_ap,
    ap_failures,
    table2_storage,
    cloud_text_stats,
    fig16_odr,
    fig17_odr_fetch,
    backend_matrix,
)

__all__ = [
    "ExperimentReport",
    "ExperimentContext",
    "default_context",
    "REGISTRY",
    "register",
]
