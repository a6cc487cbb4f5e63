"""repro.loadgen -- closed-loop load replay with an SLO scorecard.

Replays the synthetic workload trace as live HTTP against the serving
tier (:mod:`repro.serve`) and scores what came back:

* :mod:`~repro.loadgen.trace` turns
  :class:`~repro.workload.records.RequestRecord` rows into ``/decide``
  request paths with the user's auxiliary info;
* :mod:`~repro.loadgen.client` owns the transport: per-target
  keep-alive session pools, EWMA latency, concurrency caps, quarantine
  of sick endpoints;
* :mod:`~repro.loadgen.replay` executes one open-loop-scheduled load
  step and emits a :class:`~repro.loadgen.replay.StepScorecard`;
* :mod:`~repro.loadgen.ramp` runs the stepped saturation ramp and
  folds the steps into the run-level scorecard.

CLI: ``python -m repro.loadgen --target http://host:port --rps 50``
(add ``--ramp`` for the saturation search).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_ERROR_BUDGET": "repro.loadgen.replay",
    "Ewma": "repro.loadgen.client",
    "LoadGenerator": "repro.loadgen.replay",
    "RequestOutcome": "repro.loadgen.client",
    "StepScorecard": "repro.loadgen.replay",
    "Target": "repro.loadgen.client",
    "TargetSet": "repro.loadgen.client",
    "decide_path": "repro.loadgen.trace",
    "load_or_generate_paths": "repro.loadgen.trace",
    "ramp_rates": "repro.loadgen.ramp",
    "saturation_rps": "repro.loadgen.ramp",
    "scorecard": "repro.loadgen.ramp",
    "step_healthy": "repro.loadgen.ramp",
    "stepped_ramp": "repro.loadgen.ramp",
    "workload_paths": "repro.loadgen.trace",
})
