"""repro.serve -- the production ODR serving tier.

The paper's ODR is "a public web service ... on a low-end virtual
machine"; this package is what it takes to serve the same decision
endpoint at scale:

* :class:`~repro.serve.server.AsyncOdrServer` -- one asyncio loop,
  keep-alive connections, same-tick batched decision evaluation,
  per-endpoint obs metrics plus a Prometheus ``/metrics`` endpoint,
  graceful drain;
* :class:`~repro.serve.admission.AdmissionController` -- bounded
  admission: over-cap requests shed with ``503 + Retry-After`` derived
  from the EWMA service time, every accepted/rejected request counted;
* :class:`~repro.serve.batching.DecisionBatcher` -- coalesces requests
  arriving in one event-loop tick into a single
  :meth:`~repro.core.webapp.OdrWebApp.handle_batch` pass;
* :mod:`~repro.serve.workers` -- N ``SO_REUSEPORT`` worker processes
  sharing one port;
* :class:`~repro.serve.supervisor.WorkerSupervisor` -- the parent that
  keeps the pool at capacity: per-worker health probes over private
  admin listeners, backoff restarts with a restart-storm breaker,
  rolling restarts;
* :mod:`~repro.serve.avail` (``python -m repro.serve.avail``) -- the
  worker-kill availability campaign (supervised vs unsupervised pool
  under load), written to ``BENCH_avail.json``;
* :class:`~repro.serve.chaos.ServeChaos` -- a fault-plan gate anchored
  at server start, so chaos campaigns cover the serving tier;
* :mod:`~repro.serve.bench` (``python -m repro.serve.bench``) -- the
  saturation ramp (single loop and ``SO_REUSEPORT`` pool), written to
  ``BENCH_serve.json``.

The CLI lives in ``python -m repro.serve`` (also ``repro serve``).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_MAX_INFLIGHT": "repro.serve.admission",
    "AdmissionController": "repro.serve.admission",
    "AsyncOdrServer": "repro.serve.server",
    "AsyncServerThread": "repro.serve.server",
    "DecisionBatcher": "repro.serve.batching",
    "ServeChaos": "repro.serve.chaos",
    "SupervisorConfig": "repro.serve.supervisor",
    "SupervisorThread": "repro.serve.supervisor",
    "WorkerSupervisor": "repro.serve.supervisor",
    "endpoint_label": "repro.serve.server",
    "load_serve_chaos": "repro.serve.chaos",
    "run_async_server": "repro.serve.server",
})
