"""repro -- a full reproduction of "Offline Downloading in China: A
Comparative Study" (IMC 2015).

The package models the paper's entire measurement universe in Python:

* :mod:`repro.workload` -- a calibrated synthetic substitute for the
  proprietary Xuanfeng week-long trace;
* :mod:`repro.cloud` -- the cloud-based offline-downloading system
  (collaborative cache, pre-downloader fleet, per-ISP uploading servers);
* :mod:`repro.ap` -- the HiWiFi / MiWiFi / Newifi smart APs and the
  section 5 benchmark rig;
* :mod:`repro.core` -- ODR, the Offline Downloading Redirector, plus the
  baseline strategies and the section 6 replay evaluation;
* :mod:`repro.sim`, :mod:`repro.netsim`, :mod:`repro.transfer`,
  :mod:`repro.storage`, :mod:`repro.analysis` -- the substrates.

Quickstart::

    from repro import (WorkloadGenerator, WorkloadConfig, XuanfengCloud,
                       CloudConfig)

    workload = WorkloadGenerator(WorkloadConfig(scale=0.005)).generate()
    cloud = XuanfengCloud(CloudConfig(scale=0.005))
    result = cloud.run(workload)
    print(f"cache hit ratio: {result.cache_hit_ratio:.2%}")
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Workload": "repro.workload.generator",
    "WorkloadConfig": "repro.workload.generator",
    "WorkloadGenerator": "repro.workload.generator",
    "sample_benchmark_requests": "repro.workload.sampler",
    "XuanfengCloud": "repro.cloud.system",
    "CloudConfig": "repro.cloud.config",
    "CloudRunResult": "repro.cloud.system",
    "SmartAP": "repro.ap.smartap",
    "ApBenchmarkRig": "repro.ap.benchrig",
    "HIWIFI_1S": "repro.ap.models",
    "MIWIFI": "repro.ap.models",
    "NEWIFI": "repro.ap.models",
    "OdrMiddleware": "repro.core.odr",
    "OdrService": "repro.core.service",
    "OdrStrategy": "repro.core.strategies",
    "CloudOnlyStrategy": "repro.core.strategies",
    "SmartApOnlyStrategy": "repro.core.strategies",
    "AlwaysHybridStrategy": "repro.core.strategies",
    "AmsStrategy": "repro.core.strategies",
    "ReplayEvaluator": "repro.core.replay",
    "MetricsRegistry": "repro.obs.registry",
    "NOOP": "repro.obs.registry",
    "span": "repro.obs.tracing",
})
__all__ += ["__version__"]
