"""Synthetic Xuanfeng workload: the substitute for the proprietary trace.

The real dataset (one week of complete Xuanfeng logs: 4,084,417 tasks,
783,944 users, 563,517 unique files) is proprietary.  This package
synthesises a statistically equivalent workload at a configurable scale:
every published marginal of section 3 -- file-size CDF, type mix,
protocol mix, SE/Zipf popularity, popularity-class shares -- is a
calibration target, and the joint structure the paper's analyses rely on
(popularity drives swarm health drives failures) is built in.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FileType": "repro.workload.filetypes",
    "FileTypeModel": "repro.workload.filetypes",
    "FileSizeModel": "repro.workload.sizes",
    "PopularityClass": "repro.workload.popularity",
    "PopularityModel": "repro.workload.popularity",
    "CatalogFile": "repro.workload.records",
    "User": "repro.workload.records",
    "RequestRecord": "repro.workload.records",
    "PreDownloadRecord": "repro.workload.records",
    "FetchRecord": "repro.workload.records",
    "FileCatalog": "repro.workload.catalog",
    "UserPopulation": "repro.workload.users",
    "ArrivalProcess": "repro.workload.arrivals",
    "Workload": "repro.workload.generator",
    "WorkloadConfig": "repro.workload.generator",
    "WorkloadGenerator": "repro.workload.generator",
    "sample_benchmark_requests": "repro.workload.sampler",
    "MultiWeekGenerator": "repro.workload.multiweek",
    "EvolutionConfig": "repro.workload.multiweek",
    "WeekStats": "repro.workload.multiweek",
    "run_weeks": "repro.workload.multiweek",
    "read_jsonl": "repro.workload.traceio",
    "write_jsonl": "repro.workload.traceio",
    "load_workload": "repro.workload.traceio",
    "save_workload": "repro.workload.traceio",
})
