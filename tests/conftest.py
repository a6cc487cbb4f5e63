"""Shared fixtures: one small synthetic week reused across test modules.

Session-scoped so the expensive artefacts (workload, cloud run, AP
replay) are built once; tests treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ap.benchrig import ApBenchmarkRig
from repro.cloud import CloudConfig, XuanfengCloud
from repro.experiments.context import DEFAULT_SCALE, ExperimentContext
from repro.workload import (
    WorkloadConfig,
    WorkloadGenerator,
    sample_benchmark_requests,
)

#: Small but statistically meaningful: ~2,800 files / ~20k tasks.
TEST_SCALE = 0.005
TEST_SEED = 20150222


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def workload():
    config = WorkloadConfig(scale=TEST_SCALE, seed=TEST_SEED)
    return WorkloadGenerator(config).generate()


@pytest.fixture(scope="session")
def cloud_and_result(workload):
    cloud = XuanfengCloud(CloudConfig(scale=TEST_SCALE))
    result = cloud.run(workload)
    return cloud, result


@pytest.fixture(scope="session")
def cloud_result(cloud_and_result):
    return cloud_and_result[1]


@pytest.fixture(scope="session")
def cloud(cloud_and_result):
    return cloud_and_result[0]


@pytest.fixture(scope="session")
def benchmark_sample(workload):
    return sample_benchmark_requests(workload, 400)


@pytest.fixture(scope="session")
def ap_report(workload, benchmark_sample):
    rig = ApBenchmarkRig(workload.catalog)
    return rig.replay(benchmark_sample)


@pytest.fixture(scope="session")
def default_context():
    """The default experiment week (scale 0.02, default seed), built
    once for the paper checks and the tests that need that week."""
    return ExperimentContext(scale=DEFAULT_SCALE)


@pytest.fixture()
def fresh_rng():
    """Per-test RNG for tests that consume randomness."""
    return np.random.default_rng(12345)
