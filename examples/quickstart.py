#!/usr/bin/env python3
"""Quickstart: synthesise a small week, run the cloud, ask ODR for advice.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CloudConfig,
    OdrService,
    WorkloadConfig,
    WorkloadGenerator,
    XuanfengCloud,
)
from repro.core import SmartApInfo, UserContext
from repro.ap import NEWIFI
from repro.sim.clock import format_duration, mbps

SCALE = 0.003   # ~1,700 files, ~12,000 tasks: runs in a few seconds


def main() -> None:
    # 1. A synthetic measurement week (the paper's proprietary trace,
    #    statistically reproduced).
    workload = WorkloadGenerator(WorkloadConfig(scale=SCALE)).generate()
    print(f"synthetic week: {len(workload.requests)} tasks, "
          f"{len(workload.catalog)} unique files, "
          f"{len(workload.users)} users")

    # 2. Replay it through the cloud-based system.
    cloud = XuanfengCloud(CloudConfig(scale=SCALE))
    result = cloud.run(workload)
    print(f"cache hit ratio:       {result.cache_hit_ratio:.1%}")
    print(f"pre-download failures: {result.request_failure_ratio:.1%} "
          f"of requests")
    fetch = result.fetch_speed_cdf()
    print(f"fetch speed:           median "
          f"{fetch.median / 1e3:.0f} KBps, mean "
          f"{fetch.mean / 1e3:.0f} KBps")
    delay = result.e2e_delay_cdf()
    print(f"end-to-end delay:      median "
          f"{format_duration(delay.median)}, mean "
          f"{format_duration(delay.mean)}")

    # 3. Ask the ODR middleware where a download should run.
    service = OdrService(cloud.database)
    some_file = max(workload.catalog, key=lambda f: f.weekly_demand)
    user = UserContext(ip_address=workload.users[0].ip_address,
                       access_bandwidth=mbps(20.0),
                       smart_ap=SmartApInfo.default_for(NEWIFI))
    response = service.handle_request(user, some_file.source_url)
    print(f"\nODR consulted for the most popular file "
          f"({some_file.weekly_demand} requests/week, "
          f"{some_file.protocol.value}):")
    print(f"  {response.explanation}")


if __name__ == "__main__":
    main()
