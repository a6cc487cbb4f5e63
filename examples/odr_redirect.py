#!/usr/bin/env python3
"""The section 6 study: ODR against every baseline strategy.

First walks a few illustrative users through the ODR web service
(showing the Figure 15 decisions and their rationales), then replays the
full benchmark sample through ODR and the four baselines and prints the
bottleneck scoreboard.

Run with::

    python examples/odr_redirect.py
"""

from repro import (
    AlwaysHybridStrategy,
    AmsStrategy,
    CloudConfig,
    CloudOnlyStrategy,
    OdrMiddleware,
    OdrService,
    OdrStrategy,
    ReplayEvaluator,
    SmartApOnlyStrategy,
    WorkloadConfig,
    WorkloadGenerator,
    XuanfengCloud,
    sample_benchmark_requests,
)
from repro.analysis.tables import TextTable
from repro.ap import HIWIFI_1S, NEWIFI
from repro.core import SmartApInfo, UserContext
from repro.sim.clock import kbps, mbps
from repro.storage import Filesystem, USB_FLASH_8GB
from repro.workload.popularity import PopularityClass

SCALE = 0.01


def showcase_decisions(service: OdrService, workload) -> None:
    """A few users, a few files: what does ODR tell each of them?"""
    by_class = {}
    for record in workload.catalog:
        by_class.setdefault(record.popularity_class, record)
        if record.popularity_class is PopularityClass.HIGHLY_POPULAR \
                and record.is_p2p:
            by_class["hot-p2p"] = record
    hot = by_class.get("hot-p2p",
                       by_class[PopularityClass.HIGHLY_POPULAR])
    cold = by_class[PopularityClass.UNPOPULAR]

    scenarios = [
        ("fiber user, NTFS-flash Newifi, hot P2P file",
         UserContext(workload.users[0].ip_address, mbps(20.0),
                     SmartApInfo(NEWIFI, USB_FLASH_8GB, Filesystem.NTFS)),
         hot),
        ("rural user on a 0.5 Mbps line, HiWiFi, cached file",
         UserContext(workload.users[1].ip_address, kbps(62.5),
                     SmartApInfo.default_for(HIWIFI_1S)),
         cold),
        ("no smart AP, unpopular file",
         UserContext(workload.users[2].ip_address, mbps(4.0)),
         cold),
    ]
    for label, context, record in scenarios:
        response = service.handle_request(context, record.source_url)
        print(f"* {label}\n    -> {response.explanation}\n")


def scoreboard(workload, cloud) -> None:
    sample = sample_benchmark_requests(workload, 1000)
    evaluator = ReplayEvaluator(workload.catalog, cloud.database)
    strategies = [
        OdrStrategy(OdrMiddleware(cloud.database)),
        CloudOnlyStrategy(cloud.database),
        SmartApOnlyStrategy(),
        AlwaysHybridStrategy(cloud.database),
        AmsStrategy(cloud.database),
    ]
    results = {strategy.name: evaluator.replay(sample, strategy)
               for strategy in strategies}
    baseline = results["cloud-only"]

    table = TextTable(
        ["strategy", "impeded (B1)", "cloud bytes (B2)",
         "unpopular fail (B3)", "write-path limited (B4)",
         "fetch median KBps"],
        ["", ".1%", ".0%", ".1%", ".1%", ".0f"])
    for name, result in results.items():
        table.add_row(
            name, result.impeded_share,
            result.cloud_bandwidth_bytes /
            max(baseline.cloud_bandwidth_bytes, 1.0),
            result.unpopular_failure_ratio,
            result.write_path_limited_share,
            result.fetch_speed_cdf().median / 1e3)
    print(table.render())
    odr = results["odr"]
    print(f"\nODR route mix: {odr.route_mix()}")
    print(f"ODR wrong decisions: {odr.wrong_decision_share:.2%} "
          f"(paper: <1%)")


def main() -> None:
    workload = WorkloadGenerator(WorkloadConfig(scale=SCALE)).generate()
    cloud = XuanfengCloud(CloudConfig(scale=SCALE))
    cloud.run(workload)   # populates the content DB and the cache state

    print("== ODR decision showcase ==\n")
    showcase_decisions(OdrService(cloud.database), workload)

    print("== strategy scoreboard over the 1000-request sample ==\n")
    scoreboard(workload, cloud)


if __name__ == "__main__":
    main()
