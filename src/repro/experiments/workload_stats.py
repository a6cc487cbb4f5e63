"""Section 3 text statistics: type mix, protocol mix, popularity classes."""

from __future__ import annotations

from collections import Counter

from repro import paper
from repro.analysis.tables import TextTable
from repro.experiments.base import ExperimentReport, register
from repro.experiments.context import ExperimentContext, default_context
from repro.transfer.protocols import Protocol
from repro.workload.filetypes import FileType
from repro.workload.popularity import PopularityClass


@register("workload_stats")
def run(context: ExperimentContext | None = None) -> ExperimentReport:
    context = context or default_context()
    workload = context.workload
    report = ExperimentReport(
        experiment_id="workload_stats",
        title="Workload characteristics (section 3 text)")

    # Counted by file, not by request: the requests of a generated or
    # mapped week are columns, and building every row would cost more
    # than the rest of this driver.
    total = len(workload.requests)
    type_counts: Counter = Counter()
    protocol_counts: Counter = Counter()
    files, per_file = workload.requests_per_file()
    for record, count in zip(files, per_file.tolist()):
        type_counts[record.file_type] += count
        protocol_counts[record.protocol] += count
    report.add("video request share", paper.VIDEO_REQUEST_SHARE,
               type_counts[FileType.VIDEO] / total)
    report.add("software request share", paper.SOFTWARE_REQUEST_SHARE,
               type_counts[FileType.SOFTWARE] / total)

    report.add("BitTorrent share", paper.BITTORRENT_SHARE,
               protocol_counts[Protocol.BITTORRENT] / total)
    report.add("eMule share", paper.EMULE_SHARE,
               protocol_counts[Protocol.EMULE] / total)
    report.add("HTTP/FTP share", paper.HTTP_FTP_SHARE,
               (protocol_counts[Protocol.HTTP] +
                protocol_counts[Protocol.FTP]) / total)

    file_shares = workload.catalog.class_file_shares()
    request_shares = workload.catalog.class_request_shares()
    report.add("unpopular file share", paper.UNPOPULAR_FILE_SHARE,
               file_shares[PopularityClass.UNPOPULAR])
    report.add("highly popular file share",
               paper.HIGHLY_POPULAR_FILE_SHARE,
               file_shares[PopularityClass.HIGHLY_POPULAR])
    report.add("unpopular request share", paper.UNPOPULAR_REQUEST_SHARE,
               request_shares[PopularityClass.UNPOPULAR])
    report.add("highly popular request share",
               paper.HIGHLY_POPULAR_REQUEST_SHARE,
               request_shares[PopularityClass.HIGHLY_POPULAR])

    table = TextTable(["class", "file share", "request share"],
                      ["", ".4f", ".4f"])
    for klass in PopularityClass:
        table.add_row(klass.value, file_shares[klass],
                      request_shares[klass])
    report.table = table.render()
    report.data["tasks"] = total
    report.data["files"] = len(workload.catalog)
    report.data["users"] = len(workload.users)
    return report
