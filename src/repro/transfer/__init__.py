"""File-transfer substrate: protocols, data sources, download sessions.

The paper's four bottlenecks all originate here or interact with this
layer: P2P swarms with too few seeds stall pre-downloads (Bottleneck 3),
tit-for-tat overhead doubles P2P traffic, HTTP/FTP servers drop
non-resumable connections, and the download-session stagnation rule turns
stalls into the failures the traces record.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Protocol": "repro.transfer.protocols",
    "ProtocolModel": "repro.transfer.protocols",
    "default_protocol_model": "repro.transfer.protocols",
    "Swarm": "repro.transfer.swarm",
    "SwarmModel": "repro.transfer.swarm",
    "ContentSource": "repro.transfer.source",
    "P2PSwarmSource": "repro.transfer.source",
    "HttpFtpSource": "repro.transfer.source",
    "SourceModel": "repro.transfer.source",
    "AttemptDraw": "repro.transfer.source",
    "DownloadSession": "repro.transfer.session",
    "DownloadOutcome": "repro.transfer.session",
    "SessionLimits": "repro.transfer.session",
    "STAGNATION_TIMEOUT": "repro.transfer.session",
    "LedbatController": "repro.transfer.ledbat",
    "BottleneckLink": "repro.transfer.ledbat",
    "simulate_scavenging": "repro.transfer.ledbat",
})
