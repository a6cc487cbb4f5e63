"""The cloud-based offline-downloading system (Xuanfeng model).

Three server clusters plus a metadata database, exactly as the paper's
Figure 3 describes: pre-downloading servers (VM pre-downloaders at
20 Mbps each), storage servers (an MD5-deduplicated LRU pool), and
uploading servers deployed inside the four major ISPs, with privileged
network paths to same-ISP users and admission control that rejects new
fetches rather than degrade active ones.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CloudConfig": "repro.cloud.config",
    "ContentDatabase": "repro.cloud.database",
    "FileMetadata": "repro.cloud.database",
    "CloudStoragePool": "repro.cloud.storagepool",
    "UploadingServers": "repro.cloud.upload",
    "PathChoice": "repro.cloud.upload",
    "FetchSpeedModel": "repro.cloud.fetch",
    "PreDownloaderFleet": "repro.cloud.predownload",
    "XuanfengCloud": "repro.cloud.system",
    "CloudRunResult": "repro.cloud.system",
    "TaskResult": "repro.cloud.system",
})
