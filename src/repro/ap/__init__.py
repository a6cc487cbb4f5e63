"""Smart AP (access point) based offline downloading.

Models the three devices the paper benchmarks -- HiWiFi 1S, MiWiFi, and
Newifi -- as OpenWrt boxes that pre-download with wget/aria2 onto an
attached storage device, then serve the file over the LAN.  Bottlenecks 3
(seed scarcity kills unpopular-file pre-downloads) and 4 (the storage
write path throttles throughput) both materialise here.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ApHardware": "repro.ap.models",
    "HIWIFI_1S": "repro.ap.models",
    "MIWIFI": "repro.ap.models",
    "NEWIFI": "repro.ap.models",
    "BENCHMARKED_APS": "repro.ap.models",
    "OpenWrtSystem": "repro.ap.openwrt",
    "DownloadClient": "repro.ap.openwrt",
    "SmartAP": "repro.ap.smartap",
    "ApPreDownloadResult": "repro.ap.smartap",
    "ApBenchmarkRig": "repro.ap.benchrig",
    "ApBenchmarkReport": "repro.ap.benchrig",
})
