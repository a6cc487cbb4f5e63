"""Storage substrate: devices, filesystems, write paths, caches.

Bottleneck 4 of the paper lives here: "some types of storage devices
(e.g., USB flash drive) and filesystems (e.g., NTFS) do not fit the
pattern of frequent, small data writes during the pre-downloading
process."  The write-path model reproduces the paper's Table 2 matrix of
max pre-downloading speeds and iowait ratios from first principles (a
CPU stage and an IO stage in series).

The cloud side's collaborative caching also lives here: an LRU cache and
an MD5 content-addressed dedup store.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DeviceKind": "repro.storage.device",
    "StorageDevice": "repro.storage.device",
    "SD_CARD_8GB": "repro.storage.device",
    "USB_FLASH_8GB": "repro.storage.device",
    "USB_HDD_5400": "repro.storage.device",
    "SATA_HDD_1TB": "repro.storage.device",
    "Filesystem": "repro.storage.filesystem",
    "WritePath": "repro.storage.writepath",
    "WritePathProfile": "repro.storage.writepath",
    "LRUCache": "repro.storage.lru",
    "ContentStore": "repro.storage.dedup",
    "content_id": "repro.storage.dedup",
})
