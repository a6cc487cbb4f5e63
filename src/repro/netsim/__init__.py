"""China-like network substrate.

Models the parts of the Chinese Internet that the paper's findings hinge
on: the small set of giant per-ISP autonomous systems, the degraded
cross-ISP paths (the "ISP barrier"), CIDR-based IP-to-ISP resolution (the
role APNIC plays for the real ODR), and residential access links.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ISP": "repro.netsim.isp",
    "MAJOR_ISPS": "repro.netsim.isp",
    "IspRegistry": "repro.netsim.isp",
    "default_registry": "repro.netsim.isp",
    "IpAllocator": "repro.netsim.ip",
    "IpResolver": "repro.netsim.ip",
    "ChinaTopology": "repro.netsim.topology",
    "PathQuality": "repro.netsim.topology",
    "AccessLink": "repro.netsim.link",
    "AccessTechnology": "repro.netsim.link",
    "AccessBandwidthModel": "repro.netsim.link",
})
