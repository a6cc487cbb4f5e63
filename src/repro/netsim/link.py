"""Residential access links and the user bandwidth distribution.

Two facts from the paper anchor this model:

* the benchmark testbed uses Unicom ADSL lines with "20 Mbps (= 2.5 MBps)
  of Internet access bandwidth" (section 5.1) -- the high end of China's
  fixed broadband in 2015;
* 10.8% of Xuanfeng fetch processes are limited by low user-side access
  bandwidth, defined as < 125 KBps = 1 Mbps (section 4.2).

:class:`AccessBandwidthModel` therefore samples a mixture: a lognormal
body spanning the 1-20 Mbps broadband range plus an explicit low-speed
tail calibrated to put ~11% of users below 1 Mbps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.clock import kbps, mbps

if TYPE_CHECKING:
    import numpy as np


class AccessTechnology(enum.Enum):
    """Access technology of a modelled subscriber line."""

    ADSL = "adsl"
    FIBER = "fiber"
    CABLE = "cable"
    MOBILE = "mobile"


@dataclass(frozen=True)
class AccessLink:
    """One subscriber's access link: the last-hop bandwidth bound."""

    technology: AccessTechnology
    downstream: float  # B/s
    upstream: float    # B/s

    def __post_init__(self):
        if self.downstream <= 0 or self.upstream <= 0:
            raise ValueError("link rates must be positive")

    @property
    def is_low_bandwidth(self) -> bool:
        """Below the paper's 1 Mbps (125 KBps) HD-streaming threshold."""
        return self.downstream < kbps(125.0)


#: The testbed line used in section 5: 20 Mbps down Unicom ADSL.
TESTBED_ADSL = AccessLink(AccessTechnology.ADSL,
                          downstream=mbps(20.0), upstream=mbps(1.0))

#: TCP goodput over ADSL: ATM cell tax + PPPoE/TCP headers eat ~5% of
#: the sync rate, which is why a 20 Mbps (2.5 MBps) line tops out at the
#: paper's 2.37 MBps.
ADSL_GOODPUT = 0.95


def adsl_goodput(link: AccessLink) -> float:
    """Achievable TCP goodput of an ADSL line's downstream, in B/s."""
    return link.downstream * ADSL_GOODPUT


class AccessBandwidthModel:
    """Sampler of subscriber downstream bandwidth.

    Parameters
    ----------
    low_tail_fraction:
        Probability mass explicitly placed below 1 Mbps; the paper's
        10.8% "low user-side access bandwidth" share (plus margin for
        mass the lognormal body itself puts below the threshold) implies
        roughly 0.10 here.
    body_median / body_sigma:
        Lognormal parameters of the broadband body, in B/s / nats.
    """

    def __init__(self, low_tail_fraction: float = 0.095,
                 body_median: float = mbps(7.2), body_sigma: float = 1.0,
                 max_downstream: float = mbps(50.0)):
        import numpy as np
        if not 0.0 <= low_tail_fraction < 1.0:
            raise ValueError("low_tail_fraction must be in [0, 1)")
        self.low_tail_fraction = low_tail_fraction
        self.body_median = body_median
        self.body_sigma = body_sigma
        self.max_downstream = max_downstream
        self._log_tail_low = float(np.log(mbps(0.064)))
        self._log_tail_span = float(np.log(mbps(1.0))) - self._log_tail_low

    def sample_downstream(self, rng: np.random.Generator) -> float:
        """Draw one subscriber's downstream bandwidth in B/s
        (``sigma * standard_normal()`` is ``normal(0.0, sigma)``)."""
        import numpy as np
        if rng.random() < self.low_tail_fraction:
            # Narrowband / congested-rural tail: 64 Kbps .. 1 Mbps,
            # log-uniform so very slow lines exist but do not dominate.
            return float(np.exp(self._log_tail_low
                                + self._log_tail_span * rng.random()))
        draw = self.body_median * np.exp(
            self.body_sigma * rng.standard_normal())
        return float(min(draw, self.max_downstream))

    def sample_link(self, rng: np.random.Generator) -> AccessLink:
        """Draw a full access link; upstream is a realistic ADSL fraction."""
        downstream = self.sample_downstream(rng)
        technology = (AccessTechnology.FIBER if downstream >= mbps(20.0)
                      else AccessTechnology.ADSL)
        upstream = max(mbps(0.032), downstream / 16.0)
        return AccessLink(technology, downstream=downstream,
                          upstream=upstream)
