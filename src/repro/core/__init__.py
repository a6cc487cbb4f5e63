"""ODR -- the Offline Downloading Redirector (the paper's contribution).

ODR is a lightweight middleware that takes a user's offline-downloading
request plus auxiliary information (IP, access bandwidth, smart-AP
hardware, storage device/filesystem), queries the cloud's content
database for the file's popularity, and redirects the request to
whichever backend dodges the four measured bottlenecks:

* Bottleneck 1 -- impeded cloud fetches (ISP barrier / low access bw);
* Bottleneck 2 -- cloud upload bandwidth wasted on highly popular files;
* Bottleneck 3 -- smart APs failing on unpopular files;
* Bottleneck 4 -- storage write paths throttling AP pre-downloads.

ODR never moves file bytes itself; it only answers "where should this
download run" (Figure 15's state machine).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Action": "repro.core.decision",
    "DataSource": "repro.core.decision",
    "Decision": "repro.core.decision",
    "UserContext": "repro.core.auxiliary",
    "SmartApInfo": "repro.core.auxiliary",
    "BottleneckDetector": "repro.core.bottlenecks",
    "OdrConfig": "repro.core.odr",
    "OdrMiddleware": "repro.core.odr",
    "OdrService": "repro.core.service",
    "OdrResponse": "repro.core.service",
    "Strategy": "repro.core.strategies",
    "CloudOnlyStrategy": "repro.core.strategies",
    "SmartApOnlyStrategy": "repro.core.strategies",
    "AlwaysHybridStrategy": "repro.core.strategies",
    "AmsStrategy": "repro.core.strategies",
    "OdrStrategy": "repro.core.strategies",
    "ReplayEvaluator": "repro.core.replay",
    "OdrReplayResult": "repro.core.replay",
    "RouteOutcome": "repro.core.replay",
    "BbaConfig": "repro.core.bba",
    "simulate_playback": "repro.core.bba",
    "streaming_verdict": "repro.core.bba",
    "DeferrableFlow": "repro.core.prestaging",
    "PrestagingScheduler": "repro.core.prestaging",
    "deferrable_from_flows": "repro.core.prestaging",
})
