"""Unbiased benchmark sampling (paper section 5.1).

The smart-AP benchmarks replay "1000 real offline downloading requests
issued by Unicom users" sampled from the workload trace; each selected
record must carry the user's access-bandwidth information (so the replay
can throttle the AP's line to match), and user ID / IP / request time are
ignored during replay.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.isp import ISP
from repro.workload.generator import Workload
from repro.workload.records import RequestRecord


def sample_benchmark_requests(workload: Workload, count: int = 1000,
                              isp: ISP = ISP.UNICOM,
                              rng: np.random.Generator | None = None,
                              seed: int = 20150301) -> list[RequestRecord]:
    """Randomly sample ``count`` replayable requests from ``isp`` users.

    Only requests whose user reports access bandwidth qualify (the
    replay needs it).  Sampling is without replacement when the eligible pool is
    large enough, mirroring the paper's unbiased sample.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    # Eligibility is a property of the user, so it is decided once per
    # user off the users' columns and read off the request columns;
    # only the sampled rows are built.
    columns = workload.request_columns()
    users = columns.users
    eligible_user = users.column("reports_bandwidth") \
        & (users.column("isp") == isp.value.encode())
    eligible = np.flatnonzero(eligible_user[columns.user_rows])
    if not len(eligible):
        raise ValueError(f"workload has no replayable requests from {isp}")
    if len(eligible) >= count:
        indices = rng.choice(len(eligible), size=count, replace=False)
    else:
        indices = rng.choice(len(eligible), size=count, replace=True)
    requests = workload.requests
    return [requests[int(eligible[index])] for index in sorted(indices)]
