"""The synthetic user population.

Users carry the attributes the traces key on: an IP address (hence a home
ISP), a ground-truth access bandwidth, and whether they reported that
bandwidth to the service ("access bandwidth (if available)", paper
section 3; footnote 2 notes unreported bandwidths were approximated from
peak fetch speeds).

ISP shares are those of :mod:`repro.netsim.isp`: ~9.6% of users sit
outside the four majors, reproducing the ISP-barrier share of impeded
fetches, and the bandwidth model puts ~10-11% of lines below 1 Mbps,
reproducing the low-access-bandwidth share.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.netsim.ip import IpAllocator, dotted_quad
from repro.netsim.isp import IspRegistry, default_registry
from repro.netsim.link import AccessBandwidthModel
from repro.workload.columnar import CachedRows, ColumnTable
from repro.workload.records import User


class UserPopulation(CachedRows, Sequence):
    """The user universe of one synthetic week: the columns of a
    ``users.col`` file (:class:`~repro.workload.columnar.CachedRows`),
    whose rows are built on first access (``population[i]``)."""

    record_type = User

    def __init__(self, registry: Optional[IspRegistry] = None,
                 bandwidth_model: Optional[AccessBandwidthModel] = None,
                 report_probability: float = 0.7,
                 table: Optional[ColumnTable] = None):
        if not 0.0 <= report_probability <= 1.0:
            raise ValueError("report_probability must be a probability")
        self.registry = registry or default_registry()
        self.bandwidth_model = bandwidth_model or AccessBandwidthModel()
        self.report_probability = report_probability
        super().__init__(table)

    def generate(self, count: int, rng: np.random.Generator) -> None:
        """Append ``count`` users.  Per user, in stream order: its home
        ISP, its access bandwidth and whether it reports it.  User ``i``
        is ``u`` plus ``i`` zero-padded to 8 digits, and each ISP's users
        take its addresses in row order, as ``IpAllocator`` deals them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not count:   # np.char.zfill refuses an empty array
            return
        order = self.registry.isps()
        code_of = {isp: code for code, isp in enumerate(order)}
        sample_isp = self.registry.sample_isp
        sample_downstream = self.bandwidth_model.sample_downstream
        random = rng.random
        report_probability = self.report_probability
        codes, bandwidths, reports = [], [], []
        for _ in range(count):
            codes.append(code_of[sample_isp(rng)])
            bandwidths.append(sample_downstream(rng))
            reports.append(random() < report_probability)
        codes = np.array(codes)
        names = np.array([isp.value.encode() for isp in order])
        # An ISP's next address follows those its earlier users hold.
        addresses = np.zeros(count, dtype=np.int64)
        allocator = IpAllocator(self.registry)
        for code, isp in enumerate(order):
            mine = codes == code
            addresses[mine] = allocator.addresses(
                isp, int(np.count_nonzero(self.column("isp") == names[code])),
                int(np.count_nonzero(mine)))
        start = len(self)
        self._append({
            "user_id": (np.char.add(b"u", np.char.zfill(
                np.arange(start, start + count).astype("S"), 8)), None),
            "ip_address": (np.array(
                list(map(dotted_quad, addresses.tolist())), dtype="S"), None),
            "isp": (names[codes], None),
            "access_bandwidth": (np.array(bandwidths, dtype="<f8"), None),
            "reports_bandwidth": (np.array(reports, dtype="|b1"), None),
        })

    def __getitem__(self, index):
        return self.rows()[index]

    def sample_user(self, rng: np.random.Generator) -> User:
        if not len(self):
            raise RuntimeError("population is empty; call generate() first")
        return self.row(int(rng.integers(len(self))))
