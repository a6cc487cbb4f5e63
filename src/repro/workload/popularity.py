"""File popularity: classes, weekly-demand sampling, and rank curves.

The paper defines three popularity classes by weekly download count
(section 4.1): unpopular ``[0, 7)``, popular ``[7, 84]``, highly popular
``(84, inf)``, with the skew that drives everything else in the study:

* 93.2% of files are unpopular but draw only 36% of requests;
* 0.84% of files are highly popular yet draw 39% of requests.

We sample each file's weekly demand from a three-component mixture whose
class shares and per-class means reproduce those four numbers exactly in
expectation (mean demand 7.25 requests/file, matching 4.08 M tasks over
563 k files):

* unpopular: truncated geometric on [1, 6], mean ~2.8;
* popular: truncated discrete power law on [7, 84], mean ~30;
* highly popular: discretised Pareto tail from 85, mean ~337.

The resulting rank-popularity curve is Zipf-like with the SE (stretched
exponential) model fitting better at the head -- the paper's Figure 6/7
comparison -- because the bounded Pareto head is flatter than a pure
power law (the "fetch-at-most-once" effect).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class PopularityClass(enum.Enum):
    """Weekly-demand class of a file."""

    UNPOPULAR = "unpopular"
    POPULAR = "popular"
    HIGHLY_POPULAR = "highly_popular"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Class thresholds in downloads per week (paper section 4.1).
UNPOPULAR_BELOW = 7
HIGHLY_POPULAR_ABOVE = 84


def classify(weekly_demand: float) -> PopularityClass:
    """Classify a weekly download count per the paper's definitions."""
    if weekly_demand < UNPOPULAR_BELOW:
        return PopularityClass.UNPOPULAR
    if weekly_demand <= HIGHLY_POPULAR_ABOVE:
        return PopularityClass.POPULAR
    return PopularityClass.HIGHLY_POPULAR


def class_codes(demand: np.ndarray) -> np.ndarray:
    """Per weekly demand, the index of its class in
    ``tuple(PopularityClass)``, as :func:`classify` classifies it."""
    return (demand >= UNPOPULAR_BELOW).astype(int) \
        + (demand > HIGHLY_POPULAR_ABOVE)


def class_shares(demand: np.ndarray, weights: np.ndarray | None = None
                 ) -> dict[PopularityClass, float]:
    """The share of ``weights`` (of files, when None) in each class of
    the weekly ``demand``."""
    import numpy as np
    totals = np.bincount(class_codes(demand), weights,
                         len(PopularityClass)).tolist()
    total = max(sum(totals), 1)
    return {klass: part / total
            for klass, part in zip(PopularityClass, totals)}


@lru_cache(maxsize=None)
def _geometric_table(p: float) -> tuple[tuple, tuple]:
    """(support, normalised CDF) of the truncated geometric on [1, 6].

    The CDF is built exactly the way ``Generator.choice`` builds it
    internally (cumsum of the normalised weights, renormalised by the
    last entry), so one ``bisect_right`` over one uniform draw
    consumes the RNG stream identically to the original per-call
    ``rng.choice``.
    """
    import numpy as np
    weights = np.array([(1 - p) ** (k - 1)
                        for k in range(1, UNPOPULAR_BELOW)])
    probs = weights / weights.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return tuple(range(1, UNPOPULAR_BELOW)), tuple(cdf.tolist())


@lru_cache(maxsize=None)
def _powerlaw_table(exponent: float) -> tuple[tuple, tuple]:
    """(support, normalised CDF) of the truncated power law on [7, 84]."""
    import numpy as np
    support = np.arange(UNPOPULAR_BELOW, HIGHLY_POPULAR_ABOVE + 1)
    weights = support.astype(float) ** (-exponent)
    probs = weights / weights.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return tuple(support.tolist()), tuple(cdf.tolist())


@dataclass(frozen=True)
class PopularityModel:
    """Sampler of per-file weekly demand."""

    unpopular_file_share: float = 0.932
    highly_popular_file_share: float = 0.0084
    #: Truncated-geometric success probability; gives mean ~2.80 on [1,6],
    #: so unpopular files carry 0.932*2.80/7.25 = 36% of requests.
    unpopular_geom_p: float = 0.22
    #: Power-law exponent of the popular class on [7, 84]; mean ~30.3, so
    #: popular files carry ~25% of requests.
    popular_exponent: float = 1.0
    #: Lognormal tail of the highly popular class, truncated to
    #: [85, max_weekly_demand].  Median 180 / sigma 1.0 give a truncated
    #: mean ~336 (carrying ~39% of requests) with far less small-sample
    #: variance than the equivalent Pareto tail, and a flatter head --
    #: the fetch-at-most-once shape that favours the SE fit (Figure 7).
    highly_popular_median: float = 158.0
    highly_popular_sigma: float = 1.0
    #: Tail cap keeps a single file from dominating a small-scale
    #: synthetic week (the real top-file share is a fraction of a percent).
    max_weekly_demand: int = 20000

    @property
    def popular_file_share(self) -> float:
        return 1.0 - self.unpopular_file_share - \
            self.highly_popular_file_share

    def __post_init__(self):
        if self.popular_file_share <= 1e-9:
            raise ValueError("class shares leave no popular mass")
        if not 0 < self.unpopular_geom_p < 1:
            raise ValueError("unpopular_geom_p must be in (0, 1)")
        if self.highly_popular_median <= 0 or self.highly_popular_sigma <= 0:
            raise ValueError("highly popular tail parameters must be "
                             "positive")

    # -- class-level sampling -------------------------------------------------

    def sample_class(self, rng: np.random.Generator) -> PopularityClass:
        draw = rng.random()
        if draw < self.unpopular_file_share:
            return PopularityClass.UNPOPULAR
        if draw < self.unpopular_file_share + self.popular_file_share:
            return PopularityClass.POPULAR
        return PopularityClass.HIGHLY_POPULAR

    def sample_weekly_demand(self, rng: np.random.Generator,
                             klass: PopularityClass | None = None) -> int:
        """Draw one file's weekly demand (>= 1).  ``bisect_right`` makes
        the comparisons ``searchsorted(side="right")`` makes."""
        klass = klass or self.sample_class(rng)
        if klass is PopularityClass.UNPOPULAR:
            support, cdf = _geometric_table(self.unpopular_geom_p)
        elif klass is PopularityClass.POPULAR:
            support, cdf = _powerlaw_table(self.popular_exponent)
        else:
            return self._sample_highly_popular(rng)
        return support[min(bisect_right(cdf, rng.random()),
                           len(support) - 1)]

    def _sample_highly_popular(self, rng: np.random.Generator) -> int:
        import numpy as np
        lo = HIGHLY_POPULAR_ABOVE + 1
        while True:
            draw = self.highly_popular_median * float(
                np.exp(self.highly_popular_sigma * rng.standard_normal()))
            if lo <= draw <= self.max_weekly_demand:
                return int(np.floor(draw))

    # -- expectations (for tests and calibration) ------------------------------

    def class_mean_demands(self) -> dict[PopularityClass, float]:
        """Analytic mean weekly demand per class."""
        import numpy as np
        from scipy.stats import norm

        p = self.unpopular_geom_p
        ks = np.arange(1, UNPOPULAR_BELOW)
        wu = (1 - p) ** (ks - 1)
        mean_u = float((ks * wu).sum() / wu.sum())

        support = np.arange(UNPOPULAR_BELOW, HIGHLY_POPULAR_ABOVE + 1)
        wp = support.astype(float) ** (-self.popular_exponent)
        mean_p = float((support * wp).sum() / wp.sum())

        # Truncated-lognormal mean on [lo, hi]; the -0.5 accounts for the
        # floor() discretisation in the sampler.
        med, sigma = self.highly_popular_median, self.highly_popular_sigma
        lo, hi = HIGHLY_POPULAR_ABOVE + 1, self.max_weekly_demand
        a, b = np.log(lo / med) / sigma, np.log(hi / med) / sigma
        mass = norm.cdf(b) - norm.cdf(a)
        mean_h = float(med * np.exp(sigma ** 2 / 2) *
                       (norm.cdf(b - sigma) - norm.cdf(a - sigma)) /
                       mass) - 0.5

        return {PopularityClass.UNPOPULAR: mean_u,
                PopularityClass.POPULAR: mean_p,
                PopularityClass.HIGHLY_POPULAR: mean_h}

    def expected_mean_demand(self) -> float:
        """Analytic mean weekly demand per file, ~7.25 at defaults."""
        means = self.class_mean_demands()
        return (self.unpopular_file_share *
                means[PopularityClass.UNPOPULAR] +
                self.popular_file_share * means[PopularityClass.POPULAR] +
                self.highly_popular_file_share *
                means[PopularityClass.HIGHLY_POPULAR])

    def expected_request_shares(self) -> dict[PopularityClass, float]:
        """Analytic share of requests per class, ~(0.36, 0.25, 0.39)."""
        means = self.class_mean_demands()
        shares = {PopularityClass.UNPOPULAR: self.unpopular_file_share,
                  PopularityClass.POPULAR: self.popular_file_share,
                  PopularityClass.HIGHLY_POPULAR:
                      self.highly_popular_file_share}
        total = self.expected_mean_demand()
        return {klass: shares[klass] * means[klass] / total
                for klass in PopularityClass}


def rank_popularity_curve(demands: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Sorted (rank, popularity) arrays for Figure 6/7 style fitting."""
    import numpy as np
    sorted_demands = np.sort(np.asarray(demands))[::-1]
    ranks = np.arange(1, len(sorted_demands) + 1)
    return ranks, sorted_demands
