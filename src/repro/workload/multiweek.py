"""Multi-week workload evolution.

The measured week is one frame of a running film: the cloud's storage
pool and content database carry state from every earlier week, which is
why 89% of requests hit the cache.  This module generates *successive*
weeks -- demands decay, some files go cold, new content arrives -- so a
persistent :class:`repro.cloud.XuanfengCloud` instance can be driven
across them and the cache-warming dynamics observed directly
(hit ratios rise, failure ratios fall, week over week).

Evolution model per week:

* every existing file's demand is scaled by a lognormal decay factor
  (median ``demand_decay``) -- most content cools, a few items resurge;
* files whose demand decays to zero stop being requested (they stay in
  the catalog: dead links are still in the cache);
* ``churn`` * (original file count) brand-new files enter with demands
  drawn from the popularity model -- the novelty stream;
* the user population grows by ``user_growth`` per week.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.obs.registry import AnyRegistry, NOOP
from repro.sim.randomness import RngFactory
from repro.workload.arrivals import ArrivalProcess
from repro.workload.catalog import FileCatalog
from repro.workload.generator import (
    GeneratedRequests,
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
    build_requests,
)
from repro.workload.users import UserPopulation


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of the week-over-week dynamics."""

    churn: float = 0.20           # new files per week / original count
    #: Median weekly demand multiplier.  With decay_sigma=0.8 the *mean*
    #: multiplier is 0.58 * exp(0.32) ~= 0.80, so combined with 20%
    #: churn the total request volume stays roughly stationary.
    demand_decay: float = 0.58
    decay_sigma: float = 0.8      # lognormal spread of the multiplier
    user_growth: float = 0.03     # new users per week / original count

    def __post_init__(self):
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must be in [0, 1]")
        if self.demand_decay <= 0:
            raise ValueError("demand_decay must be positive")
        if self.user_growth < 0:
            raise ValueError("user_growth must be non-negative")


class MultiWeekGenerator:
    """Generates week 1 like :class:`WorkloadGenerator`, then evolves."""

    def __init__(self, config: WorkloadConfig = WorkloadConfig(),
                 evolution: EvolutionConfig = EvolutionConfig(),
                 arrivals: Optional[ArrivalProcess] = None):
        self.config = config
        self.evolution = evolution
        self.arrivals = arrivals or ArrivalProcess(
            horizon=config.horizon)
        self._rng_factory = RngFactory(config.seed)
        self._catalog: Optional[FileCatalog] = None
        self._population: Optional[UserPopulation] = None
        self._week = 0

    def next_week(self) -> Workload:
        """Produce the next week's workload.

        Each returned :class:`Workload` carries a *snapshot* of the
        catalog and the users, so earlier weeks stay valid after later
        evolution changes the live state.
        """
        if self._catalog is None:
            generator = WorkloadGenerator(self.config,
                                          arrivals=self.arrivals)
            workload = generator.generate()
            self._catalog = generator.catalog
            self._population = generator.population
            self._week = 1
            return self._snapshot(workload.requests)
        self._week += 1
        return self._evolve_week()

    def _snapshot(self, requests: GeneratedRequests) -> Workload:
        """The week over copies of the live catalog and users; its
        requests are rebound to them row for row, so the week reads the
        demands it was generated with after later weeks evolve them."""
        assert self._catalog is not None and self._population is not None
        catalog = self._catalog.copy()
        users = self._population.copy()
        return Workload(config=self.config, catalog=catalog, users=users,
                        requests=requests.bind(catalog, users))

    def weeks(self, count: int) -> Iterator[Workload]:
        """Yield ``count`` consecutive weeks."""
        if count <= 0:
            raise ValueError("count must be positive")
        for _ in range(count):
            yield self.next_week()

    # -- evolution ----------------------------------------------------------------

    def _evolve_week(self) -> Workload:
        assert self._catalog is not None
        assert self._population is not None
        label = f"week-{self._week}"
        decay_rng = self._rng_factory.stream(f"{label}-decay")
        novelty_rng = self._rng_factory.stream(f"{label}-novelty")
        growth_rng = self._rng_factory.stream(f"{label}-growth")

        # Cool existing demand (``sigma * standard_normal()`` is the
        # value ``normal(0.0, sigma)`` draws).
        evolution = self.evolution
        demands = self._catalog.demands().tolist()
        for row, demand in enumerate(demands):
            if demand <= 0:
                continue
            factor = evolution.demand_decay * float(np.exp(
                evolution.decay_sigma * decay_rng.standard_normal()))
            demands[row] = int(np.floor(demand * factor
                                        + decay_rng.random()))
        self._catalog.set_demands(demands)

        # Novelty stream: brand-new files with fresh demands.
        new_files = max(1, int(round(self.config.file_count *
                                     evolution.churn)))
        self._catalog.generate(new_files, novelty_rng)

        # Population growth.
        new_users = int(round(self.config.user_count *
                              evolution.user_growth))
        if new_users:
            self._population.generate(new_users, growth_rng)

        requests = build_requests(
            self._catalog, self._population, self.arrivals,
            self._rng_factory.fork(label),
            task_prefix=f"w{self._week}t")
        return self._snapshot(requests)


@dataclass
class WeekStats:
    """Cache/failure trajectory entry for one simulated week."""

    week: int
    requests: int
    cache_hit_ratio: float
    request_failure_ratio: float
    pool_files: int


def run_weeks(cloud, generator: MultiWeekGenerator, count: int,
              metrics: AnyRegistry = NOOP) -> list[WeekStats]:
    """Drive one persistent cloud instance across ``count`` weeks.

    The pool and database persist, so each week starts with everything
    the previous weeks accumulated -- the mechanism behind the paper's
    89% cache-hit ratio.  With a live ``metrics`` registry the per-week
    trajectory is also recorded as ``repro_multiweek_*`` gauges labelled
    by week, so the cache-warming curve is visible in metric exports.
    """
    stats: list[WeekStats] = []
    seen_hits, seen_lookups = 0, 0
    for week, workload in enumerate(generator.weeks(count), start=1):
        result = cloud.run(workload)
        # The pool's counters are cumulative across runs; report each
        # week's own hit ratio from the deltas.
        pool_stats = cloud.pool._cache.stats
        week_hits = pool_stats.hits - seen_hits
        week_lookups = pool_stats.lookups - seen_lookups
        seen_hits, seen_lookups = pool_stats.hits, pool_stats.lookups
        entry = WeekStats(
            week=week,
            requests=len(workload.requests),
            cache_hit_ratio=week_hits / week_lookups
            if week_lookups else 0.0,
            request_failure_ratio=result.request_failure_ratio,
            pool_files=len(cloud.pool))
        metrics.gauge("repro_multiweek_cache_hit_ratio",
                      week=week).set(entry.cache_hit_ratio)
        metrics.gauge("repro_multiweek_request_failure_ratio",
                      week=week).set(entry.request_failure_ratio)
        metrics.gauge("repro_multiweek_pool_files",
                      week=week).set(entry.pool_files)
        stats.append(entry)
    return stats
