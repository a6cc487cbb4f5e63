"""The deterministic (backend set, policy) comparison engine.

``python -m repro.backends`` replays one synthetic workload trace under
several (backend set, policy) combinations and emits a scorecard --
completion delay p50/p95, cloud upload bytes (and the saving against
the cloud-only baseline), per-backend request share, failure ratio --
plus a canonical digest over the full float-exact payload.

Determinism is the design driver, in three layers:

* **per-(combo, file) randomness**: every random draw comes from a
  stream forked off ``(seed, combo name, file id)``, never from a
  shared sequential stream, so no combo or file can perturb another;
* **content sharding**: requests are partitioned by their file
  (:meth:`~repro.scale.plan.ShardPlan.shard_of_file`), and all
  cache-coupled state (the content database rows a strategy reads,
  pre-download outcomes) is per-file, so shard outputs merge
  identically for any ``--shards``;
* **order-independent reduction**: shard results are
  :class:`ComboStats` (sums and exact sketch-bucket merges), folded in
  shard order regardless of worker scheduling, so ``--jobs`` cannot
  change a byte.

The shards run on the shared shard executor
(:func:`repro.scale.executor.run_sharded` over a
:class:`~repro.scale.plan.ShardPlan`), so a killed worker is requeued
rather than failing the run.  The same scorecard therefore reproduces
across runs, shard counts, process counts and worker deaths -- which
is what the CI backend-matrix job diffs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

import repro.ap.models as ap_models
from repro.cloud.database import ContentDatabase
from repro.core.auxiliary import SmartApInfo, UserContext
from repro.core.decision import Action
from repro.obs.histogram import QuantileSketch
from repro.scale.executor import run_sharded
from repro.scale.plan import ShardPlan, ShardSpec, stable_hash
from repro.scale.reducers import canonical_digest, hex_floats
from repro.sim.randomness import RngFactory
from repro.workload.generator import (
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.workload.popularity import UNPOPULAR_BELOW
from repro.workload.records import CatalogFile, RequestRecord

from repro.backends.policies import DEFAULT_DEADLINE_SECONDS

#: Defaults of the CLI: small enough for CI, big enough to exercise
#: every backend.
DEFAULT_SCALE = 0.01
DEFAULT_SEED = 20150222
DEFAULT_LIMIT = 400
DEFAULT_SHARDS = 4

#: Deterministic smart-AP penetration: a user owns an AP when the
#: stable hash of their id lands under this per-mille threshold.
AP_PERMILLE = 400

#: Rate model of the scorecard's closed-form executor (see
#: :func:`_execute_request`); speed jitter is lognormal.
RATE_SIGMA = 0.3
HOME_LAN_RATE = 3e6          # B/s, user pulling from their own AP
#: Pre-download success odds: thriving swarms nearly always yield,
#: dead/unpopular sources (the paper's Bottleneck 3) often do not.
PREDOWNLOAD_SUCCESS_POPULAR = 0.98
PREDOWNLOAD_SUCCESS_UNPOPULAR = 0.85

#: Which backend "executes" each action in the share accounting
#: (``direct`` = the user's own device, no backend involved).
ACTION_BACKEND = {
    Action.CLOUD: "cloud",
    Action.CLOUD_PREDOWNLOAD: "cloud",
    Action.CLOUD_THEN_SMART_AP: "cloud",
    Action.NOTIFY_FAILURE: "cloud",
    Action.SMART_AP: "smart-ap",
    Action.USER_DEVICE: "direct",
    Action.D2D: "d2d",
    Action.NEIGHBOR_AP: "coop-ap",
}


@dataclass(frozen=True)
class ComboSpec:
    """One (backend set, policy) combination under comparison.

    ``strategy`` names a :data:`repro.backends.registry.STRATEGY_SPECS`
    entry (which fixes the policy); ``backend_names`` optionally
    overrides its backend set.
    """

    name: str
    strategy: str
    backend_names: Optional[tuple[str, ...]] = None

    def to_dict(self) -> dict[str, Any]:
        from repro.backends.registry import STRATEGY_SPECS
        spec_backends, policy = STRATEGY_SPECS[self.strategy]
        return {"name": self.name, "strategy": self.strategy,
                "policy": policy,
                "backends": list(self.backend_names or spec_backends)}


def default_combos() -> tuple[ComboSpec, ...]:
    """The shipped comparison matrix: baseline, the paper's contenders,
    and the delay-aware policy with and without the new backends."""
    return (
        ComboSpec("cloud/cloud-only", "cloud-only"),
        ComboSpec("cloud+ap/odr", "odr"),
        ComboSpec("cloud+ap/ams", "ams"),
        ComboSpec("cloud+ap+d2d/delay-aware", "delay-aware",
                  backend_names=("d2d", "smart-ap", "cloud")),
        ComboSpec("all/delay-aware", "delay-aware"),
    )


@dataclass
class ComboStats:
    """Mergeable per-combo aggregates (the shard worker's output).

    Counts and whole bytes add, the action counters add key by key and
    the delay sketch merges bucket by bucket, so folding the parts of
    any partition of the requests reproduces the one-shard stats.
    """

    combo: str
    requests: int = 0
    failures: int = 0
    #: Whole bytes: integer addition is associative, so the sum cannot
    #: depend on which shard a request landed in (float accumulation
    #: drifts in the last ulp with grouping).
    cloud_bytes: int = 0
    delays: QuantileSketch = field(default_factory=QuantileSketch)
    actions: dict[str, int] = field(default_factory=dict)
    backend_requests: dict[str, int] = field(default_factory=dict)

    def record(self, action: Action, success: bool, delay: float,
               cloud_bytes: float) -> None:
        self.requests += 1
        self.actions[action.value] = self.actions.get(action.value,
                                                      0) + 1
        backend = ACTION_BACKEND[action]
        self.backend_requests[backend] = \
            self.backend_requests.get(backend, 0) + 1
        self.cloud_bytes += int(round(cloud_bytes))
        if success:
            self.delays.add(delay)
        else:
            self.failures += 1

    def merge(self, other: "ComboStats") -> None:
        """Fold another shard's stats of the same combo in."""
        if other.combo != self.combo:
            raise ValueError("cannot merge ComboStats of different combo")
        self.requests += other.requests
        self.failures += other.failures
        self.cloud_bytes += other.cloud_bytes
        self.delays.merge(other.delays)
        for mine, theirs in ((self.actions, other.actions),
                             (self.backend_requests,
                              other.backend_requests)):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count

    @classmethod
    def fold(cls, parts: Sequence["ComboStats"]) -> "ComboStats":
        """Merge ``parts`` in order into a fresh instance."""
        if not parts:
            raise ValueError("nothing to merge")
        merged = cls(combo=parts[0].combo)
        for part in parts:
            merged.merge(part)
        return merged

    def to_dict(self) -> dict[str, Any]:
        total = max(self.requests, 1)
        return {
            "requests": self.requests,
            "failures": self.failures,
            "failure_ratio": self.failures / total,
            "delay_p50_seconds": self.delays.quantile(0.5),
            "delay_p95_seconds": self.delays.quantile(0.95),
            "cloud_bytes": self.cloud_bytes,
            "actions": dict(sorted(self.actions.items())),
            "backend_share": {name: count / total for name, count
                              in sorted(self.backend_requests.items())},
        }


def _smart_ap_for(user_id: str) -> Optional[SmartApInfo]:
    """Deterministic AP ownership: no RNG, pure content hash."""
    if stable_hash(f"smart-ap:{user_id}") % 1000 >= AP_PERMILLE:
        return None
    hardware = ap_models.HIWIFI_1S
    return SmartApInfo(hardware, hardware.default_device,
                       hardware.default_filesystem)


def _seed_database(catalog_rows: Sequence[CatalogFile]
                   ) -> ContentDatabase:
    """A fresh content database as the cloud would see week start:
    demand already observed, popular files already cached."""
    database = ContentDatabase()
    for record in catalog_rows:
        row = database.row(record.file_id, size=record.size)
        row.request_count = record.weekly_demand
        row.cached = record.weekly_demand >= UNPOPULAR_BELOW
    return database


def _jitter(rng: np.random.Generator,
            sigma: float = RATE_SIGMA) -> float:
    return float(np.exp(rng.normal(0.0, sigma)))


def _execute_request(request: RequestRecord, record: CatalogFile,
                     context: UserContext, strategy,
                     database: ContentDatabase,
                     rng: np.random.Generator
                     ) -> tuple[Action, bool, float, float]:
    """Closed-form execution of one routed request.

    Returns ``(final action, success, completion delay seconds, cloud
    bytes)``.  Deliberately lighter than the testbed replay (no
    testbed AP bench, no circuit breakers): the scorecard compares
    *routing* quality, so a simple shared rate model keeps every combo
    on identical physics.
    """
    from repro.backends.builtin import (
        CLOUD_FETCH_RATE,
        CLOUD_PREDOWNLOAD_RATE,
        D2D_LAN_CAP,
        D2D_NEIGHBOR_SHARE,
        D2D_RATE_EXPONENT,
        D2D_RATE_MEDIAN,
        DEFAULT_ACCESS_BANDWIDTH,
        NEIGHBOR_AP_RATE,
        ORIGIN_HTTP_RATE,
    )
    from repro.transfer.swarm import Swarm, SwarmModel

    strategy.now = request.request_time
    decision = strategy.decide(context, record.file_id, record.protocol)
    user_bw = request.access_bandwidth or DEFAULT_ACCESS_BANDWIDTH
    size = record.size
    wait = 0.0

    if decision.action is Action.CLOUD_PREDOWNLOAD:
        odds = PREDOWNLOAD_SUCCESS_POPULAR \
            if record.weekly_demand >= UNPOPULAR_BELOW \
            else PREDOWNLOAD_SUCCESS_UNPOPULAR
        success = bool(rng.random() < odds)
        database.record_attempt(record.file_id, success)
        if success:
            database.set_cached(record.file_id, True)
            wait = size / CLOUD_PREDOWNLOAD_RATE
        decision = strategy.decide_after_predownload(
            context, record.file_id, success)

    action = decision.action
    if action is Action.NOTIFY_FAILURE:
        return action, False, 0.0, 0.0

    if action is Action.CLOUD:
        rate = min(user_bw, CLOUD_FETCH_RATE) * _jitter(rng)
        return action, True, wait + size / rate, size

    if action is Action.CLOUD_THEN_SMART_AP:
        wan = min(user_bw, CLOUD_FETCH_RATE) * _jitter(rng)
        return action, True, wait + size / wan + size / HOME_LAN_RATE, \
            size

    if action is Action.D2D:
        model = SwarmModel()
        nearby = int(rng.poisson(model.mean_seeds(record.weekly_demand) *
                                 D2D_NEIGHBOR_SHARE))
        if nearby < 1:
            return action, False, 0.0, 0.0
        rate = min(D2D_RATE_MEDIAN * nearby ** D2D_RATE_EXPONENT *
                   _jitter(rng), D2D_LAN_CAP)
        return action, True, size / rate, 0.0

    if action is Action.NEIGHBOR_AP:
        rate = NEIGHBOR_AP_RATE * _jitter(rng)
        return action, True, size / rate, 0.0

    # SMART_AP / USER_DEVICE: direct from the origin or the swarm.
    if record.protocol.is_p2p:
        swarm = Swarm(record.file_id, record.weekly_demand)
        seeds = swarm.sample_seed_count(rng)
        if seeds < 1:
            return action, False, 0.0, 0.0
        rate = min(swarm.sample_rate(seeds, rng), user_bw)
    else:
        rate = min(ORIGIN_HTTP_RATE * _jitter(rng), user_bw)
    delay = size / rate
    if action is Action.SMART_AP:
        # Staged on the AP; the user drains it over the home LAN.
        delay += size / HOME_LAN_RATE
    return action, True, delay, 0.0


def _generate(scale: float, seed: int) -> Workload:
    return WorkloadGenerator(WorkloadConfig(scale=scale,
                                            seed=seed)).generate()


def run_shard(spec: ShardSpec, *, limit: int, deadline_seconds: float,
              faults: bool, combos: tuple[ComboSpec, ...],
              workload: Optional[Workload] = None) -> list[ComboStats]:
    """Replay this shard's slice of the trace under every combo.

    The :func:`~repro.scale.executor.run_sharded` worker: a spawn
    worker regenerates the week from the spec's ``(scale, seed)``;
    in-process callers bind the week they already hold.  The shard
    takes the first ``limit`` trace rows, keeps the files hashing into
    its shard, and walks them file by file in sorted order with a
    per-(combo, file) RNG stream.
    """
    from repro.backends.registry import resolve_strategy

    if workload is None:
        workload = _generate(spec.scale, spec.seed)
    trace = workload.requests[:limit]
    by_file: dict[str, list[RequestRecord]] = {}
    plan = spec.plan
    for request in trace:
        if plan.shard_of_file(request.file_id) != spec.shard:
            continue
        by_file.setdefault(request.file_id, []).append(request)

    injector = None
    if faults:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import default_chaos_plan
        injector = FaultInjector(default_chaos_plan())

    catalog_rows = [workload.catalog[file_id]
                    for file_id in sorted(by_file)]
    results = []
    for combo in combos:
        database = _seed_database(catalog_rows)
        strategy = resolve_strategy(
            combo.strategy, database=database,
            catalog=workload.catalog, faults=injector,
            backend_names=combo.backend_names,
            deadline_seconds=deadline_seconds)
        factory = RngFactory(spec.seed).fork(f"backends:{combo.name}")
        stats = ComboStats(combo=combo.name)
        for file_id in sorted(by_file):
            record = workload.catalog[file_id]
            rng = factory.stream(f"file:{file_id}")
            for request in by_file[file_id]:
                context = UserContext(
                    ip_address=request.ip_address,
                    access_bandwidth=request.access_bandwidth,
                    smart_ap=_smart_ap_for(request.user_id))
                action, success, delay, cloud = _execute_request(
                    request, record, context, strategy, database, rng)
                stats.record(action, success, delay, cloud)
        results.append(stats)
    return results


#: Run-shape keys excluded from the digest: sharding and process count
#: must not change a byte of the results, and the digest proves it.
_DIGEST_EXCLUDED = ("digest", "shards")


def scorecard_digest(scorecard: dict[str, Any]) -> str:
    return canonical_digest(hex_floats(
        {key: value for key, value in scorecard.items()
         if key not in _DIGEST_EXCLUDED}))


def compare(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
            limit: int = DEFAULT_LIMIT, shards: int = DEFAULT_SHARDS,
            jobs: int = 1,
            deadline_seconds: float = DEFAULT_DEADLINE_SECONDS,
            faults: bool = False,
            combos: Optional[Sequence[ComboSpec]] = None,
            workload: Optional[Workload] = None
            ) -> dict[str, Any]:
    """Run the comparison and return the scorecard dict (with digest).

    ``workload`` is the ``(scale, seed)`` week when the caller already
    holds it (the experiment context does); in-process shards then
    replay it instead of generating their own.  Spawn workers
    (``jobs > 1``) always regenerate it, which yields the same week.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if not deadline_seconds > 0:
        raise ValueError("deadline_seconds must be > 0")
    if workload is not None and (workload.config.scale,
                                 workload.config.seed) != (scale, seed):
        raise ValueError("workload was not generated at this "
                         "(scale, seed)")
    combo_specs = tuple(combos if combos is not None
                        else default_combos())
    if not combo_specs:
        raise ValueError("no combos to compare")
    week = None
    if jobs == 1:
        # In process, every shard replays the one week; spawn workers
        # regenerate it rather than unpickle it.
        week = workload if workload is not None \
            else _generate(scale, seed)
    worker = functools.partial(
        run_shard, limit=limit, deadline_seconds=deadline_seconds,
        faults=faults, combos=combo_specs, workload=week)
    shard_results, _info = run_sharded(
        ShardPlan(scale=scale, seed=seed, shards=shards), worker,
        jobs=jobs)
    merged = {combo.name: ComboStats.fold(
        [shard_result[index] for shard_result in shard_results])
        for index, combo in enumerate(combo_specs)}

    baseline = merged[combo_specs[0].name].cloud_bytes
    combo_rows = []
    for combo in combo_specs:
        row = combo.to_dict()
        row.update(merged[combo.name].to_dict())
        row["cloud_bytes_saved_vs_baseline"] = \
            (1.0 - row["cloud_bytes"] / baseline) if baseline > 0 \
            else 0.0
        combo_rows.append(row)

    scorecard: dict[str, Any] = {
        "scale": scale, "seed": seed, "limit": limit, "shards": shards,
        "deadline_seconds": deadline_seconds, "faults": faults,
        "baseline": combo_specs[0].name,
        "combos": combo_rows,
    }
    scorecard["digest"] = scorecard_digest(scorecard)
    return scorecard


def format_scorecard(scorecard: dict[str, Any]) -> str:
    """Human-readable table (the JSON stays the machine interface)."""
    lines = [
        f"backend/policy comparison  scale={scorecard['scale']} "
        f"seed={scorecard['seed']} limit={scorecard['limit']} "
        f"shards={scorecard['shards']}"
        + ("  [chaos plan active]" if scorecard["faults"] else ""),
        f"{'combo':<26} {'p50':>9} {'p95':>9} {'fail%':>6} "
        f"{'cloudGB':>8} {'saved%':>7}  backends",
    ]
    for row in scorecard["combos"]:
        share = " ".join(
            f"{name}:{fraction:.0%}" for name, fraction
            in row["backend_share"].items())
        lines.append(
            f"{row['name']:<26} "
            f"{_fmt_seconds(row['delay_p50_seconds']):>9} "
            f"{_fmt_seconds(row['delay_p95_seconds']):>9} "
            f"{row['failure_ratio']:>6.1%} "
            f"{row['cloud_bytes'] / 1e9:>8.2f} "
            f"{row['cloud_bytes_saved_vs_baseline']:>7.1%}  {share}")
    lines.append(f"digest {scorecard['digest']}")
    return "\n".join(lines)


def _fmt_seconds(seconds: float) -> str:
    if seconds <= 0 or math.isinf(seconds):
        return "-"
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 5400:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"
