"""Tests for the multi-backend ODR registry (``repro.backends``).

Covers the registry round-trip, unknown-name errors, bit-identity of
the legacy strategies resolved through the registry, the two new
backends (D2D, cooperative AP cache), the delay-aware policy's
ranking, fault-gated routing, per-request policy selection in the web
app, shard/job invariance of the comparison scorecard, and the
scorecard's reuse of a week the caller already holds.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    Backend,
    BackendEstimate,
    BuildContext,
    CloudBackend,
    CooperativeApCache,
    CoopApCacheBackend,
    D2dBackend,
    DelayAwarePolicy,
    FaultGate,
    SmartApBackend,
    UnknownBackendError,
    UnknownPolicyError,
    UnknownStrategyError,
    backend_names,
    compose,
    create_backend,
    create_policy,
    policy_names,
    resolve_strategy,
    strategy_names,
)
from repro.backends import registry as registry_module
from repro.backends.base import UNREACHABLE_DELAY
from repro.backends.policies import _NO_AP_DIRECT
from repro.cloud.database import ContentDatabase
from repro.core.auxiliary import SmartApInfo, UserContext
from repro.core.decision import Action, DataSource, Decision
from repro.core.strategies import (
    AmsStrategy,
    CloudOnlyStrategy,
    FileSnapshot,
    OdrStrategy,
)
from repro.core.odr import OdrMiddleware
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.transfer.protocols import Protocol
from repro.workload.catalog import FileCatalog
from repro.workload.filetypes import FileType
from repro.workload.records import CatalogFile


def make_db(files):
    """A content database seeded with {file_id: (popularity, cached)}."""
    database = ContentDatabase()
    for file_id, (popularity, cached) in files.items():
        for when in range(popularity):
            database.record_request(file_id, 1e8, float(when))
        database.set_cached(file_id, cached)
    return database


def make_context(bandwidth=4e6, ap=None):
    return UserContext(ip_address="1.2.3.4",
                       access_bandwidth=bandwidth, smart_ap=ap)


def hiwifi():
    from repro.ap.models import HIWIFI_1S
    return SmartApInfo.default_for(HIWIFI_1S)


class TestRegistryRoundTrip:
    def test_builtin_names_are_registered(self):
        assert backend_names() == ("cloud", "coop-ap", "d2d", "smart-ap")
        assert set(policy_names()) >= {
            "ams", "always-hybrid", "cloud-only", "delay-aware",
            "odr", "smart-ap-only"}
        assert strategy_names() == (
            "always-hybrid", "ams", "cloud-only", "delay-aware",
            "odr", "smart-ap-only")

    def test_register_create_and_unregister(self):
        from repro.backends.registry import register_backend, \
            register_policy

        @register_backend("test-null")
        class _NullBackend(Backend):
            name = "test-null"

            def __init__(self, build=None):
                pass

            def route(self, context, snapshot):
                return Decision(action=Action.CLOUD,
                                data_source=DataSource.CLOUD,
                                rationale="null")

        @register_policy("test-first")
        def _first_policy(build):
            class _First(DelayAwarePolicy):
                name = "test-first"
            return _First()

        try:
            assert "test-null" in backend_names()
            assert "test-first" in policy_names()
            backend = create_backend("test-null")
            assert backend.route(None, None).rationale == "null"
            assert create_policy("test-first").name == "test-first"
        finally:
            registry_module._BACKENDS.pop("test-null")
            registry_module._POLICIES.pop("test-first")
        assert "test-null" not in backend_names()

    def test_compose_builds_spec_backends_in_order(self):
        backends, policy = compose("delay-aware",
                                   database=ContentDatabase())
        assert [backend.name for backend in backends] == \
            ["coop-ap", "d2d", "smart-ap", "cloud"]
        assert policy.name == "delay-aware"

    def test_resolve_strategy_backend_override(self):
        strategy = resolve_strategy(
            "delay-aware", database=ContentDatabase(),
            backend_names=("d2d", "cloud"))
        assert [backend.name for backend in strategy.backends] == \
            ["d2d", "cloud"]
        assert strategy.policy.name == "delay-aware"

    def test_options_reach_the_factories(self):
        strategy = resolve_strategy("delay-aware",
                                    database=ContentDatabase(),
                                    deadline_seconds=60.0,
                                    d2d_neighbor_share=0.5)
        assert strategy.policy.deadline_seconds == 60.0
        d2d = [backend for backend in strategy.backends
               if backend.name == "d2d"][0]
        assert d2d.neighbor_share == 0.5


class TestUnknownNames:
    def test_unknown_backend_lists_known(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            create_backend("warp-drive")
        assert "cloud" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    def test_unknown_policy_lists_known(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            create_policy("coin-flip")
        assert "odr" in str(excinfo.value)

    def test_unknown_strategy_lists_known(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            compose("warp")
        assert "delay-aware" in str(excinfo.value)

    def test_odr_policy_requires_a_database(self):
        with pytest.raises(ValueError, match="content database"):
            create_policy("odr", BuildContext())


class TestLegacyBitIdentity:
    """Registry-composed strategies reproduce the legacy decisions."""

    GRID_FILES = {
        "hot-cached": (200, True), "hot-raw": (150, False),
        "cold-cached": (3, True), "cold-raw": (1, False),
    }

    def contexts(self):
        return [("plain", make_context(4e6, None)),
                ("fast-ap", make_context(20e6, hiwifi())),
                ("slow", make_context(0.5e6, hiwifi()))]

    def decisions(self, strategy):
        rows = []
        for label, context in self.contexts():
            for file_id in self.GRID_FILES:
                for protocol in (Protocol.HTTP, Protocol.BITTORRENT):
                    decision = strategy.decide(context, file_id,
                                               protocol)
                    rows.append((label, file_id,
                                 protocol.value,
                                 decision.action.value,
                                 decision.data_source.value,
                                 decision.rationale))
        return rows

    @pytest.mark.parametrize("name,legacy", [
        ("cloud-only", lambda db: CloudOnlyStrategy(db)),
        ("ams", lambda db: AmsStrategy(db)),
        ("odr", lambda db: OdrStrategy(OdrMiddleware(db))),
    ])
    def test_resolved_equals_legacy_class(self, name, legacy):
        reference = self.decisions(legacy(make_db(self.GRID_FILES)))
        resolved = self.decisions(resolve_strategy(
            name, database=make_db(self.GRID_FILES)))
        assert resolved == reference

    def test_golden_digests_still_pin(self):
        from repro.perf import golden
        pinned = json.loads(
            (Path(__file__).parent / "data" /
             "golden_digests.json").read_text())
        for scenario in ("strategy_decisions", "odr_strategy_replay"):
            assert golden.SCENARIOS[scenario]() == pinned[scenario], \
                f"{scenario} drifted from its pinned digest"


class TestD2dBackend:
    def snapshot(self, demand, protocol=Protocol.BITTORRENT):
        return FileSnapshot(file_id="f", protocol=protocol,
                            popularity=int(demand), cached=False,
                            size=1e9, weekly_demand=float(demand))

    def test_needs_p2p_and_nearby_seeds(self):
        backend = D2dBackend()
        context = make_context()
        assert backend.available(context, self.snapshot(500))
        assert not backend.available(context, self.snapshot(5))
        assert not backend.available(
            context, self.snapshot(500, Protocol.HTTP))

    def test_route_is_the_d2d_action(self):
        decision = D2dBackend().route(make_context(),
                                      self.snapshot(500))
        assert decision.action is Action.D2D
        assert decision.data_source is DataSource.PEERS
        assert decision.bottlenecks_addressed == (1, 2)

    def test_estimate_is_free_for_the_cloud(self):
        estimate = D2dBackend().estimate(make_context(),
                                         self.snapshot(500))
        assert estimate.cloud_bytes == 0.0
        assert estimate.delay_seconds < UNREACHABLE_DELAY

    def test_estimate_unreachable_without_neighbors(self):
        estimate = D2dBackend().estimate(make_context(),
                                         self.snapshot(1))
        assert estimate.delay_seconds == UNREACHABLE_DELAY

    def test_neighbor_share_validated(self):
        with pytest.raises(ValueError):
            D2dBackend(neighbor_share=0.0)
        with pytest.raises(ValueError):
            D2dBackend(neighbor_share=1.5)


class TestCoopApCache:
    def catalog_rows(self):
        def row(file_id, size, demand):
            return CatalogFile(file_id=file_id, size=size,
                               file_type=FileType.VIDEO,
                               protocol=Protocol.BITTORRENT,
                               weekly_demand=demand,
                               source_url=f"magnet://o/{file_id}")
        return FileCatalog.from_records([
            row("huge-popular", 9e9, 1000), row("small-popular", 1e9, 500),
            row("small-mid", 1e9, 100), row("cold", 1e9, 1)])

    def test_from_catalog_greedy_skips_oversized(self):
        cache = CooperativeApCache.from_catalog(self.catalog_rows(),
                                                capacity_bytes=2.5e9)
        # The 9 GB head does not fit; the ranking continues past it.
        assert cache.resident_count == 2
        assert cache.admits(FileSnapshot("small-popular",
                                         Protocol.BITTORRENT))
        assert cache.admits(FileSnapshot("small-mid",
                                         Protocol.BITTORRENT))
        assert not cache.admits(FileSnapshot("huge-popular",
                                             Protocol.BITTORRENT))
        assert not cache.admits(FileSnapshot("cold",
                                             Protocol.BITTORRENT))
        assert cache.hits == 2 and cache.misses == 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_from_catalog_keeps_the_sorted_greedy(self, seed):
        """The resident set ranked once off the columns is the one a
        greedy walk of ``sorted()`` over the rows picks."""
        catalog = FileCatalog()
        catalog.generate(3000, np.random.default_rng(seed))
        capacity = 1e11
        resident, used = set(), 0.0
        for record in sorted(catalog, key=lambda record:
                             (-record.weekly_demand, record.file_id)):
            if used + record.size <= capacity:
                resident.add(record.file_id)
                used += record.size
        cache = CooperativeApCache.from_catalog(catalog,
                                                capacity_bytes=capacity)
        assert 0 < len(resident) < len(catalog)
        assert cache._resident == resident
        assert cache.resident_bytes == used
        assert catalog.ranking() is catalog.ranking()

    def test_threshold_mode_without_catalog(self):
        cache = CooperativeApCache()
        popular = FileSnapshot("p", Protocol.BITTORRENT,
                               popularity=500)
        cold = FileSnapshot("c", Protocol.BITTORRENT, popularity=1)
        assert cache.admits(popular)
        assert not cache.admits(cold)

    def test_backend_needs_an_ap_and_a_hit(self):
        cache = CooperativeApCache.from_catalog(self.catalog_rows())
        backend = CoopApCacheBackend(cache=cache)
        hit = FileSnapshot("small-popular", Protocol.BITTORRENT,
                           size=1e9)
        assert backend.available(make_context(ap=hiwifi()), hit)
        assert not backend.available(make_context(ap=None), hit)
        decision = backend.route(make_context(ap=hiwifi()), hit)
        assert decision.action is Action.NEIGHBOR_AP
        assert decision.data_source is DataSource.NEIGHBOR_AP

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CooperativeApCache(capacity_bytes=0.0)


class _Stub(Backend):
    """A backend with a fixed forecast, for policy-ranking tests."""

    def __init__(self, name, delay, cloud_bytes, ok=True):
        self.name = name
        self._estimate = BackendEstimate(delay_seconds=delay,
                                         cloud_bytes=cloud_bytes)
        self._ok = ok

    def available(self, context, snapshot):
        return self._ok

    def route(self, context, snapshot):
        return Decision(action=Action.CLOUD,
                        data_source=DataSource.CLOUD,
                        rationale=f"stub:{self.name}")

    def estimate(self, context, snapshot):
        return self._estimate


class TestDelayAwarePolicy:
    SNAPSHOT = FileSnapshot("f", Protocol.HTTP, size=1e9)

    def test_cheapest_within_deadline_wins(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("a", 50.0, 1000.0), _Stub("b", 80.0, 0.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:b"

    def test_deadline_misses_rank_behind_meets(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("fast-miss", 150.0, 0.0),
                    _Stub("slow-meet", 99.0, 500.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:slow-meet"

    def test_all_missing_prefers_faster_at_equal_cost(self):
        policy = DelayAwarePolicy(deadline_seconds=10.0)
        backends = (_Stub("slower", 200.0, 0.0),
                    _Stub("faster", 150.0, 0.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:faster"

    def test_penalised_backends_are_last_resort(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("costly", 50.0, 1000.0),
                    _Stub("flaky", 80.0, 0.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends, penalised=frozenset({"flaky"}))
        assert decision.rationale == "stub:costly"

    def test_unavailable_backends_are_skipped(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("down", 1.0, 0.0, ok=False),
                    _Stub("up", 99.0, 500.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:up"

    def test_no_backend_falls_back_to_direct(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 (_Stub("down", 1.0, 0.0, ok=False),))
        assert decision == _NO_AP_DIRECT

    def test_deadline_validated(self):
        with pytest.raises(ValueError):
            DelayAwarePolicy(deadline_seconds=0.0)

    def test_per_request_budget_overrides_static_deadline(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("slow-cheap", 80.0, 0.0),
                    _Stub("fast-costly", 30.0, 1000.0))
        # Against the static budget the slow-but-free backend wins.
        relaxed = policy.decide(make_context(), self.SNAPSHOT,
                                backends)
        assert relaxed.rationale == "stub:slow-cheap"
        # A propagated X-Deadline-Ms budget of 50 s flips the ranking:
        # only the costly backend still meets the deadline.
        hurried = UserContext(ip_address="1.2.3.4",
                              access_bandwidth=4e6,
                              deadline_seconds=50.0)
        assert policy.effective_deadline(hurried) == 50.0
        assert policy.effective_deadline(make_context()) == 100.0
        decision = policy.decide(hurried, self.SNAPSHOT, backends)
        assert decision.rationale == "stub:fast-costly"


class TestFaultGate:
    def injector(self):
        plan = FaultPlan(name="test", seed=1, specs=(
            FaultSpec(kind="power_loss", target="ap:1",
                      start=100.0, duration=50.0),))
        return FaultInjector(plan)

    def test_domain_window_penalises_matching_backend(self):
        gate = FaultGate(self.injector())
        ap = SmartApBackend()
        assert gate.penalised(ap, 120.0)
        assert not gate.penalised(ap, 10.0)
        assert not gate.penalised(ap, 150.0)   # window is half-open

    def test_other_domains_unaffected(self):
        gate = FaultGate(self.injector())
        assert not gate.penalised(CloudBackend(), 120.0)
        assert not gate.penalised(D2dBackend(), 120.0)

    def test_gated_strategy_reorders_during_window(self):
        strategy = resolve_strategy("delay-aware",
                                    database=ContentDatabase(),
                                    faults=self.injector())
        strategy.now = 120.0
        backends, penalised = strategy._routing()
        assert penalised == {"coop-ap", "smart-ap"}
        # Penalised backends drop to the back of the preference order.
        assert [backend.name for backend in backends] == \
            ["d2d", "cloud", "coop-ap", "smart-ap"]
        strategy.now = 10.0
        backends, penalised = strategy._routing()
        assert penalised == frozenset()
        assert [backend.name for backend in backends] == \
            ["coop-ap", "d2d", "smart-ap", "cloud"]


class TestWebAppPolicySelection:
    def test_policy_param_switches_the_strategy(self):
        from repro.core.webapp import OdrWebApp
        app = OdrWebApp()
        query = ("/decide?link=magnet://origin/xyz&popularity=200"
                 "&bandwidth_mbps=20&ap=hiwifi")
        status, _type, body, _c, _h = app.handle(query)
        assert status == 200
        assert json.loads(body)["policy"] == "odr"
        status, _type, body, _c, _h = app.handle(
            query + "&policy=cloud-only")
        assert status == 200
        payload = json.loads(body)
        assert payload["policy"] == "cloud-only"
        assert payload["action"] in ("cloud", "cloud_predownload")

    def test_unknown_policy_is_a_400(self):
        from repro.core.webapp import OdrWebApp
        app = OdrWebApp()
        status, _type, body, _c, _h = app.handle(
            "/decide?link=http://host/f&policy=warp")
        assert status == 400
        assert "warp" in json.loads(body)["error"]

    def test_service_accepts_a_policy_name(self):
        from repro.core.service import OdrService
        service = OdrService(ContentDatabase(), policy="delay-aware")
        response = service.handle_request(
            make_context(ap=hiwifi()), "magnet://origin/abc")
        assert response.decision.action in tuple(Action)


class TestComparisonDeterminism:
    LIMIT = 60

    def scorecard(self, **overrides):
        from repro.backends.replay import compare
        settings = dict(scale=0.01, seed=20150222, limit=self.LIMIT,
                        shards=2, jobs=1)
        settings.update(overrides)
        return compare(**settings)

    def test_digest_invariant_across_shards(self):
        digests = {self.scorecard(shards=shards)["digest"]
                   for shards in (1, 2, 5)}
        assert len(digests) == 1

    def test_digest_invariant_across_jobs(self):
        assert self.scorecard(jobs=2)["digest"] == \
            self.scorecard(jobs=1)["digest"]

    def test_rerun_is_identical(self):
        first = self.scorecard()
        second = self.scorecard()
        assert first == second

    def test_scorecard_covers_the_new_backends(self):
        scorecard = self.scorecard()
        names = [combo["name"] for combo in scorecard["combos"]]
        assert "cloud/cloud-only" in names
        assert "cloud+ap/odr" in names
        assert "all/delay-aware" in names
        shares = {name: combo["backend_share"]
                  for name, combo in zip(names, scorecard["combos"])}
        assert shares["cloud/cloud-only"].get("cloud") == 1.0
        assert set(shares["all/delay-aware"]) & {"d2d", "coop-ap"}

    def test_seed_changes_the_digest(self):
        assert self.scorecard()["digest"] != \
            self.scorecard(seed=7)["digest"]

    def test_cli_unknown_combo_exits_2(self, capsys):
        from repro.backends.__main__ import main
        assert main(["--combo", "no-such-combo"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_cli_quiet_prints_the_digest(self, capsys):
        from repro.backends.__main__ import main
        assert main(["--limit", str(self.LIMIT), "--shards", "2",
                     "--combo", "cloud-only", "--quiet"]) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64
        assert int(digest, 16) is not None

    @pytest.fixture()
    def no_week(self, monkeypatch):
        from repro.workload.generator import WorkloadGenerator

        def refuse(self):
            raise AssertionError("generated a week before validating")

        monkeypatch.setattr(WorkloadGenerator, "generate", refuse)

    @pytest.mark.parametrize("flag,value", [
        ("--shards", "0"), ("--jobs", "0"), ("--limit", "0"),
        ("--deadline-hours", "-1")])
    def test_cli_bad_numeric_flag_is_a_usage_error(self, flag, value,
                                                   capsys, no_week):
        from repro.backends.__main__ import main
        with pytest.raises(SystemExit) as exit_info:
            main([flag, value, "--quiet"])
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_compare_rejects_a_nonpositive_deadline_up_front(self,
                                                             no_week):
        with pytest.raises(ValueError, match="deadline_seconds"):
            self.scorecard(deadline_seconds=0.0)


class TestBackendMatrixReusesTheWeek:
    """In-process shards replay one week: the caller's, or one
    generated once, never one per shard."""

    SCALE = 0.002
    SEED = 20150222
    LIMIT = 120

    def compare(self, **overrides):
        from repro.backends.replay import compare
        settings = dict(scale=self.SCALE, seed=self.SEED,
                        limit=self.LIMIT, shards=4, jobs=1)
        settings.update(overrides)
        return compare(**settings)

    def week(self):
        from repro.workload.generator import (
            WorkloadConfig,
            WorkloadGenerator,
        )
        return WorkloadGenerator(WorkloadConfig(
            scale=self.SCALE, seed=self.SEED)).generate()

    @pytest.fixture()
    def generate_calls(self, monkeypatch):
        from repro.workload.generator import WorkloadGenerator
        calls = []
        generate = WorkloadGenerator.generate

        def counted(self):
            calls.append(self.config)
            return generate(self)

        monkeypatch.setattr(WorkloadGenerator, "generate", counted)
        return calls

    def test_in_process_shards_generate_the_week_once(self,
                                                      generate_calls):
        self.compare()
        assert len(generate_calls) == 1

    def test_a_given_week_is_not_regenerated(self, generate_calls):
        week = self.week()
        generate_calls.clear()
        self.compare(workload=week)
        assert generate_calls == []

    def test_given_regenerated_and_spawned_weeks_agree(self):
        digests = {self.compare(workload=self.week())["digest"],
                   self.compare()["digest"],
                   self.compare(jobs=2)["digest"]}
        assert len(digests) == 1

    def test_a_killed_worker_is_requeued(self, monkeypatch, capfd):
        """The matrix runs on the durable shard executor: a SIGKILLed
        worker costs its shard a requeue, not the run or a byte."""
        clean = self.compare(shards=3)["digest"]
        monkeypatch.setenv("REPRO_RECOVERY_CRASH", "shard-0001:1:kill")
        assert self.compare(shards=3, jobs=2)["digest"] == clean
        warning = capfd.readouterr().err
        assert "worker pool broke" in warning and "shard-0001" in warning

    def test_a_week_of_another_seed_is_refused(self):
        with pytest.raises(ValueError, match="scale, seed"):
            self.compare(seed=self.SEED + 1, workload=self.week())

    def test_matrix_after_every_other_driver_matches_standalone(self):
        from repro.experiments import REGISTRY
        from repro.experiments.backend_matrix import MATRIX_LIMIT
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import ORDER
        from repro.experiments.scorecard import evaluate_claims
        context = ExperimentContext(scale=self.SCALE, seed=self.SEED)
        for experiment_id in ORDER:
            if experiment_id != "backend_matrix":
                REGISTRY[experiment_id](context)
        evaluate_claims(context)
        report = REGISTRY["backend_matrix"](context)
        standalone = self.compare(limit=MATRIX_LIMIT)
        assert report.data["digest"] == standalone["digest"]
