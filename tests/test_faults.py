"""Tests for repro.faults: plans, policies, injection, resilience.

The load-bearing properties:

* fault plans are JSON round-trippable and their per-entity gating is
  deterministic and split-invariant;
* the retry / breaker / checkpoint policies are pure state machines;
* chaos runs are bit-identical given (plan, seed) -- across repeats,
  shard counts, and worker processes;
* the policies recover a strictly positive fraction of the failures
  the same plan causes with policies off;
* with no plan loaded, every fault branch is provably inert.
"""

import json

import pytest

from repro.faults import (
    AP_KILL_KINDS,
    CLOUD_KINDS,
    DEFAULT_POLICIES,
    INTERRUPT_KINDS,
    KIND_DOMAINS,
    SERVE_KINDS,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ResiliencePolicies,
    RetryPolicy,
    TransferCheckpoint,
    ap_entity_name,
    correlated_slots,
    default_chaos_plan,
    validate_serve_plan,
)
from repro.sim.clock import DAY, HOUR
from repro.sim.randomness import substream


def spec(**overrides):
    base = dict(kind="server_crash", target="isp:telecom",
                start=1.0 * DAY, duration=6.0 * HOUR)
    base.update(overrides)
    return FaultSpec(**base)


class TestFaultSpec:
    def test_known_kinds_have_domains(self):
        assert set(KIND_DOMAINS) >= set(INTERRUPT_KINDS)
        assert set(KIND_DOMAINS) >= set(AP_KILL_KINDS)
        assert set(KIND_DOMAINS) >= set(SERVE_KINDS)
        assert set(CLOUD_KINDS) | set(SERVE_KINDS) | set(
            k for k, d in KIND_DOMAINS.items() if d == "ap") \
            == set(KIND_DOMAINS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            spec(kind="meteor_strike")

    @pytest.mark.parametrize("overrides", [
        dict(start=-1.0),
        dict(duration=0.0),
        dict(severity=0.0),
        dict(probability=1.5),
        dict(target="ap:miwifi"),          # wrong domain for the kind
    ])
    def test_invalid_field_rejected(self, overrides):
        with pytest.raises(ValueError):
            spec(**overrides)

    def test_window_and_matching(self):
        crash = spec()
        assert crash.end == pytest.approx(crash.start + crash.duration)
        assert crash.active_at(crash.start)
        assert crash.active_at(crash.end - 1.0)
        assert not crash.active_at(crash.end)
        assert not crash.active_at(crash.start - 1.0)
        assert crash.matches("telecom")
        assert not crash.matches("unicom")
        assert spec(target="isp:*").matches("unicom")
        assert spec(kind="pool_pressure", target="*").matches("anything")


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = default_chaos_plan(seed=99)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        path = tmp_path / "plan.json"
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan
        # The serialisation is canonical: stable across a round trip.
        assert clone.to_json() == plan.to_json()

    @pytest.mark.parametrize("record, message", [
        ({"kind": "vm_stall", "start": 0, "duration": 60},
         "fault spec #1: missing field 'target'"),
        ({"kind": "vm_stall", "target": "*", "start": "soon",
          "duration": 60},
         "fault spec #1: field 'start' must be float, got 'soon'"),
        ({"kind": "vm_stall", "target": 7, "start": 0, "duration": 60},
         "fault spec #1: field 'target' must be str, got 7"),
        ({"kind": "vm_stall", "target": "*", "start": 0,
          "duration": -1},
         "fault spec #1: fault duration must be > 0"),
        ("vm_stall", "fault spec #1: expected an object, got str"),
    ])
    def test_malformed_spec_names_its_index_and_field(self, record,
                                                      message):
        good = spec().to_dict()
        text = json.dumps({"name": "p", "seed": 1,
                           "faults": [good, record]})
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json(text)
        assert message in str(excinfo.value)

    def test_specs_of_filters_by_kind(self):
        plan = default_chaos_plan()
        kills = plan.specs_of(AP_KILL_KINDS)
        assert kills and all(s.kind in AP_KILL_KINDS for s in kills)

    def test_gating_is_deterministic_and_probabilistic(self):
        maybe = spec(kind="vm_stall", target="file:*", probability=0.5)
        plan_a = FaultPlan(name="p", seed=3, specs=(maybe,))
        plan_b = FaultPlan.from_json(plan_a.to_json())
        entities = [f"f{i:04d}" for i in range(400)]
        gates_a = [plan_a.applies(maybe, e) for e in entities]
        gates_b = [plan_b.applies(maybe, e) for e in entities]
        assert gates_a == gates_b
        hit = sum(gates_a) / len(gates_a)
        assert 0.35 < hit < 0.65
        always = spec(kind="vm_stall", target="file:*", probability=1.0)
        never = spec(kind="vm_stall", target="file:*", probability=0.0)
        assert all(plan_a.applies(always, e) for e in entities)
        assert not any(plan_a.applies(never, e) for e in entities)

    def test_ap_entity_name(self):
        from repro.ap.models import BENCHMARKED_APS
        names = {ap_entity_name(hw) for hw in BENCHMARKED_APS}
        assert names == {"hiwifi-(1s)", "miwifi", "newifi"}


class TestRetryPolicy:
    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1) and policy.allows(3)
        assert not policy.allows(4)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=2.0,
                             max_delay=35.0, jitter=0.0)
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == \
            [10.0, 20.0, 35.0, 35.0]

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(jitter=0.5)
        a = policy.backoff(2, substream(1, "x"))
        b = policy.backoff(2, substream(1, "x"))
        c = policy.backoff(2, substream(2, "x"))
        assert a == b
        assert a != c
        assert policy.backoff(2) <= a <= policy.backoff(2) * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCheckpoint:
    def test_commit_and_remaining(self):
        checkpoint = TransferCheckpoint()
        assert checkpoint.remaining(100.0) == 100.0
        checkpoint.commit(30.0)
        checkpoint.commit(-5.0)       # ignored
        assert checkpoint.remaining(100.0) == 70.0
        checkpoint.commit(80.0)
        assert checkpoint.remaining(100.0) == 0.0


class TestCircuitBreaker:
    @staticmethod
    def breaker(**overrides):
        base = dict(window=6, threshold=0.5, min_samples=3,
                    cooldown=10.0, name="test")
        base.update(overrides)
        return CircuitBreaker(**base)

    def test_stays_closed_below_min_samples(self):
        breaker = self.breaker()
        breaker.record(False, 0.0)
        breaker.record(False, 1.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(2.0)

    def test_trips_at_failure_threshold(self):
        breaker = self.breaker()
        for t in range(3):
            breaker.record(False, float(t))
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(3.0)
        assert breaker.retry_after(3.0) > 0.0

    def test_half_open_probe_closes_on_success(self):
        breaker = self.breaker()
        for t in range(3):
            breaker.record(False, float(t))
        assert not breaker.allow(5.0)
        assert breaker.allow(13.0)            # cooldown elapsed: probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record(True, 13.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(14.0)

    def test_half_open_probe_reopens_on_failure(self):
        breaker = self.breaker()
        for t in range(3):
            breaker.record(False, float(t))
        assert breaker.allow(13.0)
        breaker.record(False, 13.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(14.0)

    def test_mixed_outcomes_below_threshold_stay_closed(self):
        breaker = self.breaker()
        for t in range(8):
            breaker.record(t % 3 == 0, float(t))   # 2/3 failures: trips
        assert breaker.state == CircuitBreaker.OPEN
        healthy = self.breaker()
        for t in range(8):
            healthy.record(t % 4 != 0, float(t))   # 1/4 failures: fine
        assert healthy.state == CircuitBreaker.CLOSED


class TestInjectorQueries:
    @staticmethod
    def injector():
        specs = (
            spec(start=10.0, duration=5.0),
            spec(start=30.0, duration=5.0),
            FaultSpec(kind="isp_degrade", target="isp:*", start=12.0,
                      duration=10.0, severity=0.3),
            FaultSpec(kind="flash_slowdown", target="ap:miwifi",
                      start=0.0, duration=100.0, severity=0.5),
        )
        return FaultInjector(FaultPlan(name="q", seed=1, specs=specs))

    def test_active_and_first_active(self):
        inj = self.injector()
        assert inj.active("server_crash", "telecom", 12.0) is not None
        assert inj.active("server_crash", "telecom", 20.0) is None
        assert inj.active("server_crash", "unicom", 12.0) is None
        first = inj.first_active(("server_crash", "isp_degrade"),
                                 "telecom", 13.0)
        assert first is not None and first.kind == "server_crash"

    def test_clear_time_is_max_active_end(self):
        inj = self.injector()
        assert inj.clear_time(("server_crash", "isp_degrade"),
                              "telecom", 13.0) == pytest.approx(22.0)
        assert inj.clear_time(("server_crash",), "telecom", 50.0) \
            == pytest.approx(50.0)

    def test_next_break_finds_earliest_window_start(self):
        inj = self.injector()
        brk = inj.next_break(("server_crash",), "telecom", 0.0, 100.0)
        assert brk is not None and brk.start == pytest.approx(10.0)
        later = inj.next_break(("server_crash",), "telecom", 10.0, 100.0)
        assert later is not None and later.start == pytest.approx(30.0)
        assert inj.next_break(("server_crash",), "telecom", 30.0, 100.0) \
            is None

    def test_factor_multiplies_active_severities(self):
        inj = self.injector()
        assert inj.factor("isp_degrade", "telecom", 15.0) \
            == pytest.approx(0.3)
        assert inj.factor("isp_degrade", "telecom", 50.0) \
            == pytest.approx(1.0)
        assert inj.factor("flash_slowdown", "miwifi", 1.0) \
            == pytest.approx(0.5)
        assert inj.factor("flash_slowdown", "newifi", 1.0) \
            == pytest.approx(1.0)

    def test_crashed_isps(self):
        inj = self.injector()
        assert inj.crashed_isps(12.0) == frozenset({"telecom"})
        assert inj.crashed_isps(20.0) == frozenset()

    def test_memoised_answers_hold_in_any_query_order(self):
        # One injector answers queries at every window edge (and just
        # either side of it) newest first; a fresh injector per query
        # answers from scratch.  The memos must never change an answer.
        plan = default_chaos_plan()
        edges = sorted({edge for spec in plan.specs
                        for edge in (spec.start, spec.end)})
        times = [t + delta for t in edges for delta in (-1.0, 0.0, 1.0)]
        memoised = FaultInjector(plan)
        for now in reversed(times):
            fresh = FaultInjector(plan)
            assert memoised.crashed_isps(now) == fresh.crashed_isps(now)
            for isp in ("telecom", "unicom", "mobile"):
                assert memoised.factor("isp_degrade", isp, now) \
                    == fresh.factor("isp_degrade", isp, now)
            for file_id in ("f1", "f2", "f3"):
                assert memoised.active("vm_stall", file_id, now) \
                    == fresh.active("vm_stall", file_id, now)

    def test_scoreboard_tallies(self):
        inj = self.injector()
        inj.retry("cloud")
        inj.failover("cloud")
        inj.abort("ap")
        inj.recover("ap", 12.0)
        board = inj.scoreboard()
        assert (board["retries"], board["failovers"], board["aborts"],
                board["recoveries"]) == (1, 1, 1, 1)


class TestInjectorRegistry:
    """Waiters registered on an entity are interrupted in registration
    order when a window on that entity opens."""

    class Waiter:
        def __init__(self, name, log):
            self.name = name
            self.log = log

        def interrupt(self, cause=None):
            self.log.append((self.name, cause.kind))

    def test_interrupt_order_and_reregistration(self):
        from repro.sim.engine import Simulator
        plan = FaultPlan(name="r", seed=1, specs=(
            spec(start=10.0, duration=5.0),
            spec(kind="isp_degrade", target="isp:telecom", start=20.0,
                 duration=5.0, severity=0.5),
            spec(start=30.0, duration=5.0)))
        injector = FaultInjector(plan)
        sim = Simulator()
        injector.bind(sim)
        log: list = []
        telecom, unicom = ("isp", "telecom"), ("isp", "unicom")
        a, b, c, d = (self.Waiter(name, log) for name in "abcd")
        for waiter in (a, b, c):
            injector.register(telecom, waiter)
        injector.register(unicom, d)
        sim.run(until=15.0)
        assert log == [("a", "server_crash"), ("b", "server_crash"),
                       ("c", "server_crash")]
        # Unregistered and registered again: a moves to the end.
        injector.unregister(telecom, a)
        injector.unregister(telecom, b)
        injector.register(telecom, a)
        injector.unregister(telecom, b)   # not registered: a no-op
        log.clear()
        sim.run()
        # isp_degrade interrupts nothing; the second crash finds c, a.
        assert log == [("c", "server_crash"), ("a", "server_crash")]
        for waiter in (a, c):
            injector.unregister(telecom, waiter)
        injector.unregister(unicom, d)
        assert injector._registered == {}


def run_cloud(scale, seed, plan=None, policies=None):
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.workload import WorkloadConfig, WorkloadGenerator
    workload = WorkloadGenerator(
        WorkloadConfig(scale=scale, seed=seed)).generate()
    faults = FaultInjector(plan) if plan is not None else None
    cloud = XuanfengCloud(CloudConfig(scale=scale), faults=faults,
                          policies=policies)
    result = cloud.run(workload)
    return result, faults


def fingerprint(result):
    return ([record.to_dict() for record in result.pre_records],
            [record.to_dict() for record in result.fetch_records])


class TestEngineChaos:
    SCALE = 0.0015
    SEED = 20150222

    @pytest.fixture(scope="class")
    def runs(self):
        plan = default_chaos_plan()
        off, off_inj = run_cloud(self.SCALE, self.SEED, plan=plan)
        on, on_inj = run_cloud(self.SCALE, self.SEED, plan=plan,
                               policies=DEFAULT_POLICIES)
        return plan, (off, off_inj), (on, on_inj)

    def test_runs_are_bit_identical_under_chaos(self, runs):
        plan, _off, (on, _inj) = runs
        again, _ = run_cloud(self.SCALE, self.SEED, plan=plan,
                             policies=DEFAULT_POLICIES)
        assert fingerprint(on) == fingerprint(again)

    def test_faults_cause_and_policies_recover_failures(self, runs):
        _plan, (off, off_inj), (on, on_inj) = runs
        base, _ = run_cloud(self.SCALE, self.SEED)
        base_failures = sum(1 for r in base.pre_records
                            if not r.success)
        off_failures = sum(1 for r in off.pre_records if not r.success)
        on_failures = sum(1 for r in on.pre_records if not r.success)
        assert off_inj.scoreboard()["impacts"] > 0
        assert off_failures > base_failures
        assert on_failures < off_failures
        assert on_inj.scoreboard()["retries"] > 0
        assert on_inj.scoreboard()["recoveries"] > 0

    def test_fault_failure_causes_are_labelled(self, runs):
        _plan, (off, _inj), _on = runs
        causes = {record.failure_cause for record in off.pre_records
                  if not record.success and record.failure_cause}
        assert any(cause.startswith("fault:") for cause in causes)

    def test_no_plan_means_no_chaos_branches(self):
        base, _ = run_cloud(self.SCALE, self.SEED)
        again, _ = run_cloud(self.SCALE, self.SEED)
        assert fingerprint(base) == fingerprint(again)


class TestShardedChaos:
    SCALE = 0.0015
    SEED = 20150222

    @staticmethod
    def stats(shards, jobs=1, plan=None, policies_on=True):
        from repro.scale.pipelines import sharded_cloud_stats
        from repro.scale.plan import ShardPlan
        shard_plan = ShardPlan(scale=TestShardedChaos.SCALE,
                               seed=TestShardedChaos.SEED,
                               shards=shards)
        stats, _info = sharded_cloud_stats(shard_plan, jobs=jobs,
                                           fault_plan=plan,
                                           policies_on=policies_on)
        return stats

    def test_merged_stats_invariant_to_split_and_jobs(self):
        plan = default_chaos_plan()
        two = self.stats(2, plan=plan)
        four = self.stats(4, plan=plan)
        parallel = self.stats(4, jobs=2, plan=plan)
        assert two == four
        assert four == parallel

    def test_policies_recover_failures_in_sharded_replay(self):
        plan = default_chaos_plan()
        off = self.stats(4, plan=plan, policies_on=False)
        on = self.stats(4, plan=plan, policies_on=True)
        base = self.stats(4)
        assert off.failures > base.failures
        assert on.failures < off.failures
        assert off.fault_impacts > 0 and off.fault_aborts > 0
        assert on.fault_retries > 0 and on.fault_recoveries > 0
        assert base.fault_impacts == 0

    def test_fault_free_chaos_path_matches_plain_replay(self):
        assert self.stats(4) == self.stats(4, plan=None)


class TestApChaos:
    @staticmethod
    def replay(faults=None, policies=None, count=120):
        from repro.ap.benchrig import ApBenchmarkRig
        from repro.workload import (
            WorkloadConfig,
            WorkloadGenerator,
            sample_benchmark_requests,
        )
        workload = WorkloadGenerator(
            WorkloadConfig(scale=0.002, seed=20150301)).generate()
        sample = sample_benchmark_requests(workload, count)
        rig = ApBenchmarkRig(workload.catalog, faults=faults,
                             policies=policies)
        return rig.replay(sample)

    def test_ap_chaos_is_deterministic_and_recoverable(self):
        plan = default_chaos_plan()
        base = self.replay()
        off = self.replay(faults=FaultInjector(plan))
        on = self.replay(faults=FaultInjector(plan),
                         policies=DEFAULT_POLICIES)
        on_again = self.replay(faults=FaultInjector(plan),
                               policies=DEFAULT_POLICIES)
        assert off.failure_ratio > base.failure_ratio
        assert on.failure_ratio < off.failure_ratio
        assert [r.record.to_dict() for r in on.results] == \
            [r.record.to_dict() for r in on_again.results]
        causes = off.failure_cause_breakdown()
        assert any(cause.startswith("fault:") for cause in causes)


class TestChaosReport:
    def test_canonical_json_and_digest(self):
        from repro.faults.chaos import canonical_json, report_digest
        report = {"workload": {"scale": 0.001}, "plan": {"name": "x"},
                  "runs": {}}
        report["digest"] = report_digest(report)
        text = canonical_json(report)
        assert json.loads(text) == report
        # The digest covers everything except itself.
        relabeled = dict(report, digest="0" * 64)
        assert report_digest(relabeled) == report["digest"]
        changed = dict(report)
        changed["workload"] = {"scale": 0.002}
        assert report_digest(changed) != report["digest"]

    def test_stats_report_shape(self):
        from repro.faults.chaos import stats_report
        from repro.scale.replay import ShardRunStats
        from repro.sim.clock import WEEK
        stats = ShardRunStats(horizon=WEEK)
        stats.tasks = 10
        stats.failures = 2
        stats.fault_retries = 3
        report = stats_report(stats)
        assert report["failure_ratio"] == pytest.approx(0.2)
        assert report["faults"]["retries"] == 3
        json.dumps(report, sort_keys=True)   # JSON-serialisable


class TestResilienceScorecardRendering:
    def test_render_scorecard_mentions_the_verdict(self):
        from repro.experiments.resilience_scorecard import \
            render_scorecard
        report = {
            "plan": {"name": "p", "seed": 1, "spec_count": 2},
            "workload": {"scale": 0.001, "seed": 2, "shards": 4},
            "runs": {
                "policies_on": {
                    "tasks": 100, "failure_ratio": 0.01,
                    "faults": {"retries": 5, "failovers": 1,
                               "recoveries": 4, "aborts": 0}},
                "policies_off": {"tasks": 100, "failure_ratio": 0.06},
            },
            "recovery": {"policies_off_failures": 6,
                         "policies_on_failures": 1,
                         "recovered_tasks": 5,
                         "recovered_fraction": 5 / 6},
            "digest": "ab" * 32,
        }
        text = render_scorecard(report, True)
        assert "recovered:           5 tasks" in text
        assert "baseline consistent: True" in text


class TestServePlanValidation:
    """Serve-domain specs fail at plan-load time, naming the spec."""

    @staticmethod
    def _plan(*specs):
        return FaultPlan("serve-chaos", 11, list(specs))

    def test_valid_plan_passes(self):
        plan = self._plan(
            spec(kind="worker_kill", target="serve:worker-1"),
            spec(kind="correlated_kill", target="serve:*", count=2),
            spec(kind="probe_blackhole", target="serve:worker-0"))
        validate_serve_plan(plan, workers=2)   # no raise

    def test_out_of_range_slot_names_the_spec(self):
        plan = self._plan(spec(kind="conn_reset",
                               target="serve:worker-7"))
        with pytest.raises(ValueError) as excinfo:
            validate_serve_plan(plan, workers=2)
        message = str(excinfo.value)
        assert "conn_reset:serve:worker-7" in message
        assert "slot 7" in message and "0..1" in message

    def test_malformed_serve_target_names_the_spec(self):
        plan = self._plan(spec(kind="admin_slowloris",
                               target="serve:workerx"))
        with pytest.raises(ValueError) as excinfo:
            validate_serve_plan(plan, workers=2)
        assert "admin_slowloris:serve:workerx" in str(excinfo.value)

    def test_correlated_count_beyond_pool_names_the_spec(self):
        plan = self._plan(spec(kind="correlated_kill",
                               target="serve:*", count=5))
        with pytest.raises(ValueError) as excinfo:
            validate_serve_plan(plan, workers=3)
        message = str(excinfo.value)
        assert "correlated_kill:serve:*" in message
        assert "kill 5 slots" in message and "3 worker(s)" in message

    @pytest.mark.parametrize("faults", [
        [{"kind": "worker_kill", "target": "serve:worker-3",
          "start": 0, "duration": 5}],
        [{"kind": "vm_stall", "start": 0, "duration": 5}],
    ])
    def test_serve_cli_rejects_plan_at_any_worker_count(self, tmp_path,
                                                        capsys, faults):
        # A single loop is a pool of 1: a worker-3 target can never
        # fire there, so the plan fails before the server boots.
        from repro.serve.__main__ import main
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"name": "p", "seed": 1,
                                    "faults": faults}))
        with pytest.raises(SystemExit) as excinfo:
            main(["--port", "0", "--faults", str(plan)])
        assert excinfo.value.code == 2
        assert "--faults: fault spec" in capsys.readouterr().err

    def test_count_only_legal_on_correlated_kill(self):
        with pytest.raises(ValueError):
            spec(kind="worker_kill", target="serve:worker-0", count=2)

    def test_count_round_trips_through_json(self):
        plan = self._plan(spec(kind="correlated_kill",
                               target="serve:*", count=3))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.specs[0].count == 3
        # count == 1 stays implicit in the wire form.
        lean = self._plan(spec(kind="worker_kill",
                               target="serve:worker-0"))
        assert "count" not in lean.to_json()


class TestCorrelatedSlots:
    def test_anchored_group_wraps_consecutively(self):
        kill = spec(kind="correlated_kill", target="serve:worker-2",
                    count=3)
        plan = FaultPlan("ck", 5, [kill])
        assert correlated_slots(plan, kill, workers=4) == [2, 3, 0]

    def test_broadcast_group_is_seed_deterministic(self):
        kill = spec(kind="correlated_kill", target="serve:*", count=2)
        plan = FaultPlan("ck", 5, [kill])
        first = correlated_slots(plan, kill, workers=4)
        assert first == correlated_slots(plan, kill, workers=4)
        assert len(set(first)) == 2
        assert all(0 <= slot < 4 for slot in first)

    def test_count_clamped_to_pool(self):
        kill = spec(kind="correlated_kill", target="serve:*", count=2)
        plan = FaultPlan("ck", 5, [kill])
        assert correlated_slots(plan, kill, workers=1) == [0]
