"""Tests for repro.recovery: durable run dirs, crash recovery, resume.

The expensive assertions here are the subsystem's contract: a killed or
hung worker costs a bounded requeue, an interrupted durable run resumes,
and the resumed merge is **bit-identical** to a run that was never
interrupted.  Worker functions live at module level so spawn-context
pools can pickle them (the repo-wide executor invariant).
"""

import json
import pickle

import pytest

from repro.obs import MetricsRegistry
from repro.recovery import (
    CorruptCheckpoint,
    RecoveryConfig,
    RunDir,
    RunDirError,
    RunInterrupted,
    ShardLostError,
    atomic_write_bytes,
    atomic_write_text,
    durable_map,
    sha256_bytes,
    sha256_file,
    worker_identity,
)
from repro.recovery.crashhook import ENV_VAR, maybe_crash, parse_hooks
from repro.ap.benchrig import sharded_ap_replay
from repro.perf.golden import ap_payload, digest

SCALE = 0.0008
SEED = 20150222


def _double(value):
    return value * 2


def _boom(value):
    raise RuntimeError("deterministic worker bug")


def _keys(count):
    return [f"item-{index}" for index in range(count)]


class TestAtomicWrites:
    def test_replaces_content_and_leaves_no_litter(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "first\n")
        atomic_write_text(target, "second\n")
        assert target.read_text() == "second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "artifact.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_failed_write_preserves_previous_copy(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"good")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not bytes")   # type: ignore
        assert target.read_bytes() == b"good"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_sha256_helpers_agree(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"payload")
        assert sha256_file(target) == sha256_bytes(b"payload")


class TestRunDir:
    IDENTITY = {"kind": "test", "scale": 0.1, "seed": 7}

    def test_create_open_roundtrip(self, tmp_path):
        run_dir = RunDir.create(tmp_path / "run", self.IDENTITY,
                                ["a", "b"])
        reopened = RunDir.open(tmp_path / "run")
        assert reopened.manifest["identity"] == \
            json.loads(json.dumps(self.IDENTITY))
        assert reopened.manifest["keys"] == ["a", "b"]

    def test_create_refuses_to_clobber(self, tmp_path):
        RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])
        with pytest.raises(RunDirError, match="already holds"):
            RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])

    def test_open_missing_fails(self, tmp_path):
        with pytest.raises(RunDirError, match="nothing to resume"):
            RunDir.open(tmp_path / "nope")

    def test_identity_mismatch_is_fatal(self, tmp_path):
        run_dir = RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])
        with pytest.raises(RunDirError, match="identity mismatch"):
            run_dir.verify_identity({**self.IDENTITY, "seed": 8})
        # The matching identity verifies without warnings (the code
        # digest was just computed, so it cannot have drifted).
        assert run_dir.verify_identity(dict(self.IDENTITY)) == []

    def test_checkpoint_roundtrip(self, tmp_path):
        run_dir = RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])
        run_dir.write_checkpoint("a", {"answer": 42})
        assert run_dir.checkpoint_status("a") == "ok"
        assert run_dir.load_checkpoint("a") == {"answer": 42}
        assert run_dir.completed_keys(["a", "b"]) == ["a"]

    def test_corrupt_checkpoint_is_detected_never_loaded(self, tmp_path):
        run_dir = RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])
        run_dir.write_checkpoint("a", [1, 2, 3])
        run_dir.checkpoint_path("a").write_bytes(b"flipped bits")
        assert run_dir.checkpoint_status("a") == "corrupt"
        with pytest.raises(CorruptCheckpoint):
            run_dir.load_checkpoint("a")

    def test_missing_digest_sidecar_means_missing(self, tmp_path):
        run_dir = RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])
        run_dir.write_checkpoint("a", 1)
        run_dir.digest_path("a").unlink()
        assert run_dir.checkpoint_status("a") == "missing"

    def test_state_roundtrip(self, tmp_path):
        run_dir = RunDir.create(tmp_path / "run", self.IDENTITY, ["a"])
        assert run_dir.state() == {"status": "unknown"}
        run_dir.write_state("running", completed=1, total=2)
        assert run_dir.state() == {"status": "running",
                                   "completed": 1, "total": 2}


class TestCrashHook:
    def test_parse_defaults_to_kill(self):
        assert parse_hooks("shard-0003:1") == {("shard-0003", 1): "kill"}

    def test_parse_multiple_hooks_with_modes(self):
        hooks = parse_hooks("a:1:hang, b:2:exit")
        assert hooks == {("a", 1): "hang", ("b", 2): "exit"}

    def test_parse_rejects_bad_syntax_and_modes(self):
        with pytest.raises(ValueError, match="bad hook"):
            parse_hooks("a")
        with pytest.raises(ValueError, match="unknown mode"):
            parse_hooks("a:1:explode")

    def test_noop_without_env_or_on_other_keys(self):
        maybe_crash("a", 1, environ={})
        maybe_crash("a", 2, environ={ENV_VAR: "a:1:raise"})
        maybe_crash("b", 1, environ={ENV_VAR: "a:1:raise"})

    def test_raise_mode_fires_on_exact_match(self):
        with pytest.raises(RuntimeError, match="crash hook"):
            maybe_crash("a", 1, environ={ENV_VAR: "a:1:raise"})


class TestWorkerIdentity:
    def test_plain_function(self):
        assert worker_identity(_double) == \
            "tests.test_recovery._double"

    def test_partial_folds_bound_arguments_in(self):
        import functools
        one = worker_identity(functools.partial(_double, value=1))
        two = worker_identity(functools.partial(_double, value=2))
        assert one.startswith("tests.test_recovery._double#")
        assert one != two


class TestDurableMapInline:
    def test_results_come_back_in_key_order(self):
        outcome = durable_map(_keys(4), [3, 1, 4, 1], _double)
        assert outcome.results == [6, 2, 8, 2]
        assert len(outcome.walls) == 4
        assert outcome.reused == ()

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            durable_map(["a", "a"], [1, 2], _double)

    def test_worker_exceptions_propagate_unretried(self, tmp_path):
        recovery = RecoveryConfig(run_dir=tmp_path / "run")
        with pytest.raises(RuntimeError, match="deterministic"):
            durable_map(_keys(2), [1, 2], _boom, recovery=recovery)
        assert RunDir.open(tmp_path / "run").state()["status"] == \
            "failed"

    def test_fresh_run_checkpoints_then_resume_reuses_all(
            self, tmp_path):
        recovery = RecoveryConfig(run_dir=tmp_path / "run")
        metrics = MetricsRegistry()
        first = durable_map(_keys(3), [1, 2, 3], _double,
                            recovery=recovery, metrics=metrics)
        assert metrics.snapshot()[
            "repro_recovery_checkpoints_written_total"] == 3.0
        resumed = durable_map(
            _keys(3), [1, 2, 3], _double,
            recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                    resume=True))
        assert resumed.results == first.results
        assert set(resumed.reused) == set(_keys(3))
        assert RunDir.open(tmp_path / "run").state()["status"] == \
            "complete"

    def test_existing_run_dir_without_resume_is_refused(self, tmp_path):
        recovery = RecoveryConfig(run_dir=tmp_path / "run")
        durable_map(_keys(2), [1, 2], _double, recovery=recovery)
        with pytest.raises(RunDirError, match="resume"):
            durable_map(_keys(2), [1, 2], _double, recovery=recovery)

    def test_resume_of_empty_dir_is_refused(self, tmp_path):
        with pytest.raises(RunDirError, match="no manifest"):
            durable_map(_keys(2), [1, 2], _double,
                        recovery=RecoveryConfig(
                            run_dir=tmp_path / "nope", resume=True))

    def test_resume_against_other_plan_keys_is_refused(self, tmp_path):
        durable_map(_keys(2), [1, 2], _double,
                    recovery=RecoveryConfig(run_dir=tmp_path / "run"))
        with pytest.raises(RunDirError, match="keys do not match"):
            durable_map(_keys(3), [1, 2, 3], _double,
                        recovery=RecoveryConfig(
                            run_dir=tmp_path / "run", resume=True))

    def test_resume_against_other_identity_is_refused(self, tmp_path):
        durable_map(_keys(2), [1, 2], _double, identity={"seed": 1},
                    recovery=RecoveryConfig(run_dir=tmp_path / "run"))
        with pytest.raises(RunDirError, match="identity mismatch"):
            durable_map(_keys(2), [1, 2], _double,
                        identity={"seed": 2},
                        recovery=RecoveryConfig(
                            run_dir=tmp_path / "run", resume=True))

    def test_corrupt_checkpoint_is_recomputed_never_merged(
            self, tmp_path, capsys):
        recovery = RecoveryConfig(run_dir=tmp_path / "run")
        durable_map(_keys(3), [1, 2, 3], _double, recovery=recovery)
        run_dir = RunDir.open(tmp_path / "run")
        run_dir.checkpoint_path("item-1").write_bytes(
            pickle.dumps("poisoned result"))
        metrics = MetricsRegistry()
        resumed = durable_map(
            _keys(3), [1, 2, 3], _double, metrics=metrics,
            recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                    resume=True))
        assert resumed.results == [2, 4, 6]   # not "poisoned result"
        assert set(resumed.reused) == {"item-0", "item-2"}
        assert metrics.snapshot()[
            "repro_recovery_corrupt_checkpoints_total"] == 1.0
        assert "digest check" in capsys.readouterr().err

    def test_interrupt_checkpoints_then_resume_is_bit_identical(
            self, tmp_path):
        keys, payloads = _keys(4), [5, 6, 7, 8]
        clean = durable_map(keys, payloads, _double)
        checks = {"count": 0}

        def stop_after_two():
            checks["count"] += 1
            return checks["count"] > 2

        with pytest.raises(RunInterrupted) as excinfo:
            durable_map(keys, payloads, _double,
                        recovery=RecoveryConfig(
                            run_dir=tmp_path / "run"),
                        should_stop=stop_after_two)
        assert excinfo.value.completed == 2
        assert excinfo.value.total == 4
        assert RunDir.open(tmp_path / "run").state()["status"] == \
            "interrupted"

        resumed = durable_map(
            keys, payloads, _double,
            recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                    resume=True))
        assert set(resumed.reused) == {"item-0", "item-1"}
        assert pickle.dumps(resumed.results) == \
            pickle.dumps(clean.results)


class TestDurableMapPool:
    """Spawn-pool failure paths, driven by the deterministic crash hook."""

    def test_killed_worker_is_requeued_and_run_completes(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, "item-1:1:kill")
        metrics = MetricsRegistry()
        outcome = durable_map(
            _keys(3), [1, 2, 3], _double, jobs=2, metrics=metrics,
            recovery=RecoveryConfig(run_dir=tmp_path / "run"))
        assert outcome.results == [2, 4, 6]
        assert outcome.retries >= 1
        snapshot = metrics.snapshot()
        assert snapshot["repro_recovery_pool_rebuilds_total"] >= 1.0
        assert snapshot["repro_recovery_shard_retries_total"] >= 1.0
        assert "worker pool broke" in capsys.readouterr().err
        assert RunDir.open(tmp_path / "run").state()["status"] == \
            "complete"

    def test_exhausted_budget_fails_resumable_then_resumes(
            self, tmp_path, monkeypatch):
        # Kill every attempt the budget allows (1 original + 1 retry).
        monkeypatch.setenv(ENV_VAR, "item-1:1:kill,item-1:2:kill")
        recovery = RecoveryConfig(run_dir=tmp_path / "run",
                                  max_shard_retries=1)
        with pytest.raises(ShardLostError):
            durable_map(_keys(2), [1, 2], _double, jobs=2,
                        recovery=recovery)
        assert RunDir.open(tmp_path / "run").state()["status"] == \
            "failed"
        monkeypatch.delenv(ENV_VAR)
        resumed = durable_map(
            _keys(2), [1, 2], _double, jobs=2,
            recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                    resume=True))
        assert resumed.results == [2, 4]

    def test_non_durable_run_survives_via_inline_fallback(
            self, monkeypatch, capsys):
        # Without a run dir the map must never die with a raw
        # BrokenProcessPool: after the pool budget, the lost item is
        # re-run in the coordinating process (crash hook disabled).
        monkeypatch.setenv(
            ENV_VAR, "item-1:1:kill,item-1:2:kill,item-1:3:kill")
        metrics = MetricsRegistry()
        outcome = durable_map(_keys(2), [1, 2], _double, jobs=2,
                              metrics=metrics)
        assert outcome.results == [2, 4]
        assert metrics.snapshot()[
            "repro_recovery_inline_fallbacks_total"] >= 1.0
        assert "re-running in-process" in capsys.readouterr().err

    def test_hung_worker_trips_watchdog_and_is_requeued(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, "item-1:1:hang")
        metrics = MetricsRegistry()
        # The hang hook sleeps for an hour, so any watchdog value trips
        # on the hung attempt; it must still be generous enough that
        # spawn-context pool startup on a slow or loaded host doesn't
        # charge the healthy items too and exhaust the attempt budget.
        outcome = durable_map(
            _keys(2), [1, 2], _double, jobs=2, metrics=metrics,
            recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                    shard_timeout=8.0))
        assert outcome.results == [2, 4]
        assert metrics.snapshot()[
            "repro_recovery_shard_timeouts_total"] == 1.0
        assert "watchdog" in capsys.readouterr().err


class TestShardedRecovery:
    """End-to-end: the parallel AP replay survives worker loss and
    resumes bit-identically (the acceptance contract of this
    subsystem)."""

    @staticmethod
    def replay(workload, **kwargs):
        """The AP campaign over 30 requests: (result payload, the map's
        outcome)."""
        report, outcome = sharded_ap_replay(
            workload.catalog, workload.requests[:30], seed=7, **kwargs)
        return ap_payload(report.results), outcome

    def test_kill_resume_merge_is_bit_identical(
            self, workload, tmp_path, monkeypatch):
        plain, _info = self.replay(workload)

        # A worker SIGKILLed mid-run costs a requeue, not the run ...
        monkeypatch.setenv(ENV_VAR, "ap-01:1:kill")
        recovered, outcome = self.replay(
            workload, jobs=2,
            recovery=RecoveryConfig(run_dir=tmp_path / "run"))
        assert outcome.retries >= 1
        assert recovered == plain
        assert digest(recovered) == digest(plain)
        monkeypatch.delenv(ENV_VAR)

        # ... and a resume with one checkpoint corrupted recomputes
        # exactly that AP's slice, still merging bit-identically.
        run_dir = RunDir.open(tmp_path / "run")
        run_dir.checkpoint_path("ap-00").write_bytes(b"torn")
        resumed, resumed_outcome = self.replay(
            workload, recovery=RecoveryConfig(run_dir=tmp_path / "run",
                                              resume=True))
        assert len(resumed_outcome.reused) == \
            len(resumed_outcome.results) - 1
        assert resumed == plain
        assert digest(resumed) == digest(plain)

    def test_run_info_reports_reuse_and_retries(self, workload,
                                                tmp_path):
        _results, outcome = self.replay(
            workload, recovery=RecoveryConfig(run_dir=tmp_path / "run"))
        assert outcome.reused == ()
        assert outcome.retries == 0

    def test_worker_errors_still_propagate_with_recovery(
            self, tmp_path):
        def boom(shard):
            raise RuntimeError("shard exploded")
        with pytest.raises(RuntimeError, match="shard exploded"):
            durable_map(["shard-0000", "shard-0001"], [0, 1], boom,
                        recovery=RecoveryConfig(
                            run_dir=tmp_path / "run"))


class TestGroupRunnerRecovery:
    def test_resume_skips_completed_groups(self, tmp_path):
        from repro.experiments.runner import GROUPS, run_parallel
        reports, claims, _timings, failures = run_parallel(
            SCALE, SEED, jobs=1,
            recovery=RecoveryConfig(run_dir=tmp_path / "run"))
        assert failures == []

        metrics = MetricsRegistry()
        resumed_reports, resumed_claims, _t, resumed_failures = \
            run_parallel(SCALE, SEED, jobs=1, metrics=metrics,
                         recovery=RecoveryConfig(
                             run_dir=tmp_path / "run", resume=True))
        assert resumed_failures == []
        assert metrics.snapshot()[
            "repro_recovery_checkpoints_reused_total"] == \
            float(len(GROUPS))
        assert [report.render() for report in resumed_reports] == \
            [report.render() for report in reports]
        assert [(claim.claim, claim.holds)
                for claim in resumed_claims] == \
            [(claim.claim, claim.holds) for claim in claims]
