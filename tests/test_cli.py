"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("generate", "cloud", "ap", "odr",
                        "experiments", "figures", "serve", "loadgen"):
            args = parser.parse_args(
                [command] if command != "odr"
                else [command, "http://x/y"])
            assert args.command == command

    def test_serve_flags(self, capsys):
        # serve and backends forward verbatim to their own parsers, so
        # repro's parser declares none of their flags.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--engine", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "python -m repro.serve: error" in err
        assert "--engine" in err
        from repro.backends.__main__ import main as backends_main
        argv = ["--scale", "0.002", "--limit", "50", "--quiet"]
        assert main(["backends", *argv]) == 0
        forwarded = capsys.readouterr().out
        assert backends_main(argv) == 0
        assert forwarded.strip()
        assert forwarded == capsys.readouterr().out

    def test_loadgen_forwards_to_its_own_parser(self, capsys):
        # Forwarded verbatim: loadgen's parser rejects a run with no
        # targets, which proves the arguments reached it.
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--rps", "5"])
        assert excinfo.value.code == 2
        assert "--target" in capsys.readouterr().err

    def test_runs_gc_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["runs", "gc", "--root", "r", "--keep-last", "5",
             "--stale-hours", "48", "--delete"])
        assert str(args.root) == "r"
        assert args.keep_last == 5
        assert args.stale_hours == 48.0
        assert args.delete
        # Dry run is the default.
        assert not parser.parse_args(["runs", "gc"]).delete
        with pytest.raises(SystemExit):
            parser.parse_args(["runs"])

    def test_metrics_flags_on_instrumented_subcommands(self):
        parser = build_parser()
        for argv in (["cloud"], ["ap"], ["odr", "http://x/y"],
                     ["experiments"]):
            args = parser.parse_args(
                argv + ["--metrics-out", "m.jsonl",
                        "--metrics-format", "prom"])
            assert str(args.metrics_out) == "m.jsonl"
            assert args.metrics_format == "prom"
            # Default: metrics disabled entirely.
            args = parser.parse_args(argv)
            assert args.metrics_out is None
            assert args.metrics_format is None

    def test_metrics_format_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cloud", "--metrics-format", "xml"])


class TestOdrCommand:
    def test_hot_p2p_file_with_bad_storage_goes_direct(self, capsys):
        assert main(["odr", "bittorrent://origin/abc",
                     "--popularity", "200", "--bandwidth", "20",
                     "--ap", "newifi", "--device", "usb-flash",
                     "--filesystem", "ntfs"]) == 0
        out = capsys.readouterr().out
        assert "user_device" in out and "Bottleneck 4" in out

    def test_slow_line_cached_file_is_staged(self, capsys):
        assert main(["odr", "http://host/f", "--popularity", "3",
                     "--cached", "--bandwidth", "0.5",
                     "--ap", "hiwifi"]) == 0
        out = capsys.readouterr().out
        assert "cloud+ap" in out

    def test_uncached_cold_file_waits_for_the_cloud(self, capsys):
        assert main(["odr", "ed2k://origin/f", "--popularity", "2",
                     "--bandwidth", "8"]) == 0
        assert "cloud" in capsys.readouterr().out

    def test_unknown_scheme_fails_loudly(self):
        with pytest.raises(ValueError):
            main(["odr", "gopher://host/f"])


class TestPipelineCommands:
    def test_generate_then_cloud_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--seed", "5",
                     "--out", str(trace)]) == 0
        assert (trace / "requests.jsonl").exists()
        capsys.readouterr()
        assert main(["cloud", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cache hit ratio" in out
        assert "impeded fetches" in out

    def test_cloud_metrics_table_to_stdout(self, capsys):
        assert main(["cloud", "--scale", "0.0008",
                     "--metrics-format", "table"]) == 0
        out = capsys.readouterr().out
        assert "repro_cloud_cache_hits_total" in out
        assert "repro_sim_events_fired_total" in out

    def test_ap_command(self, tmp_path, capsys):
        assert main(["ap", "--scale", "0.0015", "--sample", "30"]) == 0
        out = capsys.readouterr().out
        assert "failure ratio" in out
        assert "failure causes" in out

    def test_figures_command(self, tmp_path, capsys):
        assert main(["figures", "--scale", "0.0015",
                     "--outdir", str(tmp_path / "figs")]) == 0
        assert (tmp_path / "figs" / "fig11.svg").exists()

    def test_experiments_command_writes_document(self, tmp_path,
                                                 capsys):
        output = tmp_path / "EXP.md"
        assert main(["experiments", "--scale", "0.0015",
                     "--output", str(output)]) == 0
        document = output.read_text()
        assert "paper vs measured" in document
        assert "fig17" in document


class TestShardedCommands:
    def test_generate_jobs_writes_gzipped_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--jobs", "1",
                     "--shards", "4", "--gzip",
                     "--out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sharded generate" in out
        assert (trace / "requests.jsonl.gz").exists()
        from repro.workload import load_workload
        workload = load_workload(trace)
        assert workload.requests

    def test_cloud_jobs_runs_the_sharded_replay(self, capsys):
        assert main(["cloud", "--scale", "0.0008", "--jobs", "1",
                     "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded replay" in out
        assert "cache hit ratio" in out

    def test_cloud_jobs_refuses_ablations(self, capsys):
        assert main(["cloud", "--scale", "0.0008", "--jobs", "1",
                     "--no-cache"]) == 2
        assert "event-driven engine" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "1"]])
    def test_malformed_fault_plan_is_a_usage_error(self, tmp_path,
                                                   capsys, jobs):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"name": "bad", "seed": 1,
             "faults": [{"kind": "vm_stall", "start": 0,
                         "duration": 60}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["cloud", "--scale", "0.0008", "--faults", str(plan),
                  *jobs])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--faults: fault spec #0: missing field 'target'" in err

    def test_cloud_jobs_refuses_trace_replay(self, tmp_path, capsys):
        assert main(["cloud", "--jobs", "1",
                     "--trace", str(tmp_path)]) == 2
        assert "drop --trace" in capsys.readouterr().err

    def test_ap_jobs_replay(self, capsys):
        assert main(["ap", "--scale", "0.0015", "--sample", "30",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "parallel replay" in out
        assert "failure ratio" in out

    def test_experiments_jobs_writes_document(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        assert main(["experiments", "--scale", "0.0008", "--jobs", "1",
                     "--output", str(output)]) == 0
        document = output.read_text()
        assert "paper vs measured" in document
        assert "Reproduction scorecard" in document


class TestDurableCommands:
    def test_cloud_run_dir_then_resume_reuses_all_shards(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = ["cloud", "--scale", "0.0008", "--shards", "2"]
        assert main(base + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "reused shards:    0/2" in first
        assert "merged digest:" in first

        assert main(base + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr().out
        assert "reused shards:    2/2" in second

        digest = [line for line in first.splitlines()
                  if "merged digest" in line]
        assert digest == [line for line in second.splitlines()
                          if "merged digest" in line]

    def test_generate_run_dir_prints_workload_digest(
            self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--shards", "2",
                     "--out", str(trace),
                     "--run-dir", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "merged digest:" in out
        assert (trace / "requests.jsonl").exists()

    def test_gzip_columnar_is_refused_before_any_work(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["generate", "--scale", "0.0008", "--gzip",
                     "--trace-format", "columnar",
                     "--out", str(tmp_path / "trace"),
                     "--run-dir", str(run_dir)]) == 2
        assert "--gzip applies to jsonl" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_recovery_knobs_require_a_run_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cloud", "--scale", "0.0008",
                  "--shard-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--run-dir or --resume" in capsys.readouterr().err

    def test_resume_of_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert main(["cloud", "--scale", "0.0008",
                     "--resume", str(tmp_path / "nope")]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_reused_run_dir_without_resume_exits_2(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = ["cloud", "--scale", "0.0008", "--shards", "2"]
        assert main(base + ["--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(base + ["--run-dir", str(run_dir)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_ap_run_dir_then_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = ["ap", "--scale", "0.0015", "--sample", "30"]
        assert main(base + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "reused AP shards:  0/" in first
        assert main(base + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr().out
        assert "reused AP shards:" in second
        assert "0/" not in second.split("reused AP shards:")[1] \
            .splitlines()[0]
