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

    def test_unknown_scheme_fails_loudly(self, capsys):
        assert main(["odr", "gopher://host/f"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "gopher" in captured.err and "Traceback" not in captured.err

    def test_bad_bandwidth_is_a_usage_error(self, capsys):
        assert main(["odr", "http://host/f", "--bandwidth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "bandwidth_mbps" in captured.err


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

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "vm_stall", "start": 0, "duration": 60},
         "--faults: fault spec #0: missing field 'target'"),
        ({"kind": "server_crash", "target": "isp:telecon", "start": 0,
          "duration": 60},
         "--faults: fault spec #0: unknown isp target 'isp:telecon'"),
    ], ids=["missing-target", "unknown-target"])
    def test_cloud_refuses_a_bad_fault_plan(self, tmp_path, capsys,
                                            spec, message):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"name": "bad", "seed": 1,
                                    "faults": [spec]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["cloud", "--scale", "0.0008", "--faults", str(plan)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

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
    @pytest.mark.parametrize("jobs", [[], ["--jobs", "1"]])
    def test_malformed_fault_plan_is_a_usage_error(self, tmp_path,
                                                   capsys, jobs):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"name": "bad", "seed": 1,
             "faults": [{"kind": "vm_stall", "start": 0,
                         "duration": 60}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["ap", "--scale", "0.0008", "--faults", str(plan),
                  *jobs])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--faults: fault spec #0: missing field 'target'" in err

    def test_ap_jobs_replay(self, capsys):
        assert main(["ap", "--scale", "0.0015", "--sample", "30",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "parallel replay" in out
        assert "failure ratio" in out

    def test_ap_jobs_replay_from_columnar_trace(self, tmp_path, capsys):
        # The workers map the sampled rows of the saved trace: the
        # report equals the in-process replay of the same week.
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0015", "--trace-format",
                     "columnar", "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["ap", "--trace", str(trace), "--sample", "30",
                     "--jobs", "1"]) == 0
        mapped = capsys.readouterr().out
        assert main(["ap", "--trace", str(trace), "--sample", "30"]) == 0
        in_process = capsys.readouterr().out
        assert "parallel replay" in mapped
        assert mapped.split("replayed:")[1] == \
            in_process.split("replayed:")[1]

    def test_experiments_jobs_writes_document(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        assert main(["experiments", "--scale", "0.0008", "--jobs", "1",
                     "--output", str(output)]) == 0
        document = output.read_text()
        assert "paper vs measured" in document
        assert "Reproduction scorecard" in document


class TestDurableCommands:
    AP = ["ap", "--scale", "0.0015", "--sample", "30"]

    def test_gzip_columnar_is_refused_before_any_work(
            self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["generate", "--scale", "0.0008", "--gzip",
                     "--trace-format", "columnar",
                     "--out", str(trace)]) == 2
        assert "--gzip applies to jsonl" in capsys.readouterr().err
        assert not trace.exists()

    def test_recovery_knobs_require_a_run_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.AP + ["--shard-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--run-dir or --resume" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", [["--shard-timeout", "5"],
                                      ["--max-shard-retries", "0"]])
    def test_experiments_recovery_knobs_require_a_run_dir(
            self, knob, capsys, monkeypatch):
        import repro.experiments.runner as runner_module

        def refuse(*args, **kwargs):
            raise AssertionError("ran the experiments")

        monkeypatch.setattr(runner_module, "run_all", refuse)
        monkeypatch.setattr(runner_module, "run_parallel", refuse,
                            raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "--scale", "0.0008", *knob])
        assert excinfo.value.code == 2
        assert "--run-dir or --resume" in capsys.readouterr().err

    def test_resume_of_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert main(self.AP + ["--resume", str(tmp_path / "nope")]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_reused_run_dir_without_resume_exits_2(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self.AP + ["--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(self.AP + ["--run-dir", str(run_dir)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_ap_run_dir_then_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self.AP + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "reused AP shards:  0/3" in first
        assert "merged digest:" in first

        assert main(self.AP + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr().out
        assert "reused AP shards:  3/3" in second

        digest = [line for line in first.splitlines()
                  if "merged digest" in line]
        assert digest == [line for line in second.splitlines()
                          if "merged digest" in line]
