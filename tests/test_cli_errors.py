"""CLI error-path coverage: unknown ids, bad flag values, refused
overwrites, and the resilience verbs' usage errors. Everything here
must exit 2 (usage/diagnosed error) without a traceback."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.harness.workloads import MEMORY_TABLE


class TestUnknownIds:
    def test_run_unknown_experiment_lists_available(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig11" in err

    @pytest.mark.parametrize("verb", ["compare", "profile", "faults"])
    def test_unknown_network_lists_available(self, verb, capsys):
        assert main([verb, "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown network" in err
        for network in MEMORY_TABLE:
            assert network in err

    def test_export_unknown_network(self, capsys, tmp_path):
        assert main(["export", "nonesuch", "--out", str(tmp_path)]) == 2
        assert "unknown network" in capsys.readouterr().err


class TestBadFlagValues:
    """--jobs/--retries are validated at parse time (argparse exits 2)."""

    @pytest.mark.parametrize("bad", ["0", "-1", "1.5", "two"])
    def test_bad_jobs_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig11", "--jobs", bad])
        assert exit_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3", "x"])
    def test_bad_retries_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "alexnet", "--retries", bad])
        assert exit_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_good_jobs_parse(self):
        args = build_parser().parse_args(["run", "fig11", "--jobs", "4"])
        assert args.jobs == 4


class TestFaultSweepValues:
    """faults --rates/--widths are validated at parse time (argparse exits
    2) on the plain path and under --run-dir, before any run dir exists."""

    BAD = [
        ("--rates", "2", "fault rate in [0, 1]"),
        ("--rates", "-0.1", "fault rate in [0, 1]"),
        ("--rates", "nan", "fault rate in [0, 1]"),
        ("--rates", "inf", "fault rate in [0, 1]"),
        ("--rates", "x", "fault rate in [0, 1]"),
        ("--widths", "1", "accumulator width >= 2"),
        ("--widths", "-8", "accumulator width >= 2"),
        ("--widths", "16.5", "accumulator width >= 2"),
    ]

    @pytest.mark.parametrize("with_run_dir", [False, True], ids=["plain", "run-dir"])
    @pytest.mark.parametrize("flag,bad,message", BAD)
    def test_out_of_range_rejected(self, flag, bad, message, with_run_dir, capsys, tmp_path):
        good = "0.01" if flag == "--rates" else "16"
        argv = ["faults", "alexnet", flag, good, bad]
        run_dir = tmp_path / "r"
        if with_run_dir:
            argv += ["--run-dir", str(run_dir)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not run_dir.exists()

    def test_range_edges_parse(self):
        args = build_parser().parse_args(["faults", "alexnet", "--rates", "0", "1", "--widths", "2", "64"])
        assert args.rates == [0.0, 1.0]
        assert args.widths == [2, 64]


class TestExploreSpaceValues:
    """A design space whose candidates would share a cand_id (a repeated
    value, or ratios equal in their %g form) exits 2 before anything
    is simulated or any run dir exists."""

    BASE = ["--clusters", "4", "--groups", "6", "--buffers-kib", "96", "--acc-bits", "16"]
    BAD = [
        (["--clusters", "4", "4"], "'clusters' repeats a value"),
        (["--ratios", "0.01", "0.01"], "'ratios' repeats a value"),
        (["--ratios", "0.01", "0.0100000001"], "'ratios' repeats a value"),
    ]

    @pytest.mark.parametrize("with_run_dir", [False, True], ids=["plain", "run-dir"])
    @pytest.mark.parametrize("flags,message", BAD, ids=["clusters", "ratios", "ratio-ids"])
    def test_colliding_candidates_rejected(self, flags, message, with_run_dir, capsys, tmp_path):
        argv = ["explore", "alexnet", *self.BASE, "--ratios", "0.01", "--accuracy", "none"]
        argv += flags  # a repeated flag replaces the earlier value
        run_dir = tmp_path / "r"
        if with_run_dir:
            argv += ["--run-dir", str(run_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Pareto frontier" not in captured.out
        assert not run_dir.exists()


class TestRefusedBeforeAnythingRuns:
    """A value a parameter's owner refuses exits 2 with no traceback,
    before any search, cell or run dir: at parse time (--seed) or as
    the owner's one-line ConfigError."""

    SPACE = ["--clusters", "4", "--groups", "6", "--buffers-kib", "96", "--acc-bits", "16"]
    BAD = [
        (["compare", "alexnet", "--ratio", "5"], "ratio must be in [0, 1], got 5.0"),
        (["faults", "alexnet", "--ratio", "5"], "outlier ratio must be in [0, 1], got 5.0"),
        (["faults", "alexnet", "--seed", "-5"], "expected a non-negative integer, got '-5'"),
        (["explore", "alexnet", "--seed", "-5"], "expected a non-negative integer, got '-5'"),
        (["run", "fig17", "--seed", "-5"], "expected a non-negative integer, got '-5'"),
        # the default proxy accuracy quantizes at every ratio
        (["explore", "alexnet", *SPACE, "--ratios", "1"], "outlier ratio must be in [0, 1), got 1.0"),
    ]

    @pytest.mark.parametrize("with_run_dir", [False, True], ids=["plain", "run-dir"])
    @pytest.mark.parametrize("argv,message", BAD, ids=lambda v: "-".join(v) if isinstance(v, list) else "")
    def test_refused(self, argv, message, with_run_dir, capsys, tmp_path):
        from repro.obs import Registry, set_registry

        run_dir = tmp_path / "r"
        argv = argv + (["--run-dir", str(run_dir)] if with_run_dir else [])
        obs = Registry()
        previous = set_registry(obs)
        try:
            code = main(argv)
        except SystemExit as exit_info:  # argparse's usage error
            code = exit_info.code
        finally:
            set_registry(previous)
        assert code == 2
        err = capsys.readouterr().err
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err
        if "--seed" not in argv:
            assert len(err.splitlines()) == 1
        assert not run_dir.exists()
        assert dict(obs.snapshot()) == {}  # no search or cell counted anything

    def test_ratio_one_searches_without_an_accuracy_axis(self, capsys):
        argv = ["explore", "alexnet", *self.SPACE, "--ratios", "1", "--accuracy", "none"]
        assert main(argv) == 0
        assert "Pareto frontier" in capsys.readouterr().out


class TestRunDirUsage:
    def test_run_dir_requires_sweepable_experiment(self, capsys, tmp_path):
        assert main(["run", "fig1", "--run-dir", str(tmp_path / "r")]) == 2
        assert "sweep-shaped" in capsys.readouterr().err

    def test_run_dir_requires_single_experiment(self, capsys, tmp_path):
        assert main(["run", "fig11", "fig12", "--run-dir", str(tmp_path / "r")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_resume_missing_manifest(self, capsys, tmp_path):
        assert main(["resume", str(tmp_path / "empty")]) == 2
        assert "manifest" in capsys.readouterr().err


class TestNotARunDir:
    """status/work/resume on malformed run dirs: structured exit 2,
    never a raw traceback (AttributeError/KeyError)."""

    @pytest.mark.parametrize("verb", ["status", "work", "resume"])
    def test_missing_manifest(self, verb, capsys, tmp_path):
        assert main([verb, str(tmp_path / "empty")]) == 2
        assert "not a run directory" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["status", "work"])
    def test_non_object_manifest(self, verb, capsys, tmp_path):
        """A manifest holding valid JSON that is not an object used to
        surface a raw AttributeError traceback."""
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text("[1, 2, 3]\n")
        assert main([verb, str(run), "--no-verify"]) == 2
        err = capsys.readouterr().err
        assert "not a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["work", "resume"])
    def test_explore_marker_without_request(self, verb, capsys, tmp_path):
        """An explore marker missing its request body used to surface a
        raw KeyError traceback through explore_resume."""
        from repro.harness.explore import EXPLORE_MARKER, MARKER_SCHEMA
        from repro.harness.serialize import save_json

        run = tmp_path / "run"
        run.mkdir()
        save_json(
            {"schema": MARKER_SCHEMA, "schema_version": 1, "config_hash": "0" * 12},
            run / EXPLORE_MARKER,
        )
        assert main([verb, str(run)]) == 2
        err = capsys.readouterr().err
        assert "no request object" in err
        assert "Traceback" not in err

    def test_non_object_explore_marker(self, capsys, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "explore.json").write_text('"just a string"\n')
        assert main(["resume", str(run), "--no-verify"]) == 2
        assert "not a JSON object" in capsys.readouterr().err


class TestServeArgs:
    """serve argument validation: rejected at parse time or exit 2."""

    def test_spool_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve"])
        assert exit_info.value.code == 2
        assert "--spool" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["-1", "65536"])
    def test_out_of_range_port(self, port, capsys, tmp_path):
        assert main(["serve", "--spool", str(tmp_path), "--port", port]) == 2
        assert "--port" in capsys.readouterr().err

    def test_non_positive_queue_limit_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--spool", str(tmp_path), "--queue-limit", "0"])
        assert exit_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys, tmp_path):
        # 0 is valid (pure coordinator, docs/REMOTE.md); below that is not
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--spool", str(tmp_path), "--workers", "-1"])
        assert exit_info.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_zero_workers_parses_as_pure_coordinator(self):
        args = build_parser().parse_args(["serve", "--spool", "s", "--workers", "0"])
        assert args.workers == 0

    @pytest.mark.parametrize("flag", ["--timeout", "--cell-timeout", "--heartbeat"])
    def test_non_positive_seconds_rejected(self, flag, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--spool", str(tmp_path), flag, "-2"])
        assert exit_info.value.code == 2
        assert "positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--timeout", "--cell-timeout", "--heartbeat"])
    def test_nan_seconds_rejected(self, flag, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--spool", str(tmp_path), flag, "nan"])
        assert exit_info.value.code == 2
        assert "positive number" in capsys.readouterr().err

    def test_inconsistent_lease_ttl_rejected(self, capsys, tmp_path):
        assert main(
            ["serve", "--spool", str(tmp_path), "--lease-ttl", "1", "--heartbeat", "2"]
        ) == 2
        assert "--lease-ttl" in capsys.readouterr().err

    def test_good_serve_args_parse(self):
        args = build_parser().parse_args(
            ["serve", "--spool", "s", "--port", "0", "--workers", "3", "--timeout", "60"]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.job_timeout == 60.0


class TestExportOverwrite:
    def test_export_refuses_then_forces(self, capsys, tmp_path):
        out = str(tmp_path / "results")
        assert main(["export", "alexnet", "--out", out]) == 0
        capsys.readouterr()
        # second run without --force must refuse and name the files
        assert main(["export", "alexnet", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "refusing to overwrite" in err
        assert "alexnet_layers.csv" in err
        assert "--force" in err
        # --force replaces them
        assert main(["export", "alexnet", "--out", out, "--force"]) == 0
