"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_accepts_workers(self):
        args = build_parser().parse_args(["run", "section45", "--workers", "4"])
        assert args.workers == 4

    def test_workers_defaults_to_sequential(self):
        args = build_parser().parse_args(["run", "section45"])
        assert args.workers is None

    def test_run_all_accepts_workers(self):
        args = build_parser().parse_args(["run-all", "--workers", "2"])
        assert args.workers == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "section45", "--workers", "-2"])

    @pytest.mark.parametrize(
        "argv",
        [["run", "section45"], ["run-all"], ["serve"], ["loadgen"]],
        ids=["run", "run-all", "serve", "loadgen"],
    )
    def test_shards_flag_is_gone(self, argv):
        # One cache topology: in-process sharding and its flag were removed.
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--shards", "2"])

    def test_run_accepts_profile(self):
        args = build_parser().parse_args(
            ["run", "section45", "--profile", "run.prof"]
        )
        assert args.profile == "run.prof"


class TestMain:
    def test_list_prints_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure02" in output
        assert "table1" in output

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "nonexistent"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "theta_0" in output

    def test_run_figure02(self, capsys):
        assert main(["run", "figure02"]) == 0
        output = capsys.readouterr().out
        assert "P_vr" in output and "Omega" in output

    def test_run_profile_dumps_stats(self, capsys, tmp_path):
        import pstats

        destination = tmp_path / "table1.prof"
        assert main(["run", "table1", "--profile", str(destination)]) == 0
        capsys.readouterr()
        assert destination.exists()
        # The dump is a loadable cProfile stats file, not just bytes.
        pstats.Stats(str(destination))

    def test_run_all_profile_derives_per_experiment_paths(self, tmp_path):
        from repro.cli import _profile_destination

        base = str(tmp_path / "all.prof")
        assert _profile_destination(base, "figure03") == str(
            tmp_path / "all-figure03.prof"
        )
        assert _profile_destination(str(tmp_path / "all"), "table1") == str(
            tmp_path / "all-table1.prof"
        )
        assert _profile_destination(base, None) == base


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("repro ")
        # Sourced from the package metadata (fallback: repro.__version__).
        version = output.split()[1]
        assert version.count(".") >= 1


class TestServingParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 7411

    def test_serve_accepts_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--capacity", "32"]
        )
        assert args.port == 9000 and args.capacity == 32

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.mode == "concurrent"
        assert args.clients == 4
        assert args.connect is None

    def test_loadgen_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--mode", "chaotic"])

    def test_compare_offline_requires_deterministic(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--mode", "concurrent", "--compare-offline"])

    def test_serve_wal_defaults_and_options(self):
        args = build_parser().parse_args(["serve"])
        assert args.wal_dir is None
        assert args.checkpoint_every == 256
        assert args.wal_fsync == "checkpoint"
        args = build_parser().parse_args(
            ["serve", "--wal-dir", "/tmp/w", "--checkpoint-every", "8",
             "--wal-fsync", "never"]
        )
        assert args.wal_dir == "/tmp/w"
        assert args.checkpoint_every == 8
        assert args.wal_fsync == "never"

    def test_serve_rejects_bad_wal_options(self):
        with pytest.raises(SystemExit):
            main(["serve", "--checkpoint-every", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--wal-fsync", "sometimes"])

    def test_partition_procs_needs_deterministic_mode(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--mode", "concurrent", "--partition-procs", "2"])

    def test_partition_procs_excludes_remote_and_partitions(self):
        with pytest.raises(SystemExit):
            main(
                ["loadgen", "--mode", "deterministic", "--partition-procs",
                 "2", "--connect", "localhost:1"]
            )
        with pytest.raises(SystemExit):
            main(
                ["loadgen", "--mode", "deterministic", "--partition-procs",
                 "2", "--partitions", "2"]
            )

    @pytest.mark.parametrize("flag", ["--open-duration", "--peak-rate"])
    def test_open_loop_rejects_nan(self, flag, monkeypatch):
        # A NaN duration or peak rate never ends the arrival schedule; make
        # reaching the run fail fast instead of hanging.
        import repro.serving.loadgen

        async def never(*args, **kwargs):
            raise AssertionError("a NaN profile reached run_open_loop")

        monkeypatch.setattr(repro.serving.loadgen, "run_open_loop", never)
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--mode", "open-loop", "--hosts", "2", flag, "nan"])
        assert excinfo.value.code == 2

    def test_partition_kill_plan_needs_partition_procs(self):
        with pytest.raises(SystemExit):
            main(
                ["loadgen", "--mode", "deterministic", "--fault-plan",
                 "part_kill_every=10"]
            )


class TestServingMain:
    def test_loadgen_deterministic_matches_offline(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--mode",
                    "deterministic",
                    "--hosts",
                    "8",
                    "--duration",
                    "50",
                    "--compare-offline",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "MATCH" in output and "MISMATCH" not in output
        assert "hit_rate=" in output

    def test_loadgen_partition_procs_survives_kills(self, capsys, tmp_path):
        # The whole durability path through the CLI: a 2-process pool with
        # WALs, one seeded SIGKILL mid-replay, recovery, and a report that
        # still matches the offline simulator exactly.
        assert (
            main(
                [
                    "loadgen",
                    "--mode",
                    "deterministic",
                    "--hosts",
                    "8",
                    "--duration",
                    "50",
                    "--partition-procs",
                    "2",
                    "--wal-dir",
                    str(tmp_path),
                    "--checkpoint-every",
                    "32",
                    "--fault-plan",
                    "seed=11,part_kill_every=10,part_kills=1",
                    "--check-invariant",
                    "--compare-offline",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "partition_kills=1" in output
        assert "violations=0" in output
        assert "MATCH" in output and "MISMATCH" not in output
        assert (tmp_path / "partition-0.wal").exists()

    def test_loadgen_concurrent_reports_latency(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--hosts",
                    "8",
                    "--duration",
                    "40",
                    "--clients",
                    "3",
                    "--queries",
                    "10",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "latency_ms: p50=" in output
        assert "throughput=" in output
