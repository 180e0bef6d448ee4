"""Tests for the repro-consensus CLI."""

import argparse

from repro.harness.cli import build_parser, main


def _counter(out: str, name: str) -> int:
    """One counter's value from a ``--metrics`` summary table."""
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return int(fields[1])
    return 0


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("E1", "E3", "E10"):
            assert key in out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "e999"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_run_e5_prints_table(self, capsys):
        assert main(["run", "e5"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "SPLIT" in out

    def test_run_e6_prints_table(self, capsys):
        assert main(["run", "E6"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3" in out

    def test_run_markdown_format(self, capsys):
        assert main(["run", "e5", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| protocol |" in out
        separator_rows = [
            line for line in out.splitlines() if line.startswith("|---")
        ]
        assert len(separator_rows) == 1

    def test_run_csv_format(self, capsys):
        assert main(["run", "e6", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "protocol,n,k,regime,outcome"

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out


class TestFuzzCli:
    def test_at_bound_smoke_is_clean(self, capsys):
        assert main(["fuzz", "--plans", "25", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 25 plans" in out
        assert "no violations" in out

    def test_over_bound_smoke_finds_and_shrinks(self, capsys, tmp_path):
        artifacts = str(tmp_path / "artifacts")
        assert main([
            "fuzz", "--plans", "25", "--seed", "1", "--over-bound",
            "--artifacts", artifacts, "--shrink-limit", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "replay verified" in out
        import os
        saved = sorted(os.listdir(artifacts))
        assert saved and saved[0].startswith("counterexample-")

    def test_bad_protocol_pool_rejected(self, capsys):
        assert main(["fuzz", "--plans", "5", "--protocols", "paxos"]) == 2
        assert "unknown protocol" in capsys.readouterr().out


class TestListJson:
    def test_json_inventory_is_machine_readable(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = [entry["id"] for entry in payload["experiments"]]
        assert ids == [f"E{i}" for i in range(1, len(ids) + 1)]
        assert all(entry["title"] for entry in payload["experiments"])
        assert "failstop" in payload["protocols"]
        assert payload["cluster"]["protocols"] == ["failstop", "malicious"]
        assert "balancing" in payload["cluster"]["byzantine_kinds"]

    def test_plain_listing_unchanged(self, capsys):
        assert main(["list"]) == 0
        assert "E1 " in capsys.readouterr().out


class TestMetricsCheckCli:
    def test_self_check_passes(self, capsys):
        assert main(["metrics", "--check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_library_failures_fail_with_reason(self, capsys, monkeypatch):
        # Regression: the trace-validation check used to swallow every
        # exception; now only ReproError means FAIL, and the message
        # carries the underlying reason.
        import repro.sim.trace_tools as trace_tools
        from repro.errors import ReproError

        def bad_trace(events):
            raise ReproError("event 3 delivered before its send")

        monkeypatch.setattr(trace_tools, "validate_trace", bad_trace)
        assert main(["metrics", "--check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "ReproError: event 3 delivered before its send" in out

    def test_harness_bugs_propagate(self, monkeypatch):
        import pytest

        import repro.sim.trace_tools as trace_tools

        def buggy(events):
            raise RuntimeError("harness bug")

        monkeypatch.setattr(trace_tools, "validate_trace", buggy)
        with pytest.raises(RuntimeError, match="harness bug"):
            main(["metrics", "--check"])


class TestClusterCli:
    pytestmark = __import__("pytest").mark.cluster

    def test_failstop_smoke(self, capsys):
        assert main([
            "cluster", "--protocol", "failstop", "--n", "4", "--k", "1",
            "--timeout", "30", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "DECIDED" in out
        assert "PASS" in out

    def test_byzantine_chaos_run_with_traces(self, capsys, tmp_path):
        trace_dir = str(tmp_path / "traces")
        assert main([
            "cluster", "--n", "4", "--k", "1", "--byzantine", "1",
            "--chaos-delay-max", "0.003", "--chaos-drop", "0.02",
            "--timeout", "45", "--seed", "3", "--metrics",
            "--trace-out", trace_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "byzantine" in out
        assert "cluster.transport.received" in out
        import os
        assert sorted(os.listdir(trace_dir)) == [
            f"node-{pid}.jsonl" for pid in range(4)
        ] + ["run.json"]

    def test_multi_instance_run(self, capsys):
        assert main([
            "cluster", "--protocol", "failstop", "--n", "4", "--k", "1",
            "--instances", "3", "--timeout", "45", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "x3 instances" in out
        assert "[i0]" in out and "[i2]" in out
        assert "PASS for all 3 instances" in out

    def test_bad_instances_exits_2(self, capsys):
        assert main(["cluster", "--instances", "0"]) == 2
        assert "--instances" in capsys.readouterr().out

    def test_bad_configuration_exits_2(self, capsys):
        assert main([
            "cluster", "--protocol", "failstop", "--byzantine", "1",
        ]) == 2
        assert "bad cluster configuration" in capsys.readouterr().out

    def test_bad_trace_sample_exits_2(self, capsys):
        """Regression: 0 used to be clamped to "span every frame"."""
        assert main(["cluster", "--trace-sample", "-3"]) == 2
        assert "--trace-sample must be >= 1, got -3" in capsys.readouterr().out

    def test_chaos_delay_min_alone_enables_chaos(self, capsys):
        """Regression: a positive minimum delay is a chaos request even
        with every other chaos option at its default."""
        assert main([
            "cluster", "--protocol", "failstop", "--chaos-delay-min", "0.002",
            "--timeout", "45", "--seed", "4", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "under chaos" in out
        assert _counter(out, "cluster.chaos.delayed") > 0


class TestSmrCli:
    pytestmark = __import__("pytest").mark.cluster

    SMALL = [
        "smr", "--protocol", "failstop", "--n", "4", "--k", "1",
        "--clients", "2", "--rate", "200", "--ops", "12",
        "--retry-every", "4", "--commit-timeout", "45", "--seed", "3",
    ]

    def test_failstop_smoke(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "smr n=4 k=1 failstop:" in out
        assert "replicas byte-identical" in out

    def test_unmeetable_slo_exits_1(self, capsys):
        assert main(self.SMALL + ["--slo-commit-p99-ms", "0.001"]) == 1
        assert "SLO FAIL" in capsys.readouterr().out

    def test_bad_arguments_exit_2(self, capsys):
        for argv, needle in (
            (["smr", "--ops", "0"], "--ops"),
            (["smr", "--rate", "0"], "--rate"),
            (
                ["smr", "--byzantine", "1", "--protocol", "failstop"],
                "bad smr configuration",
            ),
            (
                ["smr", "--trace-sample", "0"],
                "--trace-sample must be >= 1, got 0",
            ),
        ):
            assert main(argv) == 2
            assert needle in capsys.readouterr().out

    def test_rejected_configuration_ends_the_same_with_trace_out(
        self, capsys, tmp_path
    ):
        """Regression: ``smr --trace-out`` used to die in a
        ``FileNotFoundError`` from its close-time manifest, masking the
        exit-2 line the same command prints without the option (and
        that ``cluster`` prints with it)."""
        import os
        for command, own in (("smr", ["--ops", "5"]), ("cluster", [])):
            rejected = [command, "--n", "4", "--k", "2"] + own
            trace_dir = str(tmp_path / command)
            assert main(rejected) == 2
            plain = capsys.readouterr().out
            assert f"bad {command} configuration: k=2 exceeds" in plain
            assert main(rejected + ["--trace-out", trace_dir]) == 2
            assert capsys.readouterr().out == plain
            assert not os.path.exists(trace_dir)

    def test_trace_out_feeds_report_check(self, capsys, tmp_path):
        import os
        trace_dir = str(tmp_path / "traces")
        assert main(self.SMALL + ["--trace-out", trace_dir]) == 0
        assert sorted(os.listdir(trace_dir)) == [
            f"node-{pid}.jsonl" for pid in range(4)
        ] + ["node-client.jsonl", "run.json"]
        capsys.readouterr()
        assert main(["report", trace_dir, "--check"]) == 0
        assert "SLO gates: all passed" in capsys.readouterr().out

    def test_chaos_delay_min_alone_enables_chaos(self, capsys):
        assert main(
            self.SMALL + ["--chaos-delay-min", "0.002", "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "under chaos" in out
        assert _counter(out, "cluster.chaos.delayed") > 0


class TestMeshOptionParity:
    """``cluster`` and ``smr`` declare their shared options once; what
    either command accepts for them must be what the other accepts."""

    SHARED = {
        "--n", "--k", "--protocol", "--byzantine", "--byzantine-kind",
        "--chaos-delay-min", "--chaos-delay-max", "--chaos-drop",
        "--chaos-reset-every", "--seed", "--metrics", "--trace-out",
        "--trace-sample",
    }

    def options(self, command):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return {
            action.option_strings[0]: action
            for action in subparsers.choices[command]._actions
            if action.option_strings and action.dest != "help"
        }

    def test_shared_options_are_identical_on_both_commands(self):
        cluster, smr = self.options("cluster"), self.options("smr")
        assert set(cluster) & set(smr) == self.SHARED
        for flag in sorted(self.SHARED):
            ours, theirs = cluster[flag], smr[flag]
            assert type(ours) is type(theirs), flag
            for field in ("default", "type", "choices", "metavar", "dest"):
                assert getattr(ours, field) == getattr(theirs, field), (
                    flag, field,
                )

    def test_each_command_keeps_its_own_options(self):
        assert set(self.options("cluster")) - self.SHARED == {
            "--inputs", "--instances", "--timeout",
        }
        assert set(self.options("smr")) - self.SHARED == {
            "--clients", "--rate", "--ops", "--retry-every",
            "--compact-every", "--commit-timeout", "--slo-commit-p99-ms",
        }

    def test_legacy_bench_surface_is_gone(self, capsys):
        """The repository benchmark (``benchmarks/suite/``) is the only
        one: no ``bench`` subcommand, no ``--bench`` on either command."""
        import pytest

        for argv in (["bench"], ["cluster", "--bench"], ["smr", "--bench"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            capsys.readouterr()
