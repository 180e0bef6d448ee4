"""Smoke tests of the benchmark suite itself: ``pytest benchmarks/suite``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): the
suite runs real clusters on the wall clock.  Everything here uses
``--smoke`` (every phase about a second, same code paths, same metric
names).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import catalog
import run as suite

BENCHMARK = suite.load_benchmark()
RUN_PY = os.path.join(suite.HERE, "run.py")


def run_cli(*args, cwd=suite.ROOT, script=RUN_PY):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_agrees_with_the_catalog():
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        catalog.WORKLOAD_NAMES
    )
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER
    ]
    with open(os.path.join(suite.HERE, "README.md")) as handle:
        readme = handle.read()
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_every_named_metric_is_present_finite_and_carries_its_unit(
    workload, trace, tmp_path
):
    spans = tmp_path / "spans.json"
    done = run_cli(
        "--workload", workload, "--seed", "1983", "--smoke",
        "--trace", str(trace), "--trace-out", str(spans),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if trace:
        shares = sum(
            entry["value"]
            for name, entry in result["metrics"].items()
            if name.endswith(".busy_share") and name != "loop.busy_share"
        )
        shares += result["metrics"]["trace.unattributed_share"]["value"]
        shares += result["metrics"]["loop.idle_share"]["value"]
        assert shares == pytest.approx(1.0, abs=0.01)
        assert result["metrics"]["trace.unattributed_share"]["value"] >= 0
        recorded = json.loads(spans.read_text())
        assert recorded["workload"] == workload
        assert recorded["spans_recorded"] == len(recorded["spans"]) > 0
    else:
        assert not spans.exists()


def test_wrappers_are_fully_removed_after_a_traced_run():
    workloads, import_s = suite.import_program()
    import tracing
    from repro.cluster import codec, transport
    from repro.cluster.codec import FrameReader
    from repro.core.malicious import MaliciousConsensus
    from repro.net.schedulers import RandomScheduler
    from repro.net.system import MessageSystem
    from repro.sim.kernel import Simulation

    def patched_surface():
        return [
            Simulation.__dict__["run"], Simulation.__dict__["__init__"],
            MessageSystem.__dict__["send"], RandomScheduler.__dict__["choose"],
            MaliciousConsensus.__dict__["step"], FrameReader.__dict__["frames"],
            codec.encode_frame, transport.encode_frame,
        ]

    def smoke(trace):
        opts = workloads.Options(
            seed=1983, seconds=1.0, trace=trace, smoke=True
        )
        run = workloads.run_workload("sim_malicious_n10", opts, import_s)
        assert run.failed == 0, run.problems
        return run

    before = patched_surface()
    first = smoke(trace=False)
    traced = smoke(trace=True)
    assert patched_surface() == before
    assert traced.tracer.calls("sim.kernel.run") > 0
    second = smoke(trace=False)
    # The traced run costs 30-50% (trace.overhead_pct); a leftover
    # wrapper would push the second untraced run past the bound.
    bound = {m.name: m.bound for m in catalog.END_TO_END}["throughput_per_s"]
    assert second.metrics["throughput_per_s"] >= (
        first.metrics["throughput_per_s"] * (1.0 - bound)
    )
    assert first.pins == traced.pins == second.pins
    # Installing twice in a row (a crashed run's leftovers) is not
    # supported; removing is idempotent.
    installed = tracing.Installed(tracing.Tracer())
    installed.install_wrappers()
    installed.remove()
    installed.remove()
    assert patched_surface() == before


def test_bare_directory_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(suite.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        suite.HERE,
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run_cli(
        "--workload", "smr_clean_n4", "--seed", "1", "--seconds", "1",
        "--trace", "0",
        cwd=tmp_path,
        script=str(tmp_path / "benchmarks" / "suite" / "run.py"),
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_check_noise_never_calls_a_wide_metric_unchanged(capsys):
    def one_set():
        return {
            "end_to_end": {
                workload: {
                    "metrics": {
                        metric.name: {"value": 1.0, "unit": metric.unit}
                        for metric in catalog.END_TO_END
                    }
                }
                for workload in catalog.WORKLOAD_NAMES
            }
        }

    assert suite.check_noise([one_set(), one_set()], BENCHMARK) == 0
    noisy = [one_set(), one_set()]
    noisy[1]["end_to_end"]["smr_byz_n4"]["metrics"]["throughput_per_s"][
        "value"
    ] = 1.4
    assert suite.check_noise(noisy, BENCHMARK) == 1
    out = capsys.readouterr().out
    assert "unresolved" in out and "unchanged" not in out
