"""The cluster has one clock: the running event loop (DESIGN.md §10).

Every cluster timestamp — mesh start, decide latency, commit instants,
trace ``ts`` and HLC physical time — must come from ``loop.time()`` of
the loop that runs the mesh.  The loop here reads 10^10 s ahead of the
default one, so a reading from any other clock (``time.monotonic``,
``time.time``) lands ~10^10 s away from ``loop.time()`` and fails the
bound.  The loop is built by hand: Python 3.10 has no
``asyncio.Runner(loop_factory=...)``.
"""

import asyncio
import glob
import os

import pytest

from repro.cluster.chaos import ChaosConfig
from repro.cluster.driver import ClusterMesh, ClusterSpec, run_cluster
from repro.cluster.smr import SMRClient, SMRCluster
from repro.cluster.trace import ClusterTraceReader

pytestmark = pytest.mark.cluster

#: How far the loop's clock reads ahead of the default loop's.
OFFSET = 1e10

#: Slack allowed between a timestamp and ``loop.time()`` read after the
#: run; every duration must be under it too.
BOUND = 60.0


class OffsetLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock is the default one plus :data:`OFFSET`."""

    def time(self) -> float:
        return super().time() + OFFSET


def run_on_offset_loop(coroutine):
    loop = OffsetLoop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


def decide_hlc_seconds(trace_dir):
    """HLC physical time, in seconds, of every decide event."""
    seconds = []
    for path in glob.glob(os.path.join(trace_dir, "node-*.jsonl")):
        for event in ClusterTraceReader(path, decode_payloads=False):
            if event["t"] == "decide":
                seconds.append(event["hlc"][0] / 1e6)
    return seconds


def assert_on_loop_clock(instants, now):
    assert instants
    for instant in instants:
        assert abs(instant - now) < BOUND, (instant, now)


def assert_duration(seconds):
    assert 0.0 < seconds < BOUND, seconds


class TestOneClock:
    def test_traced_cluster_run_reads_the_loop(self, tmp_path, monkeypatch):
        meshes = []
        original = ClusterMesh.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            meshes.append(self)

        monkeypatch.setattr(ClusterMesh, "__init__", init)
        spec = ClusterSpec(
            n=4,
            k=1,
            protocol="failstop",
            chaos=ChaosConfig(delay_max=0.001, seed=3),
            seed=5,
        )
        trace_dir = str(tmp_path / "cluster")

        async def scenario():
            report = await run_cluster(spec, timeout=30, trace_dir=trace_dir)
            return report, asyncio.get_running_loop().time()

        report, now = run_on_offset_loop(scenario())
        assert report.ok, report.problems
        assert_on_loop_clock([meshes[0].started_at], now)
        assert_on_loop_clock(decide_hlc_seconds(trace_dir), now)
        for record in report.records:
            assert_duration(record.latency)
        assert_duration(report.wall_seconds)

    def test_smr_commits_read_the_loop(self, tmp_path):
        trace_dir = str(tmp_path / "smr")

        async def scenario():
            cluster = SMRCluster(
                ClusterSpec(n=4, k=1, protocol="failstop", seed=7),
                trace_dir=trace_dir,
            )
            await cluster.start()
            try:
                client = SMRClient(cluster, "clock")
                commits = [
                    await client.call("add", "x", value, timeout=30)
                    for value in (1, 2, 3)
                ]
            finally:
                problems = await cluster.close()
            return commits, problems, asyncio.get_running_loop().time()

        commits, problems, now = run_on_offset_loop(scenario())
        assert problems == []
        assert_on_loop_clock([commit.committed_at for commit in commits], now)
        assert_on_loop_clock(decide_hlc_seconds(trace_dir), now)
        for commit in commits:
            assert_duration(commit.latency)
