"""The one cluster bring-up and wind-down: ``ClusterMesh`` under both
harnesses.

``run_cluster`` and ``SMRCluster`` stand on the same mesh, so for one
spec and seed they must hand every transport, chaos proxy and node the
same derived seed — the formulas are pinned here because a seed has to
keep computing the same run across revisions — and a bring-up that
fails part-way must close everything it opened, whichever harness
asked for it.  The run's ending is the mesh's too: one verdict, one
manifest, one close order.
"""

import asyncio
import json
import logging
import os

import pytest

from repro.cluster.chaos import ChaosConfig, ChaosProxy
from repro.cluster.driver import ClusterMesh, ClusterSpec, run_cluster
from repro.cluster.node import ClusterNode, DecisionRecord
from repro.cluster.smr import SMRCluster, run_smr
from repro.cluster.trace import ClusterTraceWriter
from repro.cluster.transport import Transport
from repro.errors import ConfigurationError

pytestmark = pytest.mark.cluster

SPEC = ClusterSpec(
    n=4,
    k=1,
    protocol="failstop",
    chaos=ChaosConfig(delay_max=0.001, seed=21),
    seed=13,
)


def record_constructions(monkeypatch, cls, log):
    """Append every ``cls`` instance built from here on to ``log``,
    with the positional and keyword arguments it was built from."""
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        log.append((self, args, kwargs))

    monkeypatch.setattr(cls, "__init__", init)


class TestSeedDerivation:
    def seeds_under(self, monkeypatch, run):
        transports, proxies, nodes = [], [], []
        with monkeypatch.context() as patch:
            record_constructions(patch, Transport, transports)
            record_constructions(patch, ChaosProxy, proxies)
            record_constructions(patch, ClusterNode, nodes)
            asyncio.run(run())
        return (
            [kwargs["seed"] for _, _, kwargs in transports],
            [args[1].seed for _, args, _ in proxies],
            [kwargs["seed"] for _, _, kwargs in nodes],
        )

    def test_both_harnesses_derive_the_parent_formulas(self, monkeypatch):
        async def under_run_cluster():
            report = await run_cluster(SPEC, timeout=45.0)
            assert report.ok, report.problems

        async def under_smr():
            cluster = SMRCluster(SPEC)
            await cluster.start()
            try:
                assert await cluster.drain(timeout=45.0)
            finally:
                assert await cluster.close() == []

        driver_seeds = self.seeds_under(monkeypatch, under_run_cluster)
        smr_seeds = self.seeds_under(monkeypatch, under_smr)
        assert driver_seeds == smr_seeds
        pids = range(SPEC.n)
        assert driver_seeds == (
            [SPEC.seed * 1_000_003 + pid for pid in pids],
            [SPEC.chaos.seed + 7919 * pid for pid in pids],
            [SPEC.seed * 9_973 + pid for pid in pids],
        )

    def test_clean_spec_builds_no_proxies(self, monkeypatch):
        proxies = []
        record_constructions(monkeypatch, ChaosProxy, proxies)

        async def scenario():
            mesh = ClusterMesh(ClusterSpec(n=4, k=1, protocol="failstop"))
            await mesh.open()
            try:
                return [node.pid for node in mesh.nodes], mesh.correct_pids
            finally:
                await mesh.close()

        pids, correct = asyncio.run(scenario())
        assert pids == [0, 1, 2, 3]
        assert correct == frozenset(pids)
        assert proxies == []


class TestTracedProxies:
    def test_each_proxy_traces_through_its_nodes_tracer(
        self, monkeypatch, tmp_path
    ):
        """A chaos proxy shares the fronted pid's tracer, so its events
        land in that pid's shard on that pid's clock."""
        proxies = []
        record_constructions(monkeypatch, ChaosProxy, proxies)

        async def scenario():
            mesh = ClusterMesh(SPEC, trace_dir=str(tmp_path / "traces"))
            await mesh.open()
            try:
                return [
                    (proxy.tracer, proxy.trace, proxy.registry)
                    for proxy, _, _ in proxies
                ], [node.tracer for node in mesh.nodes], mesh.registry
            finally:
                await mesh.close()

        handles, tracers, registry = asyncio.run(scenario())
        assert len(handles) == len(tracers) == SPEC.n
        for (tracer, trace, proxy_registry), node_tracer in zip(
            handles, tracers
        ):
            assert tracer is node_tracer
            assert trace is node_tracer.writer
            assert proxy_registry is registry


class TestEnsembleValidation:
    """The mesh builds nodes from single-member factories; the checks
    only a whole ensemble can make still run before anything opens."""

    @pytest.mark.parametrize(
        "spec",
        [
            ClusterSpec(n=4, k=1, protocol="failstop", inputs="101"),
            ClusterSpec(n=4, k=1, protocol="failstop", inputs=[1, 2, 1, 1]),
            ClusterSpec(n=4, k=1, byzantine_count=2),
            ClusterSpec(
                n=4, k=1, protocol="failstop",
                crashes={0: {"crash_at_step": 1}, 1: {"crash_at_step": 1}},
            ),
        ],
        ids=["short-inputs", "non-binary-inputs", "byzantine>k", "crashes>k"],
    )
    def test_bad_ensembles_open_nothing(self, monkeypatch, spec):
        transports = []
        record_constructions(monkeypatch, Transport, transports)
        with pytest.raises(ConfigurationError):
            asyncio.run(ClusterMesh(spec).open())
        assert transports == []


class TestPartialBringUp:
    """Regression: ``run_smr`` used to start its cluster outside any
    cleanup, so a bring-up failing part-way leaked listening sockets
    and open trace shards."""

    @pytest.mark.parametrize("harness", ["run_cluster", "run_smr"])
    def test_failed_bring_up_closes_what_it_opened(
        self, monkeypatch, tmp_path, harness
    ):
        transports, writers, listening = [], [], []
        record_constructions(monkeypatch, Transport, transports)
        record_constructions(monkeypatch, ClusterTraceWriter, writers)
        real_transport_serve = Transport.serve
        real_proxy_serve = ChaosProxy.serve
        proxy_serves = 0

        async def transport_serve(self, *args, **kwargs):
            addr = await real_transport_serve(self, *args, **kwargs)
            listening.append(addr)
            return addr

        async def proxy_serve(self, *args, **kwargs):
            nonlocal proxy_serves
            proxy_serves += 1
            if proxy_serves == 3:
                raise OSError("injected: third proxy cannot listen")
            addr = await real_proxy_serve(self, *args, **kwargs)
            listening.append(addr)
            return addr

        monkeypatch.setattr(Transport, "serve", transport_serve)
        monkeypatch.setattr(ChaosProxy, "serve", proxy_serve)

        async def scenario():
            trace_dir = str(tmp_path / harness)
            with pytest.raises(OSError, match="injected"):
                if harness == "run_cluster":
                    await run_cluster(SPEC, timeout=45.0, trace_dir=trace_dir)
                else:
                    await run_smr(SPEC, ops=4, trace_dir=trace_dir)
            refused = 0
            for addr in listening:
                try:
                    _, writer = await asyncio.open_connection(*addr)
                except OSError:
                    refused += 1
                else:
                    writer.close()
            return refused

        refused = asyncio.run(scenario())
        # Three transports and two proxies were listening when the third
        # proxy failed; none of them accepts a connection any more.
        assert len(transports) == 3 and len(listening) == 5
        assert refused == len(listening)
        assert all(transport._closed for transport, _, _ in transports)
        assert len(writers) == 3
        assert all(writer._closed for writer, _, _ in writers)
        # The shards exist (makedirs had run) but no manifest calls a
        # run that never started "ok".
        assert "run.json" not in os.listdir(tmp_path / harness)


class TestVerdictAndManifest:
    """One method judges a run and records it, for both harnesses."""

    def test_never_started_cluster_closes_clean_and_writes_nothing(
        self, tmp_path
    ):
        """Regression: ``SMRCluster.close`` wrote a manifest for a mesh
        that never opened — into a directory that did not exist."""
        trace_dir = str(tmp_path / "traces")
        cluster = SMRCluster(SPEC, trace_dir=trace_dir)
        assert asyncio.run(cluster.close()) == []
        assert not os.path.exists(trace_dir)

    def test_each_instance_is_judged_on_its_own(self, tmp_path):
        trace_dir = str(tmp_path / "traces")

        def decided(pid, value):
            return DecisionRecord(pid, value, 1, 0.01, 8, True, instance=0)

        async def scenario():
            mesh = ClusterMesh(
                ClusterSpec(n=4, k=1, protocol="failstop"),
                trace_dir=trace_dir,
            )
            await mesh.open()
            try:
                mesh.nodes[0]._records[0] = decided(0, 1)
                mesh.nodes[1]._records[0] = decided(1, 0)
                return (
                    mesh.verdict(2, False, ["caller: its own finding"]),
                    mesh.verdict(None, False),
                )
            finally:
                await mesh.close()

        expected, whatever = asyncio.run(scenario())
        assert not expected.ok
        assert expected.problems[0] == "caller: its own finding"
        oracle = expected.problems[1:]
        assert [p.split(":")[0] for p in oracle] == [
            "instance 0", "instance 0", "instance 0", "instance 1",
        ]
        assert "agreement" in oracle[0]
        assert "validity" in oracle[1] and "process 1" in oracle[1]
        assert "termination" in oracle[2] and "[2, 3]" in oracle[2]
        assert "termination" in oracle[3] and "[0, 1, 2, 3]" in oracle[3]
        # "Whatever was decided" judges instance 0 only.
        assert list(whatever.problems) == [
            p for p in oracle if p.startswith("instance 0")
        ]
        # The mesh opened but never started: nothing to call a run.
        assert "run.json" not in os.listdir(trace_dir)

    def test_both_harnesses_write_the_same_manifest_shape(self, tmp_path):
        spec = ClusterSpec(n=4, k=1, protocol="failstop", seed=13)

        async def under_smr(trace_dir):
            cluster = SMRCluster(spec, trace_dir=trace_dir)
            await cluster.start()
            try:
                assert await cluster.drain(timeout=45.0)
            finally:
                assert await cluster.close() == []

        async def under_run_cluster(trace_dir):
            report = await run_cluster(spec, timeout=45.0, trace_dir=trace_dir)
            assert report.ok, report.problems

        manifests = []
        for harness in (under_run_cluster, under_smr):
            trace_dir = str(tmp_path / harness.__name__)
            asyncio.run(harness(trace_dir))
            with open(os.path.join(trace_dir, "run.json")) as handle:
                manifests.append(json.load(handle))
        ours, theirs = manifests
        assert ours.keys() == theirs.keys()
        assert ours["spec"] == theirs["spec"]  # one instance: genesis
        assert ours["ok"] is theirs["ok"] is True
        assert ours["decisions"] == theirs["decisions"] == 4


class TestCloseOrder:
    """Regression: the mesh used to shut nodes down one at a time, each
    closing its transport while later nodes still stepped and wrote to
    it — asyncio's ``socket.send() raised exception.`` on stderr."""

    def test_no_transport_closes_while_a_node_still_steps(self, monkeypatch):
        nodes, still_stepping = [], []
        record_constructions(monkeypatch, ClusterNode, nodes)
        real_close = Transport.close

        async def close(self):
            if not still_stepping:
                still_stepping.append(
                    [node.pid for node, _, _ in nodes if node._task is not None]
                )
            await real_close(self)

        monkeypatch.setattr(Transport, "close", close)
        report = asyncio.run(run_cluster(SPEC, timeout=45.0))
        assert report.ok, report.problems
        assert len(nodes) == SPEC.n
        assert still_stepping == [[]]

    def test_byzantine_n7_run_logs_nothing_on_asyncio(self, caplog):
        spec = ClusterSpec(
            n=7, k=2, byzantine_count=2, byzantine_kind="balancing",
            instances=8, seed=1,
        )
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            report = asyncio.run(run_cluster(spec, timeout=120.0))
        assert report.ok, report.problems
        assert [r.getMessage() for r in caplog.records] == []
