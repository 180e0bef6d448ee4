"""The one cluster bring-up: ``ClusterMesh`` under both harnesses.

``run_cluster`` and ``SMRCluster`` stand on the same mesh, so for one
spec and seed they must hand every transport, chaos proxy and node the
same derived seed — the formulas are pinned here because a seed has to
keep computing the same run across revisions — and a bring-up that
fails part-way must close everything it opened, whichever harness
asked for it.
"""

import asyncio

import pytest

from repro.cluster.chaos import ChaosConfig, ChaosProxy
from repro.cluster.driver import ClusterMesh, ClusterSpec, run_cluster
from repro.cluster.node import ClusterNode
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
