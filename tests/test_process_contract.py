"""The protocol-core contract and the one member constructor.

Every harness reads ``phaseno``, ``input_value``, ``rng``, ``core`` and
``is_correct`` from a process, and calls ``bind_metrics`` on it, with no
``getattr`` or ``hasattr`` fallback (DESIGN.md §2); every ensemble is built by
``repro.harness.builders.build_ensemble``.  These tests hold both
promises for every ``Process`` subclass the package ships.
"""

import asyncio
import importlib
import pkgutil
import random

import pytest

import repro
from repro.baselines.benor import BenOrConsensus
from repro.baselines.initially_dead import InitiallyDeadConsensus
from repro.broadcast.agreement import BrachaAgreementProcess
from repro.cluster.driver import ClusterMesh, ClusterSpec
from repro.cluster.node import ClusterNode
from repro.cluster.transport import Transport
from repro.errors import ConfigurationError
from repro.faults.byzantine import (
    BalancingEchoByzantine,
    RandomNoiseByzantine,
    SilentByzantine,
)
from repro.faults.crash import CrashableProcess
from repro.faults.plans import CrashSpec, FaultPlan
from repro.harness.builders import (
    build_benor_processes,
    build_failstop_processes,
    build_malicious_processes,
    build_simple_majority_processes,
)
from repro.obs.metrics import MetricsRegistry
from repro.procs.base import Process
from repro.sim.kernel import Simulation

#: Constructor arguments after ``(pid, n)``; the default is ``(k, input)``.
_ARGS_AFTER_PID_N = {
    "InitiallyDeadConsensus": (1,),
    "InitiallyDeadProcess": (1,),
    "SilentByzantine": (1,),
    "ConstantProtocol": (1,),
    "RandomNoiseByzantine": ("echo", 1),
    "EquivocatingBroadcaster": (),
    "ReliableBroadcastProcess": (1, 0, 1),
}


def _process_classes() -> list[type]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":
            importlib.import_module(module.name)
    found, stack = set(), [Process]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls not in found:
                found.add(cls)
                stack.append(cls)
    found.discard(CrashableProcess)
    return sorted(found, key=lambda cls: cls.__name__)


def _build(cls: type) -> Process:
    return cls(1, 4, *_ARGS_AFTER_PID_N.get(cls.__name__, (1, 1)))


def _never_crashing(process: Process) -> CrashableProcess:
    return CrashableProcess(process, crash_at_step=10**9)


class TestContract:
    @pytest.mark.parametrize(
        "cls", _process_classes(), ids=lambda cls: cls.__name__
    )
    def test_bare_and_wrapped_read_alike(self, cls):
        bare = _build(cls)
        wrapped = _never_crashing(_build(cls))
        assert bare.phaseno is None or isinstance(bare.phaseno, int)
        assert bare.input_value in (0, 1)
        assert isinstance(bare.is_correct, bool)
        assert bare.core is bare
        assert wrapped.phaseno == bare.phaseno
        assert wrapped.input_value == bare.input_value
        assert wrapped.is_correct == bare.is_correct
        assert wrapped.rng is wrapped.inner.rng
        coin = random.Random(0)
        wrapped.rng = coin
        assert wrapped.inner.rng is coin
        assert wrapped.core is wrapped.inner
        assert type(wrapped.core) is cls
        registry = MetricsRegistry()
        bare.bind_metrics(registry)
        wrapped.bind_metrics(registry)
        assert bare.metrics is registry
        assert wrapped.metrics is registry
        assert wrapped.inner.metrics is registry

    def test_wrapper_tracks_the_live_phase(self):
        wrapped = _never_crashing(build_failstop_processes(3, 1, "101")[0])
        wrapped.inner.phaseno = 7
        assert wrapped.phaseno == 7

    def test_kernel_hands_its_rng_through_a_crash_wrapper(self):
        """Regression: a crash-wrapped Ben-Or core used to keep
        ``rng=None`` and flip a fresh ``Random(pid)`` coin — the same
        face on every flip, under every seed."""
        processes = build_benor_processes(
            5, 2, "11000", crashes={0: {"crash_at_step": 10**9}}
        )
        sim = Simulation(processes, seed=3)
        assert type(processes[0]) is CrashableProcess
        assert processes[0].core.rng is sim.rng
        assert all(proc.core.rng is sim.rng for proc in processes)

    def test_kernel_binds_a_double_wrap_all_the_way_down(self):
        processes = [
            _never_crashing(_never_crashing(core))
            for core in build_malicious_processes(4, 1, "1011")
        ]
        sim = Simulation(processes, seed=1, metrics=True)
        for outer in processes:
            assert outer.core is outer.inner.inner
            assert outer.metrics is sim.metrics
            assert outer.inner.metrics is sim.metrics
            assert outer.core.metrics is sim.metrics

    def test_node_binds_a_double_wrap_all_the_way_down(self):
        registry = MetricsRegistry()

        async def scenario():
            transport = Transport(0, 4)
            node = ClusterNode(
                transport,
                # A silent core: its start step sends nothing, so the
                # node needs no connected mesh.
                lambda instance: _never_crashing(
                    _never_crashing(SilentByzantine(0, 4))
                ),
                registry=registry,
            )
            node.start_instance(0)
            outer = node.instance_process(0)
            await transport.close()
            return outer

        outer = asyncio.run(scenario())
        assert outer.metrics is registry
        assert outer.inner.metrics is registry
        assert outer.core.metrics is registry


class TestLocalCoin:
    """An unseeded process stepped outside the simulator draws its coin
    from one ``Random(pid)`` stream, as one seeded with its pid does —
    not from a fresh ``Random(pid)`` per flip, which repeats one face."""

    @pytest.mark.parametrize(
        "build, flip",
        [
            (lambda **kw: BenOrConsensus(2, 4, 1, 0, **kw),
             BenOrConsensus._flip_coin),
            (lambda **kw: BrachaAgreementProcess(2, 4, 1, 0, **kw),
             BrachaAgreementProcess._flip_coin),
            (lambda **kw: InitiallyDeadConsensus(2, 4, 0, 0.5, **kw),
             InitiallyDeadConsensus._flip_close_coin),
            (lambda **kw: RandomNoiseByzantine(2, 4, "echo", **kw),
             RandomNoiseByzantine._noise),
        ],
        ids=["benor", "bracha", "initially_dead", "random_noise"],
    )
    def test_unseeded_flips_follow_the_pid_stream(self, build, flip):
        unseeded, seeded = build(), build(seed=2)
        flips = [flip(unseeded) for _ in range(12)]
        assert flips == [flip(seeded) for _ in range(12)]
        assert len({repr(face) for face in flips}) > 1


class TestCrashingByzantineStaysByzantine:
    """A crash is a behaviour any faulty process may show; wrapping a liar
    in a crash trigger must not make every oracle hold it to agreement."""

    CRASH = {6: {"crash_at_step": 3}}

    def test_through_the_builder(self):
        processes = build_malicious_processes(
            7, 2, "1111111",
            byzantine={6: BalancingEchoByzantine}, crashes=self.CRASH,
        )
        assert type(processes[6]) is CrashableProcess
        assert type(processes[6].core) is BalancingEchoByzantine
        assert not processes[6].is_correct
        sim = Simulation(processes, seed=3)
        assert sim.correct_pids == frozenset(range(6))

    def test_through_the_cluster_spec(self):
        mesh = ClusterMesh(
            ClusterSpec(n=7, k=2, byzantine_count=1, crashes=self.CRASH)
        )

        async def scenario():
            try:
                await mesh.open()
                return mesh.correct_pids
            finally:
                await mesh.close()

        assert asyncio.run(scenario()) == frozenset(range(6))


def _open_mesh(**spec_kwargs):
    async def scenario():
        mesh = ClusterMesh(ClusterSpec(**spec_kwargs))
        try:
            await mesh.open()
        finally:
            await mesh.close()

    asyncio.run(scenario())


#: Every way an ensemble is described; each takes (n, k, inputs, crashes=).
_DESCRIBERS = {
    "failstop": build_failstop_processes,
    "malicious": build_malicious_processes,
    "simple": build_simple_majority_processes,
    "benor": build_benor_processes,
    "cluster": lambda n, k, inputs, crashes: _open_mesh(
        n=n, k=k, inputs=inputs, crashes=crashes
    ),
}


class TestEnsembleValidation:
    """Malformed ensemble descriptions are ``ConfigurationError`` naming
    the offending value — never a raw ``IndexError``/``ValueError``, and
    never silently ignored."""

    @pytest.mark.parametrize("describer", sorted(_DESCRIBERS))
    @pytest.mark.parametrize(
        "inputs, crashes, offender",
        [
            ("1111", {7: {"crash_at_step": 1}}, r"\[7\]"),
            ("1x11", None, "'1x11'"),
            ("10", None, "length 2"),
        ],
        ids=["crash-pid-out-of-range", "non-binary-input", "short-inputs"],
    )
    def test_builders_and_cluster(self, describer, inputs, crashes, offender):
        with pytest.raises(ConfigurationError, match=offender):
            _DESCRIBERS[describer](4, 1, inputs, crashes=crashes)

    def test_fault_plan(self):
        with pytest.raises(ConfigurationError, match=r"\[7\]"):
            FaultPlan(
                "malicious", 4, 1, (1, 1, 1, 1),
                crashes=(CrashSpec(7, crash_at_step=1),),
            )
        with pytest.raises(ConfigurationError, match="2 inputs"):
            FaultPlan("malicious", 4, 1, (1, 0))
        # A plan's inputs arrive as JSON; build time rejects a bad domain.
        with pytest.raises(ConfigurationError, match="x"):
            FaultPlan("malicious", 4, 1, (1, "x", 1, 1)).build_processes()

    @pytest.mark.parametrize("protocol, k", [("failstop", 2), ("malicious", 2)])
    def test_cluster_has_no_over_bound_allowance(self, protocol, k):
        # k=2 at n=4 is past both theorems.  A FaultPlan may go there on
        # purpose (over_bound lifts the check); a cluster may not.
        assert FaultPlan(protocol, 4, k, (1, 1, 1, 1)).build_processes()
        with pytest.raises(ConfigurationError):
            _open_mesh(n=4, k=k, protocol=protocol)

    def test_cluster_fault_count_is_checked_against_k(self):
        with pytest.raises(ConfigurationError, match="exceed"):
            _open_mesh(
                n=7, k=2, byzantine_count=2,
                crashes={0: {"crash_at_step": 1}},
            )


class TestPhaselessProcesses:
    """``phaseno`` defaults to ``None`` at class level; a process without
    phases must keep deciding with ``decided_at_phase is None`` while the
    kernel counts its steps under phase 0."""

    def test_decided_at_phase_stays_none_and_steps_count_under_phase_0(self):
        from repro.baselines.initially_dead import InitiallyDeadConsensus
        from repro.broadcast.rbc import ReliableBroadcastProcess
        from repro.lowerbounds.bivalence import ConstantProtocol

        ensembles = {
            "rbc": [
                ReliableBroadcastProcess(pid, 4, 1, 0, 1 if pid == 0 else None)
                for pid in range(3)
            ] + [SilentByzantine(3, 4)],
            "initially-dead": [
                InitiallyDeadConsensus(pid, 3, 1, seed=pid) for pid in range(3)
            ],
            "constant": [ConstantProtocol(pid, 3, pid % 2) for pid in range(3)],
        }
        for name, processes in ensembles.items():
            assert all(proc.phaseno is None for proc in processes), name
            sim = Simulation(processes, seed=7, metrics=True)
            result = sim.run(max_steps=20_000)
            assert any(proc.decided for proc in processes), name
            assert result.decided_at_phase == (None,) * len(processes), name
            assert sim.max_phase() == 0 and result.max_phase == 0, name
            counters = result.metrics.counters
            phase_counters = {
                key for key in counters if key.startswith("kernel.steps.phase.")
            }
            assert phase_counters <= {"kernel.steps.phase.0"}, name
            if result.steps > len(processes):  # steps beyond the starts
                assert counters["kernel.steps.phase.0"] > 0, name
            assert counters["decisions"] > 0, name
            assert "decision.latency_phases" not in result.metrics.histograms, name
