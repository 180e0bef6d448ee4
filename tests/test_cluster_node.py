"""Node-actor and driver tests: loopback clusters and record oracles."""

import asyncio
import pickle

import pytest

from repro.cluster.driver import (
    ClusterSpec,
    check_decision_records,
    check_decision_records_by_instance,
    run_cluster,
    run_cluster_sync,
)
from repro.cluster.node import ClusterNode, DecisionRecord
from repro.cluster.transport import Transport
from repro.core.fail_stop import FailStopConsensus
from repro.core.malicious import MaliciousConsensus
from repro.errors import ConfigurationError
from repro.faults.byzantine import EquivocatingEchoByzantine, SilentByzantine
from repro.faults.crash import CrashableProcess
from repro.faults.plans import ByzantineSpec, CrashSpec, FaultPlan
from repro.harness.builders import build_ensemble, build_member
from repro.harness.stats import percentile
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.cluster


def record(pid, value, is_correct=True, latency=0.01, instance=0) -> DecisionRecord:
    return DecisionRecord(
        pid=pid,
        value=value,
        phase=1,
        latency=latency,
        steps=10,
        is_correct=is_correct,
        instance=instance,
    )


class TestDecisionRecordOracles:
    def test_clean_run_passes(self):
        records = [record(0, 1), record(1, 1), record(2, 1)]
        assert check_decision_records(records, frozenset({0, 1, 2}), [1, 1, 1]) == []

    def test_agreement_violation_detected(self):
        records = [record(0, 1), record(1, 0), record(2, 1)]
        problems = check_decision_records(records, frozenset({0, 1, 2}), [1, 0, 1])
        assert any("agreement" in p for p in problems)

    def test_validity_violation_detected(self):
        records = [record(0, 0), record(1, 0)]
        problems = check_decision_records(records, frozenset({0, 1}), [1, 1])
        assert any("validity" in p for p in problems)

    def test_mixed_inputs_allow_either_value(self):
        records = [record(0, 0), record(1, 0)]
        assert check_decision_records(records, frozenset({0, 1}), [1, 0]) == []

    def test_missing_survivor_flagged_as_termination(self):
        records = [record(0, 1)]
        problems = check_decision_records(records, frozenset({0, 1}), [1, 1])
        assert any("termination" in p and "[1]" in p for p in problems)

    def test_crashed_processes_are_excused(self):
        records = [record(0, 1)]
        problems = check_decision_records(
            records, frozenset({0, 1}), [1, 1], surviving_pids=frozenset({0})
        )
        assert problems == []

    def test_byzantine_records_are_ignored(self):
        records = [record(0, 1), record(1, 1), record(2, 0, is_correct=False)]
        assert (
            check_decision_records(records, frozenset({0, 1}), [1, 1, 1]) == []
        )


class TestPerInstanceOracles:
    def test_instances_are_judged_independently(self):
        """Different values across instances are fine; within one, not."""
        records = [
            record(0, 1, instance=0),
            record(1, 1, instance=0),
            record(0, 0, instance=1),
            record(1, 0, instance=1),
        ]
        assert (
            check_decision_records_by_instance(
                records, frozenset({0, 1}), [1, 0]
            )
            == []
        )

    def test_problem_strings_carry_the_instance(self):
        records = [
            record(0, 1, instance=0),
            record(1, 1, instance=0),
            record(0, 1, instance=3),
            record(1, 0, instance=3),
        ]
        problems = check_decision_records_by_instance(
            records, frozenset({0, 1}), [1, 0]
        )
        assert len(problems) == 1
        assert problems[0].startswith("instance 3:")
        assert "agreement" in problems[0]

    def test_expected_instances_catch_silent_ones(self):
        records = [record(0, 1, instance=0), record(1, 1, instance=0)]
        problems = check_decision_records_by_instance(
            records,
            frozenset({0, 1}),
            [1, 1],
            expected_instances=range(2),
        )
        assert len(problems) == 1
        assert problems[0].startswith("instance 1:")
        assert "termination" in problems[0]

    def test_per_instance_survivors(self):
        records = [
            record(0, 1, instance=0),
            record(1, 1, instance=0),
            record(0, 1, instance=1),
        ]
        problems = check_decision_records_by_instance(
            records,
            frozenset({0, 1}),
            [1, 1],
            surviving_by_instance={1: frozenset({0})},
        )
        assert problems == []


class TestDecisionRecordSerialization:
    def test_to_dict_carries_the_instance(self):
        payload = record(2, 1, instance=7).to_dict()
        assert payload["instance"] == 7
        assert payload["pid"] == 2


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([], 0.5) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 1.5)


class TestClusterSpecValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(n=4, k=1, protocol="paxos")

    def test_byzantine_on_failstop_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(n=4, k=1, protocol="failstop", byzantine_count=1)

    def test_zero_instances_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(n=4, k=1, instances=0)

    def test_unknown_byzantine_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(n=4, k=1, byzantine_kind="charming")

    def test_inputs_string_form(self):
        spec = ClusterSpec(n=4, k=1, inputs="1011")
        assert spec.effective_inputs == [1, 0, 1, 1]

    def test_byzantine_pids_are_highest(self):
        spec = ClusterSpec(n=5, k=1, byzantine_count=1)
        assert spec.byzantine_pids == (4,)


class TestBuildProcess:
    """A node's per-instance factory builds one member through the one
    constructor (``harness.builders.build_member``), not the whole
    ensemble; the member must be the one the ensemble would contain,
    whichever harness described it."""

    # (spec, the same ensemble as a fault plan, per-pid (class, core class))
    SHAPES = [
        (
            ClusterSpec(
                n=4, k=1, protocol="failstop", inputs="1011",
                crashes={2: {"crash_at_step": 1, "keep_sends": 2}},
            ),
            FaultPlan(
                "failstop", 4, 1, (1, 0, 1, 1),
                crashes=(CrashSpec(2, crash_at_step=1, keep_sends=2),),
            ),
            {2: (CrashableProcess, FailStopConsensus)},
            FailStopConsensus,
        ),
        (
            ClusterSpec(n=4, k=1),
            FaultPlan("malicious", 4, 1, (1, 1, 1, 1)),
            {},
            MaliciousConsensus,
        ),
        (
            ClusterSpec(
                n=7, k=2, inputs=[1, 0, 1, 0, 1, 0, 1], byzantine_count=2,
                byzantine_kind="equivocating", exit_after_decide=True,
            ),
            FaultPlan(
                "malicious", 7, 2, (1, 0, 1, 0, 1, 0, 1),
                byzantine=(
                    ByzantineSpec(5, "equivocating_echo"),
                    ByzantineSpec(6, "equivocating_echo"),
                ),
                exit_after_decide=True,
            ),
            {pid: (EquivocatingEchoByzantine,) * 2 for pid in (5, 6)},
            MaliciousConsensus,
        ),
        (
            ClusterSpec(n=4, k=1, byzantine_count=1, byzantine_kind="silent"),
            FaultPlan(
                "malicious", 4, 1, (1, 1, 1, 1),
                byzantine=(ByzantineSpec(3, "silent"),),
            ),
            {3: (SilentByzantine,) * 2},
            MaliciousConsensus,
        ),
        (
            ClusterSpec(n=4, k=1, crashes={0: {"crash_at_phase": 1}}),
            FaultPlan(
                "malicious", 4, 1, (1, 1, 1, 1),
                crashes=(CrashSpec(0, crash_at_phase=1),),
            ),
            {0: (CrashableProcess, MaliciousConsensus)},
            MaliciousConsensus,
        ),
    ]

    @pytest.mark.parametrize("shape", SHAPES, ids=range(len(SHAPES)))
    def test_single_member_equals_the_ensemble_member(self, shape):
        spec, plan, faulty, core = shape
        described = spec.ensemble
        ensemble = build_ensemble(**described)
        for pid in range(spec.n):
            alone = build_member(pid, **described)
            outer, inner = faulty.get(pid, (core, core))
            assert type(alone) is outer
            assert type(alone.core) is inner
            assert alone.pid == pid
            # Same class, same constructor inputs: identical state.
            assert pickle.dumps(alone) == pickle.dumps(ensemble[pid])
        # The same ensemble described as a fault plan is the same objects.
        assert pickle.dumps(plan.build_processes()) == pickle.dumps(ensemble)

    def test_factory_builds_only_the_requested_process(self, monkeypatch):
        import repro.harness.builders as builders_module

        built = []
        real = builders_module.PROTOCOL_CORES["malicious"]

        def counting(pid, *args, **kwargs):
            built.append(pid)
            return real(pid, *args, **kwargs)

        monkeypatch.setitem(
            builders_module.PROTOCOL_CORES, "malicious", counting
        )
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, instances=3, seed=5), timeout=60
        )
        assert report.ok, report.problems
        # Counted at the one protocol table: the mesh's validation
        # ensemble (each pid once), then every instance — instance 0
        # included — costs each node exactly one construction, its own.
        assert sorted(built) == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4


class TestClusterNodeValidation:
    def test_pid_mismatch_rejected(self):
        """The node is the transport's pid; a factory building cores for
        another pid (or another n) is refused at the first instance."""

        async def scenario():
            transport = Transport(0, 4)
            for wrong in (
                FailStopConsensus(1, 4, 1, 1),
                FailStopConsensus(0, 5, 1, 1),
            ):
                node = ClusterNode(transport, lambda inst: wrong)
                assert node.pid == 0
                with pytest.raises(ConfigurationError, match="factory built"):
                    node.start_instance(0)
                assert node.active_instances == 0
            await transport.close()

        asyncio.run(scenario())


class TestLoopbackClusters:
    def test_failstop_n4_reaches_agreement(self):
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="failstop", seed=1), timeout=30.0
        )
        assert report.ok
        assert not report.problems
        assert len(report.records) == 4
        assert report.consensus_value() == 1
        assert all(r.latency > 0 for r in report.records)
        # Transport metrics flowed into the report snapshot.
        assert report.metrics.counters["cluster.decisions"] == 4
        assert report.metrics.counters["cluster.transport.received"] > 0

    def test_failstop_with_mixed_inputs_decides_one_value(self):
        report = run_cluster_sync(
            ClusterSpec(n=5, k=2, protocol="failstop", inputs="10101", seed=2),
            timeout=30.0,
        )
        assert report.ok
        values = {r.value for r in report.records}
        assert len(values) == 1

    def test_malicious_n4_clean_network(self):
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="malicious", seed=3), timeout=30.0
        )
        assert report.ok
        assert report.consensus_value() == 1

    def test_cluster_with_crash_victim_excuses_the_victim(self):
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="failstop",
                crashes={0: {"crash_at_step": 2}},
                seed=4,
            ),
            timeout=30.0,
        )
        assert report.ok
        decided = {r.pid for r in report.records}
        assert 0 not in decided
        assert decided == {1, 2, 3}

    @pytest.mark.parametrize("crash_at_step", [0, 1, 6])
    def test_crash_ends_the_wait_not_the_timeout(self, crash_at_step):
        """A victim dead before its opening step, at its first delivery
        or after several settles its instance's event when it dies: the
        run finishes on the survivors' decisions, far inside the budget,
        and termination is demanded of the survivors only."""
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="failstop",
                crashes={0: {"crash_at_step": crash_at_step}},
                instances=2,
                seed=4,
            ),
            timeout=30.0,
        )
        assert report.ok, report.problems
        assert not report.timed_out
        assert report.wall_seconds < 3.0
        assert {r.pid for r in report.records} == {1, 2, 3}
        assert len(report.records) == 6

    def test_timed_out_run_still_reports(self, monkeypatch):
        """No frame ever leaves a node, so nobody decides: the report
        comes back after the budget with the termination lines."""
        monkeypatch.setattr(
            Transport, "send", lambda self, envelope, instance=0: None
        )
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="failstop", instances=2, seed=4),
            timeout=0.2,
        )
        assert report.timed_out and not report.ok
        assert report.records == ()
        assert list(report.problems) == [
            f"instance {instance}: termination incomplete: surviving "
            "correct processes [0, 1, 2, 3] did not decide"
            for instance in range(2)
        ]
        # The abandoned waits released their instances, like any
        # timed-out client's.
        assert report.metrics.counters["cluster.node.instances_abandoned"] == 8

    def test_two_clusters_in_one_loop(self):
        """Transports bind ephemeral ports, so clusters can coexist."""

        async def scenario():
            first, second = await asyncio.gather(
                run_cluster(
                    ClusterSpec(n=4, k=1, protocol="failstop", seed=5),
                    timeout=30.0,
                ),
                run_cluster(
                    ClusterSpec(n=4, k=1, protocol="failstop", inputs="0000", seed=6),
                    timeout=30.0,
                ),
            )
            return first, second

        first, second = asyncio.run(scenario())
        assert first.ok and second.ok
        assert first.consensus_value() == 1
        assert second.consensus_value() == 0


def _mesh_pair(registry=None):
    """Two wired transports plus fail-stop nodes with instance factories."""

    async def build():
        a_tr = Transport(0, 2, seed=0, registry=registry)
        b_tr = Transport(1, 2, seed=1, registry=registry)
        peers = {0: await a_tr.serve(), 1: await b_tr.serve()}
        a_tr.connect(peers)
        b_tr.connect(peers)
        a = ClusterNode(
            a_tr,
            lambda inst: FailStopConsensus(0, 2, 0, 1),
            registry=registry,
            seed=0,
        )
        b = ClusterNode(
            b_tr,
            lambda inst: FailStopConsensus(1, 2, 0, 1),
            registry=registry,
            seed=1,
        )
        return a, b

    return build


async def decide_all(node, instances, timeout):
    """Await several instances' decisions at once, the way
    ``ClusterMesh.await_decisions`` does: ``wait_for`` over a ``gather``
    of ``decide_instance`` calls."""
    records = await asyncio.wait_for(
        asyncio.gather(*(node.decide_instance(i) for i in instances)),
        timeout,
    )
    return dict(zip(instances, records))


class TestMultiInstanceNode:
    def test_gathered_decides_pipeline_and_lazily_instantiate(self):
        """A's gathered waits open instances B has never heard of; B's
        demultiplexer instantiates them from its factory on first frame
        and decides them too."""

        async def scenario():
            registry = MetricsRegistry()
            a, b = await _mesh_pair(registry)()
            try:
                await a.start(instances=1)
                await b.start(instances=1)
                a_records = await decide_all(a, [0, 1, 2], 20)
                b_records = await decide_all(b, [0, 1, 2], 20)
                return a_records, b_records, b.active_instances
            finally:
                await a.shutdown()
                await b.shutdown()

        a_records, b_records, b_active = asyncio.run(scenario())
        assert sorted(a_records) == [0, 1, 2]
        assert sorted(b_records) == [0, 1, 2]
        assert {r.value for r in a_records.values()} == {1}
        assert all(
            rec.instance == instance for instance, rec in a_records.items()
        )
        assert b_active == 3  # instances 1 and 2 were lazily created

    def test_node_without_a_registry_counts_into_its_own(self):
        """Every node has a registry: built without ``registry=`` it
        counts into a private one, its cores bound to it too."""

        async def scenario():
            a, b = await _mesh_pair()()
            try:
                await a.start(instances=1)
                await b.start(instances=1)
                await decide_all(a, [0], 20)
                process = a.instance_process(0)
                return (
                    a.registry.snapshot(),
                    process.steps_taken,
                    process.metrics is a.registry,
                    a.registry is not b.registry,
                )
            finally:
                await a.shutdown()
                await b.shutdown()

        snapshot, steps_taken, bound, private = asyncio.run(scenario())
        assert bound and private
        # The opening step is taken outside the consumer loop.
        assert snapshot.counters["cluster.node.steps"] == steps_taken - 1
        assert snapshot.counters["cluster.decisions"] == 1

    def test_gc_retires_instances_and_drops_late_frames(self):
        async def scenario():
            registry = MetricsRegistry()
            a, b = await _mesh_pair(registry)()
            try:
                await a.start(instances=1)
                await b.start(instances=1)
                await a.decide(timeout=20)
                before = a.active_instances
                a._gc_instance(0)
                after = a.active_instances
                # A late frame for the retired instance must not
                # resurrect it.
                from repro.cluster.transport import NO_ENQUEUE_TS
                from repro.net.message import Envelope
                from repro.core.messages import SimpleMessage

                a.transport.inbound.put(
                    (
                        0,
                        Envelope(
                            sender=1,
                            recipient=0,
                            payload=SimpleMessage(phaseno=1, value=1),
                        ),
                        NO_ENQUEUE_TS,
                    )
                )
                await asyncio.sleep(0.05)
                return (
                    before,
                    after,
                    a.decision_record,
                    registry.snapshot(),
                )
            finally:
                await a.shutdown()
                await b.shutdown()

        before, after, rec, snapshot = asyncio.run(scenario())
        assert before == 1 and after == 0
        assert rec is not None and rec.value == 1  # record survives GC
        assert snapshot.counters.get("cluster.node.late_frames", 0) >= 1
        assert snapshot.counters.get("cluster.node.instances_gc", 0) == 1

    def test_gathered_decide_timeout_releases_demux_state(self):
        """Regression: a timed-out gathered wait must not leak instances.

        The linger GC only arms for *decided* instances, so before the
        abandonment path a caller timing out mid-batch left every
        undecided instance's protocol core in the demux table forever.
        The node here has only a dead peer, so nothing can ever decide:
        after the timeout the instance table must return to baseline,
        and the retired instances must stay retired (late frames are
        dropped, not resurrected).
        """

        async def scenario():
            registry = MetricsRegistry()
            transport = Transport(0, 2, seed=0, registry=registry)
            await transport.serve()
            transport.connect({1: ("127.0.0.1", 1)})  # dead peer
            node = ClusterNode(
                transport,
                lambda inst: FailStopConsensus(0, 2, 0, 1),
                registry=registry,
                seed=0,
            )
            try:
                await node.start(instances=1)
                baseline = node.active_instances
                with pytest.raises(asyncio.TimeoutError):
                    await decide_all(node, [0, 1, 2], 0.2)
                after_batch = node.active_instances
                with pytest.raises(asyncio.TimeoutError):
                    await node.decide_instance(7, timeout=0.2)
                after_single = node.active_instances
                # Late traffic for an abandoned instance must be dropped.
                from repro.cluster.transport import NO_ENQUEUE_TS
                from repro.core.messages import SimpleMessage
                from repro.net.message import Envelope

                transport.inbound.put(
                    (
                        1,
                        Envelope(
                            sender=1,
                            recipient=0,
                            payload=SimpleMessage(phaseno=1, value=1),
                        ),
                        NO_ENQUEUE_TS,
                    )
                )
                await asyncio.sleep(0.05)
                resurrected = node.active_instances
                # And the retired id can never be reopened as a fresh core.
                with pytest.raises(ConfigurationError, match="abandoned"):
                    await node.decide_instance(1, timeout=0.2)
                return (
                    baseline,
                    after_batch,
                    after_single,
                    resurrected,
                    registry.snapshot(),
                )
            finally:
                await node.shutdown()

        baseline, after_batch, after_single, resurrected, snapshot = (
            asyncio.run(scenario())
        )
        assert baseline == 1
        assert after_batch == 0  # the whole batch was released
        assert after_single == 0
        assert resurrected == 0
        abandoned = snapshot.counters.get(
            "cluster.node.instances_abandoned", 0
        )
        assert abandoned == 4  # instances 0-2 plus instance 7
        assert snapshot.counters.get("cluster.node.late_frames", 0) >= 1

    def test_concurrent_waiter_keeps_instance_alive_through_timeout(self):
        """One caller timing out must not yank state from another that is
        still waiting on the same instance."""

        async def scenario():
            registry = MetricsRegistry()
            a, b = await _mesh_pair(registry)()
            try:
                await a.start(instances=1)
                patient = asyncio.ensure_future(a.decide_instance(1))
                await asyncio.sleep(0)  # let the waiter register
                with pytest.raises(asyncio.TimeoutError):
                    await a.decide_instance(1, timeout=0.05)
                still_live = a.instance_process(1) is not None
                # Peer comes up late; the patient waiter must still win.
                await b.start(instances=1)
                record = await asyncio.wait_for(patient, timeout=20)
                return still_live, record
            finally:
                await a.shutdown()
                await b.shutdown()

        still_live, record = asyncio.run(scenario())
        assert still_live
        assert record.value == 1 and record.instance == 1

    def test_dead_on_arrival_instance_is_collected_on_first_wait(self):
        """Under a zero linger, a process dead on arrival is collected
        inside the ``start_instance`` its first wait triggers: the wait
        (and every later one) returns ``None`` instead of raising."""

        async def scenario():
            registry = MetricsRegistry()
            # A dead core sends nothing, so the node needs no mesh.
            transport = Transport(0, 4)
            node = ClusterNode(
                transport,
                lambda instance: CrashableProcess(
                    FailStopConsensus(0, 4, 1, 1), crash_at_step=0
                ),
                registry=registry,
                instance_linger=0.0,
            )
            first = await node.decide_instance(5)
            again = await node.decide_instance(5)
            await transport.close()
            return first, again, node, registry.snapshot()

        first, again, node, snapshot = asyncio.run(scenario())
        assert first is None and again is None
        assert node.active_instances == 0
        assert node.instance_crashed(5)
        assert snapshot.counters["cluster.node.instances_gc"] == 1
        assert "cluster.node.instances_abandoned" not in snapshot.counters

    def test_negative_linger_rejected(self):
        async def scenario():
            transport = Transport(0, 2, seed=0)
            with pytest.raises(ConfigurationError, match="linger"):
                ClusterNode(
                    transport,
                    lambda inst: FailStopConsensus(0, 2, 0, 1),
                    instance_linger=-1.0,
                )
            await transport.close()

        asyncio.run(scenario())


class TestMultiInstanceCluster:
    def test_failstop_instances_decide_with_clean_oracles(self):
        registry = MetricsRegistry()
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="failstop", instances=3, seed=7),
            timeout=30.0,
            registry=registry,
        )
        assert report.ok
        assert len(report.records) == 12  # 4 nodes x 3 instances
        by_instance = {}
        for rec in report.records:
            by_instance.setdefault(rec.instance, set()).add(rec.value)
        assert sorted(by_instance) == [0, 1, 2]
        assert all(len(values) == 1 for values in by_instance.values())
        snapshot = report.metrics
        assert snapshot.counters["cluster.decisions"] == 12
        # Per-instance decisions live in report.records, not in one
        # counter name per instance.
        assert not [
            name for name in snapshot.counters
            if name.startswith("cluster.decisions.i")
        ]

    def test_short_linger_gcs_instances_mid_run(self):
        registry = MetricsRegistry()
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="failstop",
                instances=2,
                instance_linger=0.0,
                seed=8,
            ),
            timeout=30.0,
            registry=registry,
        )
        assert report.ok
        assert len(report.records) == 8
        assert report.metrics.counters.get("cluster.node.instances_gc", 0) > 0

    @pytest.mark.parametrize("crash_at_step", [0, 1, 6])
    def test_crashed_instances_are_collected_at_their_own_node(
        self, crash_at_step
    ):
        """A crashed instance settles like a decided one, so the linger
        GC collects it at the victim's node too: 4 nodes x 3 instances
        are all collected, the victim's 3 included."""
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="failstop",
                crashes={0: {"crash_at_step": crash_at_step}},
                instances=3,
                instance_linger=0.0,
                seed=4,
            ),
            timeout=30.0,
        )
        assert report.ok, report.problems
        assert len(report.records) == 9
        assert report.metrics.counters["cluster.node.instances_gc"] == 12

    def test_zero_linger_never_misses_a_due_gc(self):
        """A GC due at decision time happens in the deciding step, so
        the report's snapshot counts every one of them however the
        event loop interleaves the final wake-ups — 20 runs, no sleep."""
        for seed in range(20):
            report = run_cluster_sync(
                ClusterSpec(
                    n=4,
                    k=1,
                    protocol="failstop",
                    instances=2,
                    instance_linger=0.0,
                    seed=seed,
                ),
                timeout=30.0,
            )
            assert report.ok, (seed, report.problems)
            assert report.metrics.counters["cluster.node.instances_gc"] == 8
