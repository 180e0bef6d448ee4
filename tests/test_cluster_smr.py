"""State-machine replication over the cluster: log, dedup, snapshots.

Covers the SMR layer at three levels:

* the :class:`KVStateMachine` alone — determinism, session dedup, the
  snapshot/compaction invariant as a seeded property test (snapshot at
  slot k + replay of slots > k must be byte-identical to full replay,
  including across a simulated node restart);
* the replicated service — exactly-once apply of a retried client
  request on *every* replica, replica byte-equality under clean and
  chaos networks, compaction during live load;
* group commit — one slot per event-loop tick of submissions, one
  future per command, and the bookkeeping, drain and failure paths
  around the seal;
* the operational surface — load-generator payload shape and the
  ``smr`` CLI.
"""

import asyncio
import json
import os
import random

import pytest

from repro.cluster.chaos import ChaosConfig
from repro.cluster.codec import decode_canonical, encode_canonical
from repro.cluster.driver import ClusterSpec
from repro.cluster.smr import (
    MAX_SLOT_COMMANDS,
    Command,
    KVStateMachine,
    SMRClient,
    SMRCluster,
    run_smr,
    run_smr_load,
)
from repro.core.messages import decode_payload, encode_payload
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.cluster


# ---------------------------------------------------------------------- #
# Commands and canonical encoding
# ---------------------------------------------------------------------- #


class TestCommand:
    def test_wire_round_trip(self):
        command = Command("client-1", 7, "set", key="a", value=42)
        assert decode_payload(encode_payload(command)) == command

    def test_rejects_unknown_op(self):
        with pytest.raises(ConfigurationError, match="unknown SMR op"):
            Command("client-1", 1, "increment")

    def test_rejects_negative_request_id(self):
        with pytest.raises(ConfigurationError, match="request_id"):
            Command("client-1", -1, "set")


class TestCanonicalEncoding:
    def test_insertion_order_independent(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert encode_canonical(a) == encode_canonical(b)
        assert decode_canonical(encode_canonical(a)) == a

    def test_malformed_blob_fails_loudly(self):
        from repro.cluster.codec import CodecError

        with pytest.raises(CodecError, match="canonical"):
            decode_canonical(b'{"torn": ')


# ---------------------------------------------------------------------- #
# The state machine alone
# ---------------------------------------------------------------------- #


class TestKVStateMachine:
    def test_ops(self):
        machine = KVStateMachine()
        assert machine.apply(0, Command("s", 1, "set", "a", 5)) == (5, False)
        assert machine.apply(1, Command("s", 2, "get", "a")) == (5, False)
        assert machine.apply(2, Command("s", 3, "add", "a", 3)) == (8, False)
        assert machine.apply(3, Command("s", 4, "del", "a")) == (8, False)
        assert machine.apply(4, Command("s", 5, "get", "a")) == (None, False)
        assert machine.apply(5, Command("s", 6, "add", "n")) == (1, False)

    def test_retry_applies_exactly_once_with_cached_result(self):
        machine = KVStateMachine()
        command = Command("s", 1, "add", "counter", 10)
        first = machine.apply(0, command)
        retry = machine.apply(1, command)
        assert first == (10, False)
        assert retry == (10, True)  # cached result, not re-executed
        assert machine.data["counter"] == 10
        assert machine.dedup_hits == 1

    def test_stale_request_dedups_without_result(self):
        machine = KVStateMachine()
        machine.apply(0, Command("s", 1, "set", "a", 1))
        machine.apply(1, Command("s", 2, "set", "a", 2))
        result, deduped = machine.apply(2, Command("s", 1, "set", "a", 1))
        assert deduped and result is None
        assert machine.data["a"] == 2

    def test_sessions_are_independent(self):
        machine = KVStateMachine()
        machine.apply(0, Command("s1", 1, "add", "c"))
        result, deduped = machine.apply(1, Command("s2", 1, "add", "c"))
        assert (result, deduped) == (2, False)

    def test_out_of_order_slot_rejected(self):
        machine = KVStateMachine()
        machine.apply(5, Command("s", 1, "set", "a", 1))
        with pytest.raises(ConfigurationError, match="out of order"):
            machine.apply(5, Command("s", 2, "set", "a", 2))

    def test_apply_slot_applies_in_order_and_checks_between_slots(self):
        machine = KVStateMachine()
        outcomes = machine.apply_slot(
            3,
            (
                Command("a", 1, "set", "k", 1),
                Command("b", 1, "add", "k", 2),
                Command("a", 1, "set", "k", 1),  # in-slot retry
            ),
        )
        assert outcomes == [(1, False), (3, False), (1, True)]
        assert machine.last_applied_slot == 3
        with pytest.raises(ConfigurationError, match="out of order"):
            machine.apply_slot(3, (Command("a", 2, "get", "k"),))
        # The slot closed with apply_slot: a lone apply is checked too.
        with pytest.raises(ConfigurationError, match="out of order"):
            machine.apply(3, Command("a", 2, "get", "k"))
        assert machine.apply(4, Command("a", 2, "get", "k")) == (3, False)

    def test_state_bytes_exclude_observability_counters(self):
        a = KVStateMachine()
        b = KVStateMachine()
        command = Command("s", 1, "set", "k", "v")
        a.apply(0, command)
        b.apply(0, command)
        b.apply(1, command)  # dedup hit bumps b's counter only
        a.apply(1, command)
        assert a.state_bytes() == b.state_bytes()
        assert a.dedup_hits == b.dedup_hits == 1

    def test_snapshot_restore_round_trip(self):
        machine = KVStateMachine()
        machine.apply(0, Command("s", 1, "set", "a", [1, 2]))
        machine.apply(3, Command("s", 2, "add", "n", 7))
        restored = KVStateMachine.restore(machine.snapshot())
        assert restored.state_bytes() == machine.state_bytes()
        assert restored.last_applied_slot == 3


def _random_command(rng: random.Random, session: str, rid: int) -> Command:
    op = rng.choice(("set", "get", "del", "add"))
    key = f"k{rng.randrange(6)}"
    value = rng.randrange(50) if op in ("set", "add") else None
    return Command(session, rid, op, key, value)


class TestSnapshotReplayProperty:
    """Seeded property test of the compaction invariant.

    For random slot sequences — 1 to 8 commands a slot, interleaved
    sessions, retries (some inside the original's own slot), and slot
    gaps (aborted slots): restoring the snapshot taken after slot k and
    replaying only slots > k must land byte-identical to replaying
    everything from genesis — including when the snapshot crosses a
    simulated node restart (bytes round-tripped through disk).
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_snapshot_plus_tail_equals_full_replay(self, seed, tmp_path):
        rng = random.Random(1000 + seed)
        sessions = [f"s{index}" for index in range(3)]
        rids = {session: 0 for session in sessions}
        entries = []
        slot = 0
        history = []  # commands eligible for retry
        for _ in range(rng.randrange(30, 80)):
            slot += rng.randrange(1, 3)  # gaps model aborted slots
            commands = []
            for _ in range(rng.randrange(1, 9)):
                if history and rng.random() < 0.25:
                    command = rng.choice(history)  # client retry
                else:
                    session = rng.choice(sessions)
                    rids[session] += 1
                    command = _random_command(rng, session, rids[session])
                    history.append(command)
                commands.append(command)
            entries.append((slot, tuple(commands)))

        full = KVStateMachine()
        for entry_slot, commands in entries:
            full.apply_slot(entry_slot, commands)

        cut = rng.randrange(len(entries))
        snapshot_machine = KVStateMachine()
        for entry_slot, commands in entries[: cut + 1]:
            snapshot_machine.apply_slot(entry_slot, commands)
        blob = snapshot_machine.snapshot()

        # Simulated restart: the snapshot survives only as bytes on
        # disk; a fresh process restores it and replays the tail.
        path = tmp_path / f"snap-{seed}.bin"
        path.write_bytes(blob)
        restarted = KVStateMachine.restore(path.read_bytes())
        for entry_slot, commands in entries[cut + 1:]:
            restarted.apply_slot(entry_slot, commands)

        assert restarted.state_bytes() == full.state_bytes()
        assert any(len(commands) > 1 for _, commands in entries)


# ---------------------------------------------------------------------- #
# The replicated service
# ---------------------------------------------------------------------- #


def _spec(**overrides) -> ClusterSpec:
    base = dict(n=4, k=1, protocol="failstop", seed=11)
    base.update(overrides)
    return ClusterSpec(**base)


class TestSMRCluster:
    def test_rejects_crash_injection(self):
        with pytest.raises(ConfigurationError, match="crash"):
            SMRCluster(_spec(crashes={0: {"crash_after_steps": 1}}))

    def test_rejects_explicit_inputs(self):
        with pytest.raises(ConfigurationError, match="inputs"):
            SMRCluster(_spec(inputs="1111"))

    def test_rejects_explicit_instances(self):
        """SMR opens one instance per slot; a caller's instance count is
        refused, not silently replaced."""
        with pytest.raises(ConfigurationError, match="instances"):
            SMRCluster(_spec(instances=3))

    def test_malicious_spec_gets_exit_device(self):
        cluster = SMRCluster(_spec(protocol="malicious"))
        assert cluster.spec.exit_after_decide

    def test_retried_request_applies_exactly_once_on_every_node(self):
        """The acceptance-criteria test: a client request submitted
        twice (retry under a fresh slot) mutates every replica's state
        machine exactly once, and the retry returns the cached result."""

        async def scenario():
            registry = MetricsRegistry()
            cluster = SMRCluster(
                _spec(), compact_every=0, registry=registry
            )
            await cluster.start()
            try:
                client = SMRClient(cluster, "retry-client")
                command = client.next_command("add", key="hits", value=5)
                first = await cluster.submit_and_wait(command, timeout=20)
                retry = await cluster.submit_and_wait(command, timeout=20)
                assert await cluster.drain(timeout=20)
                states = []
                for pid, replica in sorted(cluster.replicas.items()):
                    machine = replica.machine
                    # Applied exactly once: the add landed one time.
                    assert machine.data["hits"] == 5, f"replica {pid}"
                    assert machine.dedup_hits == 1, f"replica {pid}"
                    states.append(machine.state_bytes())
                assert len(set(states)) == 1
                return first, retry, registry.snapshot(), cluster
            finally:
                problems = await cluster.close()
                assert problems == []

        first, retry, snapshot, cluster = asyncio.run(scenario())
        assert first.committed and retry.committed
        assert first.result == 5
        assert retry.result == 5  # cached, not re-executed
        assert first.slot != retry.slot
        # Every replica deduplicated the retried slot.
        assert snapshot.counters["cluster.smr.dedup_hits"] == len(
            cluster.replicas
        )
        assert cluster.verify_replicas() == []

    def test_session_results_and_state_progression(self):
        async def scenario():
            cluster = SMRCluster(_spec(seed=13), compact_every=0)
            await cluster.start()
            try:
                client = SMRClient(cluster, "session-1")
                set_result = await client.call("set", "a", 3, timeout=20)
                add_result = await client.call("add", "a", 4, timeout=20)
                get_result = await client.call("get", "a", timeout=20)
                del_result = await client.call("del", "a", timeout=20)
                assert await cluster.drain(timeout=20)
                assert cluster.verify_replicas() == []
                return set_result, add_result, get_result, del_result
            finally:
                await cluster.close()

        set_result, add_result, get_result, del_result = asyncio.run(
            scenario()
        )
        assert set_result.result == 3
        assert add_result.result == 7
        assert get_result.result == 7
        assert del_result.result == 7

    def test_compaction_during_live_load_keeps_replay_invariant(self):
        async def scenario():
            cluster = SMRCluster(_spec(seed=17), compact_every=8)
            await cluster.start()
            try:
                clients = [
                    SMRClient(cluster, name) for name in ("bulk-a", "bulk-b")
                ]
                futures = []
                for index in range(30):
                    # One tick, one slot: both clients' commands share it.
                    for client in clients:
                        command = client.next_command(
                            "add", key=f"k{index % 3}", value=1
                        )
                        _, future = cluster.submit(command)
                        futures.append(future)
                    await asyncio.sleep(0)
                commits = await asyncio.wait_for(
                    asyncio.gather(*futures), 30
                )
                assert await cluster.drain(timeout=20)
                assert cluster.submitted_slots == 31  # genesis + 30
                assert [commit.slot for commit in commits] == [
                    1 + index // 2 for index in range(60)
                ]
                for replica in cluster.replicas.values():
                    assert sum(replica.machine.data.values()) == 60
                    assert replica.snapshots_taken >= 3
                    assert replica.compacted_entries > 0
                    # Compaction dropped entries at or below the
                    # snapshot slot...
                    assert all(
                        slot > replica.snapshot_slot
                        for slot in replica.log
                    )
                    # ...and snapshot + retained tail replays to the
                    # live state (across the restore path).
                    replayed = replica.replay_from_snapshot()
                    assert (
                        replayed.state_bytes()
                        == replica.machine.state_bytes()
                    )
                assert cluster.verify_replicas() == []
            finally:
                problems = await cluster.close()
                assert problems == []

        asyncio.run(scenario())

    def test_replicas_converge_under_chaos(self):
        async def scenario():
            chaos = ChaosConfig(
                delay_min=0.0005,
                delay_max=0.003,
                drop_rate=0.02,
                seed=3,
            )
            cluster = SMRCluster(
                _spec(chaos=chaos, seed=19), compact_every=8
            )
            await cluster.start()
            try:
                result = await run_smr_load(
                    cluster,
                    clients=2,
                    rate=300.0,
                    ops=12,
                    seed=4,
                    retry_every=4,
                    commit_timeout=30.0,
                )
                assert result["ok"], result["problems"]
                assert result["uncommitted"] == 0
                assert result["dedup_hits"] == result["dedup_retries"] == 3
            finally:
                problems = await cluster.close()
                assert problems == []

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# Group commit: a slot is one tick's submissions
# ---------------------------------------------------------------------- #


async def _started(registry=None, **spec_overrides) -> SMRCluster:
    cluster = SMRCluster(
        _spec(**spec_overrides), compact_every=0, registry=registry
    )
    await cluster.start()
    assert await cluster.drain(timeout=20)  # genesis
    return cluster


def _in_flight(cluster: SMRCluster) -> tuple:
    return (
        cluster._commits,
        cluster._applied_counts,
        cluster._results,
        cluster._submit_ts,
    )


class TestGroupCommit:
    def test_same_tick_submits_share_a_slot_with_own_results(self):
        async def scenario():
            registry = MetricsRegistry()
            cluster = await _started(registry, seed=41)
            try:
                submitted = [
                    cluster.submit(Command(f"s{index}", 1, "add", "n", 10))
                    for index in range(5)
                ]
                commits = await asyncio.wait_for(
                    asyncio.gather(*(future for _, future in submitted)), 20
                )
                assert await cluster.drain(timeout=20)
                assert cluster.verify_replicas() == []
                return submitted, commits, registry.snapshot().counters
            finally:
                assert await cluster.close() == []

        submitted, commits, counters = asyncio.run(scenario())
        assert {slot for slot, _ in submitted} == {1}
        assert len({id(future) for _, future in submitted}) == 5
        assert all(commit.committed and commit.slot == 1 for commit in commits)
        # Submission order is application order.
        assert [commit.result for commit in commits] == [10, 20, 30, 40, 50]
        # Commands are what is counted (genesis is a committed, applied
        # command nobody submitted); slots are counted beside them.
        assert counters["cluster.smr.submitted"] == 5
        assert counters["cluster.smr.committed"] == 6
        assert counters["cluster.smr.applied"] == 6 * 4
        assert counters["cluster.smr.slots"] == 2

    def test_submits_a_yield_apart_get_consecutive_slots(self):
        async def scenario():
            cluster = await _started(seed=43)
            try:
                slots = []
                futures = []
                for index in range(3):
                    slot, future = cluster.submit(
                        Command("s", index + 1, "set", "k", index)
                    )
                    slots.append(slot)
                    futures.append(future)
                    await asyncio.sleep(0)
                await asyncio.wait_for(asyncio.gather(*futures), 20)
                return slots
            finally:
                assert await cluster.close() == []

        assert asyncio.run(scenario()) == [1, 2, 3]

    def test_full_slot_seals_early(self):
        async def scenario():
            cluster = await _started(seed=45)
            try:
                submitted = [
                    cluster.submit(Command(f"s{index}", 1, "add", "n", 1))
                    for index in range(MAX_SLOT_COMMANDS + 3)
                ]
                commits = await asyncio.wait_for(
                    asyncio.gather(*(future for _, future in submitted)), 20
                )
                assert await cluster.drain(timeout=20)
                return [slot for slot, _ in submitted], commits
            finally:
                assert await cluster.close() == []

        slots, commits = asyncio.run(scenario())
        assert slots == [1] * MAX_SLOT_COMMANDS + [2] * 3
        assert commits[-1].result == MAX_SLOT_COMMANDS + 3

    def test_same_command_twice_in_one_slot_executes_once(self):
        async def scenario():
            registry = MetricsRegistry()
            cluster = await _started(registry, seed=47)
            try:
                command = Command("retry-client", 1, "add", "hits", 5)
                (slot_a, first), (slot_b, retry) = (
                    cluster.submit(command),
                    cluster.submit(command),
                )
                assert slot_a == slot_b
                commits = await asyncio.wait_for(
                    asyncio.gather(first, retry), 20
                )
                assert await cluster.drain(timeout=20)
                for pid, replica in sorted(cluster.replicas.items()):
                    assert replica.machine.data["hits"] == 5, f"replica {pid}"
                    assert replica.machine.dedup_hits == 1, f"replica {pid}"
                assert cluster.verify_replicas() == []
                return commits, registry.snapshot().counters
            finally:
                assert await cluster.close() == []

        commits, counters = asyncio.run(scenario())
        assert [commit.result for commit in commits] == [5, 5]
        assert counters["cluster.smr.dedup_hits"] == 4

    def test_aborted_slot_fails_every_command_and_retries_commit(self):
        """A slot consensus decides 0 is a no-op for all its commands;
        re-submitting them lands in a later slot and commits."""
        from repro.core.fail_stop import FailStopConsensus

        async def scenario():
            cluster = await _started(seed=49)
            spec = cluster.spec
            for node in cluster._mesh.nodes:
                original = node.process_factory

                def factory(instance, pid=node.pid, original=original):
                    if instance == 1:  # every node proposes 0 for slot 1
                        return FailStopConsensus(pid, spec.n, spec.k, 0)
                    return original(instance)

                node.process_factory = factory
            try:
                commands = [
                    Command(f"s{index}", 1, "add", "n", 1)
                    for index in range(3)
                ]
                aborted = await asyncio.wait_for(
                    asyncio.gather(
                        *[cluster.submit(command)[1] for command in commands]
                    ),
                    20,
                )
                retried = await asyncio.wait_for(
                    asyncio.gather(
                        *[cluster.submit(command)[1] for command in commands]
                    ),
                    20,
                )
                assert await cluster.drain(timeout=20)
                assert cluster.verify_replicas() == []
                for replica in cluster.replicas.values():
                    assert replica.aborted_slots == 1
                    assert replica.machine.data == {"n": 3}
                    assert replica.machine.dedup_hits == 0
                return aborted, retried
            finally:
                # The close-time oracle knows SMR's inputs are all 1, so
                # it (rightly) calls the rigged slot a validity breach.
                problems = await cluster.close()
                assert problems and all(
                    "instance 1" in problem for problem in problems
                ), problems

        aborted, retried = asyncio.run(scenario())
        assert [(c.slot, c.committed, c.result) for c in aborted] == [
            (1, False, None)
        ] * 3
        assert [(c.slot, c.committed, c.result) for c in retried] == [
            (2, True, 1), (2, True, 2), (2, True, 3)
        ]

    def test_diverging_replica_is_reported_per_command(self):
        async def scenario():
            cluster = await _started(seed=51)
            try:
                # One replica's state is off for key "x" only.
                odd = cluster.replicas[2]
                odd.machine.data["x"] = 99
                futures = [
                    cluster.submit(Command("a", 1, "get", "x"))[1],
                    cluster.submit(Command("b", 1, "get", "y"))[1],
                ]
                await asyncio.wait_for(asyncio.gather(*futures), 20)
                assert await cluster.drain(timeout=20)
                return list(cluster.problems)
            finally:
                await cluster.close()

        problems = asyncio.run(scenario())
        # Whoever reported first is the reference, so either replica 2
        # is named once or the three others are named against it.
        assert len(problems) in (1, 3), problems
        assert all(
            problem.startswith("slot 1 command 0: replica ")
            and "99" in problem
            for problem in problems
        ), problems

    def test_drained_cluster_holds_no_slot_bookkeeping(self):
        async def scenario():
            cluster = await _started(seed=53)
            try:
                for round_ in range(4):
                    futures = [
                        cluster.submit(
                            Command(f"s{index}", round_ + 1, "add", "n", 1)
                        )[1]
                        for index in range(3)
                    ]
                    await asyncio.sleep(0)
                assert any(_in_flight(cluster))
                await asyncio.wait_for(asyncio.gather(*futures), 20)
                assert await cluster.drain(timeout=20)
                assert [len(held) for held in _in_flight(cluster)] == [0] * 4
                # A straggler's report for a released slot is dropped.
                cluster._on_applied(0, 2, 1, (1, 2, 3))
                assert [len(held) for held in _in_flight(cluster)] == [0] * 4
                assert await cluster.drain(timeout=0.01)
            finally:
                assert await cluster.close() == []

        asyncio.run(scenario())

    def test_drain_waits_for_the_last_replica_and_names_laggards(self):
        async def scenario():
            cluster = await _started(seed=55)
            try:
                # Replica 3 stops applying: quorum (3 of 4) still commits.
                await cluster.replicas[3].stop()
                commit = await cluster.submit_and_wait(
                    Command("s", 1, "set", "k", 1), timeout=20
                )
                assert commit.committed
                assert not await cluster.drain(timeout=0.2)
                assert cluster.problems == [
                    "drain: replicas [3] had not applied through slot 1 "
                    "after 0.2s"
                ]
                # The applier comes back; its report, not a timer, ends
                # the wait.
                waiter = asyncio.ensure_future(cluster.drain(timeout=20))
                await asyncio.sleep(0)
                assert not waiter.done()
                cluster.replicas[3].start()
                assert await waiter
                del cluster.problems[:]
            finally:
                assert await cluster.close() == []

        asyncio.run(scenario())

    def test_drain_timeout_counts_uncommitted_slots(self):
        async def scenario():
            cluster = await _started(seed=57)
            try:
                for pid in (1, 2, 3):  # one of four left: no quorum
                    await cluster.replicas[pid].stop()
                cluster.submit(Command("s", 1, "set", "k", 1))
                assert not await cluster.drain(timeout=0.2)
                assert cluster.problems == [
                    "drain: 1 slots uncommitted after 0.2s"
                ]
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_seal_failure_reaches_every_future_of_the_slot(self):
        async def scenario():
            cluster = await _started(seed=59)
            try:
                first = cluster.replicas[0]
                real_offer = first.offer

                def broken_offer(slot, commands):
                    raise RuntimeError("disk full")

                first.offer = broken_offer
                futures = [
                    cluster.submit(Command(f"s{index}", 1, "add", "n", 1))[1]
                    for index in range(2)
                ]
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*futures, return_exceptions=True), 20
                )
                assert [type(outcome) for outcome in outcomes] == [
                    RuntimeError, RuntimeError
                ]
                assert [str(outcome) for outcome in outcomes] == [
                    "disk full", "disk full"
                ]
                assert cluster.problems == [
                    "slot 1: seal failed: RuntimeError('disk full')"
                ]
                # The failed slot is not left in flight, and the service
                # goes on: no replica ever held slot 1.
                first.offer = real_offer
                assert await cluster.drain(timeout=20)
                commit = await cluster.submit_and_wait(
                    Command("s0", 1, "add", "n", 1), timeout=20
                )
                assert (commit.slot, commit.result) == (2, 1)
                assert await cluster.drain(timeout=20)
                assert cluster.verify_replicas() == []
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_close_fails_an_unsealed_slot_and_later_submits(self):
        async def scenario():
            cluster = await _started(seed=61)
            futures = [
                cluster.submit(Command(f"s{index}", 1, "add", "n", 1))[1]
                for index in range(2)
            ]
            problems = await cluster.close()
            assert problems == [
                "close: slot 1 was never sealed (2 commands dropped)"
            ]
            for future in futures:
                with pytest.raises(ConfigurationError, match="sealed"):
                    future.result()
            with pytest.raises(ConfigurationError, match="unclosed"):
                cluster.submit(Command("s0", 2, "add", "n", 1))
            # The cancelled seal never ran: no replica saw the slot.
            await asyncio.sleep(0)
            assert all(1 not in r.log for r in cluster.replicas.values())

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #


class TestLoad:
    def test_load_payload_shape_and_accounting(self):
        async def scenario():
            registry = MetricsRegistry()
            return await run_smr(
                _spec(seed=23),
                clients=3,
                rate=500.0,
                ops=20,
                seed=5,
                retry_every=5,
                compact_every=16,
                commit_timeout=20.0,
                registry=registry,
            ), registry.snapshot()

        result, snapshot = asyncio.run(scenario())
        assert result["ok"], result["problems"]
        assert (result["n"], result["k"], result["chaos"]) == (4, 1, False)
        # 20 ops + 4 retries; genesis is not a client op.  How many
        # slots they shared depends on how the arrivals fell into ticks;
        # a retry is submitted in its original's tick, so at most 20.
        assert result["submitted_commands"] == 24
        assert 2 <= result["submitted_slots"] <= 21
        assert result["committed"] == 24
        assert result["dedup_retries"] == 4
        assert result["dedup_hits"] == 4
        assert result["uncommitted"] == 0
        assert result["throughput_ops_per_sec"] > 0
        latency = result["commit_latency_ms"]
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
        assert snapshot.counters["cluster.smr.committed"] == 25
        assert snapshot.counters["cluster.smr.submitted"] == 24
        assert (
            snapshot.counters["cluster.smr.slots"]
            == result["submitted_slots"]
        )
        assert "cluster.smr.commit_latency_ms" in snapshot.histograms

    def test_load_generator_validation(self):
        async def scenario():
            cluster = SMRCluster(_spec())
            with pytest.raises(ConfigurationError, match="clients"):
                await run_smr_load(cluster, clients=0)
            with pytest.raises(ConfigurationError, match="rate"):
                await run_smr_load(cluster, rate=0.0)
            with pytest.raises(ConfigurationError, match="ops"):
                await run_smr_load(cluster, ops=0)

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


class TestSMRCLI:
    def test_single_run_exit_zero_and_summary(self, capsys):
        from repro.harness.cli import main

        code = main(
            [
                "smr",
                "--protocol", "failstop",
                "--ops", "10",
                "--rate", "400",
                "--clients", "2",
                "--retry-every", "5",
                "--compact-every", "8",
                "--seed", "31",
                "--slo-commit-p99-ms", "20000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "12/12 committed" in out
        assert " slots, " in out
        assert "dedup: 2 hits / 2 retried requests" in out
        assert "replicas byte-identical" in out
        assert "SLO: commit p99" in out

    def test_single_run_traces_feed_report_check(self, tmp_path, capsys):
        from repro.harness.cli import main

        trace_dir = str(tmp_path / "traces")
        code = main(
            [
                "smr",
                "--protocol", "failstop",
                "--ops", "10",
                "--rate", "400",
                "--clients", "2",
                "--seed", "37",
                "--trace-out", trace_dir,
            ]
        )
        assert code == 0, capsys.readouterr().out
        capsys.readouterr()
        json_out = str(tmp_path / "report.json")
        assert main(["report", trace_dir, "--check", "--json", json_out]) == 0
        out = capsys.readouterr().out
        assert "SMR commit latency" in out
        with open(json_out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        # 10 ops + the default one retry in ten + genesis, counted as
        # commands however they shared slots (the retry rides with its
        # original); one apply event per command per replica.
        assert payload["smr"]["commits"] == 12
        assert 2 <= payload["smr"]["slots"] <= 11
        assert payload["smr"]["applies"] == 48
        assert payload["smr"]["dedup_hits"] == 4

    def test_bad_configuration_exits_two(self, capsys):
        from repro.harness.cli import main

        assert main(["smr", "--clients", "0"]) == 2
        assert main(["smr", "--rate", "0"]) == 2
        assert (
            main(["smr", "--protocol", "failstop", "--byzantine", "1"]) == 2
        )
