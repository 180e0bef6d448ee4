"""State-machine replication over the cluster: log, dedup, snapshots.

Covers the SMR layer at three levels:

* the :class:`KVStateMachine` alone — determinism, session dedup, the
  snapshot/compaction invariant as a seeded property test (snapshot at
  slot k + replay of slots > k must be byte-identical to full replay,
  including across a simulated node restart);
* the replicated service — exactly-once apply of a retried client
  request on *every* replica, replica byte-equality under clean and
  chaos networks, compaction during live load;
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
    Command,
    KVStateMachine,
    SMRClient,
    SMRCluster,
    run_smr,
    run_smr_load,
)
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.cluster


# ---------------------------------------------------------------------- #
# Commands and canonical encoding
# ---------------------------------------------------------------------- #


class TestCommand:
    def test_wire_round_trip(self):
        command = Command("client-1", 7, "set", key="a", value=42)
        assert Command.from_wire(command.to_wire()) == command

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

    For random op sequences with interleaved sessions, retries, and
    slot gaps (aborted slots): restoring the snapshot taken at slot k
    and replaying only slots > k must land byte-identical to replaying
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
            if history and rng.random() < 0.25:
                command = rng.choice(history)  # client retry, fresh slot
            else:
                session = rng.choice(sessions)
                rids[session] += 1
                command = _random_command(rng, session, rids[session])
                history.append(command)
            entries.append((slot, command))

        full = KVStateMachine()
        for entry_slot, command in entries:
            full.apply(entry_slot, command)

        cut = rng.randrange(len(entries))
        snapshot_machine = KVStateMachine()
        for entry_slot, command in entries[: cut + 1]:
            snapshot_machine.apply(entry_slot, command)
        blob = snapshot_machine.snapshot()

        # Simulated restart: the snapshot survives only as bytes on
        # disk; a fresh process restores it and replays the tail.
        path = tmp_path / f"snap-{seed}.bin"
        path.write_bytes(blob)
        restarted = KVStateMachine.restore(path.read_bytes())
        for entry_slot, command in entries[cut + 1:]:
            restarted.apply(entry_slot, command)

        assert restarted.state_bytes() == full.state_bytes()


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
                client = SMRClient(cluster, "bulk")
                futures = []
                for index in range(30):
                    command = client.next_command(
                        "add", key=f"k{index % 3}", value=1
                    )
                    _, future = cluster.submit(command)
                    futures.append(future)
                await asyncio.wait_for(asyncio.gather(*futures), 30)
                assert await cluster.drain(timeout=20)
                for replica in cluster.replicas.values():
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
        # 20 ops + 4 retries; genesis is not a client op.
        assert result["submitted_slots"] == 25
        assert result["committed"] == 24
        assert result["dedup_retries"] == 4
        assert result["dedup_hits"] == 4
        assert result["uncommitted"] == 0
        assert result["throughput_ops_per_sec"] > 0
        latency = result["commit_latency_ms"]
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
        assert snapshot.counters["cluster.smr.committed"] == 25
        assert snapshot.counters["cluster.smr.submitted"] == 24
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
        assert "committed" in out
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
        assert payload["smr"]["commits"] >= 11
        assert payload["smr"]["applies"] >= 33  # per-replica events

    def test_bad_configuration_exits_two(self, capsys):
        from repro.harness.cli import main

        assert main(["smr", "--clients", "0"]) == 2
        assert main(["smr", "--rate", "0"]) == 2
        assert (
            main(["smr", "--protocol", "failstop", "--byzantine", "1"]) == 2
        )
