"""End-to-end cluster integration: Byzantine nodes, chaos, traces.

The headline acceptance scenario for the networked runtime: a 4-node
loopback cluster with one live Byzantine node reaches agreement while a
chaos proxy delays, drops, and resets its traffic — the same unchanged
protocol core the simulator drives, now over real TCP.
"""

import json
import os

import pytest

from repro.cluster.chaos import ChaosConfig
from repro.cluster.driver import ClusterSpec, run_cluster_sync
from repro.cluster.trace import ClusterTraceReader
from repro.core.messages import EchoMessage
from repro.errors import ConfigurationError
from repro.faults.byzantine import SilentByzantine
from repro.procs.base import Send

pytestmark = pytest.mark.cluster


class TestChaosConfigValidation:
    def test_bad_delay_window_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(delay_min=0.5, delay_max=0.1)

    def test_bad_drop_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(drop_rate=1.0)

    def test_inactive_config_detected(self):
        assert not ChaosConfig().active
        assert ChaosConfig(delay_max=0.1).active
        assert ChaosConfig(reset_every=5).active


class TestByzantineClusterUnderChaos:
    def test_n4_one_balancing_byzantine_with_chaos(self):
        """The acceptance scenario: n=4, k=1, live adversary, bad network."""
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="malicious",
                byzantine_count=1,
                byzantine_kind="balancing",
                chaos=ChaosConfig(
                    delay_min=0.001,
                    delay_max=0.008,
                    drop_rate=0.05,
                    reset_every=40,
                    seed=3,
                ),
                seed=11,
            ),
            timeout=60.0,
        )
        assert report.ok, report.problems
        correct = [r for r in report.records if r.is_correct]
        assert len(correct) == 3
        assert len({r.value for r in correct}) == 1
        # Chaos actually perturbed the run.
        assert report.metrics.counters.get("cluster.chaos.delayed", 0) > 0

    def test_equivocating_byzantine_under_chaos(self):
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="malicious",
                byzantine_count=1,
                byzantine_kind="equivocating",
                chaos=ChaosConfig(delay_max=0.005, drop_rate=0.03, seed=9),
                seed=17,
            ),
            timeout=60.0,
        )
        assert report.ok, report.problems

    def test_multi_instance_byzantine_under_chaos(self):
        """n=4, k=1, one live adversary, bad network — and three
        concurrent consensus instances multiplexed over the mesh, each
        judged by its own agreement/validity/termination oracles."""
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="malicious",
                byzantine_count=1,
                byzantine_kind="balancing",
                chaos=ChaosConfig(
                    delay_min=0.001,
                    delay_max=0.006,
                    drop_rate=0.04,
                    reset_every=60,
                    seed=5,
                ),
                seed=23,
                instances=3,
            ),
            timeout=90.0,
        )
        assert report.ok, report.problems
        correct = [r for r in report.records if r.is_correct]
        assert len(correct) == 9  # 3 correct nodes x 3 instances
        by_instance = {}
        for rec in correct:
            by_instance.setdefault(rec.instance, set()).add(rec.value)
        assert sorted(by_instance) == [0, 1, 2]
        assert all(len(values) == 1 for values in by_instance.values())
        assert report.metrics.counters.get("cluster.chaos.delayed", 0) > 0

    def test_trace_files_capture_the_run(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="failstop", seed=8),
            timeout=30.0,
            trace_dir=trace_dir,
        )
        assert report.ok
        for pid in range(4):
            path = os.path.join(trace_dir, f"node-{pid}.jsonl")
            events = list(ClusterTraceReader(path))
            kinds = {event["t"] for event in events}
            assert "node-start" in kinds
            assert "decide" in kinds
            assert "send" in kinds and "recv" in kinds
            # Payloads decode back to protocol message objects.
            sends = [e for e in events if e["t"] == "send" and e.get("payload")]
            assert sends and hasattr(sends[0]["payload"], "phaseno")
        # The manifest binds the shards to the build and host they ran on.
        manifest = os.path.join(trace_dir, "run.json")
        with open(manifest, encoding="utf-8") as handle:
            stamp = json.load(handle)["provenance"]
        assert set(stamp) == {"git_sha", "cpu_count", "python"}
        assert stamp["cpu_count"] >= 1

    def test_trace_events_carry_instance_labels(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="failstop", instances=2, seed=9),
            timeout=30.0,
            trace_dir=trace_dir,
            trace_sample=1,  # every send spanned: labels on all instances
        )
        assert report.ok
        events = list(
            ClusterTraceReader(os.path.join(trace_dir, "node-0.jsonl"))
        )
        decides = [e for e in events if e["t"] == "decide"]
        assert sorted(e["instance"] for e in decides) == [0, 1]
        sends = [e for e in events if e["t"] == "send"]
        assert {e["instance"] for e in sends} == {0, 1}
        starts = [e for e in events if e["t"] == "instance-start"]
        assert sorted(e["instance"] for e in starts) == [0, 1]


class TestIllTypedByzantinePayload:
    def test_ill_typed_echo_aborts_only_its_link(self, monkeypatch):
        """One within-bound Byzantine node sends an echo whose origin is
        ``None``: decode rejects it, the receiving node aborts that
        peer's connection and counts it, and every instance decides."""

        def start(self):
            self.exited = True
            echo = EchoMessage(origin=None, value=1, phaseno=0)
            return [Send(recipient, echo) for recipient in range(self.n)]

        monkeypatch.setattr(SilentByzantine, "start", start)
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="malicious",
                byzantine_count=1,
                byzantine_kind="silent",
                seed=5,
                instances=3,
            ),
            timeout=5.0,
        )
        assert report.ok, report.problems
        correct = [r for r in report.records if r.is_correct]
        assert len(correct) == 9  # 3 correct nodes x 3 instances
        assert report.metrics.counters["cluster.transport.codec_errors"] > 0
