"""Cluster driver: launch, observe, and judge an n-node loopback cluster.

The driver is the cluster analogue of :class:`repro.sim.kernel.Simulation`
plus :class:`repro.harness.runner.ExperimentRunner`: it describes its
process ensemble to :mod:`repro.harness.builders` (:attr:`ClusterSpec.
ensemble`) and names no protocol or Byzantine class itself, so the cores
are the simulator's and the fuzzer's byte for byte; it wires each process to
a :class:`~repro.cluster.transport.Transport` — optionally behind a
:class:`~repro.cluster.chaos.ChaosProxy` — waits for the correct nodes to
decide, and then runs the agreement/validity oracles over the collected
:class:`~repro.cluster.node.DecisionRecord` list.  How a run comes up,
ends, is judged and is torn down is :class:`ClusterMesh`'s, for
:func:`run_cluster` and the SMR layer alike.

Since the multi-instance revision a spec can carry ``instances > 1``:
every node hosts that many concurrent protocol cores (one per consensus
instance), the transport batches their frames per link, and the oracles
are applied *per instance* — agreement across instances would be
meaningless, agreement within each instance is the paper's theorem.

Throughput and latency of this layer are measured by the repository
benchmark (``python3 benchmarks/suite/run.py``), not from here.
"""

from __future__ import annotations

import asyncio
import json
import os
import uuid
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from repro.cluster.chaos import ChaosConfig, ChaosProxy
from repro.cluster.node import ClusterNode, DecisionRecord
from repro.cluster.trace import ClusterTraceWriter
from repro.cluster.transport import DEFAULT_TRACE_SAMPLE, Transport
from repro.errors import ConfigurationError
from repro.harness.builders import build_ensemble, build_member, parse_inputs
from repro.harness.provenance import provenance
from repro.harness.stats import percentile
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.spans import SpanTracer
from repro.procs.base import Process
from repro.sim.results import agreement_problems, validity_problems

#: Byzantine behaviours selectable by name on the CLI → their strategy
#: name in :data:`repro.faults.byzantine.BYZANTINE_STRATEGIES`.
BYZANTINE_KINDS = {
    "balancing": "balancing_echo",
    "equivocating": "equivocating_echo",
    "anti-majority": "anti_majority_echo",
    "silent": "silent",
}

#: Protocols the cluster runtime can serve.
CLUSTER_PROTOCOLS = ("failstop", "malicious")


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster configuration.

    Attributes:
        n, k: protocol parameters (validated by the protocol cores).
        protocol: ``"failstop"`` (Figure 1) or ``"malicious"`` (Figure 2).
        inputs: per-process initial values; ``None`` means unanimous 1s
            (so the validity oracle has bite).
        byzantine_count: number of live Byzantine nodes (malicious
            protocol only), substituted at the highest pids.
        byzantine_kind: behaviour name from :data:`BYZANTINE_KINDS`.
        crashes: pid → :class:`~repro.faults.crash.CrashableProcess`
            kwargs, as in the builders.
        chaos: chaos-proxy schedule applied in front of every node
            (``None`` or an inactive config = clean network).
        seed: base seed; per-node transport jitter and per-proxy chaos
            RNGs are derived from it.
        exit_after_decide: enable the §3.3 exit device (malicious only).
        instances: concurrent consensus instances multiplexed over the
            same mesh (each gets its own fresh protocol ensemble).
        instance_linger: seconds a decided instance lingers at each node
            before GC (``None`` = node default).
    """

    n: int
    k: int
    protocol: str = "malicious"
    inputs: Union[Sequence[int], str, None] = None
    byzantine_count: int = 0
    byzantine_kind: str = "balancing"
    crashes: Optional[Mapping[int, dict]] = None
    chaos: Optional[ChaosConfig] = None
    seed: int = 0
    exit_after_decide: bool = False
    instances: int = 1
    instance_linger: Optional[float] = None

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ConfigurationError(
                f"instances must be >= 1, got {self.instances}"
            )
        if self.protocol not in CLUSTER_PROTOCOLS:
            raise ConfigurationError(
                f"unknown cluster protocol {self.protocol!r}; "
                f"choose from {list(CLUSTER_PROTOCOLS)}"
            )
        if self.byzantine_count and self.protocol != "malicious":
            raise ConfigurationError(
                "Byzantine nodes require the malicious protocol"
            )
        if self.byzantine_kind not in BYZANTINE_KINDS:
            raise ConfigurationError(
                f"unknown Byzantine kind {self.byzantine_kind!r}; "
                f"choose from {sorted(BYZANTINE_KINDS)}"
            )
        if self.byzantine_count < 0 or self.byzantine_count > self.n:
            raise ConfigurationError(
                f"byzantine_count {self.byzantine_count} out of range"
            )

    @property
    def effective_inputs(self) -> list[int]:
        """The resolved per-process input values."""
        if self.inputs is None:
            return [1] * self.n
        return parse_inputs(self.inputs, self.n)

    @property
    def byzantine_pids(self) -> tuple[int, ...]:
        """Pids running the Byzantine behaviour (highest ids)."""
        return tuple(range(self.n - self.byzantine_count, self.n))

    @property
    def ensemble(self) -> dict:
        """This spec's process ensemble as keyword arguments for
        :func:`repro.harness.builders.build_ensemble` (all members) and
        ``build_member(pid, ...)`` (one) — the same objects the
        simulator runs.  No ``allow_excessive_k``: a cluster past the
        resilience bound is a configuration error."""
        strategy = BYZANTINE_KINDS[self.byzantine_kind]
        described = {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "inputs": self.effective_inputs,
            "byzantine": {pid: strategy for pid in self.byzantine_pids},
            "crashes": dict(self.crashes or {}),
        }
        if self.protocol == "malicious":
            described["exit_after_decide"] = self.exit_after_decide
        return described


# ---------------------------------------------------------------------- #
# Decision-record oracles
# ---------------------------------------------------------------------- #


def check_decision_records(
    records: Sequence[DecisionRecord],
    correct_pids: frozenset[int],
    inputs: Sequence[int],
    surviving_pids: Optional[frozenset[int]] = None,
) -> list[str]:
    """Agreement/validity/termination over a cluster's decision records.

    The agreement and validity sentences are the simulator's
    (:func:`repro.sim.results.agreement_problems` /
    ``validity_problems``), read here over live decision records.
    Returns a list of human-readable problems (empty = all oracles pass).

    Args:
        records: every decision the cluster observed (Byzantine nodes'
            records are ignored — their ``is_correct`` flag is False).
        correct_pids: pids of non-Byzantine processes.
        inputs: the initial values, indexed by pid.
        surviving_pids: correct pids that did not crash; defaults to all
            correct pids.  Termination is demanded only of survivors.
    """
    survivors = surviving_pids if surviving_pids is not None else correct_pids
    decided = {
        record.pid: record.value
        for record in records
        if record.is_correct and record.pid in correct_pids
    }
    problems = agreement_problems(decided) + validity_problems(
        decided, (inputs[pid] for pid in correct_pids)
    )
    missing = sorted(survivors - decided.keys())
    if missing:
        problems.append(
            f"termination incomplete: surviving correct processes "
            f"{missing} did not decide"
        )
    return problems


def check_decision_records_by_instance(
    records: Sequence[DecisionRecord],
    correct_pids: frozenset[int],
    inputs: Sequence[int],
    surviving_by_instance: Optional[Mapping[int, frozenset[int]]] = None,
    expected_instances: Optional[Sequence[int]] = None,
) -> list[str]:
    """Per-instance agreement/validity/termination.

    Each consensus instance is an independent execution of the paper's
    protocol, so the oracles quantify over records *within* one
    instance; values may legitimately differ across instances.  Every
    problem string is prefixed with its instance id.

    Args:
        records: decisions from every instance, mixed.
        correct_pids: pids of non-Byzantine processes (same ensemble
            shape for every instance).
        inputs: initial values, indexed by pid (same for every instance).
        surviving_by_instance: instance → surviving correct pids; an
            instance absent from the map defaults to all correct pids.
        expected_instances: instances that must each produce a verdict;
            defaults to the instances observed in ``records`` (so a
            wholly-silent instance is caught only when the expectation
            is passed explicitly).
    """
    by_instance: dict[int, list[DecisionRecord]] = {}
    for record in records:
        by_instance.setdefault(record.instance, []).append(record)
    instances = (
        sorted(by_instance)
        if expected_instances is None
        else sorted(expected_instances)
    )
    problems: list[str] = []
    for instance in instances:
        surviving = None
        if surviving_by_instance is not None:
            surviving = surviving_by_instance.get(instance)
        for problem in check_decision_records(
            by_instance.get(instance, []), correct_pids, inputs, surviving
        ):
            problems.append(f"instance {instance}: {problem}")
    return problems


# ---------------------------------------------------------------------- #
# Driving one cluster
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClusterReport:
    """Everything one cluster run produced.

    ``problems`` is the oracle verdict: an empty tuple means agreement,
    validity, and termination all held over the decision records.
    ``wall_seconds`` is loop time (``loop.time()``) from
    :meth:`ClusterMesh.start` to the verdict (0 if it never started).
    """

    spec: ClusterSpec
    records: tuple[DecisionRecord, ...]
    problems: tuple[str, ...]
    wall_seconds: float
    timed_out: bool
    metrics: Optional[MetricsSnapshot] = None

    @property
    def ok(self) -> bool:
        """True when every oracle passed and nothing timed out."""
        return not self.problems and not self.timed_out

    def consensus_value(self) -> Optional[int]:
        """The agreed value (None if no correct node decided)."""
        for record in self.records:
            if record.is_correct:
                return record.value
        return None


def latency_summary_ms(
    sorted_seconds: Sequence[float], spread: bool = False
) -> dict:
    """p50/p99 of ascending-sorted latencies in seconds, reported in
    milliseconds; ``spread`` adds the mean and the max."""
    summary = {
        "p50": percentile(sorted_seconds, 0.50) * 1000.0,
        "p99": percentile(sorted_seconds, 0.99) * 1000.0,
    }
    if spread:
        summary["mean"] = (
            sum(sorted_seconds) / len(sorted_seconds) * 1000.0
            if sorted_seconds
            else 0.0
        )
        summary["max"] = sorted_seconds[-1] * 1000.0 if sorted_seconds else 0.0
    return summary


class ClusterMesh:
    """How a :class:`ClusterSpec` becomes a running mesh, and how that
    run ends (DESIGN.md §10).

    The one place transports, chaos proxies and nodes are constructed
    and the one place a run is awaited, judged, recorded and torn down;
    :func:`run_cluster` and :class:`repro.cluster.smr.SMRCluster` both
    stand on it.  The lifecycle is :meth:`open` → :meth:`start` →
    :meth:`await_decisions` (SMR drains its own commit quorum instead)
    → :meth:`verdict` → :meth:`close`.  ``nodes`` holds one node per
    pid, in pid order; ``registry`` is the registry every layer reports
    into, ``run_id`` the run's trace-id prefix (``None`` untraced),
    ``correct_pids`` the pids whose process is a correct one,
    ``started_at`` the ``loop.time()`` instant of :meth:`start`
    (``None`` until then).
    The loop that runs :meth:`open` is the run's one clock, the HLCs'
    included (DESIGN.md §10).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        registry: Optional[MetricsRegistry] = None,
        trace_dir: Optional[str] = None,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
    ) -> None:
        self.spec = spec
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_dir = trace_dir
        self.trace_sample = trace_sample
        self.run_id = (
            uuid.uuid4().hex[:12] if trace_dir is not None else None
        )
        self.nodes: list[ClusterNode] = []
        self.correct_pids: frozenset[int] = frozenset()
        self.started_at: Optional[float] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transports: list[Transport] = []
        self._proxies: list[ChaosProxy] = []
        self._writers: list[ClusterTraceWriter] = []

    def open_shard(
        self, label: Union[int, str], clock_pid: int
    ) -> Optional[SpanTracer]:
        """Open trace shard ``node-<label>.jsonl`` and return the span
        tracer writing it (HLC identity ``clock_pid`` on the loop's
        clock, the shard's writer as ``tracer.writer``); ``None`` when
        the run is untraced.  Needs an opened mesh; :meth:`close`
        closes the writer."""
        if self.trace_dir is None:
            return None
        writer = ClusterTraceWriter(
            os.path.join(self.trace_dir, f"node-{label}.jsonl"),
            extra={"node": label},
        )
        self._writers.append(writer)
        return SpanTracer(writer, clock_pid, self.run_id, self._loop.time)

    async def open(self) -> None:
        """Bring the mesh up; a failure part-way closes what was opened
        before re-raising.

        Per pid, in pid order: the trace shard and span tracer (only
        with a ``trace_dir``), the :class:`Transport` with its derived
        seed listening on an ephemeral port, and — when ``spec.chaos``
        is active — a :class:`ChaosProxy` in front of it with its own
        derived seed.  Then every transport dials the full address map
        and gets its :class:`ClusterNode`, whose per-instance factory
        builds that pid's member of :attr:`ClusterSpec.ensemble` —
        exactly one core per call.  Nodes are left constructed but not
        started: :meth:`start` opens instances and starts the clock.
        """
        spec = self.spec
        self._loop = asyncio.get_running_loop()
        # One whole ensemble first: build_ensemble runs the ensemble-level
        # checks (input shape and domain, fault pids, fault count against
        # k) before any socket or trace shard opens, and says which pids
        # are correct.  The per-node factories then build single members.
        ensemble = spec.ensemble
        self.correct_pids = frozenset(
            proc.pid for proc in build_ensemble(**ensemble) if proc.is_correct
        )
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
        chaos_active = spec.chaos is not None and spec.chaos.active
        node_kwargs: dict = {}
        if spec.instance_linger is not None:
            node_kwargs["instance_linger"] = spec.instance_linger
        try:
            dial_addrs: dict[int, tuple] = {}
            for pid in range(spec.n):
                tracer = self.open_shard(pid, pid)
                transport = Transport(
                    pid,
                    spec.n,
                    registry=self.registry,
                    seed=spec.seed * 1_000_003 + pid,
                    tracer=tracer,
                    trace_sample=self.trace_sample,
                )
                self._transports.append(transport)
                addr = await transport.serve()
                if chaos_active:
                    # The proxy shares the fronted node's tracer: one HLC
                    # per pid keeps same-host causality single-clocked.
                    proxy = ChaosProxy(
                        addr,
                        replace(
                            spec.chaos, seed=spec.chaos.seed + 7919 * pid
                        ),
                        registry=self.registry,
                        label=pid,
                        tracer=tracer,
                    )
                    self._proxies.append(proxy)
                    dial_addrs[pid] = await proxy.serve()
                else:
                    dial_addrs[pid] = addr
            for pid, transport in enumerate(self._transports):
                transport.connect(dial_addrs)

                def factory(instance: int, pid: int = pid) -> Process:
                    # A fresh, identically-configured process per instance.
                    return build_member(pid, **ensemble)

                self.nodes.append(
                    ClusterNode(
                        transport,
                        factory,
                        registry=self.registry,
                        seed=spec.seed * 9_973 + pid,
                        tracer=transport.tracer,
                        **node_kwargs,
                    )
                )
        except BaseException:
            await self.close()
            raise

    async def start(self, instances: int = 1) -> None:
        """Start the run's clock, then every node with instances
        ``0 .. instances-1`` open."""
        self.started_at = self._loop.time()
        for node in self.nodes:
            await node.start(instances=instances)

    async def await_decisions(self, instances: int, timeout: float) -> bool:
        """Wait for the paper's one ending: every correct node's process
        of every instance ``0 .. instances-1`` has decided — or crashed,
        which excuses it.  Event-driven, under one ``timeout`` budget;
        returns whether the budget ran out first (``wait_for`` has then
        cancelled the waits still pending, which abandons their
        instances as any timed-out client's are)."""
        waits = asyncio.gather(
            *(
                node.decide_instance(instance)
                for node in self.nodes
                if node.pid in self.correct_pids
                for instance in range(instances)
            )
        )
        try:
            await asyncio.wait_for(waits, timeout)
        except asyncio.TimeoutError:
            return True
        return False

    def records(self) -> tuple[DecisionRecord, ...]:
        """Every decision observed so far, by node then instance."""
        return tuple(
            record
            for node in self.nodes
            for _, record in sorted(node.decision_records.items())
        )

    def verdict(
        self,
        instances: Optional[int],
        timed_out: bool,
        problems: Sequence[str] = (),
    ) -> ClusterReport:
        """Judge the run as it stands and, when traced, record it.

        Each instance is judged on its own: the survivors are the
        correct pids whose process of that instance did not crash, and
        agreement/validity/termination are checked over the instance's
        decision records.  ``instances`` names the expectation —
        ``0 .. instances-1`` must each have terminated — or, as
        ``None``, "whatever was decided": an interrupted service
        legitimately leaves tail instances undecided, so only the
        decided ones are judged.  ``problems`` are the caller's own
        findings, reported ahead of the oracles'.  Wall time runs from
        :meth:`start` to this call.  ``run.json`` is written only for a
        traced mesh that started, so a run that never began leaves no
        manifest to call it ``ok``.
        """
        started = self.started_at is not None
        wall = self._loop.time() - self.started_at if started else 0.0
        records = self.records()
        expected = (
            sorted({record.instance for record in records})
            if instances is None
            else range(instances)
        )
        correct_nodes = [
            node for node in self.nodes if node.pid in self.correct_pids
        ]
        surviving_by_instance = {
            instance: frozenset(
                node.pid
                for node in correct_nodes
                if not node.instance_crashed(instance)
            )
            for instance in expected
        }
        report = ClusterReport(
            spec=self.spec,
            records=records,
            problems=(
                *problems,
                *check_decision_records_by_instance(
                    records,
                    self.correct_pids,
                    self.spec.effective_inputs,
                    surviving_by_instance,
                    expected_instances=expected,
                ),
            ),
            wall_seconds=wall,
            timed_out=timed_out,
            metrics=self.registry.snapshot(),
        )
        if started and self.trace_dir is not None:
            self._write_run_manifest(report, len(expected))
        return report

    def _write_run_manifest(
        self, report: ClusterReport, instances: int
    ) -> None:
        """Drop ``run.json`` next to the trace shards.

        The manifest binds the shards to the run that produced them: the
        trace-id prefix (``run_id``), the spec the cluster executed, the
        oracle verdict, and build/host provenance.  The report analyzer
        uses it to label output and to sanity-check that shards from
        different runs are not being stitched together.
        """
        spec = self.spec
        correct = [record for record in report.records if record.is_correct]
        manifest = {
            "run_id": self.run_id,
            "spec": {
                "n": spec.n,
                "k": spec.k,
                "protocol": spec.protocol,
                "instances": instances,
                "byzantine": spec.byzantine_count,
                "byzantine_kind": (
                    spec.byzantine_kind if spec.byzantine_count else None
                ),
                "chaos": bool(spec.chaos is not None and spec.chaos.active),
                "seed": spec.seed,
            },
            "ok": report.ok,
            "timed_out": report.timed_out,
            "problems": list(report.problems),
            "wall_seconds": round(report.wall_seconds, 6),
            "decisions": len(correct),
            "decide_latency_ms": latency_summary_ms(
                sorted(record.latency for record in correct)
            ),
            "provenance": provenance(),
        }
        path = os.path.join(self.trace_dir, "run.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    async def close(self) -> None:
        """Wind down so that nothing is closed under a live writer:
        every node stops stepping (consumer task and linger timers),
        only then does any transport close — its outbound links, then
        its server — then the proxies, then the trace writers.  Closing
        node by node instead would shut node 0's sockets while nodes
        1…n−1 still stepped and wrote to them.  Idempotent."""
        for node in self.nodes:
            await node.stop()
        for transport in self._transports:
            await transport.close()
        for proxy in self._proxies:
            await proxy.close()
        for writer in self._writers:
            writer.close()


async def run_cluster(
    spec: ClusterSpec,
    timeout: float = 60.0,
    registry: Optional[MetricsRegistry] = None,
    trace_dir: Optional[str] = None,
    trace_sample: int = DEFAULT_TRACE_SAMPLE,
) -> ClusterReport:
    """Run one loopback cluster to (attempted) consensus.

    The mesh is :class:`ClusterMesh`'s: every node gets its own server
    socket; when the spec carries an active chaos config, a
    :class:`ChaosProxy` fronts each node and all peer traffic dials the
    proxy.  With ``spec.instances > 1`` each node hosts that many
    concurrent protocol cores, each fresh from the node's factory.  The
    run ends when every surviving correct node has decided *every
    instance*, or after ``timeout`` wall-clock seconds.

    ``trace_dir`` turns on causal JSONL tracing: one shard per node plus
    a ``run.json`` manifest, every node with a
    :class:`~repro.obs.spans.SpanTracer` stamping wire frames with
    trace/span/HLC fields and decomposing each decision's latency — the
    input :func:`repro.cluster.report.analyze_run` wants.
    ``trace_sample`` thins the per-message send/recv spans (one envelope
    in that many per link; ``1`` records every message) — the decide
    segments and chaos windows are exact at any rate.  With
    ``trace_dir=None`` everything is off and the hot paths run their
    allocation-free untraced code.
    """
    mesh = ClusterMesh(spec, registry, trace_dir, trace_sample)
    await mesh.open()
    try:
        await mesh.start(spec.instances)
        timed_out = await mesh.await_decisions(spec.instances, timeout)
        return mesh.verdict(spec.instances, timed_out)
    finally:
        await mesh.close()


def run_cluster_sync(spec: ClusterSpec, **options) -> ClusterReport:
    """Blocking wrapper around :func:`run_cluster`, same options."""
    return asyncio.run(run_cluster(spec, **options))
