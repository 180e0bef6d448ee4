"""State-machine replication: a replicated KV log, one instance per slot.

The paper's Figure 1/2 protocols decide one bit.  This module is the
lift from single-shot agreement to a client-facing service (the move
Abraham–Dolev–Stern frame as fault-tolerant *computation*, and as
agreement on a *set* of inputs): a replicated log in which **each log
slot is one consensus instance** multiplexed over the existing cluster
runtime **and carries every command submitted during one event-loop
iteration**, and a deterministic key-value state machine applies
committed slots in slot order, each slot's commands in submission
order, on every replica.

Division of labour (DESIGN.md §13):

* **Batching** is the event loop's job — group commit.  The first
  :meth:`SMRCluster.submit` of a tick allocates the slot and schedules
  its seal with ``call_soon``; later submits of that tick join it; the
  seal disseminates the tuple and opens the one instance.  An instance
  costs an O(n²) initial/echo fan-out whatever it decides, so the fan-out
  is paid per tick, not per command.  There is no size or delay option
  because the tick is self-clocking: sessions woken by one slot's commit
  resubmit in the same tick and share the next slot, a busier loop has
  longer ticks and so larger slots, and a lone command on an idle loop
  is a slot of one, sealed with no wait.  :data:`MAX_SLOT_COMMANDS`
  bounds a slot; a fuller tick spills into the next slot at once.
* **Sequencing and commit** are consensus' job.  Slot ``s`` commits when
  instance ``s`` decides 1.  Every correct replica proposes 1 for a
  sealed slot, so unanimity + the paper's validity theorem force
  commit; a 0 decision is an *abort* — the slot is a no-op for every
  command in it and the clients retry (dedup makes the retry safe).
* **Command dissemination** is not consensus' job (the protocols carry
  one bit, not payloads).  The cluster hands each slot's commands to
  every replica's in-process proposal buffer at seal time — modelling
  the standard client-broadcasts-request pattern — before the slot's
  opening protocol step is taken, so by the time any replica applies a
  committed slot it necessarily holds the commands.
* **Exactly-once** is the state machine's job.  Commands carry a
  ``(session, request_id)`` identity; sessions are sequential (one
  outstanding request), so each replica tracks the highest applied
  request id per session plus its cached result, and a retried command
  — same identity, later in the same slot or in a later one — returns
  the cached result without re-executing.
* **Compaction** is the replica's job.  Every ``compact_every`` *slots*
  (however many commands they held) a replica snapshots its state
  machine (canonical bytes, see
  :func:`repro.cluster.codec.encode_canonical`) and drops log entries at
  or below the snapshot slot; a snapshot never falls inside a slot.
  Invariant: snapshot + retained committed slots replays to a state
  byte-identical to full replay — the property
  :class:`SMRNode.replay_from_snapshot` exposes for tests.

A command's **commit latency** is its slot's: the slot's first submit →
a majority of correct replicas applied it.  Counters
(``cluster.smr.submitted`` / ``committed`` / ``applied`` /
``dedup_hits``) count commands; ``cluster.smr.slots`` counts instances
opened and ``cluster.smr.aborted`` slots aborted per replica.
:func:`run_smr_load` drives an open-loop Poisson workload (arrival times
are drawn up front and never wait on completions, so the latency numbers
are free of coordinated omission) and reports throughput plus p50/p99
commit latency.  The service's benchmark is the repository suite's
``smr_*`` workloads (``python3 benchmarks/suite/run.py``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.codec import decode_canonical, encode_canonical
from repro.cluster.driver import ClusterMesh, ClusterSpec, latency_summary_ms
from repro.cluster.node import ClusterNode
from repro.cluster.transport import DEFAULT_TRACE_SAMPLE
from repro.core.messages import payload
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

#: Operations the KV state machine executes.
SMR_OPS = ("noop", "set", "get", "del", "add")

#: Decided slots linger far shorter than the cluster default: an SMR run
#: decides thousands of instances, and each retains its protocol core
#: until the linger expires.
DEFAULT_SMR_LINGER = 0.5

#: Snapshot + compaction cadence (slots).
DEFAULT_COMPACT_EVERY = 64

#: Most commands one slot carries; a tick that submits more seals the
#: full slot on the spot and opens the next.  A bound on the work one
#: applier step does between yields, not a tuning knob.
MAX_SLOT_COMMANDS = 64


@payload
@dataclass(frozen=True)
class Command:
    """One client request: a state-machine operation with its identity.

    ``(session, request_id)`` is the exactly-once identity — a client
    retry re-submits the *same* command, and the state machine's session
    table recognises it wherever in the log it lands.  The genesis no-op uses the
    empty session, which is exempt from dedup tracking.
    """

    session: str
    request_id: int
    op: str
    key: str = ""
    value: Any = None

    def __post_init__(self) -> None:
        if self.op not in SMR_OPS:
            raise ConfigurationError(
                f"unknown SMR op {self.op!r}; choose from {list(SMR_OPS)}"
            )
        if self.request_id < 0:
            raise ConfigurationError(
                f"request_id must be >= 0, got {self.request_id}"
            )


class KVStateMachine:
    """The deterministic replicated state: a KV map plus session table.

    Determinism contract: ``apply`` depends only on the current state
    and the ``(slot, command)`` pair, so replicas applying the same
    committed entries in the same slot order hold byte-identical state
    (:meth:`state_bytes`).  The ``applies``/``dedup_hits`` counters are
    observability, not state — they are excluded from the canonical
    bytes so a restored snapshot compares equal to the machine that
    wrote it.
    """

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}
        #: session → {"rid": highest applied request id, "result": its
        #: cached result}.  Sessions are sequential, so one cached
        #: result per session suffices for exactly-once semantics.
        self.sessions: Dict[str, dict] = {}
        self.last_applied_slot = -1
        #: The slot :meth:`apply_slot` is in the middle of, if any.
        self._entered_slot: Optional[int] = None
        self.applies = 0
        self.dedup_hits = 0

    def _enter_slot(self, slot: int) -> None:
        if slot <= self.last_applied_slot:
            raise ConfigurationError(
                f"slot {slot} applied out of order (last applied "
                f"{self.last_applied_slot})"
            )
        self.last_applied_slot = slot

    def apply_slot(
        self, slot: int, commands: Tuple[Command, ...]
    ) -> List[Tuple[Any, bool]]:
        """Apply one committed slot's commands in submission order;
        returns one ``(result, deduped)`` per command.

        Slots must arrive in strictly increasing order (aborted slots
        are simply absent) — feeding a slot at or below the last applied
        one is a sequencing bug, not a retry, and fails loudly.
        """
        self._enter_slot(slot)
        self._entered_slot = slot
        try:
            return [self.apply(slot, command) for command in commands]
        finally:
            self._entered_slot = None

    def apply(self, slot: int, command: Command) -> Tuple[Any, bool]:
        """Apply one command of ``slot``; returns ``(result, deduped)``.

        Called on its own it is a slot of one command and makes the same
        ordering check as :meth:`apply_slot`, which calls it once per
        command of the slot it has entered.
        """
        if slot != self._entered_slot:
            self._enter_slot(slot)
        if command.session:
            session = self.sessions.get(command.session)
            if session is not None and command.request_id <= session["rid"]:
                # The retry's original apply already executed: return
                # the cached result (None for requests older than the
                # session's latest — a sequential client never awaits
                # those) without touching the data.
                self.dedup_hits += 1
                result = (
                    session["result"]
                    if command.request_id == session["rid"]
                    else None
                )
                return result, True
        result = self._execute(command)
        if command.session:
            self.sessions[command.session] = {
                "rid": command.request_id,
                "result": result,
            }
        self.applies += 1
        return result, False

    def _execute(self, command: Command) -> Any:
        op = command.op
        if op == "noop":
            return None
        if op == "set":
            self.data[command.key] = command.value
            return command.value
        if op == "get":
            return self.data.get(command.key)
        if op == "del":
            return self.data.pop(command.key, None)
        # "add": numeric increment — the op whose double-apply is
        # visible, which is what makes dedup provable.
        current = self.data.get(command.key)
        if not isinstance(current, (int, float)) or isinstance(
            current, bool
        ):
            current = 0
        amount = command.value if command.value is not None else 1
        total = current + amount
        self.data[command.key] = total
        return total

    def state_bytes(self) -> bytes:
        """Canonical bytes of the full replicated state.

        Byte equality across replicas is the replica-consistency check;
        the encoding is order-independent (sorted keys), so two machines
        that executed the same entries compare equal regardless of dict
        construction history.
        """
        return encode_canonical(
            {
                "data": self.data,
                "sessions": self.sessions,
                "last_applied_slot": self.last_applied_slot,
            }
        )

    def snapshot(self) -> bytes:
        """Serialise the state for compaction (same canonical bytes)."""
        return self.state_bytes()

    @classmethod
    def restore(cls, blob: bytes) -> "KVStateMachine":
        """Rebuild a machine from :meth:`snapshot` bytes (e.g. after a
        node restart); observability counters start from zero."""
        record = decode_canonical(blob)
        machine = cls()
        machine.data = dict(record["data"])
        machine.sessions = {
            session: dict(entry)
            for session, entry in record["sessions"].items()
        }
        machine.last_applied_slot = record["last_applied_slot"]
        return machine


@dataclass(frozen=True)
class CommitResult:
    """What awaiting a submitted command resolves to.

    ``committed`` is False when its slot aborted (consensus decided 0);
    ``result`` is then None and the client should retry.  ``slot``,
    ``latency`` (the slot's first submit → majority-applied, seconds)
    and ``committed_at`` (the ``loop.time()`` instant the quorum was
    reached, on the running event loop's clock — subtract other
    ``loop.time()`` readings from it, nothing else) are shared by every
    command of the slot; ``result`` is the command's own.
    """

    slot: int
    committed: bool
    result: Any
    latency: float
    committed_at: float


class SMRNode:
    """One replica: a cluster node plus its state machine and log.

    The applier task consumes sealed slots strictly in slot order: it
    awaits each slot's consensus decision (decisions may *arrive* out of
    order — a later slot's record is then already buffered at the
    cluster node and returns instantly), applies a committed slot's
    commands in submission order, and triggers snapshot + compaction on
    the configured cadence — between slots, never inside one.
    """

    def __init__(
        self,
        node: ClusterNode,
        cluster: "SMRCluster",
        compact_every: int,
    ) -> None:
        self.node = node
        self.cluster = cluster
        self.compact_every = compact_every
        self.machine = KVStateMachine()
        #: slot → its commands, as disseminated at seal; compaction
        #: drops entries at or below the snapshot slot.
        self.log: Dict[int, Tuple[Command, ...]] = {}
        #: committed ``(slot, commands)`` pairs retained since the last
        #: snapshot — what :meth:`replay_from_snapshot` re-applies.
        self.applied_entries: List[Tuple[int, Tuple[Command, ...]]] = []
        self.snapshot_slot = -1
        self.snapshot_blob: Optional[bytes] = None
        self.snapshots_taken = 0
        self.compacted_entries = 0
        self.aborted_slots = 0
        #: Highest slot this replica has processed (applied or aborted).
        self.applied_through = -1
        self._submitted: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None

    @property
    def pid(self) -> int:
        """The underlying cluster node's process id."""
        return self.node.pid

    def offer(self, slot: int, commands: Tuple[Command, ...]) -> None:
        """Buffer one slot's commands and queue the slot for the applier.

        Seal order is slot order (the cluster allocates slots
        monotonically and offers synchronously), so the applier's queue
        is already sequenced.
        """
        self.log[slot] = commands
        self._submitted.put_nowait(slot)

    def start(self) -> None:
        """Launch the applier task (idempotent per replica lifetime)."""
        self._task = asyncio.get_running_loop().create_task(
            self._apply_loop(), name=f"smr-applier-{self.pid}"
        )

    async def stop(self) -> None:
        """Cancel and await the applier task; safe to call twice."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    async def _apply_loop(self) -> None:
        registry = self.node.registry
        tracer = self.node.tracer
        while True:
            slot = await self._submitted.get()
            record = await self.node.decide_instance(slot)
            commands = self.log[slot]
            if record.value == 1:
                outcomes = self.machine.apply_slot(slot, commands)
                self.applied_entries.append((slot, commands))
                results = tuple(result for result, _ in outcomes)
                registry.inc("cluster.smr.applied", len(commands))
                hits = sum(deduped for _, deduped in outcomes)
                if hits:
                    registry.inc("cluster.smr.dedup_hits", hits)
                if tracer is not None:
                    for command, (_, deduped) in zip(commands, outcomes):
                        tracer.writer.record(
                            "smr-apply",
                            pid=self.pid,
                            instance=slot,
                            op=command.op,
                            session=command.session,
                            request_id=command.request_id,
                            deduped=deduped,
                        )
            else:
                results = (None,) * len(commands)
                self.aborted_slots += 1
                registry.inc("cluster.smr.aborted")
            self.applied_through = slot
            self.cluster._on_applied(self.pid, slot, record.value, results)
            if (
                self.compact_every > 0
                and slot - self.snapshot_slot >= self.compact_every
            ):
                self.take_snapshot(slot)

    def take_snapshot(self, slot: int) -> None:
        """Snapshot the machine and compact the log up to ``slot``."""
        self.snapshot_blob = self.machine.snapshot()
        self.snapshot_slot = slot
        self.snapshots_taken += 1
        dropped = [entry for entry in self.log if entry <= slot]
        for entry in dropped:
            del self.log[entry]
        self.applied_entries = [
            entry for entry in self.applied_entries if entry[0] > slot
        ]
        self.compacted_entries += len(dropped)
        registry = self.node.registry
        registry.inc("cluster.smr.snapshots")
        registry.gauge_max(
            "cluster.smr.snapshot_bytes", len(self.snapshot_blob)
        )
        if self.node.tracer is not None:
            self.node.tracer.writer.record(
                "smr-snapshot",
                pid=self.pid,
                instance=slot,
                entries_dropped=len(dropped),
                snapshot_bytes=len(self.snapshot_blob),
            )

    def replay_from_snapshot(self) -> KVStateMachine:
        """Restore the latest snapshot and re-apply retained entries.

        This is the restart path: the returned machine must equal
        :attr:`machine` byte-for-byte — the compaction invariant.
        """
        if self.snapshot_blob is not None:
            machine = KVStateMachine.restore(self.snapshot_blob)
        else:
            machine = KVStateMachine()
        for slot, commands in self.applied_entries:
            if slot > machine.last_applied_slot:
                machine.apply_slot(slot, commands)
        return machine


class SMRCluster:
    """The replicated service: slot allocation, commit quorum, replicas.

    The mesh underneath is :class:`repro.cluster.driver.ClusterMesh`,
    the same bring-up :func:`~repro.cluster.driver.run_cluster` stands
    on; what is added here is the client's own trace shard, the
    replicas, the genesis slot and the commit quorum.  Instead of a
    fixed instance count the cluster opens one consensus instance per
    slot, and a slot is whatever :meth:`submit` was handed during one
    event-loop iteration (a lone command is a slot of one on the same
    path).  Slots are pipelined: each seal broadcasts its slot's opening
    step immediately, so many slots are in flight while the appliers
    catch up in order.  Per-slot bookkeeping lives only while a slot is
    in flight — it is released once every correct replica has processed
    the slot, which is also what :meth:`drain` waits for.

    Crash-fault injection is not supported in SMR v1: a crashed replica
    stops applying, and commit quorum over the *configured* correct set
    would misreport.  Byzantine replicas are supported — they take part
    in consensus but host no state machine and do not count toward the
    commit quorum.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        registry: Optional[MetricsRegistry] = None,
        trace_dir: Optional[str] = None,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
    ) -> None:
        if spec.crashes:
            raise ConfigurationError(
                "SMR does not support crash injection: quorum tracking "
                "assumes every correct replica keeps applying"
            )
        if spec.inputs is not None:
            raise ConfigurationError(
                "SMR sets its own inputs (unanimous 1 per slot); "
                "pass inputs=None"
            )
        if spec.instances != 1:
            raise ConfigurationError(
                "SMR opens one instance per slot itself; pass instances=1"
            )
        if compact_every < 0:
            raise ConfigurationError(
                f"compact_every must be >= 0 (0 disables), got "
                f"{compact_every}"
            )
        linger = (
            spec.instance_linger
            if spec.instance_linger is not None
            else DEFAULT_SMR_LINGER
        )
        # The §3.3 exit device is mandatory for malicious SMR: decided
        # replicas GC a slot's protocol core after the linger, so a
        # replica a phase behind (chaos reordering plus Byzantine
        # balancing can arrange this) would wait forever for next-phase
        # echoes nobody will send.  The exit broadcast is one-shot — a
        # laggard decides from k+1 decide messages already in flight —
        # so it stays live across GC.
        self.spec = replace(
            spec,
            inputs=None,
            instance_linger=linger,
            exit_after_decide=(
                spec.exit_after_decide or spec.protocol == "malicious"
            ),
        )
        self.compact_every = compact_every
        self._mesh = ClusterMesh(self.spec, registry, trace_dir, trace_sample)
        self.registry = self._mesh.registry
        self._client_tracer: Optional[SpanTracer] = None
        self._replicas: Dict[int, SMRNode] = {}
        self._next_slot = 0
        #: The slot this tick's submissions are joining, with its
        #: commands so far and the scheduled seal; None between ticks.
        self._open_slot: Optional[int] = None
        self._open_commands: List[Command] = []
        self._seal_handle: Optional[asyncio.Handle] = None
        # Per-slot bookkeeping, held only while the slot is in flight:
        # _release drops all four once every correct replica processed
        # it.  _commits (one future per command) is filled at
        # allocation, so membership there is "in flight".
        self._commits: Dict[int, List[asyncio.Future]] = {}
        self._applied_counts: Dict[int, int] = {}
        self._results: Dict[int, Tuple[Any, ...]] = {}
        self._submit_ts: Dict[int, float] = {}
        #: Set while no slot is in flight; what :meth:`drain` waits on.
        self._idle = asyncio.Event()
        self._idle.set()
        self.correct_pids: frozenset = frozenset()
        self.quorum = 0
        self.problems: List[str] = []
        self._started = False
        self._closed = False
        #: The running loop (set by :meth:`start`): clock and futures.
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def replicas(self) -> Dict[int, SMRNode]:
        """Correct replicas by pid (read-only view for tests/tools)."""
        return dict(self._replicas)

    @property
    def submitted_slots(self) -> int:
        """Slots allocated so far (including genesis)."""
        return self._next_slot

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Wire the mesh, start the nodes, commit the genesis slot."""
        if self._started:
            raise ConfigurationError("SMR cluster already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        mesh = self._mesh
        await mesh.open()
        self.correct_pids = mesh.correct_pids
        self.quorum = len(self.correct_pids) // 2 + 1
        # The commit boundary is a cluster-level (client-side)
        # observation, so it gets its own shard; "node-client" matches
        # the stitcher's shard glob.
        self._client_tracer = mesh.open_shard(
            "client", self.spec.n
        )
        for pid in sorted(self.correct_pids):
            self._replicas[pid] = SMRNode(
                mesh.nodes[pid], self, self.compact_every
            )
        # Genesis: slot 0 is committed at startup so the log never has
        # a hole before the first client slot.
        genesis = Command(session="", request_id=0, op="noop")
        self._commits[self._allocate_slot()].append(self._loop.create_future())
        for replica in self._replicas.values():
            replica.offer(0, (genesis,))
            replica.start()
        await mesh.start(instances=1)
        self.registry.inc("cluster.smr.slots")

    async def close(self) -> List[str]:
        """Stop appliers and nodes; return the run's accumulated
        problems (oracle verdicts over every decided slot + any replica
        divergence observed live).  Idempotent."""
        if self._closed:
            return list(self.problems)
        self._closed = True
        if self._open_slot is not None:
            # Submitted this tick, never sealed: no replica holds the
            # commands and no instance was opened, so they cannot commit.
            slot, commands = self._take_open_slot()
            self._fail_slot(
                slot,
                ConfigurationError(
                    f"SMR cluster closed before slot {slot} was sealed"
                ),
                f"close: slot {slot} was never sealed "
                f"({len(commands)} commands dropped)",
            )
        for replica in self._replicas.values():
            await replica.stop()
        timed_out = any(
            not future.done()
            for futures in self._commits.values()
            for future in futures
        )
        # Every slot any node decided is one independent consensus
        # execution, judged on its own; an interrupted run legitimately
        # leaves tail slots undecided, so the mesh judges "whatever was
        # decided" rather than a fixed count.
        self.problems = list(
            self._mesh.verdict(None, timed_out, self.problems).problems
        )
        await self._mesh.close()
        return list(self.problems)

    # ------------------------------------------------------------------ #
    # Submission and commit tracking
    # ------------------------------------------------------------------ #

    def _allocate_slot(self) -> int:
        """Take the next slot number and mark it in flight."""
        slot = self._next_slot
        self._next_slot += 1
        self._commits[slot] = []
        self._submit_ts[slot] = self._loop.time()
        self._idle.clear()
        return slot

    def _release(self, slot: int) -> None:
        """Forget a slot nothing more will happen to."""
        del self._commits[slot]
        self._applied_counts.pop(slot, None)
        self._results.pop(slot, None)
        del self._submit_ts[slot]
        if not self._commits:
            self._idle.set()

    def _fail_slot(
        self, slot: int, error: BaseException, problem: str
    ) -> None:
        """Fail every pending future of ``slot`` with ``error``, record
        ``problem`` and release the slot."""
        for future in self._commits[slot]:
            if not future.done():
                future.set_exception(error)
        self.problems.append(problem)
        self._release(slot)

    def submit(self, command: Command) -> Tuple[int, asyncio.Future]:
        """Sequence one command: join the slot this event-loop iteration
        is filling (the first submit of a tick allocates it and schedules
        its seal).  Non-blocking; the returned future resolves to this
        command's :class:`CommitResult` when a majority of correct
        replicas have applied (or aborted) the slot, or raises what
        sealing the slot raised.
        """
        if not self._started or self._closed:
            raise ConfigurationError(
                "submit() needs a started, unclosed SMR cluster"
            )
        if self._open_slot is None:
            self._open_slot = self._allocate_slot()
            self._seal_handle = self._loop.call_soon(self._seal)
        slot = self._open_slot
        future = self._loop.create_future()
        self._commits[slot].append(future)
        self._open_commands.append(command)
        self.registry.inc("cluster.smr.submitted")
        if len(self._open_commands) >= MAX_SLOT_COMMANDS:
            self._seal()
        return slot, future

    def _take_open_slot(self) -> Tuple[int, Tuple[Command, ...]]:
        """Detach the open slot (and its scheduled seal) from the tick:
        the next submit opens a new one."""
        slot, commands = self._open_slot, tuple(self._open_commands)
        self._seal_handle.cancel()
        self._open_slot = self._seal_handle = None
        self._open_commands = []
        return slot, commands

    def _seal(self) -> None:
        """Close the open slot: disseminate its commands to every
        replica and open its consensus instance on every node."""
        slot, commands = self._take_open_slot()
        self.registry.inc("cluster.smr.slots")
        try:
            for replica in self._replicas.values():
                replica.offer(slot, commands)
            for node in self._mesh.nodes:
                node.start_instance(slot)
        except Exception as exc:
            # Runs from call_soon: raising here would only reach the
            # loop's exception handler, and the clients would wait on.
            self._fail_slot(slot, exc, f"slot {slot}: seal failed: {exc!r}")

    async def submit_and_wait(
        self, command: Command, timeout: Optional[float] = None
    ) -> CommitResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        _, future = self.submit(command)
        if timeout is None:
            return await asyncio.shield(future)
        return await asyncio.wait_for(asyncio.shield(future), timeout)

    def _on_applied(
        self, pid: int, slot: int, decision: int, results: Tuple[Any, ...]
    ) -> None:
        """One replica finished a slot (``results`` holds one entry per
        command); resolve the slot's commits at quorum and release it
        once every correct replica has reported."""
        futures = self._commits.get(slot)
        if futures is None:
            return  # released: a late report must not resurrect it
        count = self._applied_counts.get(slot, 0) + 1
        self._applied_counts[slot] = count
        if count == 1:
            self._results[slot] = results
        elif results != self._results[slot]:
            # Determinism violation: replicas disagree on a committed
            # command's result even though consensus agreed on the slot.
            for index, (ours, first) in enumerate(
                zip(results, self._results[slot])
            ):
                if ours != first:
                    self.problems.append(
                        f"slot {slot} command {index}: replica {pid} "
                        f"result {ours!r} diverges from {first!r}"
                    )
        if count == self.quorum:
            now = self._loop.time()
            latency = now - self._submit_ts[slot]
            latency_ms = latency * 1000.0
            self.registry.inc("cluster.smr.committed", len(futures))
            if self._client_tracer is not None:
                physical, logical = self._client_tracer.hlc.tick()
                self._client_tracer.writer.record_fields(
                    "smr-commit",
                    {
                        "slot": slot,
                        "commands": len(futures),
                        "decision": decision,
                        "quorum": count,
                        "latency_ms": round(latency_ms, 3),
                        "hlc": [physical, logical],
                    },
                )
            for future, result in zip(futures, self._results[slot]):
                self.registry.observe(
                    "cluster.smr.commit_latency_ms", latency_ms
                )
                if not future.done():
                    future.set_result(
                        CommitResult(
                            slot=slot,
                            committed=decision == 1,
                            result=result,
                            latency=latency,
                            committed_at=now,
                        )
                    )
        if count == len(self.correct_pids):
            self._release(slot)

    # ------------------------------------------------------------------ #
    # Draining and verification
    # ------------------------------------------------------------------ #

    async def drain(self, timeout: float = 30.0) -> bool:
        """Wait until no slot is in flight: every submitted command
        committed *and* every replica applied through the last slot
        (quorum commit means a minority may still lag).  Returns False
        on timeout, with the shortfall recorded in :attr:`problems`."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            uncommitted = sum(
                any(not future.done() for future in futures)
                for futures in self._commits.values()
            )
            if uncommitted:
                self.problems.append(
                    f"drain: {uncommitted} slots uncommitted after "
                    f"{timeout:.1f}s"
                )
            else:
                last_slot = self._next_slot - 1
                lagging = [
                    replica.pid
                    for replica in self._replicas.values()
                    if replica.applied_through < last_slot
                ]
                self.problems.append(
                    f"drain: replicas {lagging} had not applied through "
                    f"slot {last_slot} after {timeout:.1f}s"
                )
            return False
        return True

    def verify_replicas(self) -> List[str]:
        """Byte-compare every correct replica's state machine.

        Also checks each replica's compaction invariant: snapshot +
        retained entries must replay to the live state.
        """
        problems: List[str] = []
        blobs = {
            pid: replica.machine.state_bytes()
            for pid, replica in sorted(self._replicas.items())
        }
        if len(set(blobs.values())) > 1:
            by_blob: Dict[bytes, List[int]] = {}
            for pid, blob in blobs.items():
                by_blob.setdefault(blob, []).append(pid)
            detail = "; ".join(
                f"replicas {sorted(pids)} share one state"
                for pids in by_blob.values()
            )
            problems.append(f"replica state divergence: {detail}")
        for pid, replica in sorted(self._replicas.items()):
            replayed = replica.replay_from_snapshot()
            if replayed.state_bytes() != blobs[pid]:
                problems.append(
                    f"replica {pid}: snapshot+replay diverges from live "
                    f"state (compaction invariant broken)"
                )
        return problems


class SMRClient:
    """One client session: sequential requests with retry-safe identity.

    A session issues one request at a time; ``request_id`` increments
    per *request*, never per attempt, so every retry re-submits the
    identical :class:`Command` and the replicas' session tables
    deduplicate it.
    """

    def __init__(self, cluster: SMRCluster, session: str) -> None:
        if not session:
            raise ConfigurationError("session id must be non-empty")
        self.cluster = cluster
        self.session = session
        self._next_request = 0

    def next_command(
        self, op: str, key: str = "", value: Any = None
    ) -> Command:
        """Mint the next request's command (fresh ``request_id``)."""
        self._next_request += 1
        return Command(
            session=self.session,
            request_id=self._next_request,
            op=op,
            key=key,
            value=value,
        )

    async def call(
        self,
        op: str,
        key: str = "",
        value: Any = None,
        timeout: float = 30.0,
        retries: int = 1,
    ) -> CommitResult:
        """Issue one request end-to-end, retrying on timeout or abort.

        Retries re-submit the same command; dedup
        guarantees at-most-one execution, the retry restores
        at-least-once, together: exactly once.
        """
        command = self.next_command(op, key=key, value=value)
        last_error: Optional[BaseException] = None
        for _ in range(retries + 1):
            try:
                commit = await self.cluster.submit_and_wait(
                    command, timeout=timeout
                )
            except asyncio.TimeoutError as exc:
                last_error = exc
                continue
            if commit.committed:
                return commit
        if last_error is not None:
            raise last_error
        raise ConfigurationError(
            f"request {command.session}/{command.request_id} aborted "
            f"{retries + 1} times"
        )


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #

#: Weighted op mix for the load generator (op, weight).
_LOAD_MIX = (("add", 4), ("set", 3), ("get", 2), ("del", 1))


def _draw_op(rng: random.Random) -> str:
    total = sum(weight for _, weight in _LOAD_MIX)
    point = rng.randrange(total)
    for op, weight in _LOAD_MIX:
        if point < weight:
            return op
        point -= weight
    return _LOAD_MIX[-1][0]  # pragma: no cover - arithmetic guard


async def run_smr_load(
    cluster: SMRCluster,
    clients: int = 4,
    rate: float = 200.0,
    ops: int = 200,
    seed: int = 0,
    retry_every: int = 0,
    commit_timeout: float = 30.0,
) -> dict:
    """Drive an open-loop Poisson workload and measure commits.

    Arrival times are exponential interarrivals at aggregate ``rate``
    ops/sec, drawn up front — submission never waits on completions, so
    an overloaded cluster shows up as inflated latency rather than a
    silently throttled request stream (no coordinated omission).
    Latency is measured from the *scheduled* arrival, charging any
    event-loop lateness to the system under test; arrivals, commits
    (``CommitResult.committed_at``) and ``wall_seconds`` all read the
    running loop's clock.

    ``retry_every`` > 0 submits every Nth request a second time — the
    client-retry path, here landing in the same slot or the next — so
    dedup is exercised (and measurable: ``dedup_hits``) in the
    production workload, not only in tests.  The payload counts
    commands (``submitted_commands``, ``committed``) and, beside them,
    the slots they shared (``submitted_slots``, genesis included).
    """
    if clients < 1:
        raise ConfigurationError(f"clients must be >= 1, got {clients}")
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    if ops < 1:
        raise ConfigurationError(f"ops must be >= 1, got {ops}")
    rng = random.Random(seed)
    sessions = [
        SMRClient(cluster, f"client-{index}") for index in range(clients)
    ]
    keys = [f"key-{index}" for index in range(max(4, clients))]
    arrivals: List[float] = []
    t = 0.0
    for _ in range(ops):
        t += rng.expovariate(rate)
        arrivals.append(t)
    outstanding: List[Tuple[float, asyncio.Future]] = []
    dedup_retries = 0
    clock = asyncio.get_running_loop().time
    start = clock()
    for index, arrival in enumerate(arrivals):
        now = clock() - start
        if arrival > now:
            await asyncio.sleep(arrival - now)
        client = sessions[index % clients]
        op = _draw_op(rng)
        value = rng.randrange(100) if op in ("set", "add") else None
        command = client.next_command(
            op, key=rng.choice(keys), value=value
        )
        _, future = cluster.submit(command)
        outstanding.append((arrival, future))
        if retry_every > 0 and (index + 1) % retry_every == 0:
            # Client retry: the identical command once more.
            _, retry_future = cluster.submit(command)
            outstanding.append((arrival, retry_future))
            dedup_retries += 1
    committed = 0
    aborted = 0
    uncommitted = 0
    latencies: List[float] = []
    last_commit_at = start
    # One shared budget for the whole tail, not per future — a stalled
    # run fails in commit_timeout seconds total, and the futures resolve
    # concurrently anyway.
    commit_deadline = clock() + commit_timeout
    for arrival, future in outstanding:
        try:
            commit = await asyncio.wait_for(
                asyncio.shield(future),
                timeout=max(0.001, commit_deadline - clock()),
            )
        except asyncio.TimeoutError:
            uncommitted += 1
            continue
        if commit.committed:
            committed += 1
        else:
            aborted += 1
        latencies.append(commit.committed_at - (start + arrival))
        if commit.committed_at > last_commit_at:
            last_commit_at = commit.committed_at
    drained = await cluster.drain(timeout=commit_timeout)
    problems = list(cluster.verify_replicas())
    if not drained:
        problems.append("load: drain timed out")
    if uncommitted:
        problems.append(
            f"load: {uncommitted} submissions uncommitted after "
            f"{commit_timeout:.1f}s"
        )
    dedup_hits = {
        pid: replica.machine.dedup_hits
        for pid, replica in sorted(cluster.replicas.items())
    }
    if len(set(dedup_hits.values())) > 1:
        problems.append(
            f"load: replicas disagree on dedup hits: {dedup_hits}"
        )
    latencies.sort()
    wall = max(last_commit_at - start, 1e-9)
    return {
        "clients": clients,
        "rate": rate,
        "ops": ops,
        "submitted_commands": len(outstanding),
        "submitted_slots": cluster.submitted_slots,
        "committed": committed,
        "aborted": aborted,
        "uncommitted": uncommitted,
        "dedup_retries": dedup_retries,
        "dedup_hits": min(dedup_hits.values()) if dedup_hits else 0,
        "snapshots": sum(
            replica.snapshots_taken
            for replica in cluster.replicas.values()
        ),
        "compacted_entries": sum(
            replica.compacted_entries
            for replica in cluster.replicas.values()
        ),
        "wall_seconds": wall,
        "throughput_ops_per_sec": committed / wall,
        "commit_latency_ms": latency_summary_ms(latencies, spread=True),
        "problems": problems,
        "ok": not problems,
    }


async def run_smr(
    spec: ClusterSpec,
    clients: int = 4,
    rate: float = 200.0,
    ops: int = 200,
    seed: int = 0,
    retry_every: int = 0,
    compact_every: int = DEFAULT_COMPACT_EVERY,
    commit_timeout: float = 30.0,
    registry: Optional[MetricsRegistry] = None,
    trace_dir: Optional[str] = None,
    trace_sample: int = DEFAULT_TRACE_SAMPLE,
) -> dict:
    """One full SMR run: build the cluster, load it, verify, tear down.

    The returned payload is :func:`run_smr_load`'s, with the close-time
    oracle problems folded in and the spec's shape stamped on top.
    """
    cluster = SMRCluster(
        spec,
        compact_every=compact_every,
        registry=registry,
        trace_dir=trace_dir,
        trace_sample=trace_sample,
    )
    try:
        await cluster.start()
        result = await run_smr_load(
            cluster,
            clients=clients,
            rate=rate,
            ops=ops,
            seed=seed,
            retry_every=retry_every,
            commit_timeout=commit_timeout,
        )
    finally:
        close_problems = await cluster.close()
    for problem in close_problems:
        if problem not in result["problems"]:
            result["problems"].append(problem)
    result["ok"] = not result["problems"]
    result.update(
        {
            "n": spec.n,
            "k": spec.k,
            "protocol": spec.protocol,
            "byzantine": spec.byzantine_count,
            "chaos": bool(spec.chaos is not None and spec.chaos.active),
            "seed": seed,
        }
    )
    return result

