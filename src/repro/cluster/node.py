"""The node actor: protocol state machines multiplexed on the event loop.

A :class:`ClusterNode` adapts the paper's atomic step — receive one
message, compute, send a finite set of messages — onto asyncio.  The
wrapped :class:`~repro.procs.base.Process` is the *same object* the
simulator would drive: the node calls ``start()``/``step()`` and routes
the returned sends, nothing more, so the protocol cores are reused
byte-for-byte by both backends.

Since the multi-instance revision one node hosts many *consensus
instances* concurrently: every inbound ``(instance, envelope)`` pair is
demultiplexed to that instance's own protocol core.  ``process_factory``
is the only source of cores: an instance gets its core from it when the
client API opens the instance, or lazily the first time traffic for an
unknown instance arrives (taking its opening atomic step immediately,
as the paper's processes do).  Instances are independent state
machines sharing one transport mesh — exactly the composition van
Renesse's protocol-core framing promises — and the transport batches
their frames per link, so k instances do not multiply syscalls.

Atomicity holds by construction: a single consumer task performs each
step synchronously between two awaits, so no other coroutine observes a
half-stepped process.  Sends to self skip the network and loop straight
back into the transport's inbox (the simulator's buffer does the same);
remote sends go to the transport, which stamps this node's authenticated
identity and the instance tag.

Decided instances are garbage-collected after ``instance_linger``
seconds: the process state is dropped, the :class:`DecisionRecord` is
kept, and late frames for a retired instance are counted and discarded
rather than resurrecting it.

There is one wait: :meth:`ClusterNode.decide_instance` blocks on the
instance's event, which fires when its process decides *or crashes* —
the two ways the paper's run ends for one process — so no caller polls.
``decide()`` is the convenience for instance 0; a set of instances is
awaited by gathering their ``decide_instance`` calls, as
:meth:`~repro.cluster.driver.ClusterMesh.await_decisions` does.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional

from repro.cluster.transport import NO_ENQUEUE_TS, Transport
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.obs.metrics import MetricsRegistry
from repro.procs.base import Process

#: Builds a fresh protocol core for one consensus instance at this node.
InstanceFactory = Callable[[int], Process]

#: Default seconds a decided instance lingers before its process state
#: is collected.  Long enough for stragglers' duplicate traffic to
#: arrive and be deduplicated, short enough that a sustained workload
#: does not accumulate thousands of dead state machines.
DEFAULT_INSTANCE_LINGER = 30.0


@dataclass(frozen=True)
class DecisionRecord:
    """One node's decision for one consensus instance.

    Attributes:
        pid: the deciding node.
        value: the decided value.
        phase: the protocol phase at decision time (None if untracked).
        latency: seconds from the instance's start step at this node to
            the decision, on the event loop's clock (``loop.time()``).
        steps: atomic steps the instance's process had taken when it
            decided.
        is_correct: whether the deciding process is a correct one
            (Byzantine nodes' "decisions" are excluded from the oracles).
        instance: the consensus instance this record belongs to.
    """

    pid: int
    value: int
    phase: Optional[int]
    latency: float
    steps: int
    is_correct: bool
    instance: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return asdict(self)


class _InstanceState:
    """One live consensus instance at this node.

    ``queue_s``/``compute_s`` accumulate the traced latency segments:
    seconds envelopes for this instance sat in the inbox, and
    seconds spent inside its protocol core's atomic steps.  Whatever
    time remains at decision time was spent waiting on the network
    (the transport segment).  The segments tile the instance's elapsed
    loop time without overlap: many envelopes wait in the queue
    *concurrently*, so each step's queue credit is clamped to the gap
    since this instance's previous step ended (``last_step_end``) —
    naively summing per-envelope waits would exceed the elapsed time.
    Only updated when causal tracing is on.
    """

    __slots__ = (
        "process", "started_at", "decided_event", "waiters",
        "queue_s", "compute_s", "last_step_end", "last_phase",
    )

    def __init__(self, process: Process, started_at: float) -> None:
        self.process = process
        self.started_at = started_at
        #: Set once nothing more will happen to this instance here: its
        #: process decided, or crashed and will never decide.
        self.decided_event = asyncio.Event()
        #: Client coroutines currently blocked in ``decide_instance`` on
        #: this instance; the abandonment path only collects an
        #: undecided instance once the last of them has given up.
        self.waiters = 0
        self.queue_s = 0.0
        self.compute_s = 0.0
        self.last_step_end = started_at
        # Phase after this instance's most recent step; lets the traced
        # consumer loop detect transitions with one phase read per step.
        self.last_phase = None


class ClusterNode:
    """One cluster member: multiplexed protocol cores plus a transport.

    Built inside the running event loop, which is its clock (latencies,
    segment instants) and timer source (linger GC), DESIGN.md §10.

    Args:
        transport: this node's mesh endpoint; the node's pid and n are
            the transport's.
        process_factory: instance id → fresh (unchanged) protocol core
            for this node's pid — the one way the node obtains a core,
            whether the client API opens the instance or traffic for an
            unknown instance arrives.  Every core it builds must carry
            the transport's ``(pid, n)``.
        registry: the metrics registry (decide latency histogram, step
            and decision counters) — the mesh's; a fresh private one
            when omitted.
        tracer: optional :class:`~repro.obs.spans.SpanTracer` (shared
            with this node's transport) enabling causal tracing:
            lifecycle events (carrying an ``instance`` field) through
            its writer, client-submit and phase-transition spans,
            per-instance queue-wait/compute segment accounting, and
            HLC-stamped decide events carrying the latency
            decomposition.  ``None`` keeps the consumer loop's untraced
            path free of clock reads and allocations.
        instance_linger: seconds a decided instance's process state is
            kept before garbage collection.
        seed: seed for the delivery-order RNG.  The paper's message
            system promises no delivery order, and the simulator's
            schedulers actively randomize it; the node does the same by
            draining its inbound backlog and stepping envelopes in
            random order.  Without this, transport batching makes
            arrival order deterministic enough that a race-dependent
            adversary (balancing / anti-majority) wins the first-(n−k)
            race in *every* phase and livelocks the protocol.
    """

    def __init__(
        self,
        transport: Transport,
        process_factory: InstanceFactory,
        registry: Optional[MetricsRegistry] = None,
        tracer: Any = None,
        instance_linger: float = DEFAULT_INSTANCE_LINGER,
        seed: Optional[int] = None,
    ) -> None:
        if instance_linger < 0:
            raise ConfigurationError(
                f"instance_linger must be >= 0, got {instance_linger}"
            )
        self.transport = transport
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.process_factory = process_factory
        self.instance_linger = instance_linger
        self._instances: Dict[int, _InstanceState] = {}
        #: Decision records survive instance GC.
        self._records: Dict[int, DecisionRecord] = {}
        #: instance → crashed-at-retire flag; membership marks the
        #: instance as collected so late frames cannot resurrect it.
        self._retired: Dict[int, bool] = {}
        self._gc_handles: Dict[int, asyncio.TimerHandle] = {}
        self.rng = random.Random(seed)
        self._task: Optional[asyncio.Task] = None
        #: The running loop: the node's clock and timer source.
        self._loop = asyncio.get_running_loop()

    @property
    def pid(self) -> int:
        """This node's process id (same as the wrapped processes')."""
        return self.transport.pid

    # ------------------------------------------------------------------ #
    # Instance bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def decision_record(self) -> Optional[DecisionRecord]:
        """Instance 0's decision record (single-instance client view)."""
        return self._records.get(0)

    @property
    def decision_records(self) -> Dict[int, DecisionRecord]:
        """Every decision this node has observed, keyed by instance."""
        return dict(self._records)

    @property
    def active_instances(self) -> int:
        """Instances currently holding live process state."""
        return len(self._instances)

    def instance_process(self, instance: int) -> Optional[Process]:
        """The live process of one instance (None once collected)."""
        state = self._instances.get(instance)
        return state.process if state is not None else None

    def instance_crashed(self, instance: int) -> bool:
        """Whether an instance's process had crashed (live or retired)."""
        state = self._instances.get(instance)
        if state is not None:
            return state.process.crashed
        return self._retired.get(instance, False)

    def _create_instance(self, instance: int) -> _InstanceState:
        process = self.process_factory(instance)
        if process.pid != self.pid or process.n != self.transport.n:
            raise ConfigurationError(
                f"process_factory built ({process.pid}, n={process.n}) "
                f"for node ({self.pid}, n={self.transport.n})"
            )
        process.bind_metrics(self.registry)
        state = _InstanceState(process, self._loop.time())
        self._instances[instance] = state
        self.registry.gauge_max(
            "cluster.node.instances_active", len(self._instances)
        )
        if self.tracer is not None:
            self.tracer.writer.record(
                "instance-start", pid=self.pid, instance=instance
            )
            # The client-submit boundary: this node's segment of the
            # decision's timeline opens here (explicitly via the client
            # API, or lazily when the instance's first frame arrives).
            self.tracer.span("client-submit", instance)
        return state

    def _opening_step(self, instance: int, state: _InstanceState) -> None:
        """Take one instance's first atomic step (the opening broadcast)."""
        process = state.process
        if not process.alive:
            # Dead on arrival: no step, but the wait must still end.
            sends = ()
        elif self.tracer is None:
            sends = process.start()
            process.steps_taken += 1
        else:
            step_start = self._loop.time()
            sends = process.start()
            process.steps_taken += 1
            step_end = self._loop.time()
            state.compute_s += step_end - step_start
            state.last_step_end = step_end
            state.last_phase = process.phaseno
        self._after_step(instance, state, sends)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, instances: int = 1) -> None:
        """Take the initial atomic step of ``instances`` consensus
        instances (ids ``0 .. instances-1``) and begin consuming the
        transport's inbox."""
        if self._task is not None:
            raise ConfigurationError(f"node {self.pid} already started")
        if instances < 1:
            raise ConfigurationError(
                f"instances must be >= 1, got {instances}"
            )
        if self.tracer is not None:
            self.tracer.writer.record("node-start", pid=self.pid)
        for instance in range(instances):
            self.start_instance(instance)
        self._task = self._loop.create_task(
            self._run(), name=f"node-{self.pid}"
        )

    def start_instance(self, instance: int) -> None:
        """Open one consensus instance: create its core, take its first
        atomic step (the opening broadcast), route the sends.

        Idempotent for already-live instances; retired instances are
        never reopened.
        """
        if instance in self._instances or instance in self._retired:
            return
        state = self._create_instance(instance)
        self._opening_step(instance, state)

    async def _run(self) -> None:
        inbox = self.transport.inbound
        registry = self.registry
        tracer = self.tracer
        clock = self._loop.time
        backlog: list = []
        # Traced segment accounting is *burst-granular*: the drain loop
        # below steps through everything already queued without ever
        # yielding, so one clock pair brackets the whole busy burst and
        # its elapsed time is split equally across the burst's steps
        # (exact for one-step bursts — the common case on a quiet or
        # chaos-throttled node).  Intra-burst attribution error is
        # bounded by a few µs of step compute and only shifts µs
        # between the queue/compute/transport *split*; the segment sum
        # against e2e latency is unaffected, because transport is the
        # measured-latency residual.
        burst_members: list = []
        burst_start = 0.0
        while True:
            if not backlog:
                if burst_members:
                    # Going idle: close the burst's accounting.
                    burst_end = clock()
                    share = (burst_end - burst_start) / len(burst_members)
                    for st in burst_members:
                        st.compute_s += share
                        st.last_step_end = burst_end
                    burst_members.clear()
                await inbox.wait()
                backlog = inbox.take()
            elif inbox.items:
                # Arrivals since the last step (loopback sends included).
                backlog += inbox.take()
            # Arbitrary-order delivery (see the ``seed`` arg): pick the
            # next envelope at random from everything already here.
            pick = self.rng.randrange(len(backlog))
            backlog[pick], backlog[-1] = backlog[-1], backlog[pick]
            instance, envelope, enqueued_at = backlog.pop()
            state = self._instances.get(instance)
            if state is None:
                if instance in self._retired:
                    # Late traffic for a collected instance: the decision
                    # stands; the frame is deliberately dropped.
                    registry.inc("cluster.node.late_frames")
                    continue
                # First sight of this instance at this node: instantiate
                # and take the opening step, then deliver the envelope.
                state = self._create_instance(instance)
                self._opening_step(instance, state)
            process = state.process
            if not process.alive:
                continue  # crashed/exited processes take no more steps
            if tracer is None:
                sends = process.step(envelope)
                process.steps_taken += 1
            else:
                # Segment accounting (burst-granular, see above): queue
                # credit runs from whichever is later — when this
                # envelope was enqueued, or when the instance's previous
                # step ended — so concurrent waiters are not
                # double-counted (see _InstanceState); compute accrues
                # at burst close.
                if not burst_members:
                    burst_start = clock()
                last_end = state.last_step_end
                if enqueued_at > 0.0:
                    waited = burst_start - (
                        last_end if last_end > enqueued_at else enqueued_at
                    )
                    if waited > 0.0:
                        state.queue_s += waited
                # In-burst guard: a second envelope for this instance in
                # the same burst gets no further queue credit.
                state.last_step_end = burst_start
                burst_members.append(state)
                sends = process.step(envelope)
                process.steps_taken += 1
                # Phase only moves inside atomic steps, so comparing to
                # the phase recorded after the previous step is exact —
                # and costs one plain attribute read per step.
                phase_after = process.phaseno
                if phase_after != state.last_phase:
                    previous = state.last_phase
                    state.last_phase = phase_after
                    tracer.span(
                        "phase-transition",
                        instance,
                        phase=phase_after,
                        previous=previous,
                        steps=process.steps_taken,
                    )
            registry.inc("cluster.node.steps")
            self._after_step(instance, state, sends)

    async def stop(self) -> None:
        """Stop stepping: cancel the linger timers and the consumer task
        (idempotent).  The transport stays open — a mesh closes it only
        after *every* node has stopped, so no peer is still writing."""
        for handle in self._gc_handles.values():
            handle.cancel()
        self._gc_handles.clear()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    async def shutdown(self) -> None:
        """Stop stepping and close the transport: the teardown of a node
        that stands alone (a mesh uses :meth:`stop`).  Idempotent."""
        await self.stop()
        await self.transport.close()

    # ------------------------------------------------------------------ #
    # Step bookkeeping
    # ------------------------------------------------------------------ #

    def _after_step(
        self, instance: int, state: _InstanceState, sends
    ) -> None:
        # Self-delivered sends reuse the step's already-measured end
        # timestamp as their enqueue instant — exact (the send happened
        # at step end) and one clock read cheaper per loopback.
        self._route(
            instance,
            sends,
            state.last_step_end if self.tracer is not None else NO_ENQUEUE_TS,
        )
        process = state.process
        if process.decided and instance not in self._records:
            latency = self._loop.time() - state.started_at
            record = DecisionRecord(
                pid=self.pid,
                value=process.decision.value,
                phase=process.decided_at_phase,
                latency=latency,
                steps=process.steps_taken,
                is_correct=process.is_correct,
                instance=instance,
            )
            self._records[instance] = record
            self.registry.inc("cluster.decisions")
            self.registry.observe(
                "cluster.decide.latency_ms", latency * 1000.0
            )
            if self.tracer is not None:
                # The decide boundary closes the trace: the event
                # carries the full latency decomposition.  Queue and
                # compute are measured sums; transport is the residual —
                # wall-clock spent waiting on frames in flight — clamped
                # at zero against clock jitter.
                queue_ms = state.queue_s * 1000.0
                compute_ms = state.compute_s * 1000.0
                latency_ms = latency * 1000.0
                transport_ms = latency_ms - queue_ms - compute_ms
                if transport_ms < 0.0:
                    transport_ms = 0.0
                physical, logical = self.tracer.hlc.tick()
                self.tracer.writer.record_fields(
                    "decide",
                    {
                        "pid": self.pid,
                        "instance": instance,
                        "value": record.value,
                        "phase": record.phase,
                        "trace": self.tracer.trace_id(instance),
                        "span": self.tracer.next_span_id(),
                        "hlc": [physical, logical],
                        "latency_ms": round(latency_ms, 3),
                        "queue_ms": round(queue_ms, 3),
                        "compute_ms": round(compute_ms, 3),
                        "transport_ms": round(transport_ms, 3),
                        "steps": process.steps_taken,
                        "is_correct": process.is_correct,
                    },
                )
            state.decided_event.set()
            self._schedule_gc(instance)
        elif process.crashed:
            # A dead process never decides: whoever waits on this
            # instance here is done waiting (PAPER.md §2 demands
            # termination of the survivors only).  Nothing more will
            # happen to it, so it is collected like a decided one.
            state.decided_event.set()
            self._schedule_gc(instance)
        if process.exited and self.tracer is not None:
            self.tracer.writer.record("exit", pid=self.pid, instance=instance)

    def _schedule_gc(self, instance: int) -> None:
        """Arm the linger timer that collects a settled instance."""
        if instance in self._gc_handles:
            return
        if self.instance_linger == 0:
            # Due now: collect in the deciding step itself rather than
            # race a zero-delay timer against whoever the decision wakes.
            self._gc_instance(instance)
            return
        self._gc_handles[instance] = self._loop.call_later(
            self.instance_linger, self._gc_instance, instance
        )

    def _gc_instance(self, instance: int) -> None:
        """Collect one settled (decided or crashed) instance's process
        state; a decision record is kept."""
        self._gc_handles.pop(instance, None)
        state = self._instances.pop(instance, None)
        if state is None:
            return
        self._retired[instance] = state.process.crashed
        self.registry.inc("cluster.node.instances_gc")
        if self.tracer is not None:
            self.tracer.writer.record(
                "instance-gc", pid=self.pid, instance=instance
            )

    def _abandon_if_unwaited(self, instance: int) -> None:
        """Release one undecided instance after its last waiter gave up.

        The linger GC only ever arms for *settled* instances, so before
        this path existed a ``decide_instance`` caller timing out (or
        being cancelled) left the instance's demux state in the table
        forever — thousands of timed-out client calls
        accumulated thousands of dead protocol cores.  Abandonment
        mirrors GC: the process state is dropped, the instance is marked
        retired so late frames are counted and discarded instead of
        lazily resurrecting it, and (unlike GC) there is no decision
        record to keep.
        """
        state = self._instances.get(instance)
        if (
            state is None
            or state.waiters > 0
            or instance in self._records
        ):
            return
        del self._instances[instance]
        self._retired[instance] = state.process.crashed
        self.registry.inc("cluster.node.instances_abandoned")
        if self.tracer is not None:
            self.tracer.writer.record(
                "instance-abandoned", pid=self.pid, instance=instance
            )

    def _route(self, instance: int, sends, send_ts: float) -> None:
        """Deliver one step's sends: self loops back, the rest go out.

        ``send_ts`` is the loopback enqueue timestamp (the producing
        step's end when traced, :data:`NO_ENQUEUE_TS` otherwise).
        """
        pid = self.pid
        for send in sends:
            envelope = Envelope(pid, send.recipient, send.payload)
            if send.recipient == pid:
                self.transport.inbound.put((instance, envelope, send_ts))
            else:
                self.transport.send(envelope, instance=instance)

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #

    async def decide(self, timeout: Optional[float] = None) -> DecisionRecord:
        """Await instance 0's decision.

        Raises:
            asyncio.TimeoutError: the node did not decide in time.
        """
        return await self.decide_instance(0, timeout=timeout)

    async def decide_instance(
        self, instance: int, timeout: Optional[float] = None
    ) -> Optional[DecisionRecord]:
        """Await one instance's decision (starting it if necessary);
        ``None`` when its process crashed and so never will decide.

        A timed-out (or cancelled) wait releases the instance's demux
        state once no other caller is still waiting on it — abandoning
        a decision must not leak the protocol core.
        """
        record = self._records.get(instance)
        if record is not None:
            return record
        if instance in self._retired:
            if self._retired[instance]:
                return None  # its process crashed, then was collected
            raise ConfigurationError(
                f"instance {instance} was abandoned at node {self.pid}; "
                "retired instances are never reopened"
            )
        self.start_instance(instance)
        state = self._instances.get(instance)
        if state is None:
            # Settled and collected in its opening step: a process dead
            # on arrival under a zero linger.
            return self._records.get(instance)
        state.waiters += 1
        try:
            if timeout is None:
                await state.decided_event.wait()
            else:
                await asyncio.wait_for(
                    state.decided_event.wait(), timeout=timeout
                )
        except (asyncio.TimeoutError, asyncio.CancelledError):
            state.waiters -= 1
            self._abandon_if_unwaited(instance)
            raise
        state.waiters -= 1
        return self._records.get(instance)
