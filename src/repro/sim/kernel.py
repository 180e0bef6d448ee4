"""The simulation kernel: drives atomic steps through a scheduler.

One :class:`Simulation` wires together processes, a
:class:`~repro.net.system.MessageSystem`, and a
:class:`~repro.net.schedulers.Scheduler`, then executes the paper's
execution model:

1. Every process takes its initial atomic step (its receive returns φ —
   no message exists yet); the sends it produces are routed.
2. Repeatedly, the scheduler picks a process and an envelope (or φ); the
   process takes one atomic step; the kernel routes the resulting sends,
   stamping the *authenticated* transport sender.
3. The loop halts when the halting predicate holds (by default: every
   correct process has decided), when the scheduler reports quiescence,
   or when the step budget is exhausted.

Determinism: all randomness flows through one ``random.Random(seed)``,
shared with the scheduler and with any randomized process logic via the
``rng`` attribute, so a (processes, scheduler, seed) triple replays
bit-identically.

Observability (see :mod:`repro.obs`): the kernel can record a structured
event stream into any :class:`~repro.obs.sinks.TraceSink` and feed a
:class:`~repro.obs.metrics.MetricsRegistry` with per-step counters,
histograms, and wall-clock timer spans.  Both are strictly read-only
with respect to the execution — they never touch the RNG or alter
scheduling — so enabling them does not change what a seed computes.
When disabled (the default) the hot path pays only a handful of
``is not None`` / ``active`` flag checks per step; no events or metric
names are constructed.
"""

from __future__ import annotations

import random
from collections import Counter
from time import perf_counter
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError, InvariantViolation
from repro.net.schedulers import RandomScheduler, Scheduler
from repro.net.system import AliveView, MessageSystem
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NULL_SINK, InMemorySink, TraceSink
from repro.procs.base import Process
from repro.sim.events import (
    CrashEvent,
    DecideEvent,
    DeliverEvent,
    ExitEvent,
    PhiEvent,
    SendEvent,
    StartEvent,
    TraceEvent,
)
from repro.sim.results import HaltReason, RunResult, Violation

#: Halting predicate signature: inspects the simulation, returns True to stop.
HaltPredicate = Callable[["Simulation"], bool]

#: Sentinel for "this process's decision register has no ``_value`` slot"
#: (faulty test doubles, exotic registers): the step loops then fall back
#: to the property-based transition check instead of the raw slot read.
_NO_VALUE = object()


class StepObserver:
    """Per-step safety observer protocol (see :mod:`repro.check.oracles`).

    An observer rides along with a run: the kernel calls
    :meth:`on_step` after every atomic step (start steps included) and
    halts with :attr:`HaltReason.ORACLE_VIOLATION` as soon as
    :attr:`violation` becomes non-None.  Like metrics and sinks, an
    observer must be read-only with respect to the execution — it never
    touches the RNG or scheduling — and when detached the kernel pays a
    single ``is not None`` check per step.
    """

    #: First violation found, or None.  The kernel polls this each step.
    violation: Optional[Violation] = None

    def attach(self, sim: "Simulation") -> None:
        """Bind to a simulation before its first step."""

    def on_step(self, sim, pid, envelope, sends) -> None:
        """Called after pid's atomic step; envelope is None for φ/start."""

    def note_invariant_exception(
        self, sim, pid, exc: InvariantViolation
    ) -> None:
        """An in-protocol invariant raised during pid's step.

        With no observer attached such exceptions propagate (existing
        behaviour); with one attached the kernel records them as a
        violation so a fuzz campaign can keep going and shrink the run.
        A *faulty* process tripping over its own bookkeeping (e.g. an
        equivocator's decision register) is just more faulty behaviour,
        not a system safety violation, so it is swallowed.
        """
        if not sim.processes[pid].is_correct:
            return
        self.violation = Violation(
            oracle="invariant",
            step=sim.steps,
            pid=pid,
            description=f"{type(exc).__name__}: {exc}",
        )


def all_correct_decided(sim: "Simulation") -> bool:
    """Default halting predicate: every surviving correct process decided.

    Crashed fail-stop processes are exempt — convergence only obligates
    processes that keep taking steps.
    """
    return all(
        proc.decided
        for proc in sim.processes
        if proc.is_correct and not proc.crashed
    )


def all_correct_exited(sim: "Simulation") -> bool:
    """Halting predicate: every correct process left the protocol.

    Only meaningful for protocols with a real exit (Fig. 1); Fig. 2 as
    printed never exits, so use the default predicate there.
    """
    return all(
        proc.exited or proc.crashed for proc in sim.processes if proc.is_correct
    )


class Simulation:
    """One executable instance of the paper's system model.

    Args:
        processes: the n processes, where ``processes[i].pid == i``.
        scheduler: delivery scheduler; defaults to the uniform
            :class:`RandomScheduler`, which satisfies the paper's
            probabilistic message-system assumption.
        seed: seed for the run's single random source.
        trace: record a full in-memory event trace.  Deprecated in
            favour of ``sink=InMemorySink()`` (it is now sugar for
            exactly that); prefer passing a sink, which also unlocks
            JSONL streaming and sampling.  The :attr:`trace` tuple
            property remains for backward compatibility.
        halt_when: halting predicate; defaults to
            :func:`all_correct_decided`.
        metrics: ``True`` to collect metrics into a fresh
            :class:`~repro.obs.metrics.MetricsRegistry`, or a registry
            instance to feed one shared by several simulations.  The
            frozen snapshot lands in ``RunResult.metrics``.
        sink: structured-event recording backend (see
            :mod:`repro.obs.sinks`); overrides ``trace``.
        observer: optional :class:`StepObserver` (e.g. an oracle suite
            from :mod:`repro.check.oracles`) notified after every atomic
            step; a non-None ``observer.violation`` halts the run with
            :attr:`HaltReason.ORACLE_VIOLATION` and lands in
            ``RunResult.violation``.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        trace: bool = False,
        halt_when: Optional[HaltPredicate] = None,
        metrics: Union[bool, MetricsRegistry, None] = False,
        sink: Optional[TraceSink] = None,
        observer: Optional[StepObserver] = None,
    ) -> None:
        if not processes:
            raise ConfigurationError("a simulation needs at least one process")
        for index, proc in enumerate(processes):
            if proc.pid != index:
                raise ConfigurationError(
                    f"process at position {index} has pid={proc.pid}; "
                    "processes must be ordered by pid"
                )
            if proc.n != len(processes):
                raise ConfigurationError(
                    f"process {proc.pid} was built for n={proc.n}, "
                    f"but the simulation has n={len(processes)}"
                )
        self.processes: list[Process] = list(processes)
        self.n = len(processes)
        self.system = MessageSystem(self.n)
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()
        self.seed = seed
        self.rng = random.Random(seed)
        self.halt_when = halt_when if halt_when is not None else all_correct_decided
        self.steps = 0
        # Recording backend: an explicit sink wins; trace=True delegates
        # to an InMemorySink; otherwise the shared inactive NullSink.
        if sink is not None:
            self._sink = sink
        elif trace:
            self._sink = InMemorySink()
        else:
            self._sink = NULL_SINK
        # The single enabled check guarding all event recording.
        self._record: bool = bool(getattr(self._sink, "active", True))
        # Metrics registry (None = disabled; the hot path guards on it).
        if metrics is True:
            self.metrics: Optional[MetricsRegistry] = MetricsRegistry()
        elif isinstance(metrics, MetricsRegistry):
            self.metrics = metrics
        else:
            self.metrics = None
        self._crash_noted: set[int] = set()
        self._started = False
        # Resolve-once metric handles (see repro.obs.metrics): counter
        # slots and timer cells are resolved lazily at a site's first
        # event — exactly when the old per-name path would have created
        # the metric — then updated by integer index / in place, so the
        # per-step cost is a list write instead of string building plus
        # dict hashing.  Caches live on the simulation (one registry per
        # simulation) and persist across resumable run() calls.
        self._phi_slot: Optional[int] = None
        self._phase_slots: dict[int, int] = {}
        self._delivered_slots: dict[type, int] = {}
        self._sent_slots: dict[type, int] = {}
        self._routing_cell: Optional[list] = None
        self._step_cell: Optional[list] = None
        # Cached AliveView handed to the scheduler each step; rebuilt only
        # when some process's alive status actually changes.
        self._alive_cache: Optional[AliveView] = None
        # Give randomized processes (e.g. Ben-Or's local coin) access to
        # the run's RNG without them having to be constructed with it.
        for proc in self.processes:
            if getattr(proc, "rng", None) is None and hasattr(proc, "rng"):
                proc.rng = self.rng
        if self.metrics is not None:
            for proc in self.processes:
                self._bind_metrics(proc)
        self.scheduler.reset()
        self.scheduler.attach(self.system)
        self.observer = observer
        if observer is not None:
            observer.attach(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def alive_pids(self) -> list[int]:
        """Ids of processes that can still take steps."""
        return list(self._alive_view().pids)

    def _alive_view(self) -> AliveView:
        """Cached ordered/set view of live pids (see AliveView)."""
        view = self._alive_cache
        if view is None:
            view = self._alive_cache = AliveView(
                proc.pid for proc in self.processes if proc.alive
            )
        return view

    @property
    def correct_pids(self) -> frozenset[int]:
        """Ids of correct (non-Byzantine) processes.

        Fail-stop processes count as correct here; whether they crashed is
        tracked separately, matching the paper's accounting where a
        fail-stop process never lies — it only stops.
        """
        return frozenset(
            proc.pid for proc in self.processes if proc.is_correct
        )

    @property
    def sink(self) -> TraceSink:
        """The structured-event sink recording this run."""
        return self._sink

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        """Tuple view of the recorded events.

        .. deprecated:: the monolithic tuple survives for backward
           compatibility and only works when the recording backend keeps
           events in memory (``trace=True`` or ``sink=InMemorySink()``,
           possibly behind a :class:`~repro.obs.sinks.SamplingSink`).
           Streaming backends (e.g. JSONL) return ``()`` here — read the
           file with :func:`repro.obs.sinks.read_jsonl` instead.
        """
        sink = self._sink
        events = getattr(sink, "events", None)
        if events is None:
            inner = getattr(sink, "inner", None)
            events = getattr(inner, "events", None)
        return tuple(events) if events is not None else ()

    def max_phase(self) -> int:
        """Largest phase number reached by any correct process."""
        phases = [
            getattr(proc, "phaseno", 0)
            for proc in self.processes
            if proc.is_correct
        ]
        return max(phases, default=0)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        max_steps: int = 1_000_000,
        halt_when: Optional[HaltPredicate] = None,
    ) -> RunResult:
        """Execute until the halting predicate, quiescence, or ``max_steps``.

        ``run`` is resumable: calling it again continues the same
        execution (the lower-bound scenarios exploit this to splice
        schedules, running one process group to a goal and then another).
        ``max_steps`` budgets *this call's* additional steps; ``halt_when``
        overrides the simulation's halting predicate for this call only.

        Returns:
            A :class:`RunResult` capturing decisions and accounting.
        """
        if max_steps < 1:
            raise ConfigurationError(f"max_steps must be positive, got {max_steps}")
        halt = halt_when if halt_when is not None else self.halt_when
        deadline = self.steps + max_steps
        if not self._started:
            self._take_start_steps()
            self._started = True
        observer = self.observer
        if observer is not None and observer.violation is not None:
            return self._build_result(HaltReason.ORACLE_VIOLATION)
        if halt(self):
            return self._build_result(HaltReason.GOAL_REACHED)
        # The step loop is specialised on whether metrics are attached:
        # the plain loop carries zero instrumentation (not even dead
        # ``is not None`` branches), the observed loop batches its
        # bookkeeping through resolve-once slot handles.  Both bodies
        # execute the identical protocol step sequence — scheduling and
        # RNG use never differ — so a seed computes the same run either
        # way; tests/test_sim_kernel.py asserts exactly that.
        obs = self.metrics
        if obs is None:
            halt_reason = self._run_plain(deadline, halt)
        else:
            halt_reason = self._run_observed(deadline, halt)
            obs.gauge_set("kernel.steps_total", self.steps)
            obs.gauge_max(
                "messages.pending_at_halt", self.system.pending_total()
            )
        return self._build_result(halt_reason)

    def _run_plain(self, deadline: int, halt: HaltPredicate) -> HaltReason:
        """The metrics-off step loop (keep in lockstep with _run_observed).

        A process chosen by the scheduler is alive, hence neither exited
        nor crashed, so the only post-step transitions possible are a
        fresh decision (the raw register value changes) or leaving the
        protocol (``alive`` flips).  Both loops use that to guard the
        :meth:`_note_transitions` call — and to read the decision
        register directly instead of through the two chained properties
        of ``process.decided``, which dominate the per-step cost at this
        loop's scale.
        """
        halt_reason = HaltReason.MAX_STEPS
        record = self._record
        sink = self._sink
        observer = self.observer
        system = self.system
        scheduler = self.scheduler
        processes = self.processes
        rng = self.rng
        while self.steps < deadline:
            decision = scheduler.choose(system, self._alive_view(), rng)
            if decision is None:
                halt_reason = HaltReason.QUIESCENT
                break
            pid, envelope = decision
            process = processes[pid]
            if not process.alive:
                raise ConfigurationError(
                    f"scheduler selected non-live process {pid}"
                )
            try:
                was_value = process.decision._value
                was_decided = False
            except AttributeError:
                was_value = _NO_VALUE
                was_decided = process.decided
            if envelope is not None:
                system.note_delivered(envelope)
                if record:
                    sink.emit(
                        DeliverEvent(
                            self.steps, pid, envelope.sender, envelope.payload
                        )
                    )
            elif record:
                sink.emit(PhiEvent(self.steps, pid))
            if observer is None:
                sends = process.step(envelope)
            else:
                try:
                    sends = process.step(envelope)
                except InvariantViolation as exc:
                    observer.note_invariant_exception(self, pid, exc)
                    sends = ()
            process.steps_taken += 1
            self._route(pid, sends)
            if was_value is _NO_VALUE:
                self._note_transitions(process, was_decided, False)
                if not process.alive:
                    self._alive_cache = None
            else:
                try:
                    changed = process.decision._value is not was_value
                except AttributeError:
                    changed = True
                if changed or not process.alive:
                    self._note_transitions(
                        process, was_value is not None, False
                    )
                    if not process.alive:
                        self._alive_cache = None
            if observer is not None:
                observer.on_step(self, pid, envelope, sends)
                if observer.violation is not None:
                    self.steps += 1
                    halt_reason = HaltReason.ORACLE_VIOLATION
                    break
            self.steps += 1
            if halt(self):
                halt_reason = HaltReason.GOAL_REACHED
                break
        return halt_reason

    def _run_observed(self, deadline: int, halt: HaltPredicate) -> HaltReason:
        """The metrics-on step loop (keep in lockstep with _run_plain).

        Deterministic data (counters, histogram samples) is recorded on
        every step through array slots and buffered appends.  Wall-clock
        timers are different: their values are stripped from stable
        snapshots (see :meth:`MetricsSnapshot.stable`), so the loop
        records *call counts exactly* but samples the ``perf_counter``
        spans on a deterministic 1-in-16 cadence and scales the sampled
        seconds by the true event/sample ratio at loop exit.  Sampling
        is keyed to the iteration counter, never the RNG, so metrics-on
        and metrics-off runs of a seed stay step-identical.
        """
        obs = self.metrics
        halt_reason = HaltReason.MAX_STEPS
        record = self._record
        sink = self._sink
        observer = self.observer
        system = self.system
        scheduler = self.scheduler
        processes = self.processes
        rng = self.rng
        perf = perf_counter
        # Resolve-once handles for the per-step sites.  The loop body
        # always executes at least once when reached, so eager
        # resolution here creates exactly the metrics the first
        # iteration of the per-name implementation created.
        # ``_with_mail`` is mutated in place (never rebound), so one
        # binding outlives the loop; ``_pending`` is an int and must be
        # re-read from the system each step.
        with_mail = system._with_mail
        length = len
        pending_append = obs.histogram_handle(
            "scheduler.pending_messages"
        ).pending.append
        candidates_append = obs.histogram_handle(
            "scheduler.candidate_processes"
        ).pending.append
        pick_cell = obs.timer_cell("time.scheduler_pick")
        routing_cell = self._routing_cell
        if routing_cell is None:
            routing_cell = self._routing_cell = obs.timer_cell("time.routing")
        entry_steps = self.steps
        # Per-call capture buffers: the loop appends raw observations
        # (delivered payload classes — None marks a φ step — and phase
        # numbers) and the ``finally`` block folds them into registry
        # slots via one Counter pass per buffer.  Buffered values are
        # plain ints and existing classes — nothing GC-tracked is
        # allocated per step (a consolidated per-step record tuple
        # measured ~2x worse: 24k young container allocations per run
        # is pure gen0 churn).  The fold runs even when a step raises —
        # the buffers already hold the failing step's captures — which
        # is exactly what the eager per-step implementation recorded on
        # that path.
        delivered_classes: list = []
        delivered_append = delivered_classes.append
        step_phases: list = []
        phase_append = step_phases.append
        sent_types: list = []
        sent_append = sent_types.append
        route_calls = 0
        tick = 0
        samples = 0
        pick_seconds = 0.0
        step_seconds = 0.0
        route_seconds = 0.0
        try:
            while self.steps < deadline:
                pending_append(system._pending)
                candidates_append(length(with_mail))
                tick += 1
                # Phase 1 of the cycle (not 0) so 1-step runs still sample.
                sampled = (tick & 15) == 1
                if sampled:
                    picked_at = perf()
                    decision = scheduler.choose(system, self._alive_view(), rng)
                    pick_seconds += perf() - picked_at
                else:
                    decision = scheduler.choose(system, self._alive_view(), rng)
                if decision is None:
                    halt_reason = HaltReason.QUIESCENT
                    break
                pid, envelope = decision
                process = processes[pid]
                if not process.alive:
                    raise ConfigurationError(
                        f"scheduler selected non-live process {pid}"
                    )
                try:
                    was_value = process.decision._value
                    was_decided = False
                except AttributeError:
                    was_value = _NO_VALUE
                    was_decided = process.decided
                if envelope is not None:
                    system.note_delivered(envelope)
                    if record:
                        sink.emit(
                            DeliverEvent(
                                self.steps, pid, envelope.sender, envelope.payload
                            )
                        )
                    delivered_append(envelope.payload.__class__)
                else:
                    if record:
                        sink.emit(PhiEvent(self.steps, pid))
                    delivered_append(None)
                try:
                    phase_append(process.phaseno)
                except AttributeError:
                    phase_append(0)
                if sampled:
                    samples += 1
                    stepped_at = perf()
                    if observer is None:
                        sends = process.step(envelope)
                    else:
                        try:
                            sends = process.step(envelope)
                        except InvariantViolation as exc:
                            observer.note_invariant_exception(self, pid, exc)
                            sends = ()
                    routed_at = perf()
                    step_seconds += routed_at - stepped_at
                    process.steps_taken += 1
                    route_calls += 1
                    for send in sends:
                        system.send(pid, send.recipient, send.payload)
                        sent_append(send.payload.__class__)
                        if record:
                            sink.emit(
                                SendEvent(
                                    self.steps, pid, send.recipient, send.payload
                                )
                            )
                    route_seconds += perf() - routed_at
                else:
                    if observer is None:
                        sends = process.step(envelope)
                    else:
                        try:
                            sends = process.step(envelope)
                        except InvariantViolation as exc:
                            observer.note_invariant_exception(self, pid, exc)
                            sends = ()
                    process.steps_taken += 1
                    # Inlined _route (sends loop + exact call count); the
                    # wall-clock span is sampled in the branch above.
                    route_calls += 1
                    for send in sends:
                        system.send(pid, send.recipient, send.payload)
                        sent_append(send.payload.__class__)
                        if record:
                            sink.emit(
                                SendEvent(
                                    self.steps, pid, send.recipient, send.payload
                                )
                            )
                if was_value is _NO_VALUE:
                    self._note_transitions(process, was_decided, False)
                    if not process.alive:
                        self._alive_cache = None
                else:
                    try:
                        changed = process.decision._value is not was_value
                    except AttributeError:
                        changed = True
                    if changed or not process.alive:
                        self._note_transitions(
                            process, was_value is not None, False
                        )
                        if not process.alive:
                            self._alive_cache = None
                if observer is not None:
                    observer.on_step(self, pid, envelope, sends)
                    if observer.violation is not None:
                        self.steps += 1
                        halt_reason = HaltReason.ORACLE_VIOLATION
                        break
                self.steps += 1
                if halt(self):
                    halt_reason = HaltReason.GOAL_REACHED
                    break
        finally:
            # Fold the buffered captures, exact call counts, and scaled
            # sampled spans into the registry, once per run() instead of
            # per step.  Runs on the exception path too (see above).
            slots = obs.slots
            pick_cell[0] += tick
            routing_cell[0] += route_calls
            if delivered_classes:
                delivered_slots = self._delivered_slots
                for payload_type, multiplicity in Counter(
                    delivered_classes
                ).items():
                    if payload_type is None:
                        phi_slot = self._phi_slot
                        if phi_slot is None:
                            phi_slot = self._phi_slot = obs.counter_slot(
                                "kernel.phi_steps"
                            )
                        slots[phi_slot] += multiplicity
                        continue
                    index = delivered_slots.get(payload_type)
                    if index is None:
                        index = delivered_slots[payload_type] = obs.counter_slot(
                            "messages.delivered." + payload_type.__name__
                        )
                    slots[index] += multiplicity
                phase_slots = self._phase_slots
                for phase, multiplicity in Counter(step_phases).items():
                    index = phase_slots.get(phase)
                    if index is None:
                        index = phase_slots[phase] = obs.counter_slot(
                            f"kernel.steps.phase.{phase}"
                        )
                    slots[index] += multiplicity
            if sent_types:
                sent_slots = self._sent_slots
                for payload_type, multiplicity in Counter(sent_types).items():
                    index = sent_slots.get(payload_type)
                    if index is None:
                        index = sent_slots[payload_type] = obs.counter_slot(
                            "messages.sent." + payload_type.__name__
                        )
                    slots[index] += multiplicity
            steps_run = self.steps - entry_steps
            if steps_run:
                step_cell = self._step_cell
                if step_cell is None:
                    step_cell = self._step_cell = obs.timer_cell(
                        "time.protocol_step"
                    )
                step_cell[0] += steps_run
                if samples:
                    step_scale = steps_run / samples
                    pick_cell[1] += pick_seconds * (tick / samples)
                    step_cell[1] += step_seconds * step_scale
                    routing_cell[1] += route_seconds * step_scale
        return halt_reason

    def replace_process(self, pid: int, replacement: Process) -> None:
        """Swap in a new process object for ``pid`` and run its start step.

        This is the executable form of the malicious state reset in the
        proof of Theorem 3: "the malicious processes in S ∩ T change
        their state and their buffer contents back to what they were in
        C".  Only lower-bound scenarios use it; replacing a correct
        process would break the model, so the method refuses to replace
        a process marked correct unless the replacement is also the
        scenario's explicit choice (caller responsibility — we only
        validate ids and sizes here).
        """
        if not 0 <= pid < self.n:
            raise ConfigurationError(f"pid {pid} out of range")
        if replacement.pid != pid or replacement.n != self.n:
            raise ConfigurationError(
                f"replacement has pid={replacement.pid}, n={replacement.n}; "
                f"expected pid={pid}, n={self.n}"
            )
        self.processes[pid] = replacement
        self._alive_cache = None
        if self.metrics is not None:
            self._bind_metrics(replacement)
        if self._started and replacement.alive:
            sends = replacement.start()
            replacement.steps_taken += 1
            self._route(pid, sends)
            self.steps += 1

    def _bind_metrics(self, process: Process) -> None:
        """Point ``process`` (and any wrapped inner process) at the registry."""
        process.metrics = self.metrics
        inner = getattr(process, "inner", None)
        if isinstance(inner, Process):
            self._bind_metrics(inner)

    def _take_start_steps(self) -> None:
        """Run every live process's initial atomic step, in pid order."""
        record = self._record
        observer = self.observer
        for process in self.processes:
            if not process.alive:
                continue
            was_decided = process.decided
            was_exited = process.exited
            if record:
                self._sink.emit(StartEvent(self.steps, process.pid))
            if observer is None:
                sends = process.start()
            else:
                try:
                    sends = process.start()
                except InvariantViolation as exc:
                    observer.note_invariant_exception(self, process.pid, exc)
                    sends = ()
            process.steps_taken += 1
            self._route(process.pid, sends)
            self._note_transitions(process, was_decided, was_exited)
            if observer is not None:
                observer.on_step(self, process.pid, None, sends)
            self.steps += 1
            if observer is not None and observer.violation is not None:
                break
        self._alive_cache = None

    def _route(self, sender_pid: int, sends) -> None:
        """Deliver an atomic step's sends into the message system.

        With metrics attached, the ``time.routing`` cell's call count is
        kept exact here; the wall-clock spans are sampled by the
        observed step loop (see :meth:`_run_observed`), so this path
        pays no ``perf_counter`` calls of its own.
        """
        obs = self.metrics
        if obs is not None:
            cell = self._routing_cell
            if cell is None:
                cell = self._routing_cell = obs.timer_cell("time.routing")
            cell[0] += 1
            slots = obs.slots
            sent_slots = self._sent_slots
            record = self._record
            for send in sends:
                self.system.send(sender_pid, send.recipient, send.payload)
                payload_type = type(send.payload)
                index = sent_slots.get(payload_type)
                if index is None:
                    index = sent_slots[payload_type] = obs.counter_slot(
                        "messages.sent." + payload_type.__name__
                    )
                slots[index] += 1
                if record:
                    self._sink.emit(
                        SendEvent(
                            self.steps, sender_pid, send.recipient, send.payload
                        )
                    )
            return
        if self._record:
            for send in sends:
                self.system.send(sender_pid, send.recipient, send.payload)
                self._sink.emit(
                    SendEvent(self.steps, sender_pid, send.recipient, send.payload)
                )
            return
        for send in sends:
            self.system.send(sender_pid, send.recipient, send.payload)

    def _note_transitions(
        self, process: Process, was_decided: bool, was_exited: bool
    ) -> None:
        record = self._record
        obs = self.metrics
        if not record and obs is None:
            return
        if not was_decided and process.decided:
            if record:
                self._sink.emit(
                    DecideEvent(self.steps, process.pid, process.decision.value)
                )
            if obs is not None:
                obs.inc("decisions")
                obs.observe("decision.latency_steps", self.steps)
                phase = process.decided_at_phase
                if phase is not None:
                    obs.observe("decision.latency_phases", phase)
        if not was_exited and process.exited and record:
            self._sink.emit(ExitEvent(self.steps, process.pid))
        if process.crashed and process.pid not in self._crash_noted:
            self._crash_noted.add(process.pid)
            if record:
                self._sink.emit(CrashEvent(self.steps, process.pid))
            if obs is not None:
                obs.inc("crashes")

    def _build_result(self, halt_reason: HaltReason) -> RunResult:
        recorded = getattr(self.scheduler, "recorded", None)
        return RunResult(
            n=self.n,
            decisions=tuple(proc.decision.get() for proc in self.processes),
            correct_pids=self.correct_pids,
            crashed_pids=frozenset(
                proc.pid for proc in self.processes if proc.crashed
            ),
            decided_at_phase=tuple(
                proc.decided_at_phase for proc in self.processes
            ),
            decided_at_step=tuple(proc.decided_at_step for proc in self.processes),
            inputs=tuple(
                getattr(proc, "input_value", 0) for proc in self.processes
            ),
            steps=self.steps,
            messages_sent=self.system.messages_sent,
            messages_delivered=self.system.messages_delivered,
            max_phase=self.max_phase(),
            halt_reason=halt_reason,
            seed=self.seed,
            trace=self.trace,
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
            violation=(
                self.observer.violation if self.observer is not None else None
            ),
            schedule=tuple(recorded) if recorded is not None else None,
        )
