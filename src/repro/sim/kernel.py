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
event stream into any :class:`~repro.obs.sinks.TraceSink` (``sink=`` is
the one way to record; ``sink=InMemorySink()`` keeps the events in
``sim.sink.events``) and feed a
:class:`~repro.obs.metrics.MetricsRegistry` with per-step counters and
histograms.  Both are strictly read-only with respect to the execution —
they never touch the RNG or alter scheduling — so enabling them does not
change what a seed computes, and a metrics snapshot is a pure function
of the run.  Off is ``None`` for both (the default): there is one step
loop (:meth:`Simulation._run_loop`), each step then pays only a handful
of local flag checks, and no events or metric names are constructed.
Wall-clock timing of the kernel's layers comes from the benchmark
suite's per-layer metrics, not from the registry.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError, InvariantViolation
from repro.net.schedulers import RandomScheduler, Scheduler
from repro.net.system import AliveView, MessageSystem
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.procs.base import Process
from repro.sim.events import (
    CrashEvent,
    DecideEvent,
    DeliverEvent,
    ExitEvent,
    PhiEvent,
    SendEvent,
    StartEvent,
)
from repro.sim.results import HaltReason, RunResult, Violation

#: Halting predicate signature: inspects the simulation, returns True to stop.
HaltPredicate = Callable[["Simulation"], bool]


def _delivered_counter(payload_type: Optional[type]) -> str:
    """Counter name for one delivered-capture key (``None`` marks a φ step)."""
    if payload_type is None:
        return "kernel.phi_steps"
    return "messages.delivered." + payload_type.__name__


def _sent_counter(payload_type: type) -> str:
    """Counter name for one sent-capture key."""
    return "messages.sent." + payload_type.__name__


def _phase_counter(phase: Optional[int]) -> str:
    """Counter name for one step-phase key (a process without phases
    reports ``None`` and counts under phase 0)."""
    return f"kernel.steps.phase.{phase or 0}"


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


#: Predicates over decision registers and ``crashed``/``exited`` flags only:
#: :meth:`Simulation._run_loop` re-evaluates them after a step that changed one.
_STATUS_PREDICATES = (all_correct_decided, all_correct_exited)


class Simulation:
    """One executable instance of the paper's system model.

    Args:
        processes: the n processes, where ``processes[i].pid == i``.
        scheduler: delivery scheduler; defaults to the uniform
            :class:`RandomScheduler`, which satisfies the paper's
            probabilistic message-system assumption.
        seed: seed for the run's single random source.
        halt_when: halting predicate; defaults to
            :func:`all_correct_decided`.
        metrics: ``True`` to collect metrics into a fresh
            :class:`~repro.obs.metrics.MetricsRegistry`, or a registry
            instance to feed one shared by several simulations; ``False``
            (the default) or ``None`` records nothing.  The frozen
            snapshot lands in ``RunResult.metrics``.
        sink: structured-event recording backend (see
            :mod:`repro.obs.sinks`), e.g. ``InMemorySink()`` to keep the
            events in ``sim.sink.events``; ``None`` (the default)
            records nothing.
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
        self._sink = sink
        # The single check guarding all event recording (None = off).
        self._record = sink is not None
        # Metrics registry (None = disabled; the hot path guards on it).
        if metrics is True:
            self.metrics: Optional[MetricsRegistry] = MetricsRegistry()
        elif isinstance(metrics, MetricsRegistry):
            self.metrics = metrics
        else:
            self.metrics = None
        self._crash_noted: set[int] = set()
        self._started = False
        for proc in self.processes:
            self._adopt(proc)
        self.scheduler.reset()
        self.scheduler.attach(self.system)
        self.observer = observer
        if observer is not None:
            observer.attach(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _alive_view(self) -> AliveView:
        """The live pids right now, as handed to the scheduler."""
        return AliveView(proc.pid for proc in self.processes if proc.alive)

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
    def sink(self) -> Optional[TraceSink]:
        """The structured-event sink recording this run (None = off)."""
        return self._sink

    def max_phase(self) -> int:
        """Largest phase number reached by any correct process."""
        return max(
            (proc.phaseno or 0 for proc in self.processes if proc.is_correct),
            default=0,
        )

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
        halt_reason = self._run_loop(deadline, halt)
        obs = self.metrics
        if obs is not None:
            obs.gauge_set("kernel.steps_total", self.steps)
            obs.gauge_max("messages.pending_at_halt", self.system.pending)
        return self._build_result(halt_reason)

    def _run_loop(self, deadline: int, halt: HaltPredicate) -> HaltReason:
        """The step loop: scheduler pick, receive, compute, route.

        This is the only place an atomic step (PAPER.md §2.1) is taken
        after the start steps, with or without metrics: ``metered``
        guards the metrics-only sites, which never touch the RNG or the
        schedule, so a seed computes the same run either way
        (``tests/test_sim_kernel.py::TestMetricsOnOffEquivalence``).

        A process's decision register, ``exited`` and ``crashed`` change
        only inside that process's own atomic step, or between ``run()``
        calls, in the caller's hands.  A process the scheduler chose is
        alive, so after its step the only transitions possible are a
        fresh decision (the register's value, read through the
        non-raising ``decision.get()``, changes) or leaving the protocol
        (``alive`` flips).  On that one guard hangs everything a status
        can affect: the :meth:`_note_transitions` call; the
        :class:`AliveView` handed to the scheduler, built here at entry —
        so what the caller changed between calls is seen — and rebuilt
        when the stepping process leaves; and the built-in halting
        predicates (:data:`_STATUS_PREDICATES`), which read nothing else.
        A caller-supplied predicate is evaluated after every step.

        With metrics on, every step's captures — histogram samples and
        counter keys — go into local lists that the ``finally`` block
        folds into the registry once per call, so a snapshot taken
        during a call holds the captures of completed calls only.  They
        are values of the simulated execution only, so a snapshot is a
        pure function of the run.
        """
        halt_reason = HaltReason.MAX_STEPS
        record = self._record
        sink = self._sink
        observer = self.observer
        system = self.system
        scheduler = self.scheduler
        processes = self.processes
        rng = self.rng
        deliver = system.send
        metered = self.metrics is not None
        halt_each_step = halt not in _STATUS_PREDICATES
        alive = self._alive_view()
        if metered:
            # ``with_mail`` is mutated in place (never rebound), so one
            # binding outlives the loop; ``pending`` is an int and must
            # be re-read from the system each step.
            with_mail = system.with_mail
            length = len
            # Per-call capture buffers: the loop appends raw observations
            # (pending-message and candidate-process counts, delivered
            # payload classes — None marks a φ step — phase numbers, sent
            # payload classes) and the ``finally`` block folds them into
            # the registry via one Counter pass per buffer.  Buffered
            # values are plain ints and existing classes — nothing
            # GC-tracked is allocated per step (a consolidated per-step
            # record tuple measured ~2x worse: 24k young container
            # allocations per run is pure gen0 churn).
            pending_counts: list = []
            pending_append = pending_counts.append
            candidate_counts: list = []
            candidates_append = candidate_counts.append
            delivered_classes: list = []
            delivered_append = delivered_classes.append
            step_phases: list = []
            phase_append = step_phases.append
            sent_types: list = []
            sent_append = sent_types.append
        try:
            while self.steps < deadline:
                if metered:
                    pending_append(system.pending)
                    candidates_append(length(with_mail))
                decision = scheduler.choose(system, alive, rng)
                if decision is None:
                    halt_reason = HaltReason.QUIESCENT
                    break
                pid, envelope = decision
                process = processes[pid]
                if not process.alive:
                    raise ConfigurationError(
                        f"scheduler selected non-live process {pid}"
                    )
                was_value = process.decision.get()
                if record:
                    if envelope is None:
                        sink.emit(PhiEvent(self.steps, pid))
                    else:
                        sink.emit(
                            DeliverEvent(
                                self.steps, pid, envelope.sender, envelope.payload
                            )
                        )
                if metered:
                    delivered_append(
                        None if envelope is None else envelope.payload.__class__
                    )
                    phase_append(process.phaseno)
                if observer is None:
                    sends = process.step(envelope)
                else:
                    try:
                        sends = process.step(envelope)
                    except InvariantViolation as exc:
                        observer.note_invariant_exception(self, pid, exc)
                        sends = ()
                process.steps_taken += 1
                # _route's body, inline: as a call it measured ~1% slower
                # with metrics off and ~5% slower with them on.
                for send in sends:
                    payload = send.payload
                    deliver(pid, send.recipient, payload)
                    if metered:
                        sent_append(payload.__class__)
                    if record:
                        sink.emit(
                            SendEvent(self.steps, pid, send.recipient, payload)
                        )
                changed = process.decision.get() is not was_value or not process.alive
                if changed:
                    self._note_transitions(process, was_value is not None, False)
                    if not process.alive:
                        alive = self._alive_view()
                if observer is not None:
                    observer.on_step(self, pid, envelope, sends)
                    if observer.violation is not None:
                        self.steps += 1
                        halt_reason = HaltReason.ORACLE_VIOLATION
                        break
                self.steps += 1
                if (changed or halt_each_step) and halt(self):
                    halt_reason = HaltReason.GOAL_REACHED
                    break
        finally:
            # Fold the buffered captures into the registry, once per
            # run() instead of per step.  This runs even when a step
            # raises — the buffers already hold the failing step's
            # captures — which is exactly what eager per-step accounting
            # would have recorded on that path.
            if metered:
                self._fold_captures(
                    sent_types,
                    delivered_classes,
                    step_phases,
                    pending_counts,
                    candidate_counts,
                )
        return halt_reason

    def _fold_captures(
        self,
        sent_types,
        delivered_classes=(),
        step_phases=(),
        pending_counts=(),
        candidate_counts=(),
    ) -> None:
        """Fold buffered step captures into the registry (metrics on only).

        One ``Counter`` pass per buffer and one ``inc`` / ``observe`` per
        distinct key; counter and histogram names are created only for
        keys that actually occurred, exactly as per-event accounting
        would.
        """
        obs = self.metrics
        for captured, name_of in (
            (delivered_classes, _delivered_counter),
            (step_phases, _phase_counter),
            (sent_types, _sent_counter),
        ):
            for key, multiplicity in Counter(captured).items():
                obs.inc(name_of(key), multiplicity)
        for captured, name in (
            (pending_counts, "scheduler.pending_messages"),
            (candidate_counts, "scheduler.candidate_processes"),
        ):
            for value, times in Counter(captured).items():
                obs.observe(name, value, times=times)

    def _adopt(self, proc: Process) -> None:
        """Hand ``proc`` the run's RNG, unless it was seeded (so a local
        coin needs no seed of its own), and the metrics registry."""
        if proc.rng is None:
            proc.rng = self.rng
        if self.metrics is not None:
            proc.bind_metrics(self.metrics)

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
        self._adopt(replacement)
        if self._started and replacement.alive:
            self._start_step(replacement)

    def _take_start_steps(self) -> None:
        """Run every live process's initial atomic step, in pid order."""
        observer = self.observer
        for process in self.processes:
            if process.alive:
                self._start_step(process)
                if observer is not None and observer.violation is not None:
                    break

    def _start_step(self, process: Process) -> None:
        """One initial atomic step: the receive returns φ, sends are routed.

        Shared by the first :meth:`run` call and :meth:`replace_process`,
        so a replacement's start is recorded, metered and observed like
        any other step.
        """
        pid = process.pid
        observer = self.observer
        was_decided = process.decided
        was_exited = process.exited
        if self._record:
            self._sink.emit(StartEvent(self.steps, pid))
        if observer is None:
            sends = process.start()
        else:
            try:
                sends = process.start()
            except InvariantViolation as exc:
                observer.note_invariant_exception(self, pid, exc)
                sends = ()
        process.steps_taken += 1
        sent_types: list = []
        self._route(pid, sends, sent_types)
        if self.metrics is not None:
            self._fold_captures(sent_types)
        self._note_transitions(process, was_decided, was_exited)
        if observer is not None:
            observer.on_step(self, pid, None, sends)
        self.steps += 1

    def _route(self, sender_pid: int, sends, sent_types: list) -> None:
        """Deliver a start step's sends into the message system.

        The transport sender stamped on each envelope is ``sender_pid``
        (authenticated: a process cannot choose it).  Each payload's
        class is appended to ``sent_types`` for the caller's metrics
        fold.  The step loop carries this body inline (see there for
        why); keep the two in step.
        """
        for send in sends:
            payload = send.payload
            self.system.send(sender_pid, send.recipient, payload)
            sent_types.append(payload.__class__)
            if self._record:
                self._sink.emit(
                    SendEvent(self.steps, sender_pid, send.recipient, payload)
                )

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
            inputs=tuple(proc.input_value for proc in self.processes),
            steps=self.steps,
            messages_sent=self.system.messages_sent,
            messages_delivered=self.system.messages_delivered,
            max_phase=self.max_phase(),
            halt_reason=halt_reason,
            seed=self.seed,
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
            violation=(
                self.observer.violation if self.observer is not None else None
            ),
            schedule=tuple(recorded) if recorded is not None else None,
        )
