"""Online safety oracles: incremental invariant checkers for live runs.

An :class:`OracleSuite` implements the kernel's
:class:`~repro.sim.kernel.StepObserver` protocol and cross-checks, after
every atomic step, the safety properties the paper proves:

``agreement``
    No two correct processes ever hold different decisions (consistency,
    Section 2.1).  Checked incrementally — only the stepping process can
    have changed its decision, so each step costs O(1).

``validity``
    If every correct process started with the same input, no correct
    process may decide anything else (the protocols' bivalence
    arguments).

``revocation``
    A correct process never changes a decision it already announced.
    The write-once :class:`~repro.procs.base.DecisionRegister` already
    raises on conflicting writes; this oracle is the defence-in-depth
    layer that also catches wrapper/mirroring bugs.

``echo_quorum``
    The Figure 2 audit: every accepted ``(origin, value, phase)`` at a
    correct process must be backed by more than (n+k)/2 distinct echo
    contributions *actually delivered* to that process.  The suite
    mirrors the protocol's receipt accounting from the delivery stream —
    first-receipt deduplication keyed ``(sender, origin, phase)`` (value
    deliberately excluded, as in Figure 2), staleness relative to the
    receiver's phase at delivery, and wildcard (§3.3 exit device) credits
    keyed ``(sender, origin, value)`` which re-apply every phase — and
    audits each accept the moment the protocol's ``accept_hook`` fires.
    A silent oracle therefore certifies that no accept happened without
    its quorum in the trace; a firing one pinpoints the exact step where
    the implementation (or a mutated variant) cheated.

Oracles are strictly read-only: they never touch the RNG or scheduling,
so an observed run computes exactly what the unobserved run computes.
When no suite is attached the kernel pays a single ``is not None`` check
per step.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.malicious import MaliciousConsensus
from repro.core.messages import STAR, EchoMessage
from repro.errors import ConfigurationError, InvariantViolation
from repro.sim.kernel import StepObserver
from repro.sim.results import Violation

#: All oracle names, in audit order.
ALL_ORACLES = ("agreement", "validity", "revocation", "echo_quorum")


class OracleSuite(StepObserver):
    """Composable online safety checker (see module docstring).

    Args:
        oracles: subset of :data:`ALL_ORACLES` to arm; defaults to all.
            The ``echo_quorum`` oracle arms itself only on processes that
            actually run the Figure 2 protocol, so the default is safe
            for every protocol family.
    """

    def __init__(self, oracles: Optional[Iterable[str]] = None) -> None:
        names = tuple(oracles) if oracles is not None else ALL_ORACLES
        unknown = set(names) - set(ALL_ORACLES)
        if unknown:
            raise ConfigurationError(f"unknown oracles: {sorted(unknown)}")
        self.oracles = names
        self.violation: Optional[Violation] = None
        #: count of audited Figure 2 accepts (exposed for tests/metrics).
        self.accepts_audited = 0
        self._sim = None
        self._first_decisions: dict[int, int] = {}
        self._unanimous_input: Optional[int] = None
        # echo_quorum state, all keyed by audited recipient pid:
        self._audited: dict[int, int] = {}  # pid -> acceptance threshold
        self._cur_phase: dict[int, int] = {}
        self._seen: dict[int, set] = {}  # (sender, origin, phase) dedup
        self._tally: dict[int, dict] = {}  # (origin, value, phase) -> count
        self._stars: dict[int, dict] = {}  # (origin, value) -> {senders}
        self._pending_accepts: list[tuple[int, int, int, int]] = []

    # ------------------------------------------------------------------ #
    # StepObserver protocol
    # ------------------------------------------------------------------ #

    def attach(self, sim) -> None:
        self._sim = sim
        self._first_decisions = {}
        self._pending_accepts = []
        self._audited = {}
        self._cur_phase = {}
        self._seen = {}
        self._tally = {}
        self._stars = {}
        correct_inputs = {
            proc.input_value for proc in sim.processes if proc.is_correct
        }
        self._unanimous_input = (
            next(iter(correct_inputs)) if len(correct_inputs) == 1 else None
        )
        if "echo_quorum" not in self.oracles:
            return
        for proc in sim.processes:
            if not proc.is_correct:
                continue
            target = proc.core
            if type(target) is not MaliciousConsensus:
                # Byzantine subclasses reuse the machinery but are free
                # to cheat; only audit honest Figure 2 processes.
                continue
            pid = proc.pid
            self._audited[pid] = target._accept_at
            self._cur_phase[pid] = target.phaseno
            self._seen[pid] = set()
            self._tally[pid] = {}
            self._stars[pid] = {}
            target.accept_hook = self._note_accept

    def _note_accept(self, pid: int, phase: int, origin: int, value: int) -> None:
        """Protocol accept hook: queue the accept for the post-step audit."""
        self._pending_accepts.append((pid, phase, origin, value))

    def on_step(self, sim, pid, envelope, sends) -> None:
        if self.violation is not None:
            return
        if self._audited:
            if envelope is not None and pid in self._audited:
                self._record_delivery(pid, envelope)
            if self._pending_accepts:
                self._audit_accepts(sim)
                if self.violation is not None:
                    return
            if pid in self._audited:
                self._cur_phase[pid] = sim.processes[pid].phaseno
        process = sim.processes[pid]
        if not process.is_correct or not process.decided:
            return
        value = process.decision.get()
        step = sim.steps
        known = self._first_decisions.get(pid)
        if known is None:
            self._first_decisions[pid] = value
            if (
                "validity" in self.oracles
                and self._unanimous_input is not None
                and value != self._unanimous_input
            ):
                self.violation = Violation(
                    oracle="validity",
                    step=step,
                    pid=pid,
                    description=(
                        f"process {pid} decided {value} although every "
                        f"correct process started with "
                        f"{self._unanimous_input}"
                    ),
                )
                return
            if "agreement" in self.oracles:
                for other_pid, other_value in self._first_decisions.items():
                    if other_value != value:
                        self.violation = Violation(
                            oracle="agreement",
                            step=step,
                            pid=pid,
                            description=(
                                f"process {pid} decided {value} but process "
                                f"{other_pid} decided {other_value}"
                            ),
                        )
                        return
        elif known != value and "revocation" in self.oracles:
            self.violation = Violation(
                oracle="revocation",
                step=step,
                pid=pid,
                description=(
                    f"process {pid} revoked decision {known} in favour of "
                    f"{value}"
                ),
            )

    # ------------------------------------------------------------------ #
    # Echo-quorum accounting
    # ------------------------------------------------------------------ #

    def _record_delivery(self, pid: int, envelope) -> None:
        """Mirror Figure 2's receipt accounting for one delivered echo."""
        payload = envelope.payload
        if not isinstance(payload, EchoMessage):
            return
        sim = self._sim
        n = sim.n if sim is not None else 0
        if payload.value not in (0, 1) or not 0 <= payload.origin < n:
            return
        sender = envelope.sender
        if payload.phaseno is STAR:
            senders = self._stars[pid].setdefault(
                (payload.origin, payload.value), set()
            )
            senders.add(sender)
            return
        if not isinstance(payload.phaseno, int):
            return
        if payload.phaseno < self._cur_phase[pid]:
            return  # stale at delivery: the receiver discards it
        key = (sender, payload.origin, payload.phaseno)
        if key in self._seen[pid]:
            return  # first-receipt rule: later echoes don't count
        self._seen[pid].add(key)
        tally_key = (payload.origin, payload.value, payload.phaseno)
        tally = self._tally[pid]
        tally[tally_key] = tally.get(tally_key, 0) + 1

    def _audit_accepts(self, sim) -> None:
        pending, self._pending_accepts = self._pending_accepts, []
        for pid, phase, origin, value in pending:
            threshold = self._audited.get(pid)
            if threshold is None:
                continue
            self.accepts_audited += 1
            phase_echoes = self._tally[pid].get((origin, value, phase), 0)
            star_echoes = len(self._stars[pid].get((origin, value), ()))
            backing = phase_echoes + star_echoes
            if backing < threshold:
                self.violation = Violation(
                    oracle="echo_quorum",
                    step=sim.steps,
                    pid=pid,
                    description=(
                        f"process {pid} accepted value {value} from origin "
                        f"{origin} in phase {phase} backed by only "
                        f"{backing} delivered echo contributions "
                        f"(needs > (n+k)/2 = {threshold - 1}, i.e. "
                        f">= {threshold})"
                    ),
                )
                return

    # ------------------------------------------------------------------ #
    # Exceptions surfaced by the kernel
    # ------------------------------------------------------------------ #

    def note_invariant_exception(
        self, sim, pid, exc: InvariantViolation
    ) -> None:
        if not sim.processes[pid].is_correct:
            return
        self.violation = Violation(
            oracle="invariant",
            step=sim.steps,
            pid=pid,
            description=f"{type(exc).__name__}: {exc}",
        )
