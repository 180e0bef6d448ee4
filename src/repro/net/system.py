"""The asynchronous message system of Section 2.1.

A :class:`MessageSystem` owns one :class:`~repro.net.buffer.MessageBuffer`
per process and implements the ``send`` primitive: instantaneously place a
message in the destination buffer.  Delivery (the ``receive`` primitive) is
driven by schedulers, which pull envelopes back out of buffers.

Two properties of the paper's model are enforced here:

* **Reliability** — a sent message is never lost; it stays buffered until
  a scheduler delivers it (or the simulation ends).
* **Sender authentication** — the envelope's ``sender`` field is stamped
  by the system from the identity passed by the simulation kernel, not
  from anything the sending process controls.  A malicious process can
  put arbitrary *payloads* on the wire but cannot impersonate another
  transport identity, and an envelope is an immutable tuple record, so
  no process can rewrite the sender of one it received.

Performance architecture.  The system maintains incremental aggregate
structures so per-step scheduler queries are O(1)/O(live) instead of
O(n)/O(pending):

* ``_with_mail`` — the set of pids whose buffers are non-empty, updated
  on every buffer transition (kills the per-step ``processes_with_mail``
  rescan);
* ``_pending`` — a running total of undelivered envelopes;
* an **observer (send-hook) API** — :meth:`register_observer` lets a
  scheduler see every envelope as it enters or leaves a buffer
  (``on_put(pid, envelope)`` / ``on_removed(pid, envelope)``), which is
  how the heap/count-based schedulers keep their candidate bookkeeping
  incremental instead of rescanning buffers each step.  The buffers
  themselves are plain swap-pop lists with no index; a scheduler that
  needs more than a count keeps it in its own hooks.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.net.buffer import MessageBuffer
from repro.net.message import Envelope


class AliveView:
    """The live pids in ascending order, with O(1) membership tests.

    The simulation kernel passes one of these to ``Scheduler.choose`` so
    schedulers get both the deterministic iteration order of a list and
    set-speed ``in`` checks without rebuilding ``set(alive)`` every step.
    Ascending order is an invariant (the constructor sorts): walking
    ``pids`` visits candidates in the order replay is defined in.
    Plain iterables remain accepted everywhere for backward compatibility.
    """

    __slots__ = ("pids", "pid_set")

    def __init__(self, pids: Iterable[int]) -> None:
        self.pid_set: frozenset[int] = frozenset(pids)
        self.pids: tuple[int, ...] = tuple(sorted(self.pid_set))

    def __iter__(self) -> Iterator[int]:
        return iter(self.pids)

    def __len__(self) -> int:
        return len(self.pids)

    def __getitem__(self, index: int) -> int:
        return self.pids[index]

    def __contains__(self, pid: object) -> bool:
        return pid in self.pid_set

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AliveView({list(self.pids)!r})"


class MessageSystem:
    """Fully connected reliable asynchronous message system for ``n`` processes.

    Args:
        n: number of processes; ids are ``0 .. n-1``.

    Attributes:
        messages_sent: total envelopes accepted by :meth:`send`.
        messages_delivered: total envelopes handed to processes; updated by
            the simulation kernel via :meth:`note_delivered`.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one process, got n={n}")
        self.n = n
        self._buffers = [MessageBuffer(listener=self, pid=pid) for pid in range(n)]
        self._with_mail: set[int] = set()
        self._pending = 0
        self._observers: list = []
        self.messages_sent = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------ #
    # The send primitive
    # ------------------------------------------------------------------ #

    def send(self, sender: int, recipient: int, payload: Any) -> Envelope:
        """Place ``payload`` in ``recipient``'s buffer, stamped with ``sender``.

        Mirrors the paper's ``send(p, m)``: instantaneous and reliable.
        Self-sends are legal and used by the protocols to defer messages
        from future phases (Fig. 1 and Fig. 2 both re-``send`` such
        messages to the receiving process itself).  The one allocation
        per message is the :class:`Envelope`; its ``seq`` is drawn here.
        """
        if not (
            sender.__class__ is recipient.__class__ is int
            and 0 <= sender < self.n
            and 0 <= recipient < self.n
        ):  # off the hot path: the full check (int subclasses pass)
            self._check_pid(sender, "sender")
            self._check_pid(recipient, "recipient")
        envelope = Envelope(sender, recipient, payload)
        self._buffers[recipient].put(envelope)
        self.messages_sent += 1
        return envelope

    def broadcast(self, sender: int, payload: Any) -> list[Envelope]:
        """Send ``payload`` from ``sender`` to *every* process, self included.

        The paper's protocols all open a phase with "for all q, 1 ≤ q ≤ n,
        send(q, ...)", which includes the sender itself.
        """
        return [self.send(sender, recipient, payload) for recipient in range(self.n)]

    # ------------------------------------------------------------------ #
    # Buffer access (used by schedulers and the kernel)
    # ------------------------------------------------------------------ #

    def buffer_of(self, pid: int) -> MessageBuffer:
        """Return the buffer of process ``pid``."""
        self._check_pid(pid, "pid")
        return self._buffers[pid]

    def note_delivered(self, envelope: Envelope) -> None:
        """Record that ``envelope`` was handed to its recipient."""
        self.messages_delivered += 1

    def pending_total(self) -> int:
        """Total number of undelivered envelopes across all buffers (O(1))."""
        return self._pending

    def processes_with_mail(self) -> list[int]:
        """Ids of processes whose buffers are non-empty (ascending)."""
        return sorted(self._with_mail)

    def snapshot(self) -> dict[int, tuple[Envelope, ...]]:
        """Immutable view of every buffer, for tests and tracing."""
        return {pid: buf.peek_all() for pid, buf in enumerate(self._buffers)}

    # ------------------------------------------------------------------ #
    # Observer (send-hook) API
    # ------------------------------------------------------------------ #

    def register_observer(self, observer) -> None:
        """Subscribe ``observer`` to buffer mutations (idempotent).

        ``observer.on_put(pid, envelope)`` fires after an envelope enters
        the buffer of ``pid``; ``observer.on_removed(pid, envelope)``
        fires after it leaves (delivery *or* experimental drop).  Hooks
        run synchronously on the hot path — keep them O(1).
        """
        if observer not in self._observers:
            self._observers.append(observer)

    # Buffer-listener callbacks (called by MessageBuffer).

    def _buffer_put(self, pid: int, envelope: Envelope) -> None:
        self._pending += 1
        self._with_mail.add(pid)
        for observer in self._observers:
            observer.on_put(pid, envelope)

    def _buffer_removed(self, pid: int, envelope: Envelope) -> None:
        self._pending -= 1
        if not self._buffers[pid]._items:
            self._with_mail.discard(pid)
        for observer in self._observers:
            observer.on_removed(pid, envelope)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_pid(self, pid: int, role: str) -> None:
        if not isinstance(pid, int) or not 0 <= pid < self.n:
            raise ConfigurationError(
                f"{role}={pid!r} is not a valid process id for n={self.n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MessageSystem(n={self.n}, pending={self.pending_total()}, "
            f"sent={self.messages_sent})"
        )


def deliverable_pairs(system: MessageSystem, alive: Iterable[int]) -> list[int]:
    """Return alive process ids that currently have at least one buffered message.

    Helper shared by schedulers: a process with an empty buffer can only
    take a φ step, which is a no-op for every protocol in this library, so
    schedulers restrict attention to these ids for progress.  The result
    is ascending.  Uses the system's incremental non-empty set, so the
    cost is O(live) rather than O(n); an :class:`AliveView` (what the
    kernel passes) is already ascending and is filtered without sorting
    or rebuilding the alive set.
    """
    with_mail = system._with_mail
    if not with_mail:
        return []
    if isinstance(alive, AliveView):
        return [pid for pid in alive.pids if pid in with_mail]
    if isinstance(alive, (set, frozenset)):
        alive_set = alive
    else:
        alive_set = set(alive)
    return sorted(pid for pid in with_mail if pid in alive_set)
