"""The asynchronous message system of Section 2.1.

A :class:`MessageSystem` owns one unordered buffer per process and
implements the ``send`` primitive: instantaneously place a message in the
destination buffer.  Delivery (the ``receive`` primitive) is driven by
schedulers, which pick a buffered envelope and remove it with
:meth:`MessageSystem.take`.

Two properties of the paper's model are enforced here:

* **Reliability** — a sent message is never lost; it stays buffered until
  a scheduler delivers it (or the simulation ends).
* **Sender authentication** — the envelope's ``sender`` field is stamped
  by the system from the identity passed by the simulation kernel, not
  from anything the sending process controls.  A malicious process can
  put arbitrary *payloads* on the wire but cannot impersonate another
  transport identity, and an envelope is an immutable tuple record, so
  no process can rewrite the sender of one it received.

The store.  ``buffers[pid]`` is a plain list used as a swap-pop multiset:
:meth:`send` appends and :meth:`take` moves the last envelope into the
vacated position, so both are O(1) and a message costs one append and
one swap-pop.  The lists keep no index; all ordering belongs to the
scheduler, which scans one buffer when it needs an ordered pick.  Two
aggregates across all buffers are kept up to date by those two methods
alone, so per-step scheduler queries never rescan buffers:

* ``with_mail`` — the set of pids whose buffers are non-empty;
* ``pending`` — the number of undelivered envelopes.

An **observer (send-hook) API** — :meth:`register_observer` — lets a
scheduler see every envelope as it enters or leaves a buffer
(``on_put(pid, envelope)`` / ``on_removed(pid, envelope)``), which is how
the heap/count-based schedulers keep their candidate bookkeeping
incremental.  A scheduler that needs more than a count keeps it in its
own hooks.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError
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
        buffers: ``buffers[pid]`` lists the envelopes sent to ``pid`` and
            not yet taken, in no meaningful order.  Read it freely;
            change it only through :meth:`send` and :meth:`take`, which
            keep the aggregates below and the observers in step.
        with_mail: the pids whose buffers are non-empty (mutated in
            place, never rebound).
        pending: the number of undelivered envelopes across all buffers.
        messages_sent: total envelopes accepted by :meth:`send`.
        messages_delivered: total envelopes removed by :meth:`take`.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one process, got n={n}")
        self.n = n
        self.buffers: list[list[Envelope]] = [[] for _ in range(n)]
        self.with_mail: set[int] = set()
        self.pending = 0
        self._observers: list = []
        self.messages_sent = 0
        self.messages_delivered = 0

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
        self.buffers[recipient].append(envelope)
        self.pending += 1
        self.with_mail.add(recipient)
        self.messages_sent += 1
        for observer in self._observers:
            observer.on_put(recipient, envelope)
        return envelope

    def take(self, pid: int, index: int) -> Envelope:
        """Remove and return ``buffers[pid][index]`` (swap-pop, O(1)).

        The last envelope of the buffer moves into the vacated position.
        This is the only way an envelope leaves a buffer, so it counts
        the delivery; ``index`` must be in ``range(len(buffers[pid]))``.
        """
        items = self.buffers[pid]
        envelope = items[index]
        last = items.pop()
        if index < len(items):
            items[index] = last
        elif not items:
            self.with_mail.discard(pid)
        self.pending -= 1
        self.messages_delivered += 1
        for observer in self._observers:
            observer.on_removed(pid, envelope)
        return envelope

    def snapshot(self) -> dict[int, tuple[Envelope, ...]]:
        """Immutable view of every buffer, for tests and tracing."""
        return {pid: tuple(buffer) for pid, buffer in enumerate(self.buffers)}

    def register_observer(self, observer) -> None:
        """Subscribe ``observer`` to buffer mutations (idempotent).

        ``observer.on_put(pid, envelope)`` fires after :meth:`send` puts
        an envelope in the buffer of ``pid``;
        ``observer.on_removed(pid, envelope)`` fires after :meth:`take`
        removes it.  Hooks run synchronously on the hot path — keep them
        O(1).
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def _check_pid(self, pid: int, role: str) -> None:
        if not isinstance(pid, int) or not 0 <= pid < self.n:
            raise ConfigurationError(
                f"{role}={pid!r} is not a valid process id for n={self.n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MessageSystem(n={self.n}, pending={self.pending}, "
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
    with_mail = system.with_mail
    if not with_mail:
        return []
    if isinstance(alive, AliveView):
        return [pid for pid in alive.pids if pid in with_mail]
    if isinstance(alive, (set, frozenset)):
        alive_set = alive
    else:
        alive_set = set(alive)
    return sorted(pid for pid in with_mail if pid in alive_set)
