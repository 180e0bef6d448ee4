"""Per-process message buffers.

Each process owns one :class:`MessageBuffer` — the unbounded multiset of
messages that have been sent to it but not yet received (Section 2.1).
The buffer itself is order-free; *which* element a ``receive`` returns is
the scheduler's choice, so the buffer exposes removal both by uniform
random draw and by index.

The implementation is a plain list with the swap-pop idiom, so insertion
and removal by position are both O(1) and a message costs one list
append and one swap-pop.  The buffer keeps no index: the ordered takes
(:meth:`take_oldest`, :meth:`take_nth_oldest_from`) and
:meth:`count_older_from` scan the list.  Only the test and replay
schedulers call them, on buffers that hold a few dozen envelopes (a
median of 11–28 at each ordered take over a 600-plan fuzz campaign).

One envelope *object* may appear at most once in a buffer at a time
(re-inserting an envelope after taking it out is fine; holding two live
copies of the same object is not).  The simulation kernel's send path
always creates fresh envelopes, so this only concerns hand-built tests.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.net.message import Envelope


class MessageBuffer:
    """Unbounded, unordered buffer of :class:`Envelope` objects.

    The buffer deliberately has no FIFO guarantee: the paper's message
    system delivers in arbitrary order.  Deterministic schedulers that
    want FIFO behaviour can use :meth:`take_oldest`, which selects the
    envelope with the smallest sequence number.

    Args:
        listener: optional owner (normally the
            :class:`~repro.net.system.MessageSystem`) notified of every
            insertion/removal via ``_buffer_put(pid, env)`` and
            ``_buffer_removed(pid, env)``; this is what keeps the
            system's live-buffer set and scheduler bookkeeping incremental.
        pid: the process id reported to the listener.
    """

    __slots__ = ("_items", "_listener", "_pid")

    def __init__(self, listener=None, pid: int = 0) -> None:
        self._items: list[Envelope] = []
        self._listener = listener
        self._pid = pid

    def put(self, envelope: Envelope) -> None:
        """Add ``envelope`` to the buffer (the ``send`` half of delivery)."""
        self._items.append(envelope)
        if self._listener is not None:
            self._listener._buffer_put(self._pid, envelope)

    def take_random(self, rng: random.Random) -> Envelope:
        """Remove and return a uniformly random envelope.

        Raises:
            IndexError: if the buffer is empty.
        """
        if not self._items:
            raise IndexError("take_random from an empty MessageBuffer")
        index = rng.randrange(len(self._items))
        return self.take_at(index)

    def take_at(self, index: int) -> Envelope:
        """Remove and return the envelope at ``index`` (swap-pop, O(1))."""
        items = self._items
        envelope = items[index]
        last = items.pop()
        if index < len(items):
            items[index] = last
        if self._listener is not None:
            self._listener._buffer_removed(self._pid, envelope)
        return envelope

    def take_oldest(self) -> Envelope:
        """Remove and return the envelope with the smallest sequence number.

        This gives deterministic FIFO-like behaviour for reproducible
        tests; it is *not* part of the paper's model.  O(m) scan; ties
        (only hand-built envelopes share a seq) go to the lowest
        position.

        Raises:
            IndexError: if the buffer is empty.
        """
        if not self._items:
            raise IndexError("take_oldest from an empty MessageBuffer")
        seqs = [env.seq for env in self._items]
        return self.take_at(seqs.index(min(seqs)))

    def take_nth_oldest_from(self, sender: int, rank: int) -> Optional[Envelope]:
        """Remove the ``rank``-th oldest envelope from ``sender`` (0 = oldest).

        Returns ``None`` when fewer than ``rank + 1`` envelopes from that
        sender are buffered.  Replay schedules use a non-zero rank when
        the recorded run delivered a newer envelope from a sender while
        older ones were still buffered.  O(m log m) scan; used by
        scripted schedulers that replay explicit (recipient, sender)
        delivery schedules.
        """
        matches = sorted(
            (env.seq, i)
            for i, env in enumerate(self._items)
            if env.sender == sender
        )
        if rank >= len(matches):
            return None
        _seq, pos = matches[rank]
        return self.take_at(pos)

    def count_older_from(self, sender: int, seq: int) -> int:
        """Count buffered envelopes from ``sender`` with seq below ``seq``.

        Called by :class:`~repro.net.schedulers.ScheduleRecorder` right
        after a delivery removes an envelope: the count is exactly the
        ``rank`` that :meth:`take_nth_oldest_from` needs to re-pick the
        same envelope on replay.
        """
        return sum(
            1 for env in self._items if env.sender == sender and env.seq < seq
        )

    def peek_all(self) -> tuple[Envelope, ...]:
        """Return a snapshot of the buffer contents without removing them."""
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[Envelope]:
        return iter(tuple(self._items))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MessageBuffer(len={len(self._items)})"
