"""Per-process message buffers.

Each process owns one :class:`MessageBuffer` — the unbounded multiset of
messages that have been sent to it but not yet received (Section 2.1).
The buffer itself is order-free; *which* element a ``receive`` returns is
the scheduler's choice, so the buffer exposes removal both by uniform
random draw and by index.

The implementation keeps envelopes in a plain list and removes with the
swap-pop idiom, making both insertion and random removal O(1).  On top of
that list the buffer maintains incremental indexes so schedulers never
have to rescan the whole buffer:

* a position index (envelope identity → current list index), updated in
  O(1) per mutation, which powers membership tests and targeted removal;
* a lazily-built min-heap over sequence numbers, giving
  :meth:`take_oldest` amortized O(log m) instead of a full min-scan;
* a lazily-built per-sender family of heaps, giving
  :meth:`take_oldest_from` (used by scripted/adversarial schedulers) the
  same amortized O(log m) cost.

Both heaps use *lazy invalidation*: removal through any other path leaves
a stale heap entry behind, which is skipped (and discarded) the next time
it surfaces at the top.  An occasional compaction bounds the garbage.

One envelope *object* may appear at most once in a buffer at a time
(re-inserting an envelope after taking it out is fine; holding two live
copies of the same object is not).  The simulation kernel's send path
always creates fresh envelopes, so this only concerns hand-built tests.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, Optional

from repro.net.message import Envelope

#: Stale-entry compaction threshold: rebuild a heap once it holds more
#: than this many entries *and* more than 4x the live item count.
_COMPACT_MIN = 64


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
            system's live-buffer set and scheduler indexes incremental.
        pid: the process id reported to the listener.
    """

    __slots__ = (
        "_items",
        "_index",
        "_oldest",
        "_by_sender",
        "_tiebreak",
        "_listener",
        "_pid",
    )

    def __init__(self, listener=None, pid: int = 0) -> None:
        self._items: list[Envelope] = []
        #: id(envelope) -> current index in ``_items``.
        self._index: dict[int, int] = {}
        #: lazy min-heap of (seq, tiebreak, envelope); None until first use.
        self._oldest: Optional[list] = None
        #: lazy {sender: min-heap of (seq, tiebreak, envelope)}.
        self._by_sender: Optional[dict[int, list]] = None
        self._tiebreak = 0
        self._listener = listener
        self._pid = pid

    def put(self, envelope: Envelope) -> None:
        """Add ``envelope`` to the buffer (the ``send`` half of delivery)."""
        items = self._items
        self._index[id(envelope)] = len(items)
        items.append(envelope)
        tiebreak = self._tiebreak
        self._tiebreak = tiebreak + 1
        if self._oldest is not None:
            heapq.heappush(self._oldest, (envelope.seq, tiebreak, envelope))
        if self._by_sender is not None:
            heap = self._by_sender.get(envelope.sender)
            if heap is None:
                heap = self._by_sender[envelope.sender] = []
            heapq.heappush(heap, (envelope.seq, tiebreak, envelope))
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
            self._index[id(last)] = index
        del self._index[id(envelope)]
        if self._listener is not None:
            self._listener._buffer_removed(self._pid, envelope)
        return envelope

    def take_oldest(self) -> Envelope:
        """Remove and return the envelope with the smallest sequence number.

        This gives deterministic FIFO-like behaviour for reproducible
        tests; it is *not* part of the paper's model.  Amortized
        O(log m) via the lazy sequence-number heap.

        Raises:
            IndexError: if the buffer is empty.
        """
        items = self._items
        if not items:
            raise IndexError("take_oldest from an empty MessageBuffer")
        heap = self._oldest
        if heap is None or (
            len(heap) > _COMPACT_MIN and len(heap) > 4 * len(items)
        ):
            heap = self._oldest = [
                (env.seq, i, env) for i, env in enumerate(items)
            ]
            heapq.heapify(heap)
        index = self._index
        while True:
            _seq, _tb, env = heap[0]
            pos = index.get(id(env))
            heapq.heappop(heap)
            if pos is not None:
                return self.take_at(pos)

    def take_oldest_from(self, sender: int) -> Optional[Envelope]:
        """Remove and return the smallest-seq envelope from ``sender``.

        Returns ``None`` when no buffered envelope has that transport
        sender.  Amortized O(log m) via the lazy per-sender index; used
        by scripted schedulers that replay explicit (recipient, sender)
        delivery schedules.
        """
        by_sender = self._by_sender
        if by_sender is None:
            by_sender = self._by_sender = {}
            for i, env in enumerate(self._items):
                heap = by_sender.get(env.sender)
                if heap is None:
                    heap = by_sender[env.sender] = []
                heap.append((env.seq, i, env))
            for heap in by_sender.values():
                heapq.heapify(heap)
        heap = by_sender.get(sender)
        index = self._index
        while heap:
            _seq, _tb, env = heap[0]
            pos = index.get(id(env))
            heapq.heappop(heap)
            if pos is not None:
                return self.take_at(pos)
        return None

    def take_nth_oldest_from(self, sender: int, rank: int) -> Optional[Envelope]:
        """Remove the ``rank``-th oldest envelope from ``sender`` (0 = oldest).

        Returns ``None`` when fewer than ``rank + 1`` envelopes from that
        sender are buffered.  Replay schedules use a non-zero rank when
        the recorded run delivered a newer envelope from a sender while
        older ones were still buffered — a plain ``take_oldest_from``
        would pick the wrong message there.  O(m) scan; ranks only occur
        in recorded schedules where buffers are small.
        """
        if rank == 0:
            return self.take_oldest_from(sender)
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

    def index_of(self, envelope: Envelope) -> Optional[int]:
        """Current index of ``envelope`` (by identity), or None if absent.

        O(1); schedulers use this both as a membership test for lazy
        heap invalidation and to hand a valid index to :meth:`take_at`.
        """
        return self._index.get(id(envelope))

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
