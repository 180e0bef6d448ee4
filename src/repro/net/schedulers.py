"""Delivery schedulers — the resolved nondeterminism of ``receive``.

In the paper's model every atomic step has a process attempt a ``receive``
that returns either *some* buffered message or φ.  All the nondeterminism
of an execution therefore lives in (a) which process steps next and
(b) which message (if any) its receive returns.  A :class:`Scheduler`
resolves exactly these two choices.

Two schedulers carry the paper's model:

:class:`RandomScheduler`
    Picks uniformly among all pending (process, envelope) options.  This
    realises the paper's probabilistic assumption on the message system —
    in every phase, every possible view (every (n-k)-subset of the
    messages addressed to a process) has probability bounded away from
    zero of being the view seen.  It is the scheduler under which the
    convergence theorems apply.

:class:`FilteredRandomScheduler`
    Uniform random delivery among the envelopes a predicate lets through;
    the rest are withheld, which §2.1's arbitrarily slow delivery allows.
    Every partition is this scheduler: delivering only messages whose
    sender *and* recipient lie in S runs S as if everyone outside had
    died (Lemma 1), and reassigning the predicate splices σ = σ₀·σ₁
    (Theorem 1) or withholds a rewound overlap's stale traffic (Theorem 3).

Beside them: :class:`FifoScheduler` (deterministic round-robin, for unit
tests), :class:`ExponentialDelayScheduler` (delays on a virtual clock),
:class:`ScriptedScheduler` / :class:`ScheduleRecorder` (exact replay),
and :class:`BalancingDelayScheduler` (an adversary keeping each
recipient's 0/1 intake balanced — a stress test, not the model).

Performance architecture.  Every scheduler here is written against the
message system's incremental structures instead of per-step rescans:

* Schedulers that need per-envelope bookkeeping implement the system's
  observer ("send-hook") protocol — ``on_put(pid, env)`` /
  ``on_removed(pid, env)`` — and are wired up once per simulation via
  :meth:`Scheduler.attach` (the kernel calls it; direct users get
  attached lazily on the first ``choose``).
* Random draws never materialise the candidates.  A uniform pick counts
  them from incremental counters, draws ``rng.randrange(total)`` (the
  same RNG state transition as the historical
  ``rng.choice(candidate_list)``) and walks to the drawn one only;
  :class:`RandomScheduler`'s buffer-weighted pick draws
  ``rng.random() * total`` — the product ``rng.choices`` forms — and
  walks the live pids, ascending, to the first whose cumulative buffer
  length exceeds it.  Per-step cost is O(n + one partial buffer scan),
  not O(total pending), while every (processes, scheduler, seed) triple
  replays bit-identically against the pre-optimisation implementations
  (``repro.net.reference``, the equivalence tests, DESIGN.md §7).
* :class:`ExponentialDelayScheduler` keeps a min-heap of
  (deadline, seq) with lazy invalidation, assigning delays to newly
  observed envelopes in exactly the historical scan order so the RNG
  stream is unchanged.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.net.system import AliveView, MessageSystem, deliverable_pairs

#: A scheduling decision: (process id, envelope-or-φ).  ``None`` as the
#: envelope means the step's receive returns φ.  A ``None`` decision (no
#: tuple at all) means the scheduler found nothing deliverable: the system
#: is quiescent from the scheduler's point of view.
Decision = Optional[tuple[int, Optional[Envelope]]]


def _alive_set(alive: Iterable[int]):
    """Set-like view of ``alive`` without rebuilding when avoidable."""
    if isinstance(alive, AliveView):
        return alive.pid_set
    if isinstance(alive, (set, frozenset)):
        return alive
    return set(alive)


class Scheduler(ABC):
    """Strategy object resolving the receive nondeterminism."""

    @abstractmethod
    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        """Pick the next atomic step.

        Args:
            system: the message system holding all buffers.
            alive: ids of processes that can still take steps (correct
                processes that have not exited, plus live faulty ones).
                The kernel passes an :class:`~repro.net.system.AliveView`
                (ordered, O(1) membership); any iterable is accepted.
            rng: the simulation's random source; schedulers must draw all
                randomness from it so runs are reproducible by seed.

        Returns:
            ``(pid, envelope)`` to deliver ``envelope`` to ``pid``;
            ``(pid, None)`` for a φ step by ``pid``; or ``None`` when no
            step it is willing to schedule exists.
        """

    def reset(self) -> None:
        """Clear any internal bookkeeping (called once per simulation)."""

    def attach(self, system: MessageSystem) -> None:
        """Bind to ``system`` ahead of the run (called by the kernel).

        Schedulers with incremental candidate bookkeeping override this
        to register as a system observer and (re)build their indexes
        from the current buffer contents.  The base implementation is a
        no-op, so third-party schedulers remain source-compatible.
        """


class RandomScheduler(Scheduler):
    """Uniform random delivery; the scheduler of the paper's assumption.

    Args:
        phi_probability: probability that a scheduled step is a φ step
            (receive returns null even though mail may be pending).  The
            protocols treat φ steps as no-ops, so the default of 0 only
            removes wasted steps; setting it > 0 exercises the full model.
        weight_by_buffer: when True (default) each pending *envelope* is
            equally likely, so busy processes step proportionally more —
            the natural uniform measure over enabled events.  When False
            each *process* with mail is equally likely first, then one of
            its envelopes uniformly.
    """

    def __init__(
        self, phi_probability: float = 0.0, weight_by_buffer: bool = True
    ) -> None:
        if not 0.0 <= phi_probability < 1.0:
            raise ConfigurationError(
                f"phi_probability must be in [0, 1), got {phi_probability}"
            )
        self.phi_probability = phi_probability
        self.weight_by_buffer = weight_by_buffer

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        """Draw one pending envelope (or a φ step) of a live process.

        Candidates are the live pids with mail, ascending, weighted by
        buffer length (by 1 with ``weight_by_buffer`` off); one walk stops
        at the first whose cumulative weight exceeds the draw.  The draws
        are the reference's — DESIGN.md §7.
        """
        if isinstance(alive, AliveView):
            pids: Sequence[int] = alive.pids
        else:
            if not isinstance(alive, (list, tuple)):
                alive = list(alive)
            pids = deliverable_pairs(system, alive)
        buffers = system._buffers
        weighted = self.weight_by_buffer
        if len(pids) == system.n:
            # Nobody is dead: the system's running aggregates are the sums.
            total = system._pending if weighted else len(system._with_mail)
        else:
            total = 0
            for pid in pids:
                size = len(buffers[pid]._items)
                total += size if weighted else size > 0
        if not total:
            return None
        if self.phi_probability and rng.random() < self.phi_probability:
            return rng.choice(alive), None
        # As ``choices`` / ``choice`` over the candidate list: the first
        # candidate whose cumulative weight exceeds the draw, else — the
        # float product can round up to the total — the last one.
        draw = rng.random() * total if weighted else rng.randrange(total)
        cumulative = 0
        for pid in pids:
            size = len(buffers[pid]._items)
            if size:
                chosen = pid
                cumulative += size if weighted else 1
                if cumulative > draw:
                    break
        buffer = buffers[chosen]
        return chosen, buffer.take_at(rng.randrange(len(buffer._items)))


class FifoScheduler(Scheduler):
    """Deterministic round-robin + oldest-first delivery (for tests).

    Cycles through process ids; each visited process with mail receives its
    oldest buffered envelope.  With a fixed seed-free protocol this yields
    bit-identical executions, which the unit tests rely on.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        alive_set = _alive_set(alive)
        # Ascending ids with mail; pick the first at/after the cursor,
        # wrapping — identical to the historical modular scan but O(live)
        # instead of O(n).
        candidates = [
            pid for pid in system.processes_with_mail() if pid in alive_set
        ]
        if not candidates:
            return None
        cursor = self._cursor
        chosen = candidates[0]
        for pid in candidates:
            if pid >= cursor:
                chosen = pid
                break
        self._cursor = (chosen + 1) % system.n
        return chosen, system._buffers[chosen].take_oldest()


class ExponentialDelayScheduler(Scheduler):
    """Virtual-time delivery: every message gets an exponential delay.

    The paper's model has no clocks — only arbitrary finite delays.  The
    standard way to *measure* such executions (common throughout the
    asynchronous-rounds literature) is to charge each message an
    independent Exp(mean_delay) transit time and deliver in timestamp
    order.  This scheduler keeps a virtual clock (:attr:`now`) so runs
    can be reported in time units rather than steps: e.g. "expected
    phases is constant" becomes "expected time is a constant multiple of
    the mean message delay".

    Delays are assigned lazily the first time an envelope is considered;
    by memorylessness of the exponential this is equivalent to stamping
    at send time, and it spares the scheduler any coupling to the kernel
    send path.  Newly observed envelopes are collected through the send
    hook and stamped in the historical scan order (recipient ascending,
    buffer order), so the RNG stream matches the pre-heap implementation
    draw for draw.

    Delivery order is resolved by a min-heap of (deadline, seq) with
    lazy invalidation: entries whose envelope has already left its
    buffer are discarded when they surface; entries whose recipient is
    currently not schedulable are deferred and re-pushed.  Per-step cost
    is O(log m) plus the stamping of new arrivals, replacing the former
    full scan over every pending envelope.

    Every view of a phase still has positive probability (delays are
    independent and unbounded-support), so the paper's probabilistic
    assumption holds here too — this is a *refinement* of the uniform
    scheduler, not a departure from the model.
    """

    def __init__(self, mean_delay: float = 1.0) -> None:
        if mean_delay <= 0:
            raise ConfigurationError(
                f"mean_delay must be positive, got {mean_delay}"
            )
        self.mean_delay = mean_delay
        self.now = 0.0
        self._deadlines: dict[int, float] = {}
        #: min-heap of (deadline, seq, pid, envelope); lazily invalidated.
        self._heap: list[tuple[float, int, int, Envelope]] = []
        #: envelopes seen by the send hook but not yet deadline-stamped,
        #: grouped by recipient in arrival order.
        self._unstamped: dict[int, list[Envelope]] = {}
        self._system: Optional[MessageSystem] = None

    def reset(self) -> None:
        self.now = 0.0
        self._deadlines.clear()
        self._heap.clear()
        self._unstamped.clear()
        self._system = None

    def attach(self, system: MessageSystem) -> None:
        self._system = system
        self._heap.clear()
        self._unstamped.clear()
        for pid, buffer in enumerate(system._buffers):
            for env in buffer.peek_all():
                self.on_put(pid, env)
        system.register_observer(self)

    def on_put(self, pid: int, envelope: Envelope) -> None:
        """Observer hook: queue the envelope for lazy deadline stamping."""
        deadline = self._deadlines.get(envelope.seq)
        if deadline is not None:
            # Re-inserted envelope that already carries a delay.
            heappush(self._heap, (deadline, envelope.seq, pid, envelope))
        else:
            queue = self._unstamped.get(pid)
            if queue is None:
                queue = self._unstamped[pid] = []
            queue.append(envelope)

    def on_removed(self, pid: int, envelope: Envelope) -> None:
        """Observer hook: no-op — stale heap entries are invalidated lazily.

        Removal through any path leaves the heap/queue entry behind; it
        is re-checked against the buffer (``index_of``) and discarded
        the next time it surfaces.
        """

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        if self._system is not system:
            self.attach(system)
        candidates = deliverable_pairs(system, alive)
        if not candidates:
            return None
        buffers = system._buffers
        deadlines = self._deadlines
        heap = self._heap
        unstamped = self._unstamped
        rate = 1.0 / self.mean_delay
        now = self.now
        # Stamp new arrivals for schedulable recipients, in recipient
        # order then arrival order — the exact historical draw order.
        for pid in candidates:
            queue = unstamped.get(pid)
            if not queue:
                continue
            buffer = buffers[pid]
            for env in queue:
                if env.seq in deadlines or buffer.index_of(env) is None:
                    continue
                deadline = now + rng.expovariate(rate)
                deadlines[env.seq] = deadline
                heappush(heap, (deadline, env.seq, pid, env))
            queue.clear()
        candidate_set = set(candidates)
        deferred: list[tuple[float, int, int, Envelope]] = []
        try:
            while heap:
                deadline, seq, pid, env = heap[0]
                position = buffers[pid].index_of(env)
                if position is None:
                    heappop(heap)  # envelope already delivered/dropped
                    continue
                if pid not in candidate_set:
                    deferred.append(heappop(heap))
                    continue
                heappop(heap)
                deadlines.pop(seq, None)
                self.now = max(self.now, deadline)
                return pid, buffers[pid].take_at(position)
        finally:
            for item in deferred:
                heappush(heap, item)
        return None


class FilteredRandomScheduler(Scheduler):
    """Uniform random delivery restricted to envelopes passing a predicate.

    The mutable ``predicate`` attribute takes an
    :class:`~repro.net.message.Envelope` and returns whether it may be
    delivered now.  Withholding messages indefinitely is a *legal*
    scheduler in the asynchronous model (delays are unbounded), which is
    exactly what the lower-bound scenarios need: Theorem 1's splice
    withholds every cross-group message, and Theorem 3's replay withholds
    the malicious overlap's pre-reset messages from the second group
    forever.

    Predicate results are cached incrementally: each envelope is
    classified once when it enters a buffer, and the whole cache is
    rebuilt when ``predicate`` is reassigned.  Swap predicates by
    assignment (as the lower-bound scenarios do); mutating hidden state
    *inside* an installed predicate is not observed.
    """

    def __init__(self, predicate) -> None:
        self._predicate = predicate
        self._system: Optional[MessageSystem] = None
        #: per-pid set of id(envelope) for pending envelopes that pass.
        self._passing: list[set[int]] = []

    @property
    def predicate(self):
        """The currently installed delivery predicate."""
        return self._predicate

    @predicate.setter
    def predicate(self, fn) -> None:
        self._predicate = fn
        if self._system is not None:
            self._rebuild(self._system)

    def reset(self) -> None:
        self._system = None
        self._passing = []

    def attach(self, system: MessageSystem) -> None:
        self._system = system
        self._rebuild(system)
        system.register_observer(self)

    def _rebuild(self, system: MessageSystem) -> None:
        predicate = self._predicate
        self._passing = [
            {id(env) for env in buffer.peek_all() if predicate(env)}
            for buffer in system._buffers
        ]

    def on_put(self, pid: int, envelope: Envelope) -> None:
        """Observer hook: classify the new envelope against the predicate."""
        if self._predicate(envelope):
            self._passing[pid].add(id(envelope))

    def on_removed(self, pid: int, envelope: Envelope) -> None:
        """Observer hook: forget a delivered/dropped envelope."""
        self._passing[pid].discard(id(envelope))

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        if self._system is not system:
            self.attach(system)
        candidates = deliverable_pairs(system, alive)
        if not candidates:
            return None
        passing = self._passing
        total = 0
        for pid in candidates:
            total += len(passing[pid])
        if not total:
            return None
        # Same RNG state transition as rng.choice(candidate_list).
        k = rng.randrange(total)
        buffers = system._buffers
        for pid in candidates:
            count = len(passing[pid])
            if k >= count:
                k -= count
                continue
            allowed = passing[pid]
            buffer = buffers[pid]
            for index, env in enumerate(buffer._items):
                if id(env) in allowed:
                    if k == 0:
                        return pid, buffer.take_at(index)
                    k -= 1
        raise AssertionError("filtered candidate counts out of sync")


class ScriptedScheduler(Scheduler):
    """Replays an explicit delivery script; for exact adversarial schedules.

    The script is a sequence of entries in either form:

    * ``(recipient, sender)`` — deliver to ``recipient`` the oldest
      buffered envelope from ``sender``;
    * ``(recipient, sender, rank)`` — deliver the ``rank``-th oldest
      instead (0 = oldest), which is what recorded schedules from
      :class:`ScheduleRecorder` use when the original run delivered
      out of FIFO order;
    * ``(recipient, None)`` or ``(recipient, None, 0)`` — a φ step by
      ``recipient`` (its receive returns no message).

    When the script is exhausted (or the next scripted delivery is
    impossible) the fallback scheduler takes over — or, with no
    fallback, the run goes quiescent.

    This is the tool for writing the paper's proof schedules as code:
    the Theorem 1 splice σ = σ₀·σ₁ and the equivocation attack on the
    echo-less variant are both expressed as scripts in the test suite,
    and the fuzzer's shrunk counterexamples replay through it
    bit-identically.  Each rank-0 lookup uses the buffer's per-sender
    index (:meth:`~repro.net.buffer.MessageBuffer.take_oldest_from`), so
    it is O(log m) instead of a full buffer scan.
    """

    def __init__(
        self,
        script: Sequence[tuple],
        fallback: Scheduler | None = None,
    ) -> None:
        self.script = list(script)
        self.fallback = fallback
        self._position = 0

    def reset(self) -> None:
        self._position = 0
        if self.fallback is not None:
            self.fallback.reset()

    def attach(self, system: MessageSystem) -> None:
        if self.fallback is not None:
            self.fallback.attach(system)

    @property
    def exhausted(self) -> bool:
        """True once every scripted delivery has been attempted."""
        return self._position >= len(self.script)

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        alive_set = _alive_set(alive)
        while self._position < len(self.script):
            entry = self.script[self._position]
            self._position += 1
            if len(entry) == 3:
                recipient, sender, rank = entry
            else:
                recipient, sender = entry
                rank = 0
            if recipient not in alive_set:
                continue
            if sender is None:
                return recipient, None
            envelope = system._buffers[recipient].take_nth_oldest_from(
                sender, rank
            )
            if envelope is None:
                continue
            return recipient, envelope
        if self.fallback is not None:
            return self.fallback.choose(system, alive, rng)
        return None


class ScheduleRecorder(Scheduler):
    """Wraps a scheduler and records every decision for exact replay.

    Each decision of the inner scheduler is appended to :attr:`recorded`
    as a ``(recipient, sender, rank)`` triple — ``sender is None`` for a
    φ step; otherwise ``rank`` counts how many *older* envelopes from
    the same transport sender were still buffered when this one was
    delivered.  Feeding :attr:`recorded` to a :class:`ScriptedScheduler`
    re-delivers exactly the same envelopes in the same order, so the
    replayed run is bit-identical for any protocol whose steps are a
    deterministic function of its deliveries.

    The kernel surfaces :attr:`recorded` as ``RunResult.schedule`` when
    the run's scheduler carries one, which is how the fuzzer captures a
    violating run's schedule for shrinking.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.recorded: list[tuple[int, Optional[int], int]] = []

    def reset(self) -> None:
        self.recorded = []
        self.inner.reset()

    def attach(self, system: MessageSystem) -> None:
        self.inner.attach(system)

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        decision = self.inner.choose(system, alive, rng)
        if decision is None:
            return None
        pid, envelope = decision
        if envelope is None:
            self.recorded.append((pid, None, 0))
        else:
            rank = system._buffers[pid].count_older_from(
                envelope.sender, envelope.seq
            )
            self.recorded.append((pid, envelope.sender, rank))
        return decision


def _value_class(payload) -> int:
    """Classify a payload for the balancing adversary: 0, 1, or neutral(2)."""
    value = getattr(payload, "value", None)
    if value in (0, 1):
        return 1 if value == 1 else 0
    return 2


class BalancingDelayScheduler(Scheduler):
    """Adversarial network: keeps each recipient's 0/1 intake balanced.

    For every candidate delivery the scheduler inspects the payload's
    ``value`` attribute (protocol messages in this library all carry one;
    payloads without it are treated as neutral).  It prefers to deliver,
    to each recipient, the value that recipient has so far received
    *less* of — pushing every view toward an even split, which is the
    slowest-converging direction for majority-style protocols (Section 4).

    Implementation: because an envelope's score depends only on its
    recipient and its value class, the scheduler keeps per-recipient
    pending counts per class (maintained through the send hook) plus the
    per-recipient delivered 0/1 tallies.  Each step computes the best
    score over at most 3 classes per live recipient, draws the winning
    candidate index count-first, and scans a single buffer to
    materialise it — O(n + one partial buffer scan) per step versus the
    former scan over every pending envelope, with an unchanged RNG
    stream.

    This scheduler is a *stressor*, not part of the model: the paper's
    probabilistic assumption excludes adversaries with total scheduling
    power.  Benchmarks use it to show the protocols still terminate in
    practice because the adversary cannot manufacture balanced views once
    the population itself is lopsided.
    """

    def __init__(self) -> None:
        #: per-recipient delivered tallies [count of 0s, count of 1s].
        self._delivered: dict[int, list[int]] = {}
        #: per-recipient pending counts [zeros, ones, neutral].
        self._pending: list[list[int]] = []
        self._system: Optional[MessageSystem] = None

    def reset(self) -> None:
        self._delivered.clear()
        self._pending = []
        self._system = None

    def attach(self, system: MessageSystem) -> None:
        self._system = system
        pending = [[0, 0, 0] for _ in range(system.n)]
        for pid, buffer in enumerate(system._buffers):
            row = pending[pid]
            for env in buffer.peek_all():
                row[_value_class(env.payload)] += 1
        self._pending = pending
        system.register_observer(self)

    def on_put(self, pid: int, envelope: Envelope) -> None:
        """Observer hook: count the new envelope's value class as pending."""
        self._pending[pid][_value_class(envelope.payload)] += 1

    def on_removed(self, pid: int, envelope: Envelope) -> None:
        """Observer hook: uncount a delivered/dropped envelope."""
        self._pending[pid][_value_class(envelope.payload)] -= 1

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        if self._system is not system:
            self.attach(system)
        candidates = deliverable_pairs(system, alive)
        if not candidates:
            return None
        delivered = self._delivered
        pending = self._pending
        # The score of a pending envelope is the recipient's deficit of
        # its value: counts[1-v] - counts[v]; neutral payloads score 0.
        # With d = delivered_ones - delivered_zeros that is d for class
        # 0, -d for class 1, and 0 for neutral — so the global best and
        # the tie count come from at most 3 classes per live recipient.
        best: Optional[int] = None
        total = 0
        for pid in candidates:
            tallies = delivered.get(pid)
            d = tallies[1] - tallies[0] if tallies else 0
            row = pending[pid]
            for cls, score in ((0, d), (1, -d), (2, 0)):
                count = row[cls]
                if not count:
                    continue
                if best is None or score > best:
                    best = score
                    total = count
                elif score == best:
                    total += count
        if not total:
            return None
        # Same RNG state transition as rng.choice(tied_candidates).
        k = rng.randrange(total)
        buffers = system._buffers
        for pid in candidates:
            tallies = delivered.get(pid)
            d = tallies[1] - tallies[0] if tallies else 0
            row = pending[pid]
            subtotal = (
                (row[0] if d == best else 0)
                + (row[1] if -d == best else 0)
                + (row[2] if 0 == best else 0)
            )
            if k >= subtotal:
                k -= subtotal
                continue
            wanted = (d == best, -d == best, 0 == best)
            buffer = buffers[pid]
            for index, env in enumerate(buffer._items):
                if wanted[_value_class(env.payload)]:
                    if k == 0:
                        envelope = buffer.take_at(index)
                        value = getattr(envelope.payload, "value", None)
                        if value in (0, 1):
                            if tallies is None:
                                tallies = delivered[pid] = [0, 0]
                            tallies[1 if value == 1 else 0] += 1
                        return pid, envelope
                    k -= 1
        raise AssertionError("balancing candidate counts out of sync")
