"""Bounded exhaustive schedule exploration (Lemma 2 made executable).

Lemma 2 asserts every k-resilient protocol (k ≥ 1) has a *bivalent*
initial configuration — one from which schedules exist deciding 0 and
schedules exist deciding 1.  For a concrete protocol and a concrete
initial configuration this is a reachability question, and for small
instances it can be settled *exhaustively*: enumerate every delivery
order the asynchronous message system allows and record every decision
that appears.

The explorer walks the configuration graph breadth-first by default
(empirically the most even way to certify both decision values; the
``order`` argument switches to depth-first or seeded-random frontier
orders for instances where one value hides deep):

* a configuration is (every process's protocol state, the multiset of
  undelivered messages);
* its successors deliver each distinct pending (sender, payload) to its
  recipient — exactly the scheduler's nondeterminism (φ steps are
  skipped: every protocol here treats them as no-ops, so they never
  change reachability);
* configurations are canonicalised via each protocol's ``state_key()``
  plus the pending multiset, so schedule interleavings that converge are
  explored once.

The search is bounded by a phase cap and a configuration budget; within
the bound the reported *reachable* decisions are exact (reachability
certificates), while exhaustiveness claims (e.g. "0 is never decided")
hold only if the search completed without truncation.
"""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.procs.base import Process

#: A pending-message multiset: (sender, recipient, payload) → count.
PendingCounter = Counter


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of an exhaustive schedule exploration.

    Attributes:
        decision_values: every value some correct process decides in some
            reachable configuration (a reachability certificate per value).
        terminal_decision_vectors: per-process decision tuples observed at
            halting configurations (all-correct-decided or quiescent).
        configurations_explored: distinct canonical configurations visited.
        truncated: True if the phase cap or configuration budget pruned
            the search; reachable values remain valid, absence claims
            become lower bounds only.
    """

    decision_values: frozenset[int]
    terminal_decision_vectors: frozenset[tuple]
    configurations_explored: int
    truncated: bool

    @property
    def bivalent(self) -> bool:
        """Both decisions certified reachable from the initial configuration."""
        return {0, 1} <= set(self.decision_values)

    @property
    def univalent(self) -> bool:
        """Exactly one decision observed (exact only if not truncated)."""
        return len(self.decision_values) == 1


def _state_key(process: Process):
    key_fn = getattr(process, "state_key", None)
    if key_fn is None:
        raise ConfigurationError(
            f"{type(process).__name__} does not implement state_key(); "
            "the exhaustive explorer needs hashable protocol snapshots"
        )
    return (
        key_fn(),
        process.crashed,
        process.exited,
        process.decision.get(),
    )


def explore_all_schedules(
    factory: Callable[[], Sequence[Process]],
    max_phase: int = 4,
    max_configurations: int = 200_000,
    stop_when_bivalent: bool = True,
    order: str = "bfs",
    seed: int = 0,
) -> ExplorationResult:
    """Exhaustively explore all delivery schedules of a small instance.

    Args:
        factory: builds a fresh pid-ordered process list (the initial
            configuration) on each call.
        max_phase: configurations where any process's phase exceeds this
            are not expanded (the protocols are infinite-horizon; the
            interesting decisions happen in the first few phases).
        max_configurations: hard budget on distinct configurations.
        stop_when_bivalent: return as soon as both decisions have been
            certified (the usual Lemma 2 question); set False to map the
            whole bounded graph, e.g. to *refute* reachability of a value
            within the bound.
        order: frontier discipline — ``"bfs"`` (default), ``"dfs"``, or
            ``"random"`` (seeded random frontier pops).
        seed: RNG seed for ``order="random"``.
    """
    if order not in ("bfs", "dfs", "random"):
        raise ConfigurationError(f"unknown order {order!r}")
    rng = random.Random(seed)
    initial = list(factory())
    pending: PendingCounter = Counter()
    for process in initial:
        if not process.alive:
            continue
        for send in process.start():
            pending[(process.pid, send.recipient, send.payload)] += 1

    decision_values: set[int] = set()
    terminals: set[tuple] = set()
    visited: set = set()
    truncated = False

    def canonical(processes: Sequence[Process], msgs: PendingCounter):
        return (
            tuple(_state_key(p) for p in processes),
            frozenset(msgs.items()),
        )

    def note_decisions(processes: Sequence[Process]) -> None:
        for process in processes:
            if process.is_correct and process.decided:
                decision_values.add(process.decision.value)

    note_decisions(initial)
    frontier: deque = deque()
    start_key = canonical(initial, pending)
    visited.add(start_key)
    frontier.append((initial, pending))

    while frontier:
        if len(visited) >= max_configurations:
            truncated = True
            break
        if stop_when_bivalent and {0, 1} <= decision_values:
            truncated = True  # search stopped early: absence claims void
            break
        if order == "bfs":
            processes, msgs = frontier.popleft()
        elif order == "dfs":
            processes, msgs = frontier.pop()
        else:
            index = rng.randrange(len(frontier))
            frontier[index], frontier[-1] = frontier[-1], frontier[index]
            processes, msgs = frontier.pop()
        if all(p.decided for p in processes if p.is_correct and not p.crashed):
            terminals.add(tuple(p.decision.get() for p in processes))
            continue
        if any(
            (p.phaseno or 0) > max_phase
            for p in processes
            if p.is_correct
        ):
            truncated = True
            continue
        moves = [
            (sender, recipient, payload)
            for (sender, recipient, payload) in msgs
            if processes[recipient].alive
        ]
        if not moves:
            terminals.add(tuple(p.decision.get() for p in processes))
            continue
        try:
            # Pickle round-trips clone several times faster than deepcopy
            # and every protocol state in this library is picklable; fall
            # back for exotic user-supplied processes.
            frozen = pickle.dumps(processes, pickle.HIGHEST_PROTOCOL)

            def thaw():
                return pickle.loads(frozen)

        except Exception:  # pragma: no cover - fallback path

            def thaw():
                return copy.deepcopy(processes)

        for sender, recipient, payload in moves:
            next_processes = thaw()
            next_msgs = msgs.copy()
            next_msgs[(sender, recipient, payload)] -= 1
            if next_msgs[(sender, recipient, payload)] == 0:
                del next_msgs[(sender, recipient, payload)]
            stepped = next_processes[recipient]
            envelope = Envelope(
                sender=sender, recipient=recipient, payload=payload, seq=0
            )
            for send in stepped.step(envelope):
                next_msgs[(stepped.pid, send.recipient, send.payload)] += 1
            note_decisions(next_processes)
            key = canonical(next_processes, next_msgs)
            if key in visited:
                continue
            visited.add(key)
            frontier.append((next_processes, next_msgs))

    return ExplorationResult(
        decision_values=frozenset(decision_values),
        terminal_decision_vectors=frozenset(terminals),
        configurations_explored=len(visited),
        truncated=truncated,
    )


def reachable_decision_values(
    factory: Callable[[], Sequence[Process]],
    max_phase: int = 4,
    max_configurations: int = 200_000,
) -> frozenset[int]:
    """Shorthand: the set of decisions certified reachable."""
    return explore_all_schedules(
        factory, max_phase=max_phase, max_configurations=max_configurations
    ).decision_values
