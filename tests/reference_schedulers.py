"""Pre-optimisation scheduler implementations, preserved verbatim.

These are the straightforward O(pending)-scan schedulers the library
shipped before the indexed message system landed.  They exist for the
**golden-trace equivalence tests**: the optimised schedulers in
:mod:`repro.net.schedulers` promise a bit-identical replay — the same
(processes, scheduler, seed) triple must produce the same execution,
draw for draw — and the tests run both implementations and compare full
:class:`~repro.sim.kernel.RunResult` values.  (They were also the perf
baseline of a legacy bench script, deleted with the rest of that stack;
``benchmarks/suite/`` measures the optimised core on its own.)

They are deliberately self-contained: the local :func:`_deliverable_pairs`
reproduces the old full-scan helper so the baseline keeps the old cost
model even though :class:`~repro.net.system.MessageSystem` is now
incremental.  Do not "fix" or optimise anything here — changed behaviour
invalidates the equivalence guarantee these exist to check.  The module
lives under ``tests/`` because only those tests import it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.schedulers import Decision, Scheduler
from repro.net.system import MessageSystem


def _deliverable_pairs(system: MessageSystem, alive: Iterable[int]) -> list[int]:
    """The pre-indexing helper: full scan over all n buffers."""
    alive_set = set(alive)
    with_mail = [pid for pid in range(system.n) if system.buffers[pid]]
    return [pid for pid in with_mail if pid in alive_set]


class ReferenceRandomScheduler(Scheduler):
    """Verbatim pre-optimisation :class:`~repro.net.schedulers.RandomScheduler`."""

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
        alive = list(alive)
        candidates = _deliverable_pairs(system, alive)
        if not candidates:
            return None
        if self.phi_probability and rng.random() < self.phi_probability:
            return rng.choice(alive), None
        if self.weight_by_buffer:
            weights = [len(system.buffers[pid]) for pid in candidates]
            pid = rng.choices(candidates, weights=weights, k=1)[0]
        else:
            pid = rng.choice(candidates)
        return pid, system.take(pid, rng.randrange(len(system.buffers[pid])))


class ReferenceFifoScheduler(Scheduler):
    """Verbatim pre-optimisation :class:`~repro.net.schedulers.FifoScheduler`."""

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        alive_set = set(alive)
        n = system.n
        for offset in range(n):
            pid = (self._cursor + offset) % n
            if pid in alive_set and system.buffers[pid]:
                self._cursor = (pid + 1) % n
                seqs = [env.seq for env in system.buffers[pid]]
                return pid, system.take(pid, seqs.index(min(seqs)))
        return None


class ReferencePartitionScheduler(Scheduler):
    """Verbatim old partition scheduler: the partition predicate's oracle.

    Includes the original's missing ``reset`` forwarding (the satellite
    bug): resetting this scheduler does *not* reset ``inner``.  Kept that
    way on purpose — this class documents the old behaviour.
    """

    def __init__(
        self, groups: Sequence[Iterable[int]], inner: Scheduler | None = None
    ) -> None:
        self.groups = [frozenset(group) for group in groups]
        if not self.groups:
            raise ConfigurationError("PartitionScheduler needs at least one group")
        self.active_index = 0
        self.inner = inner if inner is not None else ReferenceRandomScheduler()

    @property
    def active_group(self) -> frozenset[int]:
        """The group whose intra-group messages are currently deliverable."""
        return self.groups[self.active_index]

    def activate(self, index: int) -> None:
        """Make ``groups[index]`` the active group."""
        if not 0 <= index < len(self.groups):
            raise ConfigurationError(
                f"group index {index} out of range ({len(self.groups)} groups)"
            )
        self.active_index = index

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        group = self.active_group
        members = [pid for pid in alive if pid in group]
        candidates: list[tuple[int, int]] = []  # (pid, index into buffer)
        for pid in members:
            for index, env in enumerate(system.buffers[pid]):
                if env.sender in group:
                    candidates.append((pid, index))
        if not candidates:
            return None
        pid, index = rng.choice(candidates)
        return pid, system.take(pid, index)


class ReferenceExponentialDelayScheduler(Scheduler):
    """Verbatim pre-heap :class:`~repro.net.schedulers.ExponentialDelayScheduler`."""

    def __init__(self, mean_delay: float = 1.0) -> None:
        if mean_delay <= 0:
            raise ConfigurationError(
                f"mean_delay must be positive, got {mean_delay}"
            )
        self.mean_delay = mean_delay
        self.now = 0.0
        self._deadlines: dict[int, float] = {}

    def reset(self) -> None:
        self.now = 0.0
        self._deadlines.clear()

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        best: Optional[tuple[float, int, int]] = None  # (deadline, pid, index)
        for pid in _deliverable_pairs(system, alive):
            for index, env in enumerate(system.buffers[pid]):
                deadline = self._deadlines.get(env.seq)
                if deadline is None:
                    deadline = self.now + rng.expovariate(1.0 / self.mean_delay)
                    self._deadlines[env.seq] = deadline
                if best is None or deadline < best[0]:
                    best = (deadline, pid, index)
        if best is None:
            return None
        deadline, pid, index = best
        envelope = system.take(pid, index)
        self._deadlines.pop(envelope.seq, None)
        self.now = max(self.now, deadline)
        return pid, envelope


class ReferenceFilteredRandomScheduler(Scheduler):
    """Verbatim pre-optimisation :class:`~repro.net.schedulers.FilteredRandomScheduler`."""

    def __init__(self, predicate) -> None:
        self.predicate = predicate

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        candidates: list[tuple[int, int]] = []
        for pid in _deliverable_pairs(system, alive):
            for index, env in enumerate(system.buffers[pid]):
                if self.predicate(env):
                    candidates.append((pid, index))
        if not candidates:
            return None
        pid, index = rng.choice(candidates)
        return pid, system.take(pid, index)


class ReferenceScriptedScheduler(Scheduler):
    """Verbatim pre-optimisation :class:`~repro.net.schedulers.ScriptedScheduler`."""

    def __init__(
        self,
        script: Sequence[tuple[int, int]],
        fallback: Scheduler | None = None,
    ) -> None:
        self.script = list(script)
        self.fallback = fallback
        self._position = 0

    def reset(self) -> None:
        self._position = 0
        if self.fallback is not None:
            self.fallback.reset()

    @property
    def exhausted(self) -> bool:
        """True once every scripted delivery has been attempted."""
        return self._position >= len(self.script)

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        alive_set = set(alive)
        while self._position < len(self.script):
            recipient, sender = self.script[self._position]
            self._position += 1
            if recipient not in alive_set:
                continue
            matches = [
                (env.seq, index)
                for index, env in enumerate(system.buffers[recipient])
                if env.sender == sender
            ]
            if not matches:
                continue
            _, index = min(matches)
            return recipient, system.take(recipient, index)
        if self.fallback is not None:
            return self.fallback.choose(system, alive, rng)
        return None


class ReferenceBalancingDelayScheduler(Scheduler):
    """Verbatim pre-optimisation :class:`~repro.net.schedulers.BalancingDelayScheduler`."""

    def __init__(self) -> None:
        self._per_recipient_value_counts: dict[int, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    def reset(self) -> None:
        self._per_recipient_value_counts.clear()

    def choose(
        self, system: MessageSystem, alive: Iterable[int], rng: random.Random
    ) -> Decision:
        best: list[tuple[int, int]] = []
        best_score: float | None = None
        for pid in _deliverable_pairs(system, alive):
            counts = self._per_recipient_value_counts[pid]
            for index, env in enumerate(system.buffers[pid]):
                value = getattr(env.payload, "value", None)
                if value in (0, 1):
                    score = counts[1 - value] - counts[value]
                else:
                    score = 0
                if best_score is None or score > best_score:
                    best, best_score = [(pid, index)], score
                elif score == best_score:
                    best.append((pid, index))
        if not best:
            return None
        pid, index = rng.choice(best)
        envelope = system.take(pid, index)
        value = getattr(envelope.payload, "value", None)
        if value in (0, 1):
            self._per_recipient_value_counts[pid][value] += 1
        return pid, envelope
