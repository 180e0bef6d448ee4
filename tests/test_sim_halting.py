"""When the step loop evaluates its halting predicate, and what it sees.

The two built-in predicates read only decision registers and
``crashed``/``exited`` flags, which change inside the owner's own step or
between ``run()`` calls; the loop evaluates them at ``run()`` entry and
after a step that changed one.  A caller's predicate is evaluated after
every step.  Either way a run must halt exactly where it always did.
"""

import pytest

from repro.harness.builders import (
    build_failstop_processes,
    build_malicious_processes,
)
from repro.net.schedulers import RandomScheduler
from repro.procs.base import Process, Send
from repro.sim.kernel import Simulation, all_correct_exited
from repro.sim.results import HaltReason

INPUTS_5 = [0, 1, 0, 1, 1]
INPUTS_7 = [0, 1, 0, 1, 1, 0, 1]

# (steps, halt_reason, decisions) per seed, recorded at commit 3a83047 —
# where the predicate ran after every step.
FIG1_DEFAULT = {
    1: (68, "goal_reached", (1, 1, 1, 1, 1)),
    2: (120, "goal_reached", (0, 0, 0, 0, 0)),
    3: (86, "goal_reached", (1, 1, 1, 1, 1)),
    4: (116, "goal_reached", (0, 0, 0, 0, 0)),
    5: (76, "goal_reached", (1, 1, 1, 1, 1)),
}
FIG1_EXITED_WITH_CRASH = {
    1: (64, "goal_reached", (1, None, 1, 1, 1)),
    2: (86, "goal_reached", (0, None, 0, 0, 0)),
    3: (58, "goal_reached", (1, None, 1, 1, 1)),
    4: (116, "goal_reached", (0, None, 0, 0, 0)),
    5: (59, "goal_reached", (1, None, 1, 1, 1)),
}
FIG2_WITH_CRASH = {
    1: (690, "goal_reached", (1, 1, None, 1, 1, 1, 1)),
    2: (962, "goal_reached", (1, 1, None, 1, 1, 1, 1)),
    3: (671, "goal_reached", (1, 1, None, 1, 1, 1, 1)),
    4: (967, "goal_reached", (1, 1, None, 1, 1, 1, 1)),
    5: (931, "goal_reached", (1, 1, None, 1, 1, 1, 1)),
}


def _triple(result):
    return result.steps, result.halt_reason.value, result.decisions


class TestBuiltInPredicatesHaltWhereTheyDid:
    @pytest.mark.parametrize("seed", sorted(FIG1_DEFAULT))
    def test_fig1_processes_exit(self, seed):
        sim = Simulation(
            build_failstop_processes(5, 2, INPUTS_5), RandomScheduler(), seed=seed
        )
        assert _triple(sim.run(max_steps=200_000)) == FIG1_DEFAULT[seed]

    @pytest.mark.parametrize("seed", sorted(FIG1_EXITED_WITH_CRASH))
    def test_fig1_all_correct_exited_with_a_crash(self, seed):
        processes = build_failstop_processes(
            5, 2, INPUTS_5, crashes={1: {"crash_at_step": 4, "keep_sends": 2}}
        )
        sim = Simulation(
            processes, RandomScheduler(), seed=seed, halt_when=all_correct_exited
        )
        result = sim.run(max_steps=200_000)
        assert _triple(result) == FIG1_EXITED_WITH_CRASH[seed]
        assert result.crashed_pids == {1}

    @pytest.mark.parametrize("seed", sorted(FIG2_WITH_CRASH))
    def test_fig2_with_a_crashable_victim(self, seed):
        processes = build_malicious_processes(
            7, 2, INPUTS_7, crashes={2: {"crash_at_phase": 1}}
        )
        sim = Simulation(processes, RandomScheduler(), seed=seed)
        result = sim.run(max_steps=500_000)
        assert _triple(result) == FIG2_WITH_CRASH[seed]
        assert result.crashed_pids == {2}


class Chatter(Process):
    """Never decides, never stops sending."""

    def start(self):
        return [Send((self.pid + 1) % self.n, "x")]

    def step(self, envelope):
        return [Send((self.pid + 1) % self.n, "x")] if envelope else []


class TestCallerPredicate:
    def test_evaluated_at_entry_and_after_every_step(self):
        calls = []
        sim = Simulation(
            [Chatter(pid, 3) for pid in range(3)],
            seed=0,
            halt_when=lambda sim: calls.append(sim.steps) or False,
        )
        result = sim.run(max_steps=50)
        assert result.halt_reason is HaltReason.MAX_STEPS
        # Three start steps, one evaluation at entry, then one per step
        # taken in the loop.
        assert result.steps == 50
        assert calls == list(range(3, 51))

    def test_stops_a_run_in_which_nobody_decides(self):
        sim = Simulation([Chatter(pid, 3) for pid in range(3)], seed=0)
        result = sim.run(halt_when=lambda sim: sim.steps >= 40)
        assert result.halt_reason is HaltReason.GOAL_REACHED
        assert result.steps == 40
        assert result.decisions == (None, None, None)


class TestStatusChangedBetweenRuns:
    """``run`` is resumable, and its entry is where the outside world's
    changes to a process's status are picked up."""

    def test_crash_between_runs_is_seen(self):
        sim = Simulation(
            build_failstop_processes(5, 2, INPUTS_5), RandomScheduler(), seed=3
        )
        assert sim.run(max_steps=8).halt_reason is HaltReason.MAX_STEPS
        sim.processes[0].crashed = True
        result = sim.run(max_steps=2000)
        assert result.halt_reason is HaltReason.GOAL_REACHED
        assert result.decisions[0] is None
        assert result.crashed_pids == {0}
        assert all(value is not None for value in result.decisions[1:])
        result.check_agreement()

    def test_exit_between_runs_is_seen(self):
        sim = Simulation(
            build_failstop_processes(5, 2, INPUTS_5), RandomScheduler(), seed=3
        )
        sim.run(max_steps=8)
        steps_taken = sim.processes[0].steps_taken
        sim.processes[0].exited = True
        result = sim.run(max_steps=2000, halt_when=all_correct_exited)
        assert result.halt_reason is HaltReason.GOAL_REACHED
        assert sim.processes[0].steps_taken == steps_taken
        assert all(proc.exited for proc in sim.processes)
