"""Golden-trace equivalence: optimised schedulers replay the originals.

The indexed schedulers in :mod:`repro.net.schedulers` promise that every
(processes, scheduler, seed) triple produces a bit-identical execution to
the pre-optimisation implementations preserved in
:mod:`repro.net.reference`.  These tests run both against the same
configurations and compare complete :class:`RunResult` values — decisions,
step counts, message counts, halt reasons — which pins down every RNG
draw and every delivery choice.
"""

from __future__ import annotations

import pytest

from repro.faults.byzantine import BalancingEchoByzantine
from repro.harness.builders import (
    build_failstop_processes,
    build_malicious_processes,
)
from repro.harness.workloads import balanced_inputs
from repro.net.reference import (
    ReferenceBalancingDelayScheduler,
    ReferenceExponentialDelayScheduler,
    ReferenceFifoScheduler,
    ReferenceFilteredRandomScheduler,
    ReferencePartitionScheduler,
    ReferenceRandomScheduler,
    ReferenceScriptedScheduler,
)
from repro.net.schedulers import (
    BalancingDelayScheduler,
    ExponentialDelayScheduler,
    FifoScheduler,
    FilteredRandomScheduler,
    RandomScheduler,
    ScriptedScheduler,
)
from repro.sim.kernel import Simulation

SEEDS = [11, 42, 1983]


def failstop_processes(n=7, k=3):
    return build_failstop_processes(
        n, k, balanced_inputs(n), crashes={0: {"crash_at_step": 3}}
    )


def malicious_processes(n=7, k=2):
    byzantine = {n - 1 - i: BalancingEchoByzantine for i in range(k)}
    return build_malicious_processes(
        n, k, balanced_inputs(n), byzantine=byzantine
    )


def run_both(build, new_scheduler, ref_scheduler, seed, max_steps=3_000_000):
    """Run the same config under both schedulers; return both results."""
    new_result = Simulation(build(), scheduler=new_scheduler, seed=seed).run(
        max_steps=max_steps
    )
    ref_result = Simulation(build(), scheduler=ref_scheduler, seed=seed).run(
        max_steps=max_steps
    )
    return new_result, ref_result


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomSchedulerEquivalence:
    def test_default_on_failstop(self, seed):
        new, ref = run_both(
            failstop_processes, RandomScheduler(), ReferenceRandomScheduler(), seed
        )
        assert new == ref

    def test_default_on_malicious(self, seed):
        new, ref = run_both(
            malicious_processes, RandomScheduler(), ReferenceRandomScheduler(), seed
        )
        assert new == ref

    def test_phi_steps(self, seed):
        new, ref = run_both(
            failstop_processes,
            RandomScheduler(phi_probability=0.2),
            ReferenceRandomScheduler(phi_probability=0.2),
            seed,
        )
        assert new == ref

    def test_unweighted(self, seed):
        new, ref = run_both(
            failstop_processes,
            RandomScheduler(weight_by_buffer=False),
            ReferenceRandomScheduler(weight_by_buffer=False),
            seed,
        )
        assert new == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_equivalence(seed):
    new, ref = run_both(
        failstop_processes, FifoScheduler(), ReferenceFifoScheduler(), seed
    )
    assert new == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_exponential_delay_equivalence(seed):
    new_scheduler = ExponentialDelayScheduler(mean_delay=2.0)
    ref_scheduler = ReferenceExponentialDelayScheduler(mean_delay=2.0)
    new, ref = run_both(malicious_processes, new_scheduler, ref_scheduler, seed)
    assert new == ref
    assert new_scheduler.now == ref_scheduler.now


@pytest.mark.parametrize("seed", SEEDS)
def test_balancing_delay_equivalence(seed):
    new, ref = run_both(
        malicious_processes,
        BalancingDelayScheduler(),
        ReferenceBalancingDelayScheduler(),
        seed,
        max_steps=40_000,
    )
    assert new == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_filtered_random_equivalence(seed):
    # A pure per-envelope predicate (what the optimised implementation
    # supports); withholds one sender's traffic entirely, so the run may
    # legitimately end undecided — equality of the partial runs is the
    # point, not termination.
    def build_pred():
        return lambda env: env.sender != 2

    new, ref = run_both(
        failstop_processes,
        FilteredRandomScheduler(build_pred()),
        ReferenceFilteredRandomScheduler(build_pred()),
        seed,
        max_steps=5_000,
    )
    assert new == ref


def within(group):
    """The partition predicate: deliver only inside ``group``."""
    return lambda env: env.sender in group and env.recipient in group


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_equivalence(seed):
    groups = [[0, 1, 2, 3], [3, 4, 5, 6]]
    new, ref = run_both(
        malicious_processes,
        FilteredRandomScheduler(within(set(groups[0]))),
        ReferencePartitionScheduler(groups),
        seed,
        max_steps=5_000,
    )
    assert new == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_equivalence_after_group_switch(seed):
    groups = [[0, 1, 2, 3], [3, 4, 5, 6]]

    def run(scheduler, switch):
        sim = Simulation(malicious_processes(), scheduler=scheduler, seed=seed)
        first = sim.run(max_steps=2_000)
        switch(scheduler)
        second = sim.run(max_steps=2_000)
        return first, second

    def reassign(scheduler):
        scheduler.predicate = within(set(groups[1]))

    new = run(FilteredRandomScheduler(within(set(groups[0]))), reassign)
    ref = run(ReferencePartitionScheduler(groups), lambda s: s.activate(1))
    assert new == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_scripted_equivalence(seed):
    script = [(1, 0), (2, 0), (0, 3), (4, 4), (1, 2)] * 3

    new, ref = run_both(
        lambda: build_failstop_processes(5, 1, balanced_inputs(5)),
        ScriptedScheduler(script, fallback=FifoScheduler()),
        ReferenceScriptedScheduler(script, fallback=ReferenceFifoScheduler()),
        seed,
    )
    assert new == ref
