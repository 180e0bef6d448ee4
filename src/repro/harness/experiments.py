"""The experiment registry: one function per paper artifact (E1–E11).

Each experiment function runs a (possibly quick-scaled) version of the
corresponding reproduction and returns an :class:`ExperimentReport` —
headers, rows, and notes — that the CLI prints and the benchmark modules
execute and assert on.  EXPERIMENTS.md records a full-scale transcript
of every report next to the paper's claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.failstop_chain import (
    PAPER_L_SQUARED,
    band_edge_state,
    chebyshev_w_bound_eq7,
    collapsed_chain,
    expected_phases_bound_eq13,
    failstop_chain,
    majority_adoption_probability,
)
from repro.analysis.malicious_chain import (
    expected_phases_bound_42,
    l_for_k,
    malicious_chain,
    one_step_absorption_estimate,
)
from repro.core.common import max_malicious_resilience
from repro.faults.byzantine import BalancingEchoByzantine
from repro.harness.builders import (
    ByzantineFactory,
    build_benor_processes,
    build_failstop_processes,
    build_malicious_processes,
    build_simple_majority_processes,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.tables import render_table
from repro.harness.workloads import (
    balanced_inputs,
    split_inputs,
    supermajority_inputs,
    unanimous_inputs,
)
from repro.lowerbounds.bivalence import classify_bivalence, ConstantProtocol
from repro.lowerbounds.model_checker import explore_all_schedules
from repro.lowerbounds.partition import (
    partition_arithmetic,
    theorem1_partition_scenario,
)
from repro.lowerbounds.replay import replay_arithmetic, theorem3_replay_scenario


@dataclass
class ExperimentReport:
    """A rendered experiment: identifier, table, and prose notes."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """The report as printable text."""
        parts = [
            render_table(
                self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
            )
        ]
        parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)


def _seed_range(base: int, count: int) -> range:
    return range(base, base + count)


# ---------------------------------------------------------------------- #
# E1 — Figure 1 / Theorem 2: the fail-stop protocol
# ---------------------------------------------------------------------- #


def e1_failstop_protocol(
    cells: Optional[Sequence[tuple[int, int]]] = None,
    runs: int = 20,
    crash_fraction: float = 1.0,
) -> ExperimentReport:
    """Phases-to-decision of Figure 1 across (n, k), with k crash victims.

    ``crash_fraction`` scales how many of the k tolerated deaths actually
    happen (1.0 = the maximum the bound permits).
    """
    if cells is None:
        cells = [(5, 2), (7, 3), (9, 4), (11, 5), (15, 7), (21, 10)]
    report = ExperimentReport(
        experiment_id="E1",
        title="Figure 1 fail-stop protocol: balanced inputs, k crash victims",
        headers=[
            "n", "k", "crashes", "runs", "agree",
            "phases(mean)", "phases(p75)", "phases(max)", "steps(mean)",
        ],
    )
    for n, k in cells:
        crashes = int(k * crash_fraction)
        victims = {
            pid: {"crash_at_step": 3 + pid, "keep_sends": pid % 3}
            for pid in range(crashes)
        }
        runs_result = ExperimentRunner(
            lambda seed, n=n, k=k, plan=victims: build_failstop_processes(
                n, k, balanced_inputs(n), crashes=plan
            ),
        ).run_many(_seed_range(1000 * n + k, runs))
        stats = runs_result.decision_phase_stats()
        report.rows.append(
            [
                n, k, crashes, runs_result.count,
                f"{runs_result.agreement_rate():.0%}",
                stats.mean, stats.p75, stats.maximum,
                runs_result.steps_stats().mean,
            ]
        )
    report.notes.append(
        "agreement must be 100% and phases flat/small in n (Theorem 2)."
    )
    return report


# ---------------------------------------------------------------------- #
# E2 — Figure 2 / Theorem 4: the malicious protocol
# ---------------------------------------------------------------------- #


def e2_malicious_protocol(
    cells: Optional[Sequence[tuple[int, int]]] = None,
    runs: int = 10,
    adversaries: Optional[dict[str, ByzantineFactory]] = None,
) -> ExperimentReport:
    """Figure 2 under each Byzantine strategy at full k."""
    if cells is None:
        cells = [(4, 1), (7, 2), (10, 3), (13, 4)]
    if adversaries is None:
        # Display name → strategy name in BYZANTINE_STRATEGIES.
        adversaries = {
            "silent": "silent",
            "balancing": "balancing_echo",
            "equivocating": "equivocating_echo",
        }
    report = ExperimentReport(
        experiment_id="E2",
        title="Figure 2 malicious protocol: balanced inputs, k Byzantine",
        headers=[
            "n", "k", "adversary", "runs", "agree",
            "phases(mean)", "phases(max)", "msgs(mean)",
        ],
    )
    for n, k in cells:
        for name, factory in adversaries.items():
            byzantine = {n - 1 - i: factory for i in range(k)}
            runs_result = ExperimentRunner(
                lambda seed, n=n, k=k, byz=byzantine: build_malicious_processes(
                    n, k, balanced_inputs(n), byzantine=byz
                ),
                max_steps=3_000_000,
            ).run_many(_seed_range(2000 * n + k, runs))
            stats = runs_result.decision_phase_stats()
            report.rows.append(
                [
                    n, k, name, runs_result.count,
                    f"{runs_result.agreement_rate():.0%}",
                    stats.mean, stats.maximum,
                    runs_result.messages_stats().mean,
                ]
            )
    report.notes.append(
        "agreement must be 100% against every strategy at k = ⌊(n−1)/3⌋ "
        "(Theorem 4); the balancing adversary is §4's worst case."
    )
    return report


# ---------------------------------------------------------------------- #
# E3 — §4.1: the fail-stop Markov analysis
# ---------------------------------------------------------------------- #


def e3_markov_failstop(
    ns: Optional[Sequence[int]] = None,
    simulate_runs: int = 200,
) -> ExperimentReport:
    """Exact chain vs collapsed bound (13) vs chain Monte Carlo, per n."""
    if ns is None:
        ns = [12, 30, 60, 90]
    l = math.sqrt(PAPER_L_SQUARED)
    report = ExperimentReport(
        experiment_id="E3",
        title="§4.1 Markov chain (k=n/3): expected phases from the balanced state",
        headers=[
            "n", "E[exact]", "E[exact,tie→0]", "E[chain MC]", "E[lockstep]",
            "collapsed R", "bound (13)", "w(band edge)", "Chebyshev (7)",
        ],
    )
    from repro.sim.lockstep import LockstepMajoritySimulator

    for n in ns:
        chain = failstop_chain(n)
        exact = chain.expected_absorption_times()[n // 2]
        chain_zero = failstop_chain(n, tie_break="zero")
        exact_zero = chain_zero.expected_absorption_times()[n // 2]
        mc = chain.mean_simulated_absorption_time(n // 2, simulate_runs, seed=n)
        lockstep = LockstepMajoritySimulator(n, n // 3).mean_phases(
            n // 2, runs=simulate_runs, seed=n
        )
        collapsed = collapsed_chain(n).expected_absorption_times()[0]
        bound = expected_phases_bound_eq13(n)
        edge = max(0, band_edge_state(n))
        w_edge = majority_adoption_probability(n, n // 3, edge)
        report.rows.append(
            [n, exact, exact_zero, mc, lockstep, collapsed, bound,
             w_edge, chebyshev_w_bound_eq7()]
        )
    report.notes.append(
        "the paper's headline: bound (13) < 7 for l² = 1.5, independent of "
        "n; the exact expectation sits far below it and is ~constant in n."
    )
    report.notes.append(
        "w(band edge) must respect the Chebyshev bound (7): w < 1/(2l²) = 1/3."
    )
    return report


# ---------------------------------------------------------------------- #
# E4 — §4.2: the malicious Markov analysis
# ---------------------------------------------------------------------- #


def e4_markov_malicious(
    cells: Optional[Sequence[tuple[int, int]]] = None,
) -> ExperimentReport:
    """Expected absorption vs l = 2k/√n; the 1/(2Φ(l)) law."""
    if cells is None:
        cells = [(60, 4), (60, 6), (100, 6), (100, 10), (200, 10), (200, 14), (500, 22)]
    report = ExperimentReport(
        experiment_id="E4",
        title="§4.2 malicious chain: balancing adversary, k = l√n/2",
        headers=[
            "n", "k", "l", "E[paper chain]", "E[mechanistic]", "E[lockstep]",
            "P[absorb|1 step]", "2Φ(l) est.", "bound 1/(2Φ(l))",
        ],
    )
    from repro.sim.lockstep import LockstepMajoritySimulator

    for n, k in cells:
        if (n - k) % 2 or n % 2:
            continue
        chain = malicious_chain(n, k, model="paper")
        mech = malicious_chain(n, k, model="mechanistic")
        balanced = (n - k) // 2
        lockstep = LockstepMajoritySimulator(
            n, k, faulty=k, adversary="balancing"
        ).mean_phases(balanced, runs=120, seed=n + k)
        report.rows.append(
            [
                n, k, l_for_k(n, k),
                chain.expected_absorption_times()[balanced],
                mech.expected_absorption_times()[balanced],
                lockstep,
                chain.one_step_absorption_probability(balanced),
                one_step_absorption_estimate(n, k),
                expected_phases_bound_42(l_for_k(n, k)),
            ]
        )
    report.notes.append(
        "for fixed l the expectation is ~constant in n and approaches the "
        "1/(2Φ(l)) law from above as the normal approximation sharpens; "
        "k = o(√n) ⇒ l → 0 ⇒ constant expected time (§4.2's conclusion)."
    )
    report.notes.append(
        "E[lockstep] Monte-Carlos the §4 abstraction itself (one-sided "
        "mechanistic adversary); it matches E[mechanistic] to sampling "
        "error — chain, closed form, and simulation tell one story."
    )
    return report


# ---------------------------------------------------------------------- #
# E5/E6 — Theorems 1 and 3, executed
# ---------------------------------------------------------------------- #


def e5_failstop_lowerbound(n: int = 8) -> ExperimentReport:
    """The Theorem 1 partition/splice schedule in its three regimes."""
    report = ExperimentReport(
        experiment_id="E5",
        title="Theorem 1: partition schedule σ = σ₀·σ₁",
        headers=["protocol", "k", "regime", "outcome"],
    )
    over = (n + 1) // 2
    bound = (n - 1) // 2
    for protocol, k in (("naive", over), ("naive", bound), ("fig1", over)):
        # The livelock regimes only need a few phases to be evident; a
        # tight stage budget keeps the demonstrations snappy.
        outcome = theorem1_partition_scenario(
            n, k=k, protocol=protocol, stage_steps=6_000
        )
        regime = "k>bound" if outcome.exceeds_bound else "k=bound"
        if outcome.agreement_violated:
            what = "SPLIT (agreement violated)"
        elif outcome.deadlocked:
            what = "no decision (deadlock/livelock)"
        else:
            what = "consistent"
        report.rows.append([protocol, k, regime, what])
    arithmetic = partition_arithmetic(n, over)
    report.notes.append(
        f"arithmetic: half={arithmetic['half_size']}, view=n−k="
        f"{n - over}; a half can run alone iff k ≥ ⌈n/2⌉."
    )
    report.notes.append(
        "naive quorum splits past the bound; Figure 1's witness threshold "
        "converts the impossible case into non-termination; at the bound "
        "the partition deadlocks — Theorem 1's dichotomy."
    )
    return report


def e6_malicious_lowerbound(k: int = 2) -> ExperimentReport:
    """The Theorem 3 rewind-and-replay schedule across protocols."""
    report = ExperimentReport(
        experiment_id="E6",
        title="Theorem 3: malicious rewind/replay with n = 3k",
        headers=["protocol", "n", "k", "regime", "outcome"],
    )
    for protocol in ("naive", "simple", "echo"):
        outcome = theorem3_replay_scenario(
            k=k, protocol=protocol, stage_steps=6_000
        )
        regime = "k>bound" if outcome.exceeds_bound else "k=bound"
        if outcome.agreement_violated:
            what = "SPLIT (agreement violated)"
        elif outcome.deadlocked:
            what = "attack fizzled (stall)"
        else:
            what = "consistent"
        report.rows.append([protocol, outcome.n, k, regime, what])
    arithmetic = replay_arithmetic(3 * k, k)
    report.notes.append(
        f"arithmetic: two (n−k)-views overlap in ≥ {arithmetic['min_overlap_of_two_views']} "
        f"processes; the rewind needs the overlap ≤ k, i.e. n ≤ 3k."
    )
    report.notes.append(
        "the naive quorum splits; the (n+k)/2 thresholds of §4.1 and "
        "Figure 2 turn the attack into a stall — they are calibrated to "
        "exactly the Theorem 3 bound."
    )
    return report


# ---------------------------------------------------------------------- #
# E7 — Lemma 2: exhaustive bivalence certification
# ---------------------------------------------------------------------- #


def e7_bivalence_modelcheck(
    max_configurations: int = 60_000,
) -> ExperimentReport:
    """Exhaustive schedule exploration on tiny Figure 1 instances."""
    report = ExperimentReport(
        experiment_id="E7",
        title="Lemma 2: exhaustive exploration of Figure 1, n=3, k=1",
        headers=["inputs", "reachable decisions", "verdict", "configs", "truncated"],
    )
    cases = [
        ((0, 1, 1), "bivalent expected"),
        # One lone 1-holder: every 2-view containing the 1 is a tie, and
        # Figure 1 resolves ties to 0 — so this mixed configuration is
        # 0-univalent.  Lemma 2 promises *a* bivalent configuration, not
        # that every mixed one is.
        ((0, 0, 1), "univalent-0 expected (tie-break asymmetry)"),
        ((0, 0, 0), "univalent-0 expected"),
        ((1, 1, 1), "univalent-1 expected"),
    ]
    for inputs, expectation in cases:
        unanimous = len(set(inputs)) == 1
        result = explore_all_schedules(
            lambda inputs=inputs: build_failstop_processes(3, 1, inputs),
            max_phase=2 if unanimous else 4,
            max_configurations=max_configurations,
            stop_when_bivalent=not unanimous,
        )
        verdict = (
            "bivalent" if result.bivalent
            else f"univalent-{next(iter(result.decision_values))}"
            if result.decision_values else "no decisions found"
        )
        report.rows.append(
            ["".join(map(str, inputs)), sorted(result.decision_values),
             verdict, result.configurations_explored, result.truncated]
        )
    report.notes.append(
        "(0,1,1) is certified bivalent — the Lemma 2 configuration exists; "
        "unanimous configurations show only their input value within the "
        "explored bound (validity); and (0,0,1) is 0-univalent because a "
        "lone 1-holder loses every tie — the tie-break asymmetry of the "
        "protocol as printed."
    )
    return report


# ---------------------------------------------------------------------- #
# E8 — fast paths: the paper's phase-count promises
# ---------------------------------------------------------------------- #


def e8_fast_paths(runs: int = 20) -> ExperimentReport:
    """Unanimity / supermajority / k<n/5 decision-phase promises."""
    report = ExperimentReport(
        experiment_id="E8",
        title="Closing remarks of §2.3/§3.3: fast-path phase counts",
        headers=["claim", "protocol", "n", "k", "phases(max over runs)", "promise"],
    )
    # Figure 1, unanimous inputs: "within two steps" (phases).
    stats = ExperimentRunner(
        lambda seed: build_failstop_processes(9, 4, unanimous_inputs(9, 1))
    ).run_many(_seed_range(81, runs)).decision_phase_stats()
    report.rows.append(["unanimity", "Fig.1", 9, 4, stats.maximum, "≤ ~2–3"])
    # Figure 1, > (n+k)/2 supermajority: "in just three phases".
    stats = ExperimentRunner(
        lambda seed: build_failstop_processes(9, 4, supermajority_inputs(9, 4, 1))
    ).run_many(_seed_range(82, runs)).decision_phase_stats()
    report.rows.append(["supermajority", "Fig.1", 9, 4, stats.maximum, "≤ 3"])
    # Figure 2, unanimous: "within two phases".
    stats = ExperimentRunner(
        lambda seed: build_malicious_processes(7, 2, unanimous_inputs(7, 0)),
        max_steps=3_000_000,
    ).run_many(_seed_range(83, runs)).decision_phase_stats()
    report.rows.append(["unanimity", "Fig.2", 7, 2, stats.maximum, "≤ 2"])
    # Figure 2, supermajority: "in just two phases".
    stats = ExperimentRunner(
        lambda seed: build_malicious_processes(7, 2, supermajority_inputs(7, 2, 1)),
        max_steps=3_000_000,
    ).run_many(_seed_range(84, runs)).decision_phase_stats()
    report.rows.append(["supermajority", "Fig.2", 7, 2, stats.maximum, "≤ 2"])
    # Figure 2, k < n/5: decide spread ≤ 1 phase after the first decision.
    spreads = []
    runs_result = ExperimentRunner(
        lambda seed: build_malicious_processes(
            11, 2, balanced_inputs(11),
            byzantine={10: BalancingEchoByzantine, 9: BalancingEchoByzantine},
        ),
        max_steps=3_000_000,
    ).run_many(_seed_range(85, runs))
    for result in runs_result.results:
        phases = result.phases_to_decide()
        spreads.append(max(phases) - min(phases))
    report.rows.append(
        ["k<n/5 spread", "Fig.2", 11, 2, max(spreads), "≤ 1 phase after first"]
    )
    report.notes.append(
        "phase indices are 1-based at decision time (a decision in 'phase "
        "t' is recorded after t full phases of messages)."
    )
    return report


# ---------------------------------------------------------------------- #
# E9 — the [BenO83] comparison
# ---------------------------------------------------------------------- #


def e9_benor_comparison(
    ns: Optional[Sequence[int]] = None,
    runs: int = 15,
) -> ExperimentReport:
    """Ben-Or (protocol-internal coins) vs Figure 1 (system randomness)."""
    if ns is None:
        ns = [5, 9, 13, 17, 21]
    report = ExperimentReport(
        experiment_id="E9",
        title="§1/§6 comparison: Ben-Or rounds vs Bracha–Toueg phases "
              "(balanced inputs, no crashes)",
        headers=[
            "n", "BenOr E[rounds] (chain)", "BenOr rounds(mean)",
            "BenOr rounds(max)", "BenOr coins(mean)",
            "Fig.1 phases(mean)", "Fig.1 phases(max)",
        ],
    )
    from repro.analysis.benor_chain import expected_rounds_from_balanced

    for n in ns:
        t = (n - 1) // 2
        # Metrics stay on: the coin count is read from each run's snapshot.
        benor_runs = ExperimentRunner(
            lambda seed, n=n, t=t: build_benor_processes(
                n, t, balanced_inputs(n)
            ),
            max_steps=5_000_000,
            metrics=True,
        ).run_many(_seed_range(9000 + n, runs)).results
        benor_rounds = [max(run.phases_to_decide()) for run in benor_runs]
        benor_coins = [
            run.metrics.counters.get("benor.coin_flips", 0) for run in benor_runs
        ]
        failstop_stats = ExperimentRunner(
            lambda seed, n=n, t=t: build_failstop_processes(
                n, t, balanced_inputs(n)
            )
        ).run_many(_seed_range(9100 + n, runs)).decision_phase_stats()
        report.rows.append(
            [
                n,
                expected_rounds_from_balanced(n, t),
                sum(benor_rounds) / len(benor_rounds),
                max(benor_rounds),
                sum(benor_coins) / len(benor_coins),
                failstop_stats.mean,
                failstop_stats.maximum,
            ]
        )
    report.notes.append(
        "under fair (uniform) delivery both terminate quickly, but Ben-Or's "
        "round count grows with n from balanced starts (independent local "
        "coins must align) while Bracha–Toueg stays ~constant — the paper's "
        "§6 argument that system-level randomness 'provides a viable "
        "solution' where protocol-level coins are exponential in the worst "
        "case."
    )
    report.notes.append(
        "BenOr E[rounds] (chain) is the exact fundamental-matrix "
        "expectation of the Ben-Or Markov model (repro.analysis."
        "benor_chain) under §4's uniform-view assumption; the simulated "
        "means track it."
    )
    return report


# ---------------------------------------------------------------------- #
# E10 — §5: the bivalence taxonomy
# ---------------------------------------------------------------------- #


def _initially_dead_factory(dead: tuple[int, ...]):
    """Factory for the §5 footnote protocol in the initially-dead model."""
    from repro.baselines.initially_dead import (
        InitiallyDeadConsensus,
        InitiallyDeadProcess,
    )

    def build(seed: int):
        n = 5
        inputs = [1, 1, 1, 0, 0]
        processes = []
        for pid in range(n):
            if pid in dead:
                processes.append(InitiallyDeadProcess(pid, n, inputs[pid]))
            else:
                processes.append(InitiallyDeadConsensus(pid, n, inputs[pid]))
        return processes

    return build


def e10_bivalence_variants(runs: int = 30) -> ExperimentReport:
    """Strong / intermediate / weak bivalence, empirically classified."""
    report = ExperimentReport(
        experiment_id="E10",
        title="§5 bivalence interpretations",
        headers=[
            "protocol", "values (all correct)", "values (k faulty)",
            "strong", "intermediate", "weak",
        ],
    )
    seeds = list(range(runs))
    # A 4-of-7 split: the tie-break favours 0 and the majority favours
    # 1, so both decision values occur at practical Monte Carlo rates.
    cases = [
        (
            "Fig.1 (n=7,k=3)",
            lambda seed: build_failstop_processes(7, 3, split_inputs(7, 4)),
            lambda seed: build_failstop_processes(
                7, 3, split_inputs(7, 4),
                crashes={0: {"crash_at_step": 2}, 6: {"crash_at_step": 3}},
            ),
        ),
        (
            "Fig.2 (n=7,k=2)",
            lambda seed: build_malicious_processes(7, 2, split_inputs(7, 4)),
            lambda seed: build_malicious_processes(
                7, 2, split_inputs(7, 4),
                byzantine={6: BalancingEchoByzantine},
            ),
        ),
        (
            "Constant-0 (n=5)",
            lambda seed: [ConstantProtocol(pid, 5, seed % 2) for pid in range(5)],
            None,
        ),
        (
            "§5 footnote (n=5, any #dead)",
            _initially_dead_factory(dead=()),
            _initially_dead_factory(dead=(3, 4)),
        ),
    ]
    for name, correct_factory, faulty_factory in cases:
        outcome = classify_bivalence(correct_factory, faulty_factory, seeds)
        report.rows.append(
            [
                name,
                sorted(outcome.values_all_correct),
                sorted(outcome.values_with_faults),
                outcome.strong, outcome.intermediate, outcome.weak,
            ]
        )
    report.notes.append(
        "Figures 1 and 2 satisfy the strong interpretation (both values "
        "reachable with and without faults), as §5 states; the constant "
        "protocol fails all three — the excluded trivial case."
    )
    report.notes.append(
        "the §5 footnote protocol (implemented in "
        "repro.baselines.initially_dead from the four-sentence sketch) "
        "shows the intermediate-but-not-strong pattern: bivalent when all "
        "correct, pinned to 0 the moment any process is initially dead — "
        "while overcoming ANY number of such deaths."
    )
    return report


# ---------------------------------------------------------------------- #
# E11 — over-bound fault campaigns: Theorems 1 and 3, empirically
# ---------------------------------------------------------------------- #


def e11_overbound_violations(runs: int = 40) -> ExperimentReport:
    """Safety-oracle violations beyond the Theorem 1/3 resilience bounds.

    Each row is a fault campaign (:mod:`repro.check`) over ``runs``
    seeds.  The at-bound control rows — Figure 1 at k = ⌊(n−1)/2⌋ with
    mid-broadcast crashes, Figure 2 at k = ⌊(n−1)/3⌋ with live
    adversaries — must show zero violations.  The over-bound rows
    exhibit what the lower-bound theorems predict: the naive n−k quorum
    at k = ⌊n/2⌋ reaches contradictory unanimous views (Theorem 1's
    partition), and an equivocator splits the echo-less §4.1 variant at
    k = ⌊n/3⌋ (Theorem 3's regime — exactly the attack the echo round
    exists to stop).  Every violation is shrunk to a minimal schedule
    and re-verified by exact scripted replay.
    """
    from repro.check.campaign import run_campaign
    from repro.check.shrink import shrink
    from repro.faults.plans import ByzantineSpec, CrashSpec, FaultPlan

    def alternating(n: int) -> tuple:
        return tuple(pid % 2 for pid in range(n))

    def cell(protocol, n, k, scheduler="random", crashes=(), byzantine=()):
        return [
            FaultPlan(
                protocol=protocol, n=n, k=k, inputs=alternating(n),
                crashes=tuple(crashes), byzantine=tuple(byzantine),
                scheduler=scheduler, seed=seed,
            )
            for seed in range(runs)
        ]

    cells = [
        (
            "Fig.1 at-bound (k=(n-1)/2)", 7, 3,
            cell(
                "failstop", 7, 3,
                crashes=[
                    CrashSpec(pid=pid, crash_at_step=3 + pid, keep_sends=pid % 3)
                    for pid in range(3)
                ],
            ),
            False,
        ),
        (
            "Fig.2 at-bound (k=(n-1)/3)", 7, 2,
            cell(
                "malicious", 7, 2,
                byzantine=[
                    ByzantineSpec(pid=5, strategy="balancing_echo"),
                    ByzantineSpec(pid=6, strategy="equivocating_echo"),
                ],
            ),
            False,
        ),
        (
            "Thm 1: naive n-k quorum (k=n/2)", 8, 4,
            cell("naive", 8, 4, scheduler="random_unweighted"),
            True,
        ),
        (
            "Thm 1: naive n-k quorum (k=n/2)", 6, 3,
            cell("naive", 6, 3),
            True,
        ),
        (
            "Thm 3: §4.1 + equivocator (k=n/3)", 4, 1,
            cell(
                "simple", 4, 1,
                byzantine=[ByzantineSpec(pid=1, strategy="equivocating_simple")],
            ),
            True,
        ),
    ]
    report = ExperimentReport(
        experiment_id="E11",
        title="Fault campaigns across the resilience bounds (Theorems 1 and 3)",
        headers=[
            "regime", "n", "k", "plans", "violations",
            "oracles", "shrunk schedule", "replay",
        ],
    )
    for label, n, k, plans, expect_violations in cells:
        campaign = run_campaign(plans, max_steps=20_000)
        oracles = sorted({v.violation.oracle for v in campaign.violations})
        shrunk = "-"
        replay = "-"
        if campaign.violations:
            first = campaign.violations[0]
            first.reproduce(20_000)
            artifact = shrink(first.plan, max_steps=20_000)
            # shrink() verifies the exact scripted replay itself; it
            # raising would fail the experiment, so reaching this line
            # means the artifact reproduced bit-identically.
            shrunk = (
                f"{artifact.original_schedule_len}->{artifact.schedule_len}"
            )
            replay = "exact"
        report.rows.append(
            [
                label, n, k, campaign.plans, len(campaign.violations),
                ",".join(oracles) if oracles else "-", shrunk, replay,
            ]
        )
    report.notes.append(
        "at-bound rows must stay at zero violations; the over-bound rows "
        "make Theorems 1 and 3 empirical — the naive n-k quorum decides "
        "from two disjoint unanimous views, and a single equivocator "
        "splits the echo-less §4.1 variant at k = ⌊n/3⌋."
    )
    report.notes.append(
        "each first violation is delta-debugged to a minimal delivery "
        "schedule and replayed through ScriptedScheduler; 'exact' means "
        "the replay reproduced the identical violation (oracle, step, "
        "pid, description)."
    )
    return report


#: The registry the CLI iterates.
EXPERIMENTS: dict[str, Callable[[], ExperimentReport]] = {
    "e1": e1_failstop_protocol,
    "e2": e2_malicious_protocol,
    "e3": e3_markov_failstop,
    "e4": e4_markov_malicious,
    "e5": e5_failstop_lowerbound,
    "e6": e6_malicious_lowerbound,
    "e7": e7_bivalence_modelcheck,
    "e8": e8_fast_paths,
    "e9": e9_benor_comparison,
    "e10": e10_bivalence_variants,
    "e11": e11_overbound_violations,
}
