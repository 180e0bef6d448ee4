"""The six workloads: inputs from a seed, a timed phase, an output check.

Every workload follows the same plan.  *Set-up* (building ensembles or
plans, starting the mesh, committing genesis, warming up) is repeated
and its median reported; the *measured phase* runs for the requested
number of seconds on the last set-up; the *check* compares what the
program produced with an oracle the suite keeps itself.  A traced run
replaces the set-up repetitions with an untraced reference slice and
then measures with the wrappers of :mod:`tracing` installed.

The suite drives the program only through its public surface:
``Simulation``, the ``build_*_processes`` builders, the schedulers,
``sample_plans``/``run_campaign``, ``ClusterSpec``, ``ChaosConfig``,
``SMRCluster``, ``SMRClient``/``Command`` and the codec frame functions.
"""

from __future__ import annotations

import asyncio
import math
import random
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

from repro.check.campaign import run_campaign, sample_plans
from repro.cluster.chaos import ChaosConfig
from repro.cluster.codec import DataFrame, FrameReader, encode_frame
from repro.cluster.driver import ClusterSpec
from repro.cluster.smr import SMRClient, SMRCluster
from repro.core.messages import EchoMessage, InitialMessage
from repro.errors import AgreementViolation
from repro.faults.byzantine import BalancingEchoByzantine
from repro.harness.builders import build_malicious_processes
from repro.net.message import Envelope
from repro.net.schedulers import RandomScheduler
from repro.sim.kernel import Simulation
from repro.sim.results import HaltReason, Outcome

import catalog
import tracing


@dataclass
class Run:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Exact counts compared with ``pins.json`` for the pinned seed.
    pins: dict = field(default_factory=dict)
    tracer: Optional[tracing.Tracer] = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass(frozen=True)
class Options:
    seed: int
    seconds: float
    trace: bool
    smoke: bool = False

    @property
    def setups(self) -> int:
        """Set-ups per untraced run; their median is reported."""
        return 1 if self.smoke else 3

    @property
    def warmup_scale(self) -> float:
        """Scale on every warm-up size."""
        return 0.1 if self.smoke else 1.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Trace bookkeeping shared by all workloads
# ---------------------------------------------------------------------- #


def codec_corpus_metrics(seed: int, envelopes: int = 10_000) -> dict:
    """Encode then decode a fixed-size initial/echo corpus, untraced:
    the codec in isolation, free of transport and event-loop effects."""
    rng = random.Random(seed)
    frames = []
    for index in range(envelopes):
        message = (InitialMessage if index % 7 == 0 else EchoMessage)(
            origin=rng.randrange(7), value=rng.randrange(2),
            phaseno=rng.randrange(6),
        )
        frames.append(
            DataFrame(
                link_seq=index,
                envelope=Envelope(
                    sender=rng.randrange(7), recipient=rng.randrange(7),
                    payload=message,
                ),
                instance=index // 40,
            )
        )
    start = perf_counter()
    encoded = [encode_frame(frame) for frame in frames]
    encode_s = perf_counter() - start
    reader = FrameReader()
    start = perf_counter()
    decoded = 0
    for data in encoded:
        reader.feed(data)
        for _ in reader.frames():
            decoded += 1
    decode_s = perf_counter() - start
    if decoded != envelopes:
        raise RuntimeError(f"codec corpus: decoded {decoded}/{envelopes}")
    return {
        "codec.encode_ns": encode_s / envelopes * 1e9,
        "codec.decode_ns": decode_s / envelopes * 1e9,
    }


def trace_metrics(
    tracer: tracing.Tracer,
    window_s: float,
    idle_s: float,
    reference_rate: float,
    traced_rate: float,
) -> dict:
    """The metrics every traced run derives from the span totals.

    Layer busy shares, the unattributed share and the idle share tile
    the traced window: they sum to 1 by construction, and a negative
    unattributed share would mean spans overlap (a wrapper bug).
    """
    window_ns = window_s * 1e9
    out = {}
    covered = 0.0
    for layer, self_ns in tracer.self_ns_by_layer().items():
        out[f"{layer}.busy_share"] = self_ns / window_ns
        covered += self_ns
    idle_share = idle_s / window_s
    out["loop.idle_share"] = idle_share
    out["loop.busy_share"] = 1.0 - idle_share
    out["trace.unattributed_share"] = 1.0 - idle_share - covered / window_ns
    out["trace.overhead_pct"] = (
        (reference_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0
    )
    out["net.schedulers.choose_ns"] = tracer.mean_ns("net.schedulers.choose")
    out["net.system.send_ns"] = tracer.mean_ns("net.system.send")
    out["core.malicious.step_ns"] = tracer.mean_ns("core.malicious.step")
    out["core.fail_stop.step_ns"] = tracer.mean_ns("core.fail_stop.step")
    out["check.oracles.observe_ns"] = tracer.mean_ns("check.oracles.on_step")
    return out


def kernel_metrics(tracer: tracing.Tracer, steps: int) -> dict:
    """Per-step kernel cost over ``steps`` traced atomic steps."""
    _, total, self_ns = tracer.cells.get("sim.kernel.run", (0, 0, 0))
    if not steps:
        return {}
    return {
        "sim.kernel.step_ns": total / steps,
        "sim.kernel.self_ns": self_ns / steps,
    }


# ---------------------------------------------------------------------- #
# sim_malicious_n10
# ---------------------------------------------------------------------- #

SIM_N, SIM_K = 10, 3
SIM_BYZANTINE = (7, 8, 9)
#: Steps per ``Simulation.run`` call: the clock is read between chunks,
#: and a chunk's wall time is the workload's latency sample.
SIM_CHUNK = 10_000
#: A run still undecided after this many steps counts as failed.
SIM_RUN_BUDGET = 3_000_000
SIM_WARMUP_STEPS = 20_000


class SimRuns:
    """Consecutive seeded Fig 2 runs, advanced one chunk at a time."""

    def __init__(self, seed: int, run: Run) -> None:
        self.rng = random.Random(seed)
        self.result = run
        self.sim: Optional[Simulation] = None
        self.steps = 0
        self.chunk_times: list = []
        self.run_steps: list = []
        self.run_messages: list = []
        self.run_phases: list = []

    def _open(self) -> Simulation:
        inputs = [0] * (SIM_N // 2) + [1] * (SIM_N - SIM_N // 2)
        self.rng.shuffle(inputs)
        processes = build_malicious_processes(
            SIM_N, SIM_K, inputs,
            byzantine={pid: BalancingEchoByzantine for pid in SIM_BYZANTINE},
        )
        return Simulation(
            processes, RandomScheduler(), seed=self.rng.randrange(2**31)
        )

    def advance(self) -> None:
        """Take up to one chunk of steps on the current run."""
        if self.sim is None:
            self.sim = self._open()
        sim = self.sim
        before = sim.steps
        start = perf_counter()
        result = sim.run(max_steps=SIM_CHUNK)
        took = perf_counter() - start
        stepped = sim.steps - before
        self.steps += stepped
        if stepped == SIM_CHUNK:
            self.chunk_times.append(took)
        if result.halt_reason is HaltReason.MAX_STEPS:
            if sim.steps < SIM_RUN_BUDGET:
                return
        self._close(result)

    def _close(self, result) -> None:
        """Judge a finished run: termination, agreement, validity."""
        run = self.result
        run.attempted += 1
        label = f"sim run {len(self.run_steps)}"
        if not result.all_correct_decided:
            run.fail(f"{label}: undecided ({result.halt_reason.value})")
        for check in (result.check_agreement, result.check_unanimous_validity):
            try:
                check()
            except AgreementViolation as exc:
                run.fail(f"{label}: {exc}")
        self.run_steps.append(result.steps)
        self.run_messages.append(result.messages_sent)
        self.run_phases.append(max(result.phases_to_decide(), default=0))
        self.sim = None

    def run_for(self, seconds: float, at_least_runs: int = 0) -> float:
        """Advance until ``seconds`` passed (and ``at_least_runs`` runs
        finished); returns the steps/s over that window."""
        steps_before = self.steps
        start = perf_counter()
        while True:
            self.advance()
            elapsed = perf_counter() - start
            if elapsed >= seconds and len(self.run_steps) >= at_least_runs:
                return (self.steps - steps_before) / elapsed


def _prepare_sim(opts: Options, run: Run) -> SimRuns:
    warm = SimRuns(opts.seed + 1, Run())
    while warm.steps < SIM_WARMUP_STEPS * opts.warmup_scale:
        warm.advance()
    return SimRuns(opts.seed, run)


def run_sim(opts: Options, import_s: float) -> Run:
    run = Run()
    if not opts.trace:
        setup_times = []
        for _ in range(opts.setups):
            start = perf_counter()
            runs = _prepare_sim(opts, run)
            setup_times.append(perf_counter() - start)
        rate = runs.run_for(opts.seconds, at_least_runs=1)
        run.metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput_per_s": rate,
            "latency_p50_ms": statistics.median(runs.chunk_times) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer = run.tracer = tracing.Tracer()
        metrics = codec_corpus_metrics(opts.seed)
        runs = _prepare_sim(opts, run)
        reference_rate = runs.run_for(opts.seconds * 0.25)
        installed = tracing.Installed(tracer)
        installed.install_wrappers()
        steps_before = runs.steps
        start = perf_counter()
        try:
            traced_rate = runs.run_for(opts.seconds * 0.75, at_least_runs=1)
        finally:
            installed.remove()
        window = perf_counter() - start
        metrics.update(
            trace_metrics(tracer, window, 0.0, reference_rate, traced_rate)
        )
        metrics.update(kernel_metrics(tracer, runs.steps - steps_before))
        metrics["sim.steps"] = runs.run_steps[0]
        metrics["sim.msgs_per_decision"] = statistics.fmean(runs.run_messages)
        metrics["sim.phases_per_decision"] = statistics.fmean(runs.run_phases)
        run.metrics = metrics
    run.pins = {"sim.steps": runs.run_steps[0]}
    return run


# ---------------------------------------------------------------------- #
# fuzz_atbound
# ---------------------------------------------------------------------- #

#: The plan *structures* (protocol, n, k, faults, scheduler) come from
#: one fixed campaign seed; ``--seed`` re-draws every plan's run seed and
#: inputs.  With the structure drawn from ``--seed`` too, ten seeds
#: spread steps/s by 7.5% and plans/s by 23% (README), because per-step
#: cost depends on the scheduler mix and a 20,000-step budget-exhausting
#: plan costs as much as 140 typical ones.
FUZZ_CORPUS_SEED = 1983
#: Plans whose exact step total and budget-exhaustion count are pinned.
FUZZ_PIN_PLANS = 100
FUZZ_WARMUP_PLANS = 40


class FuzzPlans:
    """The at-bound campaign, run one plan at a time with oracles and
    the schedule recorder armed."""

    def __init__(self, seed: int, count: int, run: Run) -> None:
        rng = random.Random(seed)
        # Seed and inputs are drawn plan by plan, so the first plans are
        # the same whatever ``count`` is and the pinned prefix holds for
        # any --seconds.  Seeds are unique: the parallel pass runs many
        # plans in one campaign, which keys them by seed.
        used: set = set()
        self.plans = []
        for plan in sample_plans(count, campaign_seed=FUZZ_CORPUS_SEED):
            plan_seed = rng.randrange(2**31)
            while plan_seed in used:
                plan_seed = rng.randrange(2**31)
            used.add(plan_seed)
            inputs = tuple(rng.randrange(2) for _ in range(plan.n))
            self.plans.append(replace(plan, seed=plan_seed, inputs=inputs))
        self.result = run
        self.next = 0
        self.steps = 0
        self.plan_times: list = []
        self.plan_steps: list = []
        self.exhausted: list = []
        self.tracer: Optional[tracing.Tracer] = None

    def advance(self) -> None:
        plan = self.plans[self.next]
        if self.tracer is not None:
            self.tracer.ident = self.next
        self.next += 1
        start = perf_counter()
        report = run_campaign([plan], workers=1)
        self.plan_times.append(perf_counter() - start)
        verdict = report.verdicts[0]
        run = self.result
        run.attempted += 1
        if verdict.violated:
            run.fail(
                f"plan {self.next - 1} ({plan.describe()}): "
                f"{verdict.violation.oracle} violated"
            )
        self.steps += verdict.steps
        self.plan_steps.append(verdict.steps)
        self.exhausted.append(verdict.outcome is Outcome.BUDGET_EXHAUSTED)

    def run_for(self, seconds: float, at_least_plans: int = 0) -> float:
        """Run plans until ``seconds`` passed (and ``at_least_plans`` are
        done) or the corpus ends; returns checked steps/s."""
        steps_before = self.steps
        start = perf_counter()
        while self.next < len(self.plans):
            self.advance()
            if (
                perf_counter() - start >= seconds
                and self.next >= at_least_plans
            ):
                break
        return (self.steps - steps_before) / (perf_counter() - start)


def _prepare_fuzz(opts: Options, run: Run) -> FuzzPlans:
    # ~200 plans/s today; 600/s leaves room for a 3x faster program
    # before the corpus, not the clock, ends the measured phase.
    count = int(600 * opts.seconds) + FUZZ_PIN_PLANS
    warm = FuzzPlans(opts.seed + 1, FUZZ_WARMUP_PLANS, Run())
    while warm.next < max(1, FUZZ_WARMUP_PLANS * opts.warmup_scale):
        warm.advance()
    return FuzzPlans(opts.seed, count, run)


def run_fuzz(opts: Options, import_s: float) -> Run:
    run = Run()
    if not opts.trace:
        setup_times = []
        for _ in range(opts.setups):
            start = perf_counter()
            plans = _prepare_fuzz(opts, run)
            setup_times.append(perf_counter() - start)
        rate = plans.run_for(opts.seconds, at_least_plans=FUZZ_PIN_PLANS)
        run.metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput_per_s": rate,
            "latency_p50_ms": statistics.median(plans.plan_times) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer = run.tracer = tracing.Tracer()
        metrics = codec_corpus_metrics(opts.seed)
        plans = _prepare_fuzz(opts, run)
        # The same pinned plans through the two-worker pool, before any
        # wrapper exists (forked workers would inherit them).
        start = perf_counter()
        parallel = run_campaign(plans.plans[:FUZZ_PIN_PLANS], workers=2)
        metrics["harness.pool.parallel_plans_per_s"] = FUZZ_PIN_PLANS / (
            perf_counter() - start
        )
        if parallel.violations:
            run.fail(f"parallel pass: {len(parallel.violations)} violations")
        reference_rate = plans.run_for(opts.seconds * 0.25)
        reference_plans = plans.next
        installed = tracing.Installed(tracer)
        installed.install_wrappers()
        plans.tracer = tracer
        steps_before = plans.steps
        start = perf_counter()
        try:
            traced_rate = plans.run_for(
                opts.seconds * 0.75, at_least_plans=FUZZ_PIN_PLANS
            )
        finally:
            installed.remove()
        window = perf_counter() - start
        traced_plans = plans.next - reference_plans
        metrics.update(
            trace_metrics(tracer, window, 0.0, reference_rate, traced_rate)
        )
        metrics.update(kernel_metrics(tracer, plans.steps - steps_before))
        setup_ns = sum(
            tracer.total_ns(name)
            for name in (
                "faults.plans.build_processes",
                "faults.plans.build_scheduler",
                "sim.kernel.init",
            )
        )
        metrics["check.plan_setup_us"] = setup_ns / traced_plans / 1e3
        metrics["check.steps_per_plan"] = statistics.fmean(plans.plan_steps)
        metrics["check.plans_per_s"] = traced_plans / window
        run.metrics = metrics
    run.pins = {
        "fuzz.steps": sum(plans.plan_steps[:FUZZ_PIN_PLANS]),
        "check.budget_exhausted": sum(plans.exhausted[:FUZZ_PIN_PLANS]),
    }
    if opts.trace:
        metrics["check.budget_exhausted"] = run.pins["check.budget_exhausted"]
    return run


# ---------------------------------------------------------------------- #
# smr_*
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SMRConfig:
    n: int
    k: int
    #: Open-loop Poisson arrival rate of the traced run, ops/s — fixed
    #: per workload at 16-23% of today's closed-loop capacity.
    rate: float
    #: Warm-up commits per set-up, sized to about a second each so three
    #: set-ups fit the driver's time cap (ISSUE asked for 200 everywhere;
    #: n=7 commits ~50/s).
    warmup: int
    #: Live Byzantine replicas, at the highest pids.
    byzantine: int = 0
    #: Injected per-frame delay range in seconds, or None for no proxy.
    delay: Optional[tuple] = None


SMR_CONFIGS = {
    "smr_clean_n4": SMRConfig(n=4, k=1, rate=60.0, warmup=200),
    "smr_delay_n4": SMRConfig(
        n=4, k=1, rate=40.0, warmup=200, delay=(0.0005, 0.004)
    ),
    "smr_byz_n4": SMRConfig(n=4, k=1, rate=50.0, warmup=200, byzantine=1),
    "smr_clean_n7": SMRConfig(n=7, k=2, rate=12.0, warmup=50),
}

#: Equivocating, not balancing: against a balancing (or anti-majority)
#: replica some slots finish only when a peer's instance GC fires at
#: linger expiry, and six seeds gave 76-100 ops/s with 0.54-0.64 s stalls
#: (README) - a liveness problem, not a number to gate on.
SMR_BYZANTINE_KIND = "equivocating"

SMR_CLIENTS = 16
SMR_KEYS = tuple(f"key-{index}" for index in range(16))
#: (op, weight): writes dominate so the model check has something to bite.
SMR_MIX = (("add", 4), ("set", 3), ("get", 2), ("del", 1))
SMR_COMMIT_TIMEOUT = 30.0


def draw_op(rng: random.Random) -> tuple:
    """One ``(op, key, value)`` from the workload's mix."""
    point = rng.randrange(sum(weight for _, weight in SMR_MIX))
    for op, weight in SMR_MIX:
        if point < weight:
            break
        point -= weight
    value = rng.randrange(100) if op in ("set", "add") else None
    return op, rng.choice(SMR_KEYS), value


def model_apply(data: dict, op: str, key: str, value):
    """The suite's own KV semantics, independent of ``KVStateMachine``."""
    if op == "set":
        data[key] = value
        return value
    if op == "get":
        return data.get(key)
    if op == "del":
        return data.pop(key, None)
    if op == "add":
        current = data.get(key)
        if isinstance(current, bool) or not isinstance(current, (int, float)):
            current = 0
        data[key] = current + (1 if value is None else value)
        return data[key]
    raise ValueError(op)


class Service:
    """One started SMR cluster plus the suite's record of every slot it
    submitted — the raw material of the model check."""

    def __init__(self, config: SMRConfig, seed: int, run: Run) -> None:
        chaos = None
        if config.delay is not None:
            chaos = ChaosConfig(
                delay_min=config.delay[0], delay_max=config.delay[1],
                seed=seed,
            )
        self.cluster = SMRCluster(
            ClusterSpec(
                n=config.n, k=config.k, protocol="malicious",
                byzantine_count=config.byzantine,
                byzantine_kind=SMR_BYZANTINE_KIND, chaos=chaos, seed=seed,
            )
        )
        self.config = config
        self.rng = random.Random(seed)
        self.result = run
        self.submitted: list = []  # (slot, command, future)
        self.closed_sessions = [
            SMRClient(self.cluster, f"closed-{index}")
            for index in range(SMR_CLIENTS)
        ]
        self.idle_sessions: list = []
        self.sessions_opened = 0

    async def start(self, warmup: int) -> None:
        await self.cluster.start()
        if not await self.cluster.drain(timeout=SMR_COMMIT_TIMEOUT):
            raise RuntimeError("genesis slot did not commit")
        await self.closed_loop(commits=warmup)

    async def commit(self, command):
        """Submit and await one command, retrying an abort or a timeout
        once under a fresh slot; None when both attempts failed."""
        for _ in range(2):
            slot, future = self.cluster.submit(command)
            self.submitted.append((slot, command, future))
            try:
                commit = await asyncio.wait_for(
                    asyncio.shield(future), SMR_COMMIT_TIMEOUT
                )
            except asyncio.TimeoutError:
                continue
            if commit.committed:
                return commit
        self.result.fail(
            f"{command.session}/{command.request_id} {command.op}: "
            "uncommitted after one retry"
        )
        return None

    async def closed_loop(
        self,
        seconds: Optional[float] = None,
        commits: Optional[int] = None,
        clients: int = SMR_CLIENTS,
    ) -> tuple:
        """``clients`` sequential sessions, each submitting its next op
        when the previous one commits, for ``seconds`` or until
        ``commits`` ops were issued.  Returns (committed ops/s, sorted
        latencies in seconds — a failed op is an infinite one)."""
        issued = 0
        committed = 0
        latencies: list = []
        start = perf_counter()

        async def session(client: SMRClient) -> None:
            nonlocal issued, committed
            while True:
                if commits is not None and issued >= commits:
                    return
                if seconds is not None and perf_counter() - start >= seconds:
                    return
                issued += 1
                self.result.attempted += 1
                command = client.next_command(*draw_op(self.rng))
                began = perf_counter()
                if await self.commit(command) is None:
                    latencies.append(math.inf)
                else:
                    committed += 1
                    latencies.append(perf_counter() - began)

        await asyncio.gather(
            *(session(client) for client in self.closed_sessions[:clients])
        )
        return committed / (perf_counter() - start), sorted(latencies)

    async def open_loop(self, seconds: float) -> tuple:
        """Poisson arrivals at the workload's rate, drawn up front.  An
        op is timed from its *scheduled* arrival, so time the generator
        spent late counts against the system; a failed op is an infinite
        latency.  Returns (latencies, generator lateness), in seconds."""
        arrivals = []
        at = self.rng.expovariate(self.config.rate)
        while at < seconds:
            arrivals.append((at, draw_op(self.rng)))
            at += self.rng.expovariate(self.config.rate)
        latencies: list = []
        lateness: list = []
        loop = asyncio.get_running_loop()
        start = loop.time()

        async def one(arrival: float, op: tuple) -> None:
            # Sessions are sequential: an arrival takes an idle session
            # or opens a new one, so overload grows the pool instead of
            # putting two requests of one session in flight.
            if self.idle_sessions:
                client = self.idle_sessions.pop()
            else:
                self.sessions_opened += 1
                client = SMRClient(
                    self.cluster, f"open-{self.sessions_opened}"
                )
            commit = await self.commit(client.next_command(*op))
            self.idle_sessions.append(client)
            latencies.append(
                math.inf if commit is None
                else commit.committed_at - (start + arrival)
            )

        tasks = []
        for arrival, op in arrivals:
            wait = start + arrival - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            lateness.append(loop.time() - start - arrival)
            self.result.attempted += 1
            tasks.append(loop.create_task(one(arrival, op)))
        await asyncio.gather(*tasks)
        return sorted(latencies), sorted(lateness)

    async def finish(self) -> None:
        """Drain, check every replica against the model, close."""
        run = self.result
        cluster = self.cluster
        if not await cluster.drain(timeout=SMR_COMMIT_TIMEOUT):
            run.fail("drain timed out")
        for problem in cluster.verify_replicas():
            run.fail(problem)
        model: dict = {}
        results: dict = {}  # (session, request_id) → model result
        for slot, command, future in sorted(
            self.submitted, key=lambda entry: entry[0]
        ):
            if not future.done():
                run.fail(f"slot {slot}: never resolved")
                continue
            commit = future.result()
            if not commit.committed:
                continue  # aborted slot: a no-op the client retried
            identity = (command.session, command.request_id)
            if identity not in results:
                results[identity] = model_apply(
                    model, command.op, command.key, command.value
                )
            if commit.result != results[identity]:
                run.fail(
                    f"slot {slot}: {command.op} {command.key} returned "
                    f"{commit.result!r}, model says {results[identity]!r}"
                )
        for pid, replica in sorted(cluster.replicas.items()):
            if replica.machine.data != model:
                run.fail(f"replica {pid}: state differs from the model")
        for problem in await cluster.close():
            run.fail(problem)


def _registry_counts(cluster: SMRCluster) -> dict:
    snapshot = cluster.registry.snapshot()
    return {**snapshot.gauges, **snapshot.counters}


async def _smr_untraced(config: SMRConfig, opts: Options, import_s, run: Run):
    setup_times = []
    for index in range(opts.setups):
        start = perf_counter()
        service = Service(config, opts.seed, run)
        await service.start(max(1, int(config.warmup * opts.warmup_scale)))
        setup_times.append(perf_counter() - start)
        if index < opts.setups - 1:
            await service.finish()
    rate, _ = await service.closed_loop(seconds=opts.seconds / 2)
    _, latencies = await service.closed_loop(
        seconds=opts.seconds / 2, clients=1
    )
    await service.finish()
    run.metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "throughput_per_s": rate,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


async def _smr_traced(
    config: SMRConfig, opts: Options, run: Run, selector
) -> None:
    tracer = run.tracer = tracing.Tracer()
    metrics = codec_corpus_metrics(opts.seed)
    installed = tracing.Installed(tracer)
    try:
        service = Service(config, opts.seed, run)
        await service.start(max(1, int(config.warmup * opts.warmup_scale)))
        cluster = service.cluster
        reference_rate, _ = await service.closed_loop(
            seconds=opts.seconds * 0.20
        )
        before = _registry_counts(cluster)
        installed.install_wrappers()
        idle_before = selector.idle_ns
        start = perf_counter()
        traced_rate, _ = await service.closed_loop(
            seconds=opts.seconds * 0.30
        )
        latencies, lateness = await service.open_loop(opts.seconds * 0.50)
        window = perf_counter() - start
        idle_s = (selector.idle_ns - idle_before) / 1e9
        after = _registry_counts(cluster)
    finally:
        installed.remove()
    await service.finish()

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    metrics.update(
        trace_metrics(tracer, window, idle_s, reference_rate, traced_rate)
    )
    commits = delta("cluster.smr.committed") or 1
    codec = installed.codec
    steps = sum(
        cell[0] for name, cell in tracer.cells.items()
        if name.startswith(("core.", "faults.")) and name.endswith(".step")
    )
    data_frames = codec.frames("DataFrame") or 1
    sent = delta("cluster.transport.sent")
    batched = delta("cluster.transport.batched_frames")
    batches = delta("cluster.transport.batches")
    # Bytes put on the wire: every batch, ack, hello and bye as encoded,
    # plus the data frames written singly (the others were re-encoded
    # inside a batch, their own bytes kept only for retransmission).
    wire_bytes = sum(
        codec.bytes(kind) for kind in codec.encoded if kind != "DataFrame"
    ) + codec.bytes("DataFrame") * max(0.0, sent - batched) / data_frames
    finite = [value for value in latencies if value != math.inf]
    metrics.update({
        "core.steps_per_commit": steps / commits,
        "codec.encode_us_per_frame": tracer.mean_ns("codec.encode") / 1e3,
        "codec.decode_us_per_frame": (
            tracer.total_ns("codec.decode") / (codec.decoded_frames or 1) / 1e3
        ),
        "codec.bytes_per_frame": codec.bytes("DataFrame") / data_frames,
        "transport.frames_per_commit": sent / commits,
        "transport.batches_per_commit": batches / commits,
        "transport.frames_per_batch": batched / batches if batches else 0.0,
        "transport.bytes_per_commit": wire_bytes / commits,
        "transport.send_us": tracer.mean_ns("transport.send") / 1e3,
        "transport.retransmits": delta("cluster.transport.retransmits"),
        "transport.duplicates": delta("cluster.transport.duplicates"),
        "transport.queue_depth_max": after.get(
            "cluster.transport.queue_depth", 0
        ),
        "node.start_instance_us": (
            tracer.mean_ns("node.start_instance") / 1e3
        ),
        "node.steps_per_commit": delta("cluster.node.steps") / commits,
        "node.late_frames": delta("cluster.node.late_frames"),
        "node.instances_gc": delta("cluster.node.instances_gc"),
        "smr.submit_us": tracer.mean_ns("smr.submit") / 1e3,
        "smr.apply_us": tracer.mean_ns("smr.apply") / 1e3,
        "smr.snapshot_ms": tracer.mean_ns("smr.snapshot") / 1e6,
        "smr.open_p50_ms": percentile(latencies, 0.50) * 1e3,
        "smr.commit_p95_ms": percentile(latencies, 0.95) * 1e3,
        "smr.commit_p99_ms": percentile(latencies, 0.99) * 1e3,
        "smr.latency_samples": len(finite),
        "chaos.delayed": delta("cluster.chaos.delayed"),
        "chaos.delay_mean_ms": (
            statistics.fmean(installed.chaos.delays_ms)
            if installed.chaos.delays_ms else 0.0
        ),
        "gen.late_p99_ms": percentile(lateness, 0.99) * 1e3,
    })
    if config.delay is not None:
        low, high = (bound * 1e3 for bound in config.delay)
        if not low <= metrics["chaos.delay_mean_ms"] <= high:
            run.fail(
                f"injected delay mean {metrics['chaos.delay_mean_ms']:.3f} "
                f"ms outside the stated {low}-{high} ms"
            )
    run.metrics = metrics


def run_smr(name: str, opts: Options, import_s: float) -> Run:
    run = Run()
    config = SMR_CONFIGS[name]
    if opts.trace:
        selector = tracing.TimingSelector()
        loop = asyncio.SelectorEventLoop(selector)
        main = _smr_traced(config, opts, run, selector)
    else:
        loop = asyncio.new_event_loop()
        main = _smr_untraced(config, opts, import_s, run)
    try:
        loop.run_until_complete(main)
    finally:
        loop.close()
    return run


def run_workload(name: str, opts: Options, import_s: float) -> Run:
    """Run one workload; per-layer metrics a workload's layers do not
    produce are reported as 0 (the layer did not run)."""
    if name == "sim_malicious_n10":
        run = run_sim(opts, import_s)
    elif name == "fuzz_atbound":
        run = run_fuzz(opts, import_s)
    else:
        run = run_smr(name, opts, import_s)
    if opts.trace:
        run.metrics = {
            metric.name: run.metrics.get(metric.name, 0.0)
            for metric in catalog.PER_LAYER
        }
    return run
