"""Command-line entry point: ``repro-consensus``.

Subcommands:

* ``list`` — show the experiment registry (E1–E11) with titles;
  ``--json`` emits a machine-readable inventory of experiments,
  fuzzable protocols, and cluster capabilities.
* ``run E3 [E4 ...]`` — run experiments and print their report tables;
  ``--metrics`` additionally prints each experiment's merged metrics
  (per-phase witness/accept counts, decision-latency histograms), and
  ``--trace-out DIR`` streams one JSONL trace file per seed.
* ``demo`` — one quick consensus run of each protocol, narrated.
* ``metrics`` — instrumented reference runs of both figure protocols:
  renders per-run/per-experiment summaries and writes ``metrics.json``;
  ``--check`` instead runs the observability self-checks (merge
  determinism, JSONL round-trip, disabled-path silence) as a lint-style
  exit-code tool for CI.
* ``fuzz`` — the fault-campaign fuzzer (see :mod:`repro.check`): samples
  fault plans, runs them with safety oracles armed, shrinks any
  violation to a replay-verified counterexample artifact.  At-bound
  exits non-zero on any violation; ``--over-bound`` exits non-zero
  unless at least one violation is found and shrinks cleanly.
* ``cluster`` — run the unchanged protocol cores over real TCP
  (see :mod:`repro.cluster`): an n-node loopback cluster, optionally
  with live Byzantine nodes and chaos-proxy delay/drop/reset
  schedules; ``--trace-out DIR`` writes causally-traced JSONL shards.
* ``smr`` — the replicated KV service over the same mesh (see
  :mod:`repro.cluster.smr`): open-loop client load and a commit-p99 SLO
  gate; shares ``cluster``'s mesh, chaos and tracing options.
* ``report`` — stitch a traced cluster run's per-node shards into one
  HLC-ordered timeline and render the operational run report: decide
  latency decomposed into queue/transport/compute segments, chaos
  events correlated with decision windows, SMR commit latency;
  ``--check`` turns the SLO gates into a non-zero exit code for CI.

The same experiment implementations back the pytest benchmarks; the CLI
exists so a user can regenerate any paper artifact without pytest.
Performance is measured by the repository benchmark, not from here:
``python3 benchmarks/suite/run.py`` (profile one workload with
``python -m cProfile benchmarks/suite/run.py --workload W``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.errors import SimulationLimitError
from repro.harness.experiments import EXPERIMENTS
from repro.obs import collector


def _cmd_list(args: argparse.Namespace) -> int:
    entries = [
        (
            key.upper(),
            (EXPERIMENTS[key].__doc__ or "").strip().splitlines()[0],
        )
        for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    ]
    if args.json:
        import json

        from repro.cluster.driver import BYZANTINE_KINDS, CLUSTER_PROTOCOLS
        from repro.faults.byzantine import BYZANTINE_STRATEGIES
        from repro.harness.builders import PROTOCOL_CORES

        payload = {
            "experiments": [
                {"id": key, "title": title} for key, title in entries
            ],
            "protocols": list(PROTOCOL_CORES),
            "byzantine_strategies": sorted(BYZANTINE_STRATEGIES),
            "cluster": {
                "protocols": list(CLUSTER_PROTOCOLS),
                "byzantine_kinds": sorted(BYZANTINE_KINDS),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for key, title in entries:
        print(f"{key:4s} {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers is None:
        return _run_experiments(args)
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    # Experiments construct their own ExperimentRunners, which pick up
    # REPRO_WORKERS through default_workers(); the caller's value returns.
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = str(args.workers)
    try:
        return _run_experiments(args)
    finally:
        os.environ.pop("REPRO_WORKERS", None)
        if previous is not None:
            os.environ["REPRO_WORKERS"] = previous


def _run_experiments(args: argparse.Namespace) -> int:
    from repro.harness.tables import render_markdown, to_csv
    from repro.obs.report import render_metrics_summary

    observing = args.metrics or args.trace_out is not None
    if args.trace_out is not None:
        os.makedirs(args.trace_out, exist_ok=True)
    status = 0
    for raw in args.experiments:
        key = raw.lower()
        if key not in EXPERIMENTS:
            print(f"unknown experiment {raw!r}; try `repro-consensus list`")
            status = 2
            continue
        if observing:
            # One collection window per experiment: the registry's
            # internal ExperimentRunners see it and instrument their runs.
            collector.begin(trace_out=args.trace_out)
        try:
            report = EXPERIMENTS[key]()
        except SimulationLimitError as exc:
            # Budget exhaustion is a first-class failure, not a partial
            # success: report it and exit non-zero.
            print(f"[{key.upper()}] step budget exhausted: {exc}")
            status = 1
            continue
        finally:
            snapshot, recorded = collector.finish() if observing else (None, 0)
        if args.format == "markdown":
            print(f"### [{report.experiment_id}] {report.title}")
            print(render_markdown(report.headers, report.rows))
            for note in report.notes:
                print(f"> {note}")
        elif args.format == "csv":
            print(to_csv(report.headers, report.rows), end="")
        else:
            print(report.render())
        if args.metrics:
            print()
            if snapshot is None:
                print(
                    f"[{report.experiment_id}] no metrics recorded (this "
                    "experiment does not run replicated simulations)"
                )
            else:
                print(
                    render_metrics_summary(
                        snapshot,
                        title=(
                            f"[{report.experiment_id}] metrics over "
                            f"{recorded} instrumented runs"
                        ),
                    )
                )
        print()
    return status


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.faults.byzantine import BalancingEchoByzantine
    from repro.harness.builders import (
        build_failstop_processes,
        build_malicious_processes,
    )
    from repro.harness.workloads import balanced_inputs
    from repro.sim.kernel import Simulation
    from repro.sim.results import Outcome

    status = 0

    print("Figure 1 (fail-stop), n=7, k=3, one mid-broadcast crash:")
    processes = build_failstop_processes(
        7, 3, balanced_inputs(7), crashes={0: {"crash_at_step": 3, "keep_sends": 2}}
    )
    result = Simulation(processes, seed=7).run()
    print(" ", result.summary())
    if result.outcome is not Outcome.DECIDED:
        status = 1

    print("Figure 2 (malicious), n=7, k=2, balancing adversaries:")
    processes = build_malicious_processes(
        7, 2, balanced_inputs(7),
        byzantine={5: BalancingEchoByzantine, 6: BalancingEchoByzantine},
    )
    result = Simulation(processes, seed=7).run(max_steps=3_000_000)
    print(" ", result.summary())
    if result.outcome is not Outcome.DECIDED:
        status = 1
    if status:
        print("demo run did not decide (budget exhausted or quiescent)")
    return status


#: The instrumented reference configurations the ``metrics`` subcommand
#: runs: one per figure protocol, at the canonical (n, k) cells.
def _metrics_configs():
    from repro.faults.byzantine import BalancingEchoByzantine
    from repro.harness.builders import (
        build_failstop_processes,
        build_malicious_processes,
    )
    from repro.harness.workloads import balanced_inputs

    return {
        "failstop-n7k3": lambda seed: build_failstop_processes(
            7, 3, balanced_inputs(7),
            crashes={0: {"crash_at_step": 3, "keep_sends": 2}},
        ),
        "malicious-n7k2": lambda seed: build_malicious_processes(
            7, 2, balanced_inputs(7),
            byzantine={
                5: BalancingEchoByzantine,
                6: BalancingEchoByzantine,
            },
        ),
    }


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.harness.runner import ExperimentRunner
    from repro.harness.tables import render_table
    from repro.obs.report import render_metrics_summary, write_metrics_json

    if args.check:
        return _metrics_check()
    if args.seeds < 1:
        print(f"--seeds must be >= 1, got {args.seeds}")
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    if args.trace_out is not None:
        os.makedirs(args.trace_out, exist_ok=True)
    seeds = list(range(args.seeds))
    merged_by_config = {}
    for name, factory in _metrics_configs().items():
        if args.trace_out is not None:
            trace_dir = os.path.join(args.trace_out, name)
            os.makedirs(trace_dir, exist_ok=True)
            collector.begin(trace_out=trace_dir)
        runner = ExperimentRunner(factory, max_steps=3_000_000, metrics=True)
        try:
            runs = runner.run_many(seeds, workers=args.workers)
        finally:
            if args.trace_out is not None:
                collector.finish()
        merged = runs.merged_metrics()
        merged_by_config[name] = merged
        per_run_rows = [
            [
                result.seed,
                result.steps,
                result.messages_sent,
                result.max_phase,
                result.consensus_value,
            ]
            for result in runs.results
        ]
        print(
            render_table(
                ["seed", "steps", "messages", "max_phase", "decided"],
                per_run_rows,
                title=f"{name}: per-run summary ({len(seeds)} seeds)",
            )
        )
        print()
        print(render_metrics_summary(merged, title=f"{name}: merged metrics"))
        print()
    write_metrics_json(merged_by_config, args.out)
    print(f"wrote {args.out}")
    return 0


def _metrics_check() -> int:
    """Observability self-checks as a lint-style exit-code tool (CI).

    Each check prints one PASS/FAIL line; the command exits non-zero if
    any fails.  Checks: (1) parallel/serial metrics merge determinism,
    (2) snapshot merge associativity, (3) JSONL sink round-trip through
    ``validate_trace``, (4) a metrics-off, sink-off run has neither.
    """
    import tempfile

    from repro.errors import ReproError
    from repro.harness.builders import build_failstop_processes
    from repro.harness.runner import ExperimentRunner
    from repro.harness.workloads import balanced_inputs
    from repro.obs.metrics import merge_snapshots
    from repro.obs.sinks import InMemorySink, JsonlTraceSink, read_jsonl
    from repro.sim.kernel import Simulation
    from repro.sim.trace_tools import message_complexity, validate_trace

    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures += 1

    def factory(seed: int):
        return build_failstop_processes(5, 2, balanced_inputs(5))

    seeds = list(range(6))
    serial = ExperimentRunner(factory, metrics=True).run_many(seeds, workers=1)
    parallel = ExperimentRunner(factory, metrics=True).run_many(seeds, workers=2)
    check(
        "parallel run_many metrics identical to serial (per seed + merged)",
        [r.metrics for r in serial.results]
        == [r.metrics for r in parallel.results]
        and serial.merged_metrics() == parallel.merged_metrics(),
    )
    snaps = [r.metrics for r in serial.results[:3]]
    check(
        "snapshot merge is associative",
        snaps[0].merge(snaps[1]).merge(snaps[2])
        == snaps[0].merge(snaps[1].merge(snaps[2]))
        and merge_snapshots(snaps) == snaps[0].merge(snaps[1]).merge(snaps[2]),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        reference = InMemorySink()
        Simulation(factory(0), seed=0, sink=reference).run(max_steps=300_000)
        streamed = Simulation(
            factory(0), seed=0, sink=JsonlTraceSink(path)
        )
        streamed.run(max_steps=300_000)
        streamed.sink.close()
        round_tripped = list(read_jsonl(path))
        ok = round_tripped == reference.events
        reason = ""
        try:
            audit = validate_trace(read_jsonl(path))
            ok = ok and audit.events == len(round_tripped)
            ok = ok and message_complexity(round_tripped) == message_complexity(
                reference.events
            )
        except ReproError as exc:
            # Only the library's own validation failures (malformed
            # trace, invariant violation) mean the check failed;
            # anything else is a harness bug and should propagate.
            ok = False
            reason = f" ({type(exc).__name__}: {exc})"
        check(
            "JSONL trace round-trips and validates as a legal schedule"
            + reason,
            ok,
        )
    silent = Simulation(factory(0), seed=0)
    result = silent.run(max_steps=300_000)
    check(
        "metrics-off, sink-off run records neither",
        silent.sink is None and result.metrics is None,
    )
    if failures:
        print(f"{failures} observability check(s) failed")
        return 1
    print("all observability checks passed")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.check import run_campaign, sample_plans, shrink
    from repro.check.campaign import CampaignReport
    from repro.errors import ConfigurationError
    from repro.faults.plans import PROTOCOLS
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import render_metrics_summary

    if args.plans < 1:
        print(f"--plans must be >= 1, got {args.plans}")
        return 2
    if args.max_steps < 1:
        print(f"--max-steps must be >= 1, got {args.max_steps}")
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    protocols = None
    if args.protocols:
        protocols = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
        unknown = [p for p in protocols if p not in PROTOCOLS]
        if unknown:
            print(f"unknown protocol(s) {unknown}; choose from {list(PROTOCOLS)}")
            return 2

    metrics = MetricsRegistry()
    deadline = (
        time.monotonic() + args.time_budget if args.time_budget else None
    )
    verdicts: list = []
    batch = 0
    # One batch of --plans per iteration; with --time-budget we keep
    # sampling fresh batches (distinct campaign seeds) until time is up.
    # The deadline is also threaded into run_campaign so the budget is
    # respected *within* a batch, not just between batches.
    while True:
        plans = sample_plans(
            args.plans,
            campaign_seed=args.seed + batch,
            over_bound=args.over_bound,
            protocols=protocols,
        )
        report = run_campaign(
            plans,
            max_steps=args.max_steps,
            workers=args.workers,
            metrics=metrics,
            deadline=deadline,
        )
        verdicts.extend(report.verdicts)
        batch += 1
        if deadline is None or time.monotonic() >= deadline:
            break
    combined = CampaignReport(verdicts=tuple(verdicts))
    print(combined.render())

    violations = combined.violations
    shrink_failures = 0
    if violations and not args.no_shrink:
        to_shrink = violations[: args.shrink_limit]
        if len(violations) > len(to_shrink):
            print(
                f"shrinking first {len(to_shrink)} of {len(violations)} "
                "violations (--shrink-limit)"
            )
        if args.artifacts:
            os.makedirs(args.artifacts, exist_ok=True)
        for index, verdict in enumerate(to_shrink):
            try:
                artifact = shrink(
                    verdict.plan,
                    schedule=verdict.schedule,
                    max_steps=args.max_steps,
                    metrics=metrics,
                )
            except ConfigurationError as exc:
                shrink_failures += 1
                print(
                    f"  shrink FAILED for plan seed={verdict.plan.seed}: {exc}"
                )
                continue
            print(
                f"  shrunk {artifact.violation.oracle}@step"
                f"{artifact.violation.step}: {artifact.schedule_len} deliveries"
                f" ({artifact.reduction_percent:.0f}% smaller), "
                f"{artifact.plan.fault_count} fault(s) "
                f"[replay verified]"
            )
            if args.artifacts:
                path = os.path.join(
                    args.artifacts, f"counterexample-{index:03d}.json"
                )
                artifact.save(path)
                print(f"  wrote {path}")

    print()
    print(render_metrics_summary(metrics.snapshot(), title="fuzz metrics"))

    if args.over_bound:
        if not violations:
            print(
                "over-bound campaign found no violations; expected the "
                "out-of-bounds regimes to break"
            )
            return 1
        if shrink_failures:
            print(f"{shrink_failures} counterexample(s) failed to shrink/replay")
            return 1
        print(
            f"over-bound campaign falsified as expected: "
            f"{len(violations)} violation(s)"
        )
        return 0
    if violations:
        print(
            f"{len(violations)} safety violation(s) WITHIN the resilience "
            "bounds — this is a soundness bug"
        )
        return 1
    print("no violations: every at-bound plan held agreement/validity/quorum")
    return 0


def _add_mesh_options(
    parser: argparse.ArgumentParser, **help_for: str
) -> None:
    """Declare the options ``cluster`` and ``smr`` share: mesh shape,
    chaos schedule, tracing.  ``help_for`` carries the
    wordings that differ between the two commands."""
    from repro.cluster.transport import DEFAULT_TRACE_SAMPLE

    parser.add_argument(
        "--n", type=int, default=4, metavar="N",
        help="cluster size (default: 4)",
    )
    parser.add_argument(
        "--k", type=int, default=1, metavar="K",
        help="resilience parameter (default: 1)",
    )
    parser.add_argument(
        "--protocol",
        choices=("failstop", "malicious"),
        default="malicious",
        help=help_for["protocol"],
    )
    parser.add_argument(
        "--byzantine", type=int, default=0, metavar="B",
        help=help_for["byzantine"],
    )
    parser.add_argument(
        "--byzantine-kind",
        choices=("balancing", "equivocating", "anti-majority", "silent"),
        default="balancing",
        help="Byzantine behaviour (default: balancing)",
    )
    parser.add_argument(
        "--chaos-delay-min", type=float, default=0.0, metavar="SECONDS",
        help="minimum chaos-proxy delay per data frame (default: 0)",
    )
    parser.add_argument(
        "--chaos-delay-max", type=float, default=0.0, metavar="SECONDS",
        help="maximum chaos-proxy delay per data frame; > 0 enables "
        "the proxies (default: 0)",
    )
    parser.add_argument(
        "--chaos-drop", type=float, default=0.0, metavar="RATE",
        help=help_for["chaos_drop"],
    )
    parser.add_argument(
        "--chaos-reset-every", type=int, default=None, metavar="FRAMES",
        help=help_for["chaos_reset_every"],
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S", help=help_for["seed"],
    )
    parser.add_argument(
        "--metrics", action="store_true", help=help_for["metrics"],
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="DIR", help=help_for["trace_out"],
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=DEFAULT_TRACE_SAMPLE,
        metavar="N",
        help=help_for["trace_sample"],
    )


def _mesh_spec(args: argparse.Namespace, what: str, **own):
    """``(spec, None)`` from the shared options plus a command's ``own``
    :class:`ClusterSpec` fields, the chaos schedule in ``spec.chaos`` —
    or ``(None, message)``, the exit-2 line, when the configuration is
    rejected."""
    from repro.cluster.chaos import ChaosConfig
    from repro.cluster.driver import ClusterSpec
    from repro.errors import ConfigurationError

    if args.trace_sample < 1:
        return None, f"--trace-sample must be >= 1, got {args.trace_sample}"
    chaos = None
    # A positive minimum alone asks for chaos too: the maximum is lifted
    # to it below.
    chaos_requested = (
        args.chaos_delay_min > 0
        or args.chaos_delay_max > 0
        or args.chaos_drop > 0
        or args.chaos_reset_every is not None
    )
    try:
        if chaos_requested:
            chaos = ChaosConfig(
                delay_min=args.chaos_delay_min,
                delay_max=max(args.chaos_delay_max, args.chaos_delay_min),
                drop_rate=args.chaos_drop,
                reset_every=args.chaos_reset_every,
                seed=args.seed,
            )
        spec = ClusterSpec(
            n=args.n,
            k=args.k,
            protocol=args.protocol,
            byzantine_count=args.byzantine,
            byzantine_kind=args.byzantine_kind,
            chaos=chaos,
            seed=args.seed,
            **own,
        )
    except ConfigurationError as exc:
        return None, f"bad {what} configuration: {exc}"
    return spec, None


def _mesh_notes(spec) -> str:
    """The Byzantine and chaos clauses of a run's headline."""
    byz_note = (
        f", {spec.byzantine_count} Byzantine ({spec.byzantine_kind})"
        if spec.byzantine_count
        else ""
    )
    return byz_note + (" under chaos" if spec.chaos is not None else "")


def _print_mesh_footer(args: argparse.Namespace, registry, title: str) -> None:
    """The ``--metrics`` summary and ``--trace-out`` pointer of a run."""
    from repro.obs.report import render_metrics_summary

    if args.metrics:
        print()
        print(render_metrics_summary(registry.snapshot(), title=title))
    if args.trace_out is not None:
        print(f"traces in {args.trace_out}/")


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.driver import run_cluster_sync
    from repro.errors import ConfigurationError
    from repro.obs.metrics import MetricsRegistry

    if args.timeout <= 0:
        print(f"--timeout must be > 0, got {args.timeout}")
        return 2
    if args.instances < 1:
        print(f"--instances must be >= 1, got {args.instances}")
        return 2
    spec, error = _mesh_spec(
        args,
        "cluster",
        inputs=args.inputs,
        instances=args.instances,
    )
    if error is not None:
        print(error)
        return 2

    registry = MetricsRegistry()
    try:
        report = run_cluster_sync(
            spec,
            timeout=args.timeout,
            registry=registry,
            trace_dir=args.trace_out,
            trace_sample=args.trace_sample,
        )
    except ConfigurationError as exc:
        print(f"bad cluster configuration: {exc}")
        return 2
    instance_note = (
        f" x{spec.instances} instances" if spec.instances > 1 else ""
    )
    print(
        f"cluster n={spec.n} k={spec.k} {spec.protocol}"
        f"{_mesh_notes(spec)}{instance_note}: "
        f"{'DECIDED' if not report.timed_out else 'TIMED OUT'} "
        f"in {report.wall_seconds:.3f}s"
    )
    for record in sorted(report.records, key=lambda r: (r.instance, r.pid)):
        role = "correct" if record.is_correct else "byzantine"
        inst = f"[i{record.instance}] " if spec.instances > 1 else ""
        print(
            f"  {inst}node {record.pid}: decided {record.value} "
            f"after {record.latency * 1000.0:.1f} ms "
            f"({record.steps} steps, {role})"
        )
    for problem in report.problems:
        print(f"  ORACLE VIOLATION: {problem}")
    if not report.problems and not report.timed_out:
        if spec.instances > 1:
            print(
                f"  oracles: agreement/validity/termination PASS for all "
                f"{spec.instances} instances"
            )
        else:
            print(
                f"  oracles: agreement/validity/termination PASS "
                f"(value {report.consensus_value()})"
            )
    _print_mesh_footer(args, registry, "cluster metrics")
    return 0 if report.ok else 1


def _cmd_smr(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.smr import run_smr
    from repro.errors import ConfigurationError
    from repro.obs.metrics import MetricsRegistry

    for name, value, floor in (
        ("--clients", args.clients, 1),
        ("--ops", args.ops, 1),
        ("--retry-every", args.retry_every, 0),
        ("--compact-every", args.compact_every, 0),
    ):
        if value < floor:
            print(f"{name} must be >= {floor}, got {value}")
            return 2
    if args.rate <= 0:
        print(f"--rate must be > 0, got {args.rate}")
        return 2
    if args.commit_timeout <= 0:
        print(f"--commit-timeout must be > 0, got {args.commit_timeout}")
        return 2
    spec, error = _mesh_spec(args, "smr")
    if error is not None:
        print(error)
        return 2

    registry = MetricsRegistry()
    try:
        result = asyncio.run(
            run_smr(
                spec,
                clients=args.clients,
                rate=args.rate,
                ops=args.ops,
                seed=args.seed,
                retry_every=args.retry_every,
                compact_every=args.compact_every,
                commit_timeout=args.commit_timeout,
                registry=registry,
                trace_dir=args.trace_out,
                trace_sample=args.trace_sample,
            )
        )
    except ConfigurationError as exc:
        print(f"bad smr configuration: {exc}")
        return 2
    latency = result["commit_latency_ms"]
    print(
        f"smr n={spec.n} k={spec.k} {spec.protocol}"
        f"{_mesh_notes(spec)}: "
        f"{result['committed']}/{result['submitted_commands']} committed "
        f"({result['aborted']} aborted, {result['uncommitted']} "
        f"uncommitted) in {result['submitted_slots'] - 1} slots, "
        f"{result['wall_seconds']:.3f}s"
    )
    print(
        f"  throughput {result['throughput_ops_per_sec']:.1f} ops/s, "
        f"commit p50 {latency['p50']:.1f} ms, p99 {latency['p99']:.1f} ms"
    )
    print(
        f"  dedup: {result['dedup_hits']} hits / "
        f"{result['dedup_retries']} retried requests; "
        f"{result['snapshots']} snapshots, "
        f"{result['compacted_entries']} log entries compacted"
    )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    if result["ok"]:
        print(
            "  replicas byte-identical; agreement/validity PASS on "
            "every slot"
        )
    slo_failed = False
    if args.slo_commit_p99_ms is not None:
        if latency["p99"] > args.slo_commit_p99_ms:
            print(
                f"  SLO FAIL: commit p99 {latency['p99']:.1f} ms exceeds "
                f"{args.slo_commit_p99_ms:.1f} ms"
            )
            slo_failed = True
        else:
            print(
                f"  SLO: commit p99 {latency['p99']:.1f} ms within "
                f"{args.slo_commit_p99_ms:.1f} ms"
            )
    _print_mesh_footer(args, registry, "smr metrics")
    return 0 if result["ok"] and not slo_failed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.cluster.report import (
        analyze_run,
        check_slos,
        render_report_markdown,
        report_json_payload,
        stitch_trace_dir,
    )
    from repro.errors import ConfigurationError

    try:
        stitched = stitch_trace_dir(args.trace_dir)
    except ConfigurationError as exc:
        print(f"cannot stitch traces: {exc}")
        return 2
    analysis = analyze_run(stitched)
    gated = args.check or args.slo_p99_ms is not None
    failures = None
    if gated:
        failures = check_slos(
            analysis,
            max_p99_ms=args.slo_p99_ms,
            max_segment_residual_pct=args.slo_residual_pct,
        )
    markdown = render_report_markdown(analysis, failures)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown, end="")
    if args.json is not None:
        payload = report_json_payload(analysis, failures)
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if gated:
        for failure in failures:
            print(f"SLO FAIL: {failure}")
        if failures:
            # Empty input is a usage/pipeline error, not a judged SLO
            # miss: report it with the same distinct exit code as an
            # unreadable trace directory so callers can tell "the run
            # is bad" (1) apart from "there was nothing to check" (2).
            if not analysis.get("events"):
                print("empty trace input: no events were stitched")
                return 2
            return 1
        print("SLO gates: all passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-consensus`` parser: one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-consensus",
        description=(
            "Reproduction harness for Bracha & Toueg, 'Resilient Consensus "
            "Protocols' (PODC 1983)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    list_parser = subparsers.add_parser(
        "list", help="list experiments and protocols"
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable inventory (experiments, protocols, "
        "cluster capabilities)",
    )
    list_parser.set_defaults(func=_cmd_list)
    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    run_parser.add_argument(
        "--format",
        choices=("table", "markdown", "csv"),
        default="table",
        help="output format (default: aligned text table)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel seed fan-out for the experiments' runners "
        "(default: REPRO_WORKERS env var, else serial)",
    )
    run_parser.add_argument(
        "--metrics",
        action="store_true",
        help="instrument the experiment's runs and print merged metrics "
        "(per-phase witness/accept counts, decision-latency histograms)",
    )
    run_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="stream one JSONL trace file per seed into DIR "
        "(implies instrumented runs)",
    )
    run_parser.set_defaults(func=_cmd_run)
    subparsers.add_parser("demo", help="quick narrated demo").set_defaults(
        func=_cmd_demo
    )
    metrics_parser = subparsers.add_parser(
        "metrics",
        help="instrumented reference runs + metrics.json "
        "(--check: observability self-checks for CI)",
    )
    metrics_parser.add_argument(
        "--seeds",
        type=int,
        default=8,
        metavar="N",
        help="number of seeds per configuration (default: 8)",
    )
    metrics_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel seed fan-out (default: REPRO_WORKERS env var, else serial)",
    )
    metrics_parser.add_argument(
        "--out",
        default="metrics.json",
        metavar="PATH",
        help="where to write the metrics JSON (default: ./metrics.json)",
    )
    metrics_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="also stream per-seed JSONL traces into DIR/<config>/",
    )
    metrics_parser.add_argument(
        "--check",
        action="store_true",
        help="run the observability self-checks and exit non-zero on failure",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)
    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="fault-campaign fuzzer with safety oracles and "
        "counterexample shrinking",
    )
    fuzz_parser.add_argument(
        "--plans",
        type=int,
        default=500,
        metavar="N",
        help="fault plans per campaign batch (default: 500)",
    )
    fuzz_parser.add_argument(
        "--over-bound",
        action="store_true",
        help="sample plans past the resilience theorems (violations "
        "expected; exits non-zero unless at least one is found and "
        "shrinks cleanly)",
    )
    fuzz_parser.add_argument(
        "--protocols",
        default=None,
        metavar="P1,P2",
        help="comma-separated at-bound protocol pool "
        "(default: failstop,malicious,simple)",
    )
    fuzz_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="campaign sampling seed; same seed -> same plan list "
        "(default: 0)",
    )
    fuzz_parser.add_argument(
        "--max-steps",
        type=int,
        default=20_000,
        metavar="N",
        help="per-plan step budget; exhaustion is a verdict, not an "
        "error (default: 20000)",
    )
    fuzz_parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep running fresh campaign batches until this much wall "
        "clock has elapsed (default: one batch)",
    )
    fuzz_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel plan fan-out (default: REPRO_WORKERS env var, "
        "else serial)",
    )
    fuzz_parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write shrunk counterexamples as counterexample-NNN.json "
        "into DIR",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations without shrinking them",
    )
    fuzz_parser.add_argument(
        "--shrink-limit",
        type=int,
        default=5,
        metavar="N",
        help="shrink at most N violations per invocation (default: 5)",
    )
    fuzz_parser.set_defaults(func=_cmd_fuzz)
    from repro.cluster.transport import DEFAULT_TRACE_SAMPLE

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="run the protocols over real TCP: n-node loopback cluster "
        "with optional Byzantine nodes and chaos injection",
    )
    _add_mesh_options(
        cluster_parser,
        protocol="which figure protocol to run (default: malicious)",
        byzantine="number of live Byzantine nodes, highest pids "
        "(malicious protocol only; default: 0)",
        chaos_drop="chaos-proxy drop probability per data frame; the "
        "transport retransmits, so drops cost latency not safety "
        "(default: 0)",
        chaos_reset_every="kill connections after this many forwarded "
        "data frames to exercise reconnects (default: never)",
        seed="base seed for transport jitter and chaos schedules "
        "(default: 0)",
        metrics="print the merged transport/chaos/decision metrics",
        trace_out="write one JSONL trace per node into DIR",
        trace_sample="with --trace-out: stamp-and-span one wire frame in "
        "N per link; 1 records every message (default: "
        f"{DEFAULT_TRACE_SAMPLE}; decide segments and chaos windows "
        "are exact at any rate)",
    )
    cluster_parser.add_argument(
        "--inputs",
        default=None,
        metavar="BITS",
        help="per-node initial values, e.g. 1011 (default: unanimous 1s)",
    )
    cluster_parser.add_argument(
        "--instances", type=int, default=1, metavar="I",
        help="concurrent consensus instances multiplexed over the same "
        "node mesh (default: 1)",
    )
    cluster_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="wall-clock budget per cluster run (default: 60)",
    )
    cluster_parser.set_defaults(func=_cmd_cluster)
    smr_parser = subparsers.add_parser(
        "smr",
        help="replicated KV service over the cluster: every log slot is "
        "one consensus instance; open-loop Poisson client load with "
        "exactly-once sessions, snapshots, and commit-latency SLOs",
    )
    _add_mesh_options(
        smr_parser,
        protocol="which figure protocol sequences the log (default: "
        "malicious; the §3.3 exit device is enabled automatically)",
        byzantine="number of live Byzantine nodes, highest pids; they join "
        "consensus but host no state machine and do not count toward "
        "the commit quorum (default: 0)",
        chaos_drop="chaos-proxy drop probability per data frame "
        "(default: 0)",
        chaos_reset_every="kill connections after this many forwarded "
        "data frames (default: never)",
        seed="base seed for load, transport jitter, and chaos "
        "(default: 0)",
        metrics="print the merged smr/transport/decision metrics",
        trace_out="write one JSONL trace per node (plus the client commit "
        "shard) into DIR; feed it to 'report --check'",
        trace_sample="with --trace-out: stamp-and-span one wire frame in "
        f"N per link (default: {DEFAULT_TRACE_SAMPLE})",
    )
    smr_parser.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent client sessions (default: 4)",
    )
    smr_parser.add_argument(
        "--rate", type=float, default=200.0, metavar="OPS_PER_SEC",
        help="aggregate open-loop Poisson arrival rate (default: 200)",
    )
    smr_parser.add_argument(
        "--ops", type=int, default=200, metavar="N",
        help="total client requests to issue (default: 200)",
    )
    smr_parser.add_argument(
        "--retry-every", type=int, default=10, metavar="N",
        help="submit every Nth request a second time to exercise "
        "exactly-once dedup; 0 disables (default: 10)",
    )
    smr_parser.add_argument(
        "--compact-every", type=int, default=64, metavar="SLOTS",
        help="snapshot + log-compaction cadence in slots; 0 disables "
        "(default: 64)",
    )
    smr_parser.add_argument(
        "--commit-timeout", type=float, default=30.0, metavar="SECONDS",
        help="budget for the uncommitted tail after the last submit "
        "(default: 30)",
    )
    smr_parser.add_argument(
        "--slo-commit-p99-ms", type=float, default=None, metavar="MS",
        help="gate: commit p99 must not exceed this; exit non-zero "
        "otherwise",
    )
    smr_parser.set_defaults(func=_cmd_smr)
    report_parser = subparsers.add_parser(
        "report",
        help="stitch a cluster run's per-node trace shards into one "
        "HLC-ordered timeline and render the operational run report "
        "(latency decomposition, chaos correlation, SMR commit latency)",
    )
    report_parser.add_argument(
        "trace_dir",
        metavar="TRACE_DIR",
        help="directory written by 'cluster --trace-out' "
        "(node-*.jsonl shards plus run.json)",
    )
    report_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the Markdown report here instead of stdout",
    )
    report_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the report as JSON",
    )
    report_parser.add_argument(
        "--check",
        action="store_true",
        help="run the SLO gates (termination held, latency "
        "decomposition accounts for the e2e p50, no truncated shards) "
        "and exit non-zero on any failure",
    )
    report_parser.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help="gate: overall decide p99 must not exceed this "
        "(implies --check)",
    )
    report_parser.add_argument(
        "--slo-residual-pct",
        type=float,
        default=10.0,
        metavar="PCT",
        help="gate: max deviation between segment-sum p50 and "
        "end-to-end p50 (default: 10)",
    )
    report_parser.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-consensus`` script)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - manual entry
    sys.exit(main())
