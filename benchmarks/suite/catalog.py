"""What the suite measures: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root is what the driver reads; its
schema has room only for name, unit and direction.  This module carries
the rest — which layer a metric belongs to, which end-to-end metric it
should move and on which workload — and ``test_suite_smoke.py`` asserts
the two agree.
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    name: str
    unit_of_work: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str  # the end-to-end metric it should move, and where


WORKLOADS = (
    Workload(
        "sim_malicious_n10",
        "atomic step",
        "Fig 2 at n=10 k=3 with 3 balancing Byzantine, fair random views: "
        "long steady kernel loop, no cluster code",
    ),
    Workload(
        "fuzz_atbound",
        "oracle-checked atomic step",
        "thousands of short at-bound fault plans over every protocol, "
        "scheduler and fault: per-run set-up and oracles, not the inner loop",
    ),
    Workload(
        "smr_clean_n4",
        "committed op",
        "n=4 k=1 loopback, no chaos: CPU-bound in codec, transport and "
        "node; where a codec or batching change shows",
    ),
    Workload(
        "smr_delay_n4",
        "committed op",
        "n=4 k=1 behind proxies adding 0.5-4 ms per frame, no loss: "
        "commit time is delay x sequential hops, so CPU savings move it "
        "little",
    ),
    Workload(
        "smr_byz_n4",
        "committed op",
        "n=4 k=1 with one live equivocating Byzantine replica: the paper's "
        "fault model under load, more protocol steps and frames per commit",
    ),
    Workload(
        "smr_clean_n7",
        "committed op",
        "n=7 k=2 clean: the initial/echo fan-out grows steeply with n, so "
        "link count and codec volume dominate",
    ),
)

END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports + median of repeated set-ups (ensemble/plan building, "
        "mesh start, genesis commit, warm-up)",
    ),
    EndToEnd(
        "throughput_per_s", "1/s", "higher", 0.25,
        "units of work per second: atomic steps (sim, fuzz), committed "
        "ops in a closed loop of 16 sequential sessions (smr)",
    ),
    EndToEnd(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median time of one result: 10,000 steps (sim), one plan verdict "
        "(fuzz), one commit of a single sequential session (smr)",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.25,
        "ru_maxrss of the workload's process",
    ),
)

_SIM = "throughput_per_s on sim_malicious_n10; none on smr_*"
_FUZZ = "throughput_per_s and latency_p50_ms on fuzz_atbound"
_SMR_CPU = "throughput_per_s on smr_clean_n4 and smr_clean_n7"
_SMR_ALL = "throughput_per_s on every smr_*"
_SMR_LAT = "latency_p50_ms on every smr_*"

PER_LAYER = (
    # -- sim.kernel ----------------------------------------------------
    PerLayer("sim.kernel.step_ns", "ns", "lower", "sim.kernel", _SIM),
    PerLayer("sim.kernel.self_ns", "ns", "lower", "sim.kernel", _SIM),
    PerLayer("sim.kernel.busy_share", "share", "lower", "sim.kernel", _SIM),
    PerLayer("sim.steps", "count", "lower", "sim.kernel",
             "exact per seed; a change here means runs differ"),
    PerLayer("sim.msgs_per_decision", "count", "lower", "sim.kernel", _SIM),
    PerLayer("sim.phases_per_decision", "count", "lower", "sim.kernel", _SIM),
    # -- net -----------------------------------------------------------
    PerLayer("net.schedulers.choose_ns", "ns", "lower", "net",
             _SIM + "; smaller on fuzz_atbound"),
    PerLayer("net.system.send_ns", "ns", "lower", "net",
             _SIM + "; smaller on fuzz_atbound"),
    PerLayer("net.busy_share", "share", "lower", "net", _SIM),
    # -- core ----------------------------------------------------------
    PerLayer("core.malicious.step_ns", "ns", "lower", "core",
             _SIM + "; throughput_per_s on smr_byz_n4 most"),
    PerLayer("core.fail_stop.step_ns", "ns", "lower", "core",
             "throughput_per_s on fuzz_atbound only"),
    PerLayer("core.steps_per_commit", "count", "lower", "core",
             "throughput_per_s on smr_byz_n4 most"),
    PerLayer("core.busy_share", "share", "lower", "core", _SIM),
    # -- check / faults / harness --------------------------------------
    PerLayer("check.oracles.observe_ns", "ns", "lower", "check", _FUZZ),
    PerLayer("check.plan_setup_us", "us", "lower", "check",
             "latency_p50_ms on fuzz_atbound"),
    PerLayer("check.steps_per_plan", "count", "lower", "check",
             "explains check.plans_per_s; varies with the seed's luck"),
    PerLayer("check.budget_exhausted", "count", "lower", "check",
             "exact per seed"),
    PerLayer("check.plans_per_s", "1/s", "higher", "check",
             "ungated: swings with how many budget-exhausting plans a "
             "seed draws"),
    PerLayer("harness.pool.parallel_plans_per_s", "1/s", "higher", "check",
             "ungated: same plans at workers=2"),
    PerLayer("check.busy_share", "share", "lower", "check", _FUZZ),
    # -- cluster.codec -------------------------------------------------
    PerLayer("codec.encode_us_per_frame", "us", "lower", "codec",
             _SMR_CPU + "; flat on latency_p50_ms of smr_delay_n4"),
    PerLayer("codec.decode_us_per_frame", "us", "lower", "codec",
             _SMR_CPU + "; flat on latency_p50_ms of smr_delay_n4"),
    PerLayer("codec.bytes_per_frame", "bytes", "lower", "codec", _SMR_CPU),
    PerLayer("codec.encode_ns", "ns", "lower", "codec",
             "isolated: 10,000-envelope initial/echo corpus"),
    PerLayer("codec.decode_ns", "ns", "lower", "codec",
             "isolated: 10,000-envelope initial/echo corpus"),
    PerLayer("codec.busy_share", "share", "lower", "codec", _SMR_CPU),
    # -- cluster.transport ---------------------------------------------
    PerLayer("transport.frames_per_commit", "count", "lower", "transport",
             _SMR_ALL),
    PerLayer("transport.batches_per_commit", "count", "lower", "transport",
             _SMR_ALL),
    PerLayer("transport.frames_per_batch", "count", "higher", "transport",
             "latency_p50_ms on smr_delay_n4 (batching delays a batch's "
             "first frame)"),
    PerLayer("transport.bytes_per_commit", "bytes", "lower", "transport",
             _SMR_ALL),
    PerLayer("transport.send_us", "us", "lower", "transport", _SMR_ALL),
    PerLayer("transport.retransmits", "count", "lower", "transport",
             _SMR_ALL),
    PerLayer("transport.duplicates", "count", "lower", "transport", _SMR_ALL),
    PerLayer("transport.queue_depth_max", "count", "lower", "transport",
             _SMR_LAT),
    PerLayer("transport.busy_share", "share", "lower", "transport", _SMR_ALL),
    # -- cluster.node --------------------------------------------------
    PerLayer("node.start_instance_us", "us", "lower", "node",
             "throughput_per_s on smr_clean_n4"),
    PerLayer("node.steps_per_commit", "count", "lower", "node",
             "throughput_per_s on smr_clean_n4"),
    PerLayer("node.late_frames", "count", "lower", "node",
             "throughput_per_s on smr_clean_n4"),
    PerLayer("node.instances_gc", "count", "higher", "node",
             "peak_rss_mb on every smr_*"),
    PerLayer("node.busy_share", "share", "lower", "node",
             "throughput_per_s on smr_clean_n4"),
    # -- cluster.smr ---------------------------------------------------
    PerLayer("smr.submit_us", "us", "lower", "smr", _SMR_LAT),
    PerLayer("smr.apply_us", "us", "lower", "smr", _SMR_LAT),
    PerLayer("smr.snapshot_ms", "ms", "lower", "smr", _SMR_LAT),
    PerLayer("smr.open_p50_ms", "ms", "lower", "smr",
             "ungated: open-loop Poisson at the workload's fixed rate, "
             "timed from the scheduled arrival"),
    PerLayer("smr.commit_p95_ms", "ms", "lower", "smr",
             "ungated: tail of the same open loop"),
    PerLayer("smr.commit_p99_ms", "ms", "lower", "smr",
             "ungated: tail of the same open loop"),
    PerLayer("smr.latency_samples", "count", "higher", "smr",
             "sample count behind the three open-loop percentiles"),
    PerLayer("smr.busy_share", "share", "lower", "smr",
             "~0.5% today: a change here that moves throughput is "
             "suspicious"),
    # -- cluster.chaos -------------------------------------------------
    PerLayer("chaos.delayed", "count", "lower", "chaos",
             "latency_p50_ms on smr_delay_n4 only"),
    PerLayer("chaos.delay_mean_ms", "ms", "lower", "chaos",
             "must sit inside the stated 0.5-4 ms"),
    # -- event loop, load generator, tracer ----------------------------
    PerLayer("loop.idle_share", "share", "higher", "loop",
             "explains the closed-loop/open-loop gap"),
    PerLayer("loop.busy_share", "share", "lower", "loop",
             "1 - loop.idle_share"),
    PerLayer("gen.late_p99_ms", "ms", "lower", "generator",
             "how late the open-loop generator ran"),
    PerLayer("trace.unattributed_share", "share", "lower", "trace",
             "busy time no wrapper covers"),
    PerLayer("trace.overhead_pct", "%", "lower", "trace",
             "bounds how far the layer numbers can be trusted"),
)

WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)
