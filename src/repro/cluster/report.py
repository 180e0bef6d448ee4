"""Trace stitching and operational run reports for cluster runs.

A traced cluster run (:func:`repro.cluster.driver.run_cluster` with
``trace_dir``) leaves one JSONL shard per node plus a ``run.json``
manifest.  Each shard's ``ts`` values count from that writer's own
epoch, so wall-clock order across shards is unrecoverable from them —
but every causal event carries a hybrid-logical-clock timestamp, and HLC
order *is* consistent with causality (if event a can have influenced
event b, ``hlc(a) < hlc(b)``).  :func:`stitch_trace_dir` therefore
merges the shards into one HLC-ordered timeline.

:func:`analyze_run` walks that timeline and produces the operational
facts an on-call reader wants:

* per-instance and overall decide-latency percentiles, decomposed into
  the queue-wait / transport / protocol-compute segments measured at
  each node (the segments tile each decision's wall clock, so their sum
  tracks the end-to-end latency);
* a chaos-correlation table — for every decision, how many chaos-proxy
  perturbations (delays, drops, resets) fell inside its
  latency window;
* for SMR runs, the commit latency and apply/snapshot counts.

:func:`check_slos` turns an analysis into a pass/fail verdict (used by
``repro-consensus report --check``): termination must have held, the
segment decomposition must account for the end-to-end p50 within a
tolerance, and optional latency ceilings must not be breached.
"""

from __future__ import annotations

import json
import os
from glob import glob
from typing import Optional, Sequence

from repro.cluster.trace import ClusterTraceReader
from repro.errors import ConfigurationError
from repro.obs.spans import hlc_key

#: Decide-event keys holding the latency decomposition (milliseconds).
SEGMENT_KEYS = ("queue_ms", "transport_ms", "compute_ms")

#: Chaos event types the correlator recognises.
CHAOS_EVENTS = ("chaos-delay", "chaos-drop", "chaos-reset")


class StitchedTrace:
    """All shards of one run merged into a single HLC-ordered timeline.

    Attributes:
        events: every event from every shard, sorted by HLC (events
            without an ``hlc`` field sort first, among themselves by
            shard order — they are pre-causal bookkeeping like
            ``node-start``).
        manifest: the parsed ``run.json``, or None if absent.
        shards: shard paths that were read, sorted.
        truncated_shards: shards whose final line was torn (node killed
            mid-write); their parsed prefix is still in ``events``.
    """

    def __init__(
        self,
        events: list[dict],
        manifest: Optional[dict],
        shards: list[str],
        truncated_shards: list[str],
    ) -> None:
        self.events = events
        self.manifest = manifest
        self.shards = shards
        self.truncated_shards = truncated_shards

    def by_type(self, event_type: str) -> list[dict]:
        """Every event of one type, in timeline order."""
        return [e for e in self.events if e.get("t") == event_type]


def stitch_trace_dir(trace_dir: str) -> StitchedTrace:
    """Merge a trace directory's per-node shards into one timeline.

    Shards are the ``node-*.jsonl`` files ``run_cluster`` writes; a
    trailing truncated line in any shard is tolerated (recorded in
    ``truncated_shards``), matching the reader semantics of
    :class:`~repro.cluster.trace.ClusterTraceReader`.
    """
    if not os.path.isdir(trace_dir):
        raise ConfigurationError(f"no such trace directory: {trace_dir}")
    shards = sorted(glob(os.path.join(trace_dir, "node-*.jsonl")))
    if not shards:
        raise ConfigurationError(
            f"no node-*.jsonl shards under {trace_dir}"
        )
    events: list[dict] = []
    truncated: list[str] = []
    for shard in shards:
        reader = ClusterTraceReader(shard, decode_payloads=False)
        events.extend(reader)
        if reader.truncated:
            truncated.append(shard)
    events.sort(key=hlc_key)
    manifest = None
    manifest_path = os.path.join(trace_dir, "run.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    return StitchedTrace(events, manifest, shards, truncated)


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #


def _percentiles(values: Sequence[float]) -> dict:
    from repro.cluster.driver import percentile

    ordered = sorted(values)
    return {
        "p50": round(percentile(ordered, 0.50), 3),
        "p99": round(percentile(ordered, 0.99), 3),
        "max": round(ordered[-1], 3) if ordered else 0.0,
    }


def _segment_stats(decides: Sequence[dict]) -> dict:
    stats = {
        "decides": len(decides),
        "latency_ms": _percentiles([d["latency_ms"] for d in decides]),
    }
    for key in SEGMENT_KEYS:
        stats[key] = _percentiles([d.get(key, 0.0) for d in decides])
    return stats


def _chaos_window(decide: dict, chaos_events: Sequence[dict]) -> dict:
    """Chaos events (by type) inside one decision's latency window.

    The window is ``[decide_hlc - latency, decide_hlc]`` on the HLC
    physical axis (microseconds of wall clock): every perturbation that
    happened while this decision was in flight.
    """
    hlc = decide.get("hlc")
    counts: dict = {}
    if not hlc:
        return counts
    end_us = hlc[0]
    start_us = end_us - decide.get("latency_ms", 0.0) * 1000.0
    for event in chaos_events:
        event_hlc = event.get("hlc")
        if not event_hlc:
            continue
        if start_us <= event_hlc[0] <= end_us:
            name = event["t"]
            counts[name] = counts.get(name, 0) + 1
    return counts


def analyze_run(stitched: StitchedTrace) -> dict:
    """Distil one stitched timeline into the run-report payload."""
    decides = [
        event
        for event in stitched.by_type("decide")
        if event.get("is_correct", True) and "latency_ms" in event
    ]
    chaos_events = [
        event
        for event in stitched.events
        if event.get("t") in CHAOS_EVENTS
    ]
    chaos_totals: dict = {}
    for event in chaos_events:
        name = event["t"]
        chaos_totals[name] = chaos_totals.get(name, 0) + 1
    decide_rows: list[dict] = []
    correlated_totals: dict = {}
    for decide in decides:
        window = _chaos_window(decide, chaos_events)
        for name, count in window.items():
            correlated_totals[name] = correlated_totals.get(name, 0) + count
        decide_rows.append(
            {
                "pid": decide.get("pid"),
                "instance": decide.get("instance"),
                "trace": decide.get("trace"),
                "value": decide.get("value"),
                "latency_ms": decide.get("latency_ms"),
                "queue_ms": decide.get("queue_ms"),
                "transport_ms": decide.get("transport_ms"),
                "compute_ms": decide.get("compute_ms"),
                "steps": decide.get("steps"),
                "chaos": window,
            }
        )
    by_instance: dict = {}
    for decide in decides:
        by_instance.setdefault(decide.get("instance"), []).append(decide)
    instances = {
        str(instance): _segment_stats(group)
        for instance, group in sorted(
            by_instance.items(), key=lambda item: (item[0] is None, item[0])
        )
    }
    overall = _segment_stats(decides) if decides else None
    if overall is not None:
        sums = sorted(
            sum(d.get(key, 0.0) for key in SEGMENT_KEYS) for d in decides
        )
        segment_sum_p50 = _percentiles(sums)["p50"]
        e2e_p50 = overall["latency_ms"]["p50"]
        overall["segment_sum_p50_ms"] = segment_sum_p50
        overall["segment_residual_pct"] = round(
            abs(segment_sum_p50 - e2e_p50) / e2e_p50 * 100.0, 3
        ) if e2e_p50 > 0 else 0.0
    span_counts: dict = {}
    for event in stitched.by_type("span"):
        name = event.get("name", "?")
        span_counts[name] = span_counts.get(name, 0) + 1
    smr_applies = stitched.by_type("smr-apply")
    smr_commits = stitched.by_type("smr-commit")
    smr_snapshots = stitched.by_type("smr-snapshot")
    smr = None
    if smr_applies or smr_commits or smr_snapshots:
        # The SMR layer's own boundary: commit latency is submit →
        # majority-applied (the client-visible number), distinct from
        # the per-slot consensus decide latency above.  One smr-commit
        # record is one slot; its commands all saw its latency.
        slot_commands = [
            event.get("commands", 1) for event in smr_commits
        ]
        smr = {
            "applies": len(smr_applies),
            "dedup_hits": sum(
                1 for event in smr_applies if event.get("deduped")
            ),
            "snapshots": len(smr_snapshots),
            "compacted_entries": sum(
                event.get("entries_dropped", 0)
                for event in smr_snapshots
            ),
            "slots": len(smr_commits),
            "commits": sum(slot_commands),
            "aborts": sum(
                commands
                for event, commands in zip(smr_commits, slot_commands)
                if event.get("decision") == 0
            ),
            "commit_latency_ms": _percentiles(
                [
                    event.get("latency_ms", 0.0)
                    for event, commands in zip(smr_commits, slot_commands)
                    for _ in range(commands)
                ]
            ),
        }
    return {
        "format": "repro-cluster-report/1",
        "run": stitched.manifest,
        "shards": len(stitched.shards),
        "truncated_shards": list(stitched.truncated_shards),
        "events": len(stitched.events),
        "spans": span_counts,
        "decides": decide_rows,
        "instances": instances,
        "overall": overall,
        "chaos": {
            "events": chaos_totals,
            "in_decide_windows": correlated_totals,
        },
        "smr": smr,
    }


# ---------------------------------------------------------------------- #
# SLO gates
# ---------------------------------------------------------------------- #


def check_slos(
    analysis: dict,
    max_p99_ms: Optional[float] = None,
    max_segment_residual_pct: float = 10.0,
    require_termination: bool = True,
) -> list[str]:
    """Judge one analysis against operational gates.

    Returns human-readable failures (empty = all gates pass):

    * **input** — the stitched trace must contain at least one event;
      an empty shard set proves nothing, so gating it is vacuous and
      must fail loudly rather than pass silently;
    * **termination** — the manifest's oracle verdict must be ok (no
      agreement/validity/termination problems, no timeout) and at least
      one correct decision must appear in the trace;
    * **decomposition** — the p50 of per-decision segment sums must be
      within ``max_segment_residual_pct`` of the measured end-to-end
      p50 (the segments are supposed to tile the wall clock — drift
      means the tracing itself is lying);
    * **latency** — when ``max_p99_ms`` is given, overall decide p99
      must not exceed it.
    """
    failures: list[str] = []
    if not analysis.get("events"):
        failures.append(
            "input: empty trace (0 events stitched) — gates have "
            "nothing to judge"
        )
    overall = analysis.get("overall")
    manifest = analysis.get("run")
    if require_termination:
        if overall is None or overall["decides"] == 0:
            failures.append("termination: no correct decisions in trace")
        if manifest is not None:
            if manifest.get("timed_out"):
                failures.append("termination: run timed out")
            for problem in manifest.get("problems", []):
                failures.append(f"oracle: {problem}")
    if overall is not None and overall["decides"] > 0:
        residual = overall.get("segment_residual_pct", 0.0)
        if residual > max_segment_residual_pct:
            failures.append(
                f"decomposition: segment sum deviates {residual:.1f}% "
                f"from e2e p50 (limit {max_segment_residual_pct:.1f}%)"
            )
        if max_p99_ms is not None:
            p99 = overall["latency_ms"]["p99"]
            if p99 > max_p99_ms:
                failures.append(
                    f"latency: decide p99 {p99:.1f} ms exceeds SLO "
                    f"{max_p99_ms:.1f} ms"
                )
    if analysis.get("truncated_shards"):
        failures.append(
            "integrity: truncated shards "
            + ", ".join(
                os.path.basename(path)
                for path in analysis["truncated_shards"]
            )
        )
    return failures


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #


def render_report_markdown(
    analysis: dict, slo_failures: Optional[list[str]] = None
) -> str:
    """The run report as Markdown (tables via the bench renderer)."""
    from repro.harness.tables import render_markdown

    parts: list[str] = ["# Cluster run report"]
    manifest = analysis.get("run")
    if manifest:
        spec = manifest.get("spec", {})
        prov = manifest.get("provenance", {})
        parts.append(
            "\n".join(
                [
                    f"- run id: `{manifest.get('run_id')}`",
                    f"- spec: n={spec.get('n')} k={spec.get('k')} "
                    f"protocol={spec.get('protocol')} "
                    f"instances={spec.get('instances')} "
                    f"byzantine={spec.get('byzantine')} "
                    f"chaos={spec.get('chaos')}",
                    f"- verdict: {'ok' if manifest.get('ok') else 'FAILED'}"
                    f" ({manifest.get('decisions')} decisions in "
                    f"{manifest.get('wall_seconds', 0):.3f}s)",
                    f"- provenance: git={str(prov.get('git_sha'))[:12]} "
                    f"cpus={prov.get('cpu_count')} "
                    f"python={prov.get('python')}",
                ]
            )
        )
    parts.append(
        f"Stitched {analysis['shards']} shards, "
        f"{analysis['events']} events."
    )
    if analysis.get("truncated_shards"):
        parts.append(
            "**Warning:** truncated shards (parsed prefix used): "
            + ", ".join(
                os.path.basename(path)
                for path in analysis["truncated_shards"]
            )
        )

    overall = analysis.get("overall")
    parts.append("## Latency decomposition")
    if overall is None:
        parts.append("No correct decisions in the trace.")
    else:
        headers = [
            "instance", "decides",
            "e2e p50", "e2e p99",
            "queue p50", "transport p50", "compute p50",
        ]
        rows = []
        for instance, stats in analysis["instances"].items():
            rows.append(
                [
                    instance,
                    stats["decides"],
                    stats["latency_ms"]["p50"],
                    stats["latency_ms"]["p99"],
                    stats["queue_ms"]["p50"],
                    stats["transport_ms"]["p50"],
                    stats["compute_ms"]["p50"],
                ]
            )
        rows.append(
            [
                "overall",
                overall["decides"],
                overall["latency_ms"]["p50"],
                overall["latency_ms"]["p99"],
                overall["queue_ms"]["p50"],
                overall["transport_ms"]["p50"],
                overall["compute_ms"]["p50"],
            ]
        )
        parts.append(render_markdown(headers, rows))
        parts.append(
            f"Segment sums account for the e2e p50 within "
            f"{overall['segment_residual_pct']:.1f}% "
            f"(sum p50 {overall['segment_sum_p50_ms']:.3f} ms vs "
            f"e2e p50 {overall['latency_ms']['p50']:.3f} ms). "
            f"All times in milliseconds."
        )

    parts.append("## Chaos correlation")
    chaos = analysis.get("chaos", {})
    if not chaos.get("events"):
        parts.append("No chaos events in the trace (clean network).")
    else:
        rows = [
            [name, chaos["events"].get(name, 0),
             chaos.get("in_decide_windows", {}).get(name, 0)]
            for name in CHAOS_EVENTS
            if chaos["events"].get(name)
            or chaos.get("in_decide_windows", {}).get(name)
        ]
        parts.append(
            render_markdown(["event", "total", "in decide windows"], rows)
        )

    smr = analysis.get("smr")
    if smr is not None:
        parts.append("## SMR commit latency")
        latency = smr["commit_latency_ms"]
        parts.append(
            render_markdown(
                [
                    "slots", "commits", "aborts", "applies",
                    "dedup hits", "snapshots", "p50 ms", "p99 ms",
                    "max ms",
                ],
                [
                    [
                        smr["slots"],
                        smr["commits"],
                        smr["aborts"],
                        smr["applies"],
                        smr["dedup_hits"],
                        smr["snapshots"],
                        latency["p50"],
                        latency["p99"],
                        latency["max"],
                    ]
                ],
            )
        )
        parts.append(
            "Commits, aborts and the latency percentiles count commands; "
            "a slot carries every command submitted in one event-loop "
            "tick.  Commit latency is submit → majority-applied (the "
            "client-visible bound); per-slot consensus decide latency "
            "is decomposed above."
        )

    if slo_failures is not None:
        parts.append("## SLO gates")
        if not slo_failures:
            parts.append("All gates passed.")
        else:
            parts.append("\n".join(f"- **FAIL** {f}" for f in slo_failures))
    return "\n\n".join(parts) + "\n"


def report_json_payload(
    analysis: dict, slo_failures: Optional[list[str]] = None
) -> dict:
    """The run report as a JSON-ready payload."""
    payload = dict(analysis)
    if slo_failures is not None:
        payload["slo"] = {
            "ok": not slo_failures,
            "failures": list(slo_failures),
        }
    return payload
