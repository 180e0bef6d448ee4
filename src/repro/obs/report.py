"""Rendering metrics snapshots: summary tables and ``metrics.json``.

One metrics snapshot holds flat counter/gauge/histogram maps; this
module turns them into the views the CLI prints — overall counts, the
per-phase witness/accept tables the paper's Section 4 reasons about, and
decision-latency histograms — and serialises them to ``metrics.json``
for downstream tooling.

Used by ``repro-consensus run <id> --metrics`` (per-experiment summary)
and ``repro-consensus metrics`` (instrumented reference configurations +
``metrics.json``).
"""

from __future__ import annotations

import json
import os
import re
from typing import Mapping, Optional

from repro.obs.metrics import HistogramSnapshot, MetricsSnapshot

#: Counter-name pattern for per-phase series: ``<prefix>.phase.<N>``.
_PHASE_KEY = re.compile(r"^(?P<prefix>.+)\.phase\.(?P<phase>\d+)$")


def per_phase_series(
    snapshot: MetricsSnapshot, prefix: str
) -> list[tuple[int, int]]:
    """Extract ``<prefix>.phase.<N>`` counters as sorted (phase, count)."""
    rows: list[tuple[int, int]] = []
    probe = prefix + ".phase."
    for name, value in snapshot.counters.items():
        if not name.startswith(probe):
            continue
        match = _PHASE_KEY.match(name)
        if match is not None:
            rows.append((int(match.group("phase")), value))
    rows.sort()
    return rows


def render_per_phase_table(
    snapshot: MetricsSnapshot, prefix: str, label: str
) -> str:
    """Aligned phase/count table for one per-phase counter family."""
    from repro.harness.tables import render_table

    rows = per_phase_series(snapshot, prefix)
    if not rows:
        return f"{label}: no data recorded"
    return render_table(["phase", label], [list(row) for row in rows])


def render_histogram(name: str, histogram: HistogramSnapshot) -> str:
    """One histogram as an aligned bucket table plus summary line."""
    from repro.harness.tables import render_table

    lines = [
        f"{name}: count={histogram.count} mean={histogram.mean:.2f} "
        f"min={histogram.minimum} max={histogram.maximum}"
    ]
    buckets = histogram.nonzero_buckets()
    if buckets:
        lines.append(
            render_table(["bucket", "count"], [list(row) for row in buckets])
        )
    return "\n".join(lines)


def render_metrics_summary(
    snapshot: MetricsSnapshot, title: Optional[str] = None
) -> str:
    """The full human-readable digest of one snapshot.

    Sections: totals (counters/gauges), per-phase witness and accept
    tables when the corresponding protocols ran, and every histogram.
    """
    from repro.harness.tables import render_table

    parts: list[str] = []
    if title:
        parts.append(title)
    plain_counters = [
        [name, value]
        for name, value in sorted(snapshot.counters.items())
        if ".phase." not in name
    ]
    if plain_counters:
        parts.append(render_table(["counter", "total"], plain_counters))
    if snapshot.gauges:
        parts.append(
            render_table(
                ["gauge", "value"],
                [[name, value] for name, value in sorted(snapshot.gauges.items())],
            )
        )
    for prefix, label in (
        ("failstop.witnesses", "witnesses"),
        ("malicious.accepts", "accepts"),
        ("kernel.steps", "steps"),
    ):
        if per_phase_series(snapshot, prefix):
            parts.append(render_per_phase_table(snapshot, prefix, label))
    for name, histogram in sorted(snapshot.histograms.items()):
        parts.append(render_histogram(name, histogram))
    return "\n\n".join(parts)


def metrics_json_payload(
    snapshots: Mapping[str, MetricsSnapshot],
) -> dict:
    """JSON-ready payload for one or more named snapshots."""
    return {
        "format": "repro-metrics/2",
        "snapshots": {
            name: snapshot.to_dict() for name, snapshot in sorted(snapshots.items())
        },
    }


def write_metrics_json(
    snapshots: Mapping[str, MetricsSnapshot], path: str
) -> None:
    """Write :func:`metrics_json_payload` as pretty-printed JSON.

    Parent directories are created so nested ``--out`` paths work.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_json_payload(snapshots), handle, indent=2, sort_keys=True)
        handle.write("\n")
