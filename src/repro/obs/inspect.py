"""Offline trace inspection: span trees and decision-audit summaries.

Consumes the Chrome trace-event documents written by
:mod:`repro.obs.export` and reconstructs the logical structures the
emitters recorded: the per-stage phase span tree, Algorithm 1's
decision audit (bounds, candidates, predicted makespans, chosen
delay, whether the scan's spine was chained), and the final delay
tables — which must match, stage for stage, the table
``repro schedule`` prints for the same workload.
Backs the ``repro inspect`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass
class SpanNode:
    """One span with its reconstructed children (via sid/psid args)."""

    sid: int
    name: str
    cat: str
    ts: float
    dur: float
    args: dict
    children: "list[SpanNode]" = field(default_factory=list)


def _span_events(doc: Mapping[str, Any]) -> list[dict]:
    return [
        ev for ev in doc.get("traceEvents", ())
        if isinstance(ev, Mapping) and ev.get("ph") == "X"
    ]


def span_nodes(doc: Mapping[str, Any]) -> list[SpanNode]:
    """Rebuild the logical span tree; returns root nodes in ts order.

    Spans exported without ids (foreign traces) become roots.
    """
    nodes: dict[int, SpanNode] = {}
    order: list[tuple[dict, SpanNode]] = []
    for ev in _span_events(doc):
        args = dict(ev.get("args") or {})
        sid = args.pop("sid", 0)
        args.pop("psid", None)
        node = SpanNode(
            sid=int(sid),
            name=str(ev.get("name", "")),
            cat=str(ev.get("cat", "")),
            ts=float(ev.get("ts", 0)) / 1e6,
            dur=float(ev.get("dur", 0)) / 1e6,
            args=args,
        )
        if sid:
            nodes[int(sid)] = node
        order.append((ev, node))

    roots: list[SpanNode] = []
    for ev, node in order:
        psid = (ev.get("args") or {}).get("psid", 0)
        parent = nodes.get(int(psid)) if psid else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.ts, n.sid))
    roots.sort(key=lambda n: (n.ts, n.sid))
    return roots


def decision_audits(doc: Mapping[str, Any]) -> list[dict]:
    """All decision-audit records (one per stage Algorithm 1 scanned)."""
    audits = []
    for ev in _span_events(doc):
        audit = (ev.get("args") or {}).get("audit")
        if isinstance(audit, Mapping):
            audits.append(dict(audit))
    return audits


def delay_tables(doc: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """Final delay tables, keyed by job id.

    Read from the ``schedule`` instants Algorithm 1 emits at
    termination — these reflect fallback and refinement, so they equal
    the :class:`~repro.core.schedule.DelaySchedule` the caller got.
    """
    tables: dict[str, dict[str, float]] = {}
    for ev in doc.get("traceEvents", ()):
        if not isinstance(ev, Mapping) or ev.get("ph") not in ("i", "I"):
            continue
        if ev.get("name") != "schedule":
            continue
        args = ev.get("args") or {}
        job_id = args.get("job_id")
        delays = args.get("delays")
        if isinstance(job_id, str) and isinstance(delays, Mapping):
            tables[job_id] = {str(s): float(x) for s, x in delays.items()}
    return tables


def manifest_of(doc: Mapping[str, Any]) -> "dict | None":
    other = doc.get("otherData")
    if isinstance(other, Mapping) and isinstance(other.get("manifest"), Mapping):
        return dict(other["manifest"])
    return None


def counters_of(doc: Mapping[str, Any]) -> dict:
    other = doc.get("otherData")
    if isinstance(other, Mapping) and isinstance(other.get("counters"), Mapping):
        return dict(other["counters"])
    return {"counters": {}, "gauges": {}}


def counter_track_summary(doc: Mapping[str, Any]) -> "list[dict]":
    """Per-track statistics for the counter samples in a trace.

    Groups the ``ph: "C"`` events by (track label, counter name), where
    the track label is resolved through the ``process_name`` /
    ``thread_name`` metadata events (pid → process, (pid, tid) →
    thread), and summarizes each group's values as min/mean/max/last
    (last = value of the latest-``ts`` sample; ties keep file order).
    Returns a list of dicts sorted by (track, counter) — the payload
    behind ``repro inspect --counters``.
    """
    processes: dict = {}
    threads: dict = {}
    for ev in doc.get("traceEvents", ()):
        if not isinstance(ev, Mapping) or ev.get("ph") != "M":
            continue
        args = ev.get("args") or {}
        label = args.get("name")
        if not isinstance(label, str):
            continue
        if ev.get("name") == "process_name":
            processes[ev.get("pid")] = label
        elif ev.get("name") == "thread_name":
            threads[(ev.get("pid"), ev.get("tid"))] = label

    groups: "dict[tuple[str, str], list[tuple[float, float]]]" = {}
    for ev in doc.get("traceEvents", ()):
        if not isinstance(ev, Mapping) or ev.get("ph") != "C":
            continue
        args = ev.get("args") or {}
        value = args.get("value")
        if not isinstance(value, (int, float)):
            continue
        pid, tid = ev.get("pid"), ev.get("tid")
        proc = processes.get(pid)
        thread = threads.get((pid, tid))
        if proc and thread:
            track = f"{proc}/{thread}"
        else:
            track = proc or thread or f"pid {pid}"
        name = str(ev.get("name", ""))
        ts = float(ev.get("ts", 0)) / 1e6
        groups.setdefault((track, name), []).append((ts, float(value)))

    summary = []
    for (track, name), samples in sorted(groups.items()):
        values = [v for _, v in samples]
        last = max(enumerate(samples), key=lambda iv: (iv[1][0], iv[0]))[1][1]
        summary.append(
            {
                "track": track,
                "counter": name,
                "samples": len(values),
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "last": last,
                "t_first": samples[0][0],
                "t_last": max(ts for ts, _ in samples),
            }
        )
    return summary


def render_counter_summary(doc: Mapping[str, Any]) -> str:
    """Text table of :func:`counter_track_summary`."""
    rows = counter_track_summary(doc)
    if not rows:
        return "no counter tracks in trace"
    lines = [
        f"counter tracks ({len(rows)} series):",
        f"  {'track':28s} {'counter':16s} {'n':>5s} "
        f"{'min':>12s} {'mean':>12s} {'max':>12s} {'last':>12s}",
    ]
    for r in rows:
        lines.append(
            f"  {r['track']:28s} {r['counter']:16s} {r['samples']:>5d} "
            f"{r['min']:>12.6g} {r['mean']:>12.6g} {r['max']:>12.6g} "
            f"{r['last']:>12.6g}"
        )
    return "\n".join(lines)


def _render_node(node: SpanNode, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    lines.append(
        f"{pad}{node.name:20s} [{node.ts:10.3f} .. {node.ts + node.dur:10.3f}] "
        f"{node.dur:9.3f} s  ({node.cat})"
    )
    for child in node.children:
        _render_node(child, indent + 1, lines)


def render_summary(doc: Mapping[str, Any], max_stages: int = 50) -> str:
    """Human-readable span-tree + decision-audit summary of a trace."""
    lines: list[str] = []

    manifest = manifest_of(doc)
    if manifest:
        lines.append(
            f"manifest: repro {manifest.get('version')} | "
            f"python {manifest.get('python')} | seed {manifest.get('seed')} | "
            f"config {str(manifest.get('config_hash', ''))[:12]}"
        )
        if manifest.get("workloads"):
            lines.append("workloads: " + ", ".join(
                f"{jid} ({fp})" for jid, fp in sorted(manifest["workloads"].items())
            ))
        lines.append("")

    roots = span_nodes(doc)
    shown = 0
    lines.append(f"span tree ({len(roots)} root span(s)):")
    for root in roots:
        if root.cat == "decision":
            continue
        if shown >= max_stages:
            lines.append(f"  ... {len(roots) - shown} more root span(s) elided")
            break
        _render_node(root, 1, lines)
        shown += 1

    audits = decision_audits(doc)
    if audits:
        lines.append("")
        lines.append(f"decision audit ({len(audits)} stage scan(s)):")
        lines.append(
            f"  {'stage':16s} {'bounds':>18s} {'evaluated':>9s} "
            f"{'pruned':>6s} {'chosen':>8s} {'makespan':>10s} {'spine':>7s}"
        )
        for a in audits:
            lo, hi = a.get("bounds", (0.0, 0.0))
            lines.append(
                f"  {a.get('stage_id', '?'):16s} "
                f"[{lo:7.1f},{hi:8.1f}] "
                f"{len(a.get('candidates', ())):>9d} "
                f"{a.get('pruned', 0):>6d} "
                f"{a.get('chosen_delay', 0.0):>8.1f} "
                f"{a.get('best_makespan', float('nan')):>10.1f} "
                f"{a.get('spine') or '-':>7s}"
            )

    tables = delay_tables(doc)
    for job_id, table in sorted(tables.items()):
        lines.append("")
        lines.append(f"delay table for {job_id}:")
        for sid, x in sorted(table.items()):
            lines.append(f"  {sid:16s} {x:8.1f} s")

    counters = counters_of(doc)
    flat = {**counters.get("counters", {}), **counters.get("gauges", {})}
    if flat:
        lines.append("")
        lines.append("counters/gauges:")
        for name in sorted(flat):
            lines.append(f"  {name:40s} {flat[name]:.6g}")
    return "\n".join(lines)
