"""Live session viewer: ``python -m repro.obs.watch <session.jsonl>``.

Tails a telemetry session file (the ``repro-telemetry/1`` JSONL stream
written by :class:`~repro.obs.live.bus.TelemetryBus`) and renders it as
refreshing text panels:

* a status line — monitored virtual time, sample cadence, health;
* the most recent samples (rates, stall/compute/transfer fractions,
  overlap efficiency, cache hit rate, queue depth);
* watchdog alerts and incident marks, newest last.

Service sessions (the ``repro-service-session/1`` stream of
``Service.session``) are rendered too: a
per-tenant table — jobs submitted/admitted/finished, backlog, quanta,
degradations, shed slots, and active SLO burns — replaces or joins the
samples panel, so one viewer covers single-run telemetry, multi-tenant
service logs, and combined streams.  ``repro-slo/1`` burn marks in the
same file light up the ``burning`` column.

One-shot by default: render the current file contents and exit.
``--follow`` keeps polling the file (``--poll`` wall-clock seconds
between reads, default 0.5) and redraws whenever it grows — watching a
run writing its session live, Ctrl-C to stop.  ``--last N`` bounds the
samples panel (default 12 rows).

Exit codes: 0 on success, 2 when the session file is missing, empty, or
not a telemetry stream.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, TextIO

from ..bench.report import Table
from .records import parse_records

#: ANSI: clear screen + home — used between --follow redraws.
_CLEAR = "\x1b[2J\x1b[H"


#: Fields the panels format as numbers, in whichever record carries them;
#: the overlap and hit-rate columns print ``null`` as "-".
_NUMBERS = ("t", "t0", "sample_interval", "h2d_bytes_per_s", "d2h_bytes_per_s",
            "stall_fraction", "compute_fraction", "transfer_fraction",
            "queue_depth", "quanta", "slots")
_NULLABLE = ("overlap_efficiency", "cache_hit_rate")


def _renderable(rec: dict[str, Any]) -> bool:
    """True when the record's fields hold what the panels format them as."""
    trigger = rec.get("trigger", {})      # an incident's own fields
    return (isinstance(trigger, dict) and isinstance(rec.get("tenant", ""), str)
            and all(isinstance(r.get(key, 0), (int, float))
                    for r in (rec, trigger) for key in _NUMBERS)
            and all(isinstance(rec.get(key), (int, float, type(None)))
                    for key in _NULLABLE))


def parse_session(lines: list[str]) -> dict[str, list[dict[str, Any]]]:
    """Bucket raw JSONL lines by record kind.

    Lines that are not records (:func:`~repro.obs.records.parse_records`)
    and records the panels could not render (a field of the wrong type)
    are counted under ``"invalid"`` but never abort — a live file may
    end mid-write.
    """
    parsed, invalid = parse_records(lines)
    records: dict[str, list[dict[str, Any]]] = {
        "session": [], "sample": [], "alert": [], "incident": [],
        "invalid": [{"raw": line[:80]} for _number, line in invalid],
    }
    for rec in parsed:
        if _renderable(rec):
            records.setdefault(rec["kind"], []).append(rec)
        else:
            records["invalid"].append({"raw": json.dumps(rec)[:80]})
    return records


def _fmt_opt(value: Any, spec: str = ".3f") -> str:
    return "-" if value is None else format(value, spec)


#: Record kinds that mark a ``repro-service-session/1`` stream.
_SERVICE_KINDS = ("tenant", "submit", "admit", "finish", "degrade", "shed")


def has_service_records(records: dict[str, list[dict[str, Any]]]) -> bool:
    """True when the parsed stream carries service-session events."""
    return any(records.get(kind) for kind in _SERVICE_KINDS)


def tenants_table(records: dict[str, list[dict[str, Any]]]) -> Table:
    """Per-tenant rollup of a ``repro-service-session/1`` stream.

    ``backlog`` counts jobs submitted but not yet finished — on a live
    file that is exactly the work still in the system.  ``burning``
    reflects ``repro-slo/1`` burn marks co-written to the stream (a
    ``start`` without a later ``stop``/``release``).
    """
    table = Table(
        title="service tenants",
        columns=["tenant", "submitted", "admitted", "finished", "backlog",
                 "quanta", "degraded", "shed_slots", "burning"],
    )
    names: list[str] = []
    for rec in records.get("tenant", []):
        if rec.get("tenant", "?") not in names:
            names.append(rec.get("tenant", "?"))

    def count(kind: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in records.get(kind, []):
            t = rec.get("tenant", "?")
            out[t] = out.get(t, 0) + 1
            if t not in names:
                names.append(t)
        return out

    submitted = count("submit")
    admitted = count("admit")
    finished = count("finish")
    degraded = count("degrade")
    quanta: dict[str, int] = {}
    for rec in records.get("finish", []):
        t = rec.get("tenant", "?")
        quanta[t] = quanta.get(t, 0) + int(rec.get("quanta", 0))
    shed: dict[str, int] = {}
    for rec in records.get("shed", []):
        t = rec.get("tenant", "?")
        shed[t] = shed.get(t, 0) + int(rec.get("slots", 0))
    burning: dict[str, bool] = {}
    for rec in records.get("burn", []):
        burning[rec.get("tenant", "?")] = rec.get("state") == "start"
    for t in names:
        table.add_row(
            t, submitted.get(t, 0), admitted.get(t, 0), finished.get(t, 0),
            submitted.get(t, 0) - finished.get(t, 0), quanta.get(t, 0),
            degraded.get(t, 0), shed.get(t, 0),
            "BURNING" if burning.get(t) else "-",
        )
    active = [t for t in sorted(burning) if burning[t]]
    if active:
        table.add_note("SLO budgets burning: " + ", ".join(active))
    return table


def samples_table(samples: list[dict[str, Any]], *, last: int = 12) -> Table:
    table = Table(
        title=f"recent samples (last {min(last, len(samples))} of {len(samples)})",
        columns=["t_s", "h2d_MB/s", "d2h_MB/s", "stall", "compute",
                 "transfer", "overlap_eff", "hit_rate", "queue"],
    )
    for s in samples[-last:]:
        table.add_row(
            f"{s.get('t', 0.0):.6g}",
            f"{s.get('h2d_bytes_per_s', 0.0) / 1e6:.1f}",
            f"{s.get('d2h_bytes_per_s', 0.0) / 1e6:.1f}",
            f"{s.get('stall_fraction', 0.0):.3f}",
            f"{s.get('compute_fraction', 0.0):.3f}",
            f"{s.get('transfer_fraction', 0.0):.3f}",
            _fmt_opt(s.get("overlap_efficiency")),
            _fmt_opt(s.get("cache_hit_rate")),
            f"{s.get('queue_depth', 0.0):g}",
        )
    return table


def alerts_panel(alerts: list[dict[str, Any]], *, last: int = 8) -> Table:
    table = Table(
        title=f"alerts ({len(alerts)})",
        columns=["t_s", "severity", "detector", "message"],
    )
    for a in alerts[-last:]:
        table.add_row(f"{a.get('t', 0.0):.6g}", a.get("severity", "?"),
                      a.get("detector", "?"), a.get("message", ""))
    if not alerts:
        table.add_note("none")
    return table


def status_line(records: dict[str, list[dict[str, Any]]]) -> str:
    session = records["session"][-1] if records["session"] else {}
    samples = records["sample"]
    alerts = records["alert"]
    incidents = records["incident"]
    now = samples[-1].get("t", 0.0) if samples else session.get("t0", 0.0)
    service_events = [r for kind in _SERVICE_KINDS
                      for r in records.get(kind, [])]
    if service_events:
        now = max([now] + [r.get("t", 0.0) for r in service_events])
    criticals = sum(1 for a in alerts if a.get("severity") == "critical")
    if incidents or criticals:
        health = "CRITICAL"
    elif alerts:
        health = "degraded"
    elif samples:
        health = "ok"
    else:
        health = "idle"
    parts = [
        f"health={health}",
        f"t={now:.6g}s",
        f"interval={session.get('sample_interval', 0.0):g}s",
        f"samples={len(samples)}",
        f"alerts={len(alerts)}",
        f"incidents={len(incidents)}",
    ]
    if records["invalid"]:
        parts.append(f"invalid_lines={len(records['invalid'])}")
    return "  ".join(parts)


def render(records: dict[str, list[dict[str, Any]]], *, last: int = 12) -> str:
    panels = [status_line(records)]
    if has_service_records(records):
        panels.append(tenants_table(records).format())
    if records["sample"] or not has_service_records(records):
        panels.append(samples_table(records["sample"], last=last).format())
    panels.append(alerts_panel(records["alert"]).format())
    for inc in records["incident"][-4:]:
        trigger = inc.get("trigger", inc)
        panels.append(
            f"incident: kind={trigger.get('kind', '?')} "
            f"t={trigger.get('t', 0.0):.6g} {trigger.get('message', '')}"
        )
    return "\n\n".join(panels)


def watch(
    path: str | Path,
    *,
    follow: bool = False,
    poll: float = 0.5,
    last: int = 12,
    stream: TextIO | None = None,
    max_redraws: int | None = None,
) -> int:
    """Render ``path`` once, or keep redrawing while it grows.

    ``max_redraws`` bounds the number of --follow poll rounds (tests use
    it; the CLI leaves it unbounded and stops on Ctrl-C).
    """
    stream = stream if stream is not None else sys.stdout
    path = Path(path)
    seen_size = -1
    polls = 0
    while True:
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if len(text) != seen_size:
            seen_size = len(text)
            records = parse_session(text.splitlines())
            if (not records["session"] and not records["sample"]
                    and not has_service_records(records)):
                if not follow:
                    print(f"error: {path} is not a telemetry session or "
                          "service session (no session/sample/service "
                          "records)", file=sys.stderr)
                    return 2
            else:
                if follow:
                    stream.write(_CLEAR)
                stream.write(render(records, last=last) + "\n")
                stream.flush()
        if not follow:
            return 0
        polls += 1
        if max_redraws is not None and polls >= max_redraws:
            return 0
        try:
            time.sleep(poll)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("session", help="telemetry session JSONL file "
                        "(TelemetryBus(jsonl=...) output)")
    parser.add_argument("--follow", action="store_true",
                        help="keep polling and redraw as the file grows")
    parser.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="wall-clock polling period for --follow (default 0.5)")
    parser.add_argument("--last", type=int, default=12, metavar="N",
                        help="show the last N samples (default 12)")
    args = parser.parse_args(argv)
    try:
        return watch(args.session, follow=args.follow, poll=args.poll,
                     last=args.last)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
