"""The flight recorder: bounded incident capture for live runs.

A :class:`FlightRecorder` subscribes to a
:class:`~repro.obs.live.bus.TelemetryBus` and keeps a fixed-size ring of
the most recent telemetry samples and alerts.  When something goes wrong
— a :class:`~repro.errors.FaultError` escapes the retry policy, a
strict-mode :class:`~repro.errors.HazardError` fires, or a watchdog
alert at/above ``min_severity`` lands — it dumps everything it knows
into one self-contained ``incident.json``:

* the trigger (what fired, when, with what message),
* the recent sample window with all derived rates,
* recent alerts,
* the tail of the trace (span events + decision marks),
* active-op state per engine and the causal DAG tail (when a hazard
  checker is recording),
* a full metrics snapshot and the watched-counter deltas across the
  buffered window.

Dump contents are plain dicts serialized with sorted keys, so two runs
of the same seed produce byte-identical incident files.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any

from .bus import TelemetryBus, TelemetrySample, TelemetrySubscriber
from .watchdog import Alert, severity_at_least

#: Schema tag written into every incident dump.
INCIDENT_SCHEMA = "repro-incident/1"


class FlightRecorder(TelemetrySubscriber):
    """Bounded ring buffer of recent run state with automatic dumps.

    Parameters
    ----------
    capacity:
        Samples retained in the ring (alerts keep their own ring of the
        same size).
    incident_dir:
        Directory for automatic dumps; files are named
        ``incident.json``, ``incident-2.json``, ... in trigger order.
        ``None`` keeps dumps in memory only (``recorder.incidents``).
    min_severity:
        Lowest alert severity that triggers an automatic dump
        (``None`` disables alert-triggered dumps; fault/hazard
        incidents always dump).
    trace_tail / dag_tail:
        Number of trailing trace events / DAG nodes included in a dump.
    """

    def __init__(
        self,
        *,
        capacity: int = 128,
        incident_dir: str | Path | None = None,
        min_severity: str | None = "warning",
        trace_tail: int = 64,
        dag_tail: int = 32,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.incident_dir = Path(incident_dir) if incident_dir is not None else None
        self.min_severity = min_severity
        self.trace_tail = trace_tail
        self.dag_tail = dag_tail
        self.ring: deque[TelemetrySample] = deque(maxlen=capacity)
        self.alert_ring: deque[Alert] = deque(maxlen=capacity)
        self.incidents: list[dict[str, Any]] = []
        self.incident_paths: list[Path] = []
        self._bus: TelemetryBus | None = None

    # -- subscriber hooks ---------------------------------------------------

    def bind(self, bus: TelemetryBus) -> None:
        self._bus = bus

    def on_sample(self, sample: TelemetrySample) -> None:
        self.ring.append(sample)

    def on_alert(self, alert: Any) -> None:
        if isinstance(alert, Alert):
            self.alert_ring.append(alert)
            if (self.min_severity is not None
                    and severity_at_least(alert.severity, self.min_severity)):
                self.dump({"kind": "alert", "t": alert.t,
                           "error": None, "message": alert.message,
                           "detector": alert.detector,
                           "severity": alert.severity})

    def on_incident(self, trigger: dict[str, Any]) -> None:
        self.dump(trigger)

    # -- the dump -----------------------------------------------------------

    def dump(self, trigger: dict[str, Any]) -> dict[str, Any]:
        """Assemble (and optionally write) a self-contained incident."""
        bus = self._bus
        samples = [s.to_dict() for s in self.ring]
        incident: dict[str, Any] = {
            "schema": INCIDENT_SCHEMA,
            "trigger": dict(sorted(trigger.items())),
            "t": bus.now if bus is not None else trigger.get("t", 0.0),
            "health": bus.health() if bus is not None else None,
            "window": {
                "start": samples[0]["t"] - samples[0]["dt"] if samples else None,
                "end": samples[-1]["t"] if samples else None,
                "n_samples": len(samples),
                "samples": samples,
            },
            "alerts": [a.to_dict() for a in self.alert_ring],
            "metric_deltas": self._window_deltas(),
            "active_ops": bus.engine_state() if bus is not None else [],
            "trace_tail": self._trace_tail(),
            "marks_tail": self._marks_tail(),
            "dag_tail": self._dag_tail(),
            "metrics": (bus.metrics.snapshot()
                        if bus is not None and bus.metrics is not None else None),
        }
        self.incidents.append(incident)
        if self.incident_dir is not None:
            self.incident_dir.mkdir(parents=True, exist_ok=True)
            n = len(self.incident_paths)
            name = "incident.json" if n == 0 else f"incident-{n + 1}.json"
            path = self.incident_dir / name
            path.write_text(json.dumps(incident, indent=2, sort_keys=True) + "\n")
            self.incident_paths.append(path)
        return incident

    # -- tail assembly ------------------------------------------------------

    def _window_deltas(self) -> dict[str, float]:
        """Watched-counter movement across the whole buffered window."""
        if not self.ring:
            return {}
        first, last = self.ring[0], self.ring[-1]
        keys = set(first.totals) | set(last.totals)
        return {
            k: last.totals.get(k, 0.0) - (first.totals.get(k, 0.0)
                                          - first.deltas.get(k, 0.0))
            for k in sorted(keys)
        }

    def _trace_tail(self) -> list[dict[str, Any]]:
        bus = self._bus
        if bus is None or bus.trace is None or not self.trace_tail:
            return []
        return [
            {
                "name": e.name,
                "category": e.category,
                "lane": e.lane,
                "stream": e.stream,
                "start": e.start,
                "end": e.end,
                "nbytes": e.nbytes,
            }
            for e in bus.trace.events_since(-self.trace_tail)
        ]

    def _marks_tail(self) -> list[dict[str, Any]]:
        bus = self._bus
        if bus is None or bus.trace is None or not self.trace_tail:
            return []
        return bus.trace.marks_since(-self.trace_tail)

    def _dag_tail(self) -> list[dict[str, Any]]:
        bus = self._bus
        if bus is None or bus.checker is None or not self.dag_tail:
            return []
        from ...check.dag import dag_to_json

        return dag_to_json(bus.checker.dag[-self.dag_tail:])
