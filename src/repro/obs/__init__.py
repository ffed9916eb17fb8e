"""repro.obs — the runtime observability layer.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters, gauges,
  fixed-bucket histograms), exposed as ``runtime.metrics`` on every
  :class:`~repro.cuda.runtime.CudaRuntime`;
* :mod:`repro.obs.compare` — metric-snapshot diffing and regression
  flagging;
* :mod:`repro.obs.critpath` — critical-path / overlap-efficiency /
  what-if analysis over the causal run DAG;
* :mod:`repro.obs.report` — the profiler CLI
  (``python -m repro.obs.report <trace-or-run.json> [--critpath]
  [--compare base] [--alerts] [--health] [--fail-on-alerts]
  [--format json]``);
* :mod:`repro.obs.live` — the live telemetry bus, flight recorder, and
  online anomaly watchdog (``CudaRuntime(telemetry=TelemetryBus(...))``);
* :mod:`repro.obs.watch` — the live session viewer CLI
  (``python -m repro.obs.watch session.jsonl [--follow]``);
* :mod:`repro.obs.records` — the one JSONL record format every stream
  (session, SLO, telemetry) is written and read in;
* :mod:`repro.obs.slo` — per-tenant SLO tracking for the multi-tenant
  service: latency SLIs, error-budget accounting, multi-window
  burn-rate alerts, and SLO-aware backpressure
  (``Service(slo=..., backpressure=True)``).
"""

from .compare import compare_snapshots, failing_alerts, flatten_snapshot
from .live import (
    Alert,
    FlightRecorder,
    TelemetryBus,
    TelemetrySample,
    TelemetrySubscriber,
    Watchdog,
    default_detectors,
    severity_at_least,
)
from .critpath import (
    BLAME_COMPONENTS,
    RunDag,
    Scenario,
    blame_decomposition,
    blame_summary,
    critical_path,
    critpath_metrics,
    critpath_summary,
    overlap_report,
    replay,
    whatif,
)
from .slo import (
    JobSli,
    SloBurnDetector,
    SloPolicy,
    SloTracker,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsError,
    collect,
    merge_snapshots,
    start_collection,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ObsError",
    "DEFAULT_BUCKETS",
    "merge_snapshots",
    "start_collection",
    "collect",
    "compare_snapshots",
    "failing_alerts",
    "flatten_snapshot",
    "TelemetryBus",
    "TelemetrySample",
    "TelemetrySubscriber",
    "FlightRecorder",
    "Watchdog",
    "Alert",
    "default_detectors",
    "severity_at_least",
    "RunDag",
    "Scenario",
    "critical_path",
    "critpath_metrics",
    "critpath_summary",
    "overlap_report",
    "replay",
    "whatif",
    "BLAME_COMPONENTS",
    "blame_decomposition",
    "blame_summary",
    "JobSli",
    "SloBurnDetector",
    "SloPolicy",
    "SloTracker",
]
