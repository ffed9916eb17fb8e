"""Unit tests for the online watchdog detectors (repro.obs.live.watchdog)."""

import pytest

from repro.obs.live import (
    TelemetryBus,
    Watchdog,
    default_detectors,
    severity_at_least,
)
from repro.obs.live.bus import TelemetrySample
from repro.obs.live.watchdog import (
    CacheThrashDetector,
    HazardRateDetector,
    OverlapCollapseDetector,
    QueueRunawayDetector,
    RetryStormDetector,
    SEVERITIES,
    StallSpikeDetector,
)


def mk_sample(seq, *, dt=1e-3, stall=0.0, compute=0.5, transfer=0.5,
              overlap=None, hit_rate=None, queue=0.0, deltas=None):
    """A hand-built telemetry sample at t = (seq+1)*dt."""
    return TelemetrySample(
        seq=seq, t=(seq + 1) * dt, dt=dt, totals={}, deltas=dict(deltas or {}),
        h2d_bytes_per_s=0.0, d2h_bytes_per_s=0.0, stall_fraction=stall,
        compute_fraction=compute, transfer_fraction=transfer,
        cache_hit_rate=hit_rate, overlap_efficiency=overlap, queue_depth=queue,
    )


def feed(detector, samples):
    return [a for a in (detector.update(s) for s in samples) if a is not None]


class TestSeverities:
    def test_order(self):
        assert severity_at_least("critical", "warning")
        assert severity_at_least("warning", "warning")
        assert not severity_at_least("info", "warning")

    def test_unknown_severity_raises(self):
        with pytest.raises(ValueError):
            severity_at_least("fatal", "warning")


class TestOverlapCollapse:
    def test_fires_on_sustained_zero_overlap(self):
        d = OverlapCollapseDetector()
        alerts = feed(d, [mk_sample(i, overlap=0.0) for i in range(10)])
        assert alerts and alerts[0].detector == "overlap_collapse"
        assert alerts[0].severity == "critical"  # EWMA 0 < threshold/2

    def test_healthy_overlap_is_quiet(self):
        d = OverlapCollapseDetector()
        assert feed(d, [mk_sample(i, overlap=0.9) for i in range(20)]) == []

    def test_idle_windows_do_not_qualify(self):
        d = OverlapCollapseDetector()
        # overlap is zero but one engine is idle: nothing to hide behind
        samples = [mk_sample(i, overlap=0.0, transfer=0.01) for i in range(20)]
        assert feed(d, samples) == []

    def test_warning_band_above_half_threshold(self):
        d = OverlapCollapseDetector(min_efficiency=0.2)
        alerts = feed(d, [mk_sample(i, overlap=0.12) for i in range(10)])
        assert alerts and alerts[0].severity == "warning"


class TestStallSpike:
    def quiet_then_spike(self, n_spike):
        base = [mk_sample(i, stall=0.01) for i in range(12)]
        spike = [mk_sample(12 + i, stall=0.95) for i in range(n_spike)]
        return base + spike

    def test_single_dead_window_is_quiet(self):
        # one-off dead window (end-of-run teardown): no alert
        d = StallSpikeDetector()
        assert feed(d, self.quiet_then_spike(1)) == []

    def test_sustained_spike_fires(self):
        d = StallSpikeDetector()
        alerts = feed(d, self.quiet_then_spike(3))
        assert alerts and alerts[0].detector == "stall_spike"
        assert alerts[0].evidence["streak"] >= 2

    def test_constant_high_stall_is_baseline_not_spike(self):
        d = StallSpikeDetector()
        assert feed(d, [mk_sample(i, stall=0.9) for i in range(30)]) == []

    def test_evidence_carries_statistics(self):
        d = StallSpikeDetector()
        a = feed(d, self.quiet_then_spike(2))[0]
        assert a.evidence["stall_fraction"] == pytest.approx(0.95)
        assert a.evidence["rolling_mean"] < 0.1


class TestCacheThrash:
    def thrash(self, i):
        return mk_sample(i, hit_rate=0.0, compute=0.05, transfer=0.9,
                         deltas={"cache_hits": 0.0, "cache_misses": 8.0})

    def test_fires_when_gpu_starves_behind_misses(self):
        d = CacheThrashDetector()
        alerts = feed(d, [self.thrash(i) for i in range(10)])
        assert alerts and alerts[0].detector == "cache_thrash"

    def test_streaming_misses_with_busy_gpu_are_fine(self):
        # Fig. 7/8 streaming: hit rate ~0 by design, but compute is busy
        d = CacheThrashDetector()
        samples = [mk_sample(i, hit_rate=0.0, compute=0.9, transfer=0.9,
                             deltas={"cache_misses": 8.0})
                   for i in range(20)]
        assert feed(d, samples) == []

    def test_windows_without_accesses_do_not_qualify(self):
        d = CacheThrashDetector()
        samples = [mk_sample(i, hit_rate=None, compute=0.05, transfer=0.9)
                   for i in range(20)]
        assert feed(d, samples) == []


class TestRetryStorm:
    def test_fires_over_budget(self):
        d = RetryStormDetector(max_retries=3.0)
        samples = [mk_sample(i, deltas={"retries": 1.0}) for i in range(6)]
        alerts = feed(d, samples)
        assert alerts and alerts[0].detector == "retry_storm"

    def test_critical_at_twice_budget(self):
        d = RetryStormDetector(max_retries=3.0)
        samples = [mk_sample(i, deltas={"retries": 4.0}) for i in range(3)]
        alerts = feed(d, samples)
        assert alerts and alerts[-1].severity == "critical"

    def test_rare_retries_are_fine(self):
        d = RetryStormDetector(max_retries=3.0, window=4)
        samples = [mk_sample(i, deltas={"retries": 1.0 if i % 8 == 0 else 0.0})
                   for i in range(32)]
        assert feed(d, samples) == []


class TestHazardRate:
    def test_fires_on_accumulating_hazards(self):
        d = HazardRateDetector(max_hazards=2.0)
        samples = [mk_sample(i, deltas={"hazards": 1.0}) for i in range(6)]
        alerts = feed(d, samples)
        assert alerts and alerts[0].detector == "hazard_rate"


class TestQueueRunaway:
    def test_fires_on_monotone_growth_past_floor(self):
        d = QueueRunawayDetector(min_depth=256.0, growth=2.0, window=4)
        samples = [mk_sample(i, queue=128.0 * (i + 1)) for i in range(8)]
        alerts = feed(d, samples)
        assert alerts and alerts[0].detector == "queue_runaway"

    def test_deep_but_stable_queue_is_fine(self):
        d = QueueRunawayDetector(min_depth=256.0, window=4)
        assert feed(d, [mk_sample(i, queue=400.0) for i in range(12)]) == []


class TestCooldownAndWarmup:
    def test_cooldown_bounds_alert_rate(self):
        dt = 1e-3
        hot = [mk_sample(i, dt=dt, overlap=0.0) for i in range(40)]
        no_cd = feed(OverlapCollapseDetector(cooldown=0.0), hot)
        with_cd = feed(OverlapCollapseDetector(cooldown=10 * dt), hot)
        assert len(with_cd) < len(no_cd)
        for a, b in zip(with_cd, with_cd[1:]):
            assert b.t - a.t >= 10 * dt

    def test_no_alert_during_warmup(self):
        d = OverlapCollapseDetector(window=8)
        assert feed(d, [mk_sample(i, overlap=0.0) for i in range(7)]) == []

    def test_window_must_hold_two_samples(self):
        with pytest.raises(ValueError):
            OverlapCollapseDetector(window=1)


class TestWatchdogSubscriber:
    def test_publishes_through_bus(self):
        bus = TelemetryBus(sample_interval=1e-3)
        wd = Watchdog(default_detectors())
        bus.add_subscriber(wd)
        for i in range(10):
            wd.on_sample(mk_sample(i, overlap=0.0))
        assert bus.alerts and all(a.detector == "overlap_collapse"
                                  for a in bus.alerts)

    def test_default_detector_names_are_unique(self):
        names = [d.name for d in default_detectors()]
        assert len(names) == len(set(names)) == 6
        for name in SEVERITIES:
            assert name in ("info", "warning", "critical")


class TestTenantStarvation:
    """The service-layer starvation detector (registry-driven)."""

    def registry(self, *, backlog=2.0, quanta=None, tenant="t0"):
        from repro.obs import MetricsRegistry

        m = MetricsRegistry()
        m.set_gauge(f"service.tenant.{tenant}.backlog", backlog)
        if quanta is not None:
            m.inc(f"service.tenant.{tenant}.quanta", quanta)
        return m

    def test_fires_on_backlogged_tenant_with_no_quanta(self):
        from repro.obs.live.watchdog import TenantStarvationDetector

        m = self.registry()
        d = TenantStarvationDetector(m, window=4)
        alerts = feed(d, [mk_sample(i) for i in range(6)])
        assert alerts and alerts[0].detector == "tenant_starvation"
        assert alerts[0].severity == "critical"
        assert alerts[0].evidence["tenant"] == "t0"

    def test_fully_starved_tenant_is_discovered_via_backlog_gauge(self):
        # regression: quanta counters are created lazily on the first
        # scheduled quantum, so a tenant that never ran must still be
        # visible to the detector through its backlog gauge alone
        from repro.obs.live.watchdog import TenantStarvationDetector

        m = self.registry()                    # backlog gauge, NO counter
        d = TenantStarvationDetector(m, window=4)
        assert d._tenants() == ["t0"]

    def test_tenant_first_seen_mid_window_waits_its_own_window(self):
        # regression: a tenant appearing after the detector warmed up
        # has no progress baseline — it must be observed for a full
        # window of its *own* samples before it may fire
        from repro.obs import MetricsRegistry
        from repro.obs.live.watchdog import TenantStarvationDetector

        m = MetricsRegistry()
        d = TenantStarvationDetector(m, window=4)
        assert feed(d, [mk_sample(i) for i in range(6)]) == []
        m.set_gauge("service.tenant.late.backlog", 3.0)   # appears now
        # the detector is long past warmup, but 'late' has been seen for
        # fewer than window samples: no alert yet
        assert feed(d, [mk_sample(6 + i) for i in range(3)]) == []
        # after a full window of its own observations it fires
        alerts = feed(d, [mk_sample(9 + i) for i in range(2)])
        assert alerts and alerts[0].evidence["tenant"] == "late"

    def test_progressing_tenant_is_quiet(self):
        from repro.obs.live.watchdog import TenantStarvationDetector

        m = self.registry(quanta=1.0)
        d = TenantStarvationDetector(m, window=4)
        out = []
        for i in range(8):
            m.inc("service.tenant.t0.quanta")   # progress every sample
            a = d.update(mk_sample(i))
            if a is not None:
                out.append(a)
        assert out == []

    def test_drained_backlog_is_quiet(self):
        from repro.obs.live.watchdog import TenantStarvationDetector

        m = self.registry(backlog=0.0)
        d = TenantStarvationDetector(m, window=4)
        assert feed(d, [mk_sample(i) for i in range(8)]) == []

    def test_without_registry_is_inert(self):
        from repro.obs.live.watchdog import TenantStarvationDetector

        d = TenantStarvationDetector(None, window=4)
        assert feed(d, [mk_sample(i) for i in range(8)]) == []


class TestDefaultDetectorComposition:
    def test_metrics_arg_adds_tenant_starvation(self):
        from repro.obs import MetricsRegistry

        names = [d.name for d in default_detectors(metrics=MetricsRegistry())]
        assert "tenant_starvation" in names
        assert len(names) == 7

    def test_slo_arg_adds_slo_burn(self):
        from repro.obs.slo import SloPolicy, SloTracker

        tracker = SloTracker([SloPolicy(tenant="t", target=1.0)])
        names = [d.name for d in default_detectors(slo=tracker)]
        assert "slo_burn" in names

    def test_bare_call_is_unchanged(self):
        assert len(default_detectors()) == 6
