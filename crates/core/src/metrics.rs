//! Session-level self-observability instruments.
//!
//! The paper's demo is itself a monitoring tool; this module lets the
//! monitor monitor *itself*: per-round analyse latency against the
//! 150 ms pacing budget (§4.1 "the visual updates are paced"), EDT
//! backlog, sampling loss and live progress gauges. Transport counts
//! are not here: the receive path counts them into the registry itself
//! (`stetho_profiler::reassembly::TransportCounters`).
//!
//! All handles are cloned `Arc`s over atomics, so recording on the
//! monitor's per-event path is lock-free; the only locked work happens
//! at registration and scrape time.

use stetho_obsv::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS_USEC};

use crate::progress::ProgressSnapshot;

/// Instruments one session publishes into a registry.
///
/// Registration is idempotent per metric name, so several sequential
/// sessions (or a session restarted after chaos) can share one
/// long-lived registry and keep accumulating.
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    /// `stetho_session_analyse_usec` — per-round run-time analysis
    /// latency (sample-buffer snapshot + pair-elision + EDT enqueue).
    pub analyse_usec: Histogram,
    /// `stetho_edt_rounds_total` — analyse/dispatch rounds run.
    pub edt_rounds: Counter,
    /// `stetho_edt_pacing_violations_total` — rounds whose analysis
    /// overran the configured pacing budget.
    pub pacing_violations: Counter,
    /// `stetho_edt_queue_depth` — color operations waiting on the EDT.
    pub edt_queue_depth: Gauge,
    /// `stetho_samples_dropped_total` — events evicted from the session's
    /// sample window, accumulated across sessions.
    pub samples_dropped: Counter,
    progress_fraction: Gauge,
    progress_done: Gauge,
    progress_running: Gauge,
    progress_lost: Gauge,
    progress_total: Gauge,
}

impl SessionMetrics {
    /// Register (or re-attach to) the session instruments.
    pub fn new(registry: &Registry) -> Self {
        SessionMetrics {
            analyse_usec: registry.histogram(
                "stetho_session_analyse_usec",
                "Per-round run-time analysis latency in microseconds",
                &LATENCY_BUCKETS_USEC,
            ),
            edt_rounds: registry.counter(
                "stetho_edt_rounds_total",
                "Analyse/dispatch rounds run by the monitor",
            ),
            pacing_violations: registry.counter(
                "stetho_edt_pacing_violations_total",
                "Rounds whose analysis overran the EDT pacing budget",
            ),
            edt_queue_depth: registry.gauge(
                "stetho_edt_queue_depth",
                "Color operations queued on the event dispatch thread",
            ),
            samples_dropped: registry.counter(
                "stetho_samples_dropped_total",
                "Trace events evicted from the bounded sample window",
            ),
            progress_fraction: registry.gauge(
                "stetho_progress_fraction",
                "Fraction of the plan settled (done or lost), 0..=1",
            ),
            progress_done: registry.gauge("stetho_progress_done", "Instructions completed"),
            progress_running: registry.gauge(
                "stetho_progress_running",
                "Instructions currently executing",
            ),
            progress_lost: registry.gauge(
                "stetho_progress_lost",
                "Instructions written off to transport gaps",
            ),
            progress_total: registry.gauge("stetho_progress_total", "Instructions in the plan"),
        }
    }

    /// Record one analyse/dispatch round. `analyse_usec` is the round's
    /// measured latency (the caller owns the clock); a round counts as a
    /// pacing violation when it overran `pacing_budget_ms` (a zero
    /// budget — tests that drain immediately — never violates).
    pub fn record_round(&self, analyse_usec: u64, pacing_budget_ms: u64) {
        self.edt_rounds.inc();
        self.analyse_usec.observe(analyse_usec as f64);
        if pacing_budget_ms > 0 && analyse_usec > pacing_budget_ms * 1000 {
            self.pacing_violations.inc();
        }
    }

    /// Mirror a progress snapshot into the gauges.
    pub fn set_progress(&self, s: &ProgressSnapshot) {
        self.progress_fraction.set(s.fraction);
        self.progress_done.set(s.done as f64);
        self.progress_running.set(s.running as f64);
        self.progress_lost.set(s.lost as f64);
        self.progress_total.set(s.total as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_and_pacing_violations() {
        let r = Registry::new();
        let m = SessionMetrics::new(&r);
        m.record_round(1_000, 150); // within the 150 ms budget
        m.record_round(200_000, 150); // overran
        m.record_round(500_000, 0); // zero budget never violates
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("stetho_edt_rounds_total"), 3);
        assert_eq!(snap.counter_total("stetho_edt_pacing_violations_total"), 1);
        let fam = snap.family("stetho_session_analyse_usec").unwrap();
        assert_eq!(fam.samples.len(), 1);
    }

    #[test]
    fn progress_gauges_mirror_snapshot() {
        let r = Registry::new();
        let m = SessionMetrics::new(&r);
        m.set_progress(&ProgressSnapshot {
            total: 8,
            done: 4,
            running: 2,
            lost: 1,
            fraction: 0.625,
            completed_depth: 1,
            depth_levels: 3,
            clk: 99,
            eta_usec: None,
        });
        let snap = r.snapshot();
        assert_eq!(snap.gauge_value("stetho_progress_fraction"), Some(0.625));
        assert_eq!(snap.gauge_value("stetho_progress_done"), Some(4.0));
        assert_eq!(snap.gauge_value("stetho_progress_total"), Some(8.0));
    }

    #[test]
    fn session_metrics_reattach_to_existing_registry() {
        let r = Registry::new();
        let a = SessionMetrics::new(&r);
        a.edt_rounds.inc();
        let b = SessionMetrics::new(&r);
        b.edt_rounds.inc();
        assert_eq!(
            r.snapshot().counter_total("stetho_edt_rounds_total"),
            2,
            "sequential sessions share instruments"
        );
    }
}
