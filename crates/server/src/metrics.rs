//! Service metrics: counters, gauges, and per-endpoint latency histograms,
//! rendered in the Prometheus text exposition format.
//!
//! Everything on the hot path is a plain atomic; the only lock is around
//! the per-(endpoint, status) response table, touched once per response.
//! The counters are designed to *reconcile*: at quiescence,
//!
//! ```text
//! campaigns_submitted_total ==
//!     completed + failed + cancelled + rejected (+ queued + running)
//! ```
//!
//! which the integration suite asserts after draining a loaded server.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Upper bounds (seconds) of the latency histogram buckets; an implicit
/// `+Inf` bucket follows. Sub-millisecond buckets matter: loopback
/// status/metrics requests routinely finish in tens of microseconds.
pub const LATENCY_BUCKETS: [f64; 8] = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.25, 1.0, 5.0];

/// The route classes the server tracks separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/campaigns`
    Submit,
    /// `GET /v1/campaigns/<id>`
    Status,
    /// `GET /v1/campaigns/<id>/result`
    Result,
    /// `DELETE /v1/campaigns/<id>`
    Cancel,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/shutdown`
    Shutdown,
    /// Anything else (unknown routes, protocol errors).
    Other,
}

impl Endpoint {
    /// Every endpoint, in render order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Submit,
        Endpoint::Status,
        Endpoint::Result,
        Endpoint::Cancel,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The label value used in the Prometheus output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Submit => "submit",
            Endpoint::Status => "status",
            Endpoint::Result => "result",
            Endpoint::Cancel => "cancel",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|e| *e == self).expect("endpoint is in ALL")
    }
}

/// A fixed-bucket latency histogram (Prometheus `histogram` semantics:
/// cumulative buckets, a sum, and a count).
#[derive(Debug, Default)]
pub struct Histogram {
    /// Non-cumulative per-bucket counts; the last slot is `+Inf`.
    buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let slot = LATENCY_BUCKETS.iter().position(|b| secs <= *b).unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, endpoint: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{endpoint=\"{endpoint}\",le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {cumulative}");
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let _ = writeln!(out, "{name}_sum{{endpoint=\"{endpoint}\"}} {sum}");
        let _ = writeln!(out, "{name}_count{{endpoint=\"{endpoint}\"}} {cumulative}");
    }
}

/// All counters and histograms for one server instance.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Well-formed campaign submissions (accepted *or* rejected for a full
    /// queue; malformed/invalid ones count under
    /// [`campaigns_invalid`](Metrics::campaigns_invalid) instead).
    pub campaigns_submitted: AtomicU64,
    /// Well-formed submissions whose configs all run at `Exact` fidelity.
    /// Together with [`campaigns_submitted_fast`] this partitions
    /// [`campaigns_submitted`]: `submitted == exact + fast` always holds.
    ///
    /// [`campaigns_submitted_fast`]: Metrics::campaigns_submitted_fast
    /// [`campaigns_submitted`]: Metrics::campaigns_submitted
    pub campaigns_submitted_exact: AtomicU64,
    /// Well-formed submissions containing at least one `Fast`-fidelity
    /// config (interval engine).
    pub campaigns_submitted_fast: AtomicU64,
    /// Submissions turned away with `429` because the queue was full.
    pub campaigns_rejected: AtomicU64,
    /// Submissions rejected for malformed JSON or an invalid spec (`400`).
    pub campaigns_invalid: AtomicU64,
    /// Campaigns that ran to completion.
    pub campaigns_completed: AtomicU64,
    /// Campaigns that failed (including per-job timeouts).
    pub campaigns_failed: AtomicU64,
    /// Campaigns cancelled via `DELETE` before or during execution.
    pub campaigns_cancelled: AtomicU64,
    /// Campaigns re-queued from the crash journal at startup. Replayed
    /// campaigns also count under [`campaigns_submitted`], so the
    /// reconciliation invariant is unchanged.
    ///
    /// [`campaigns_submitted`]: Metrics::campaigns_submitted
    pub campaigns_replayed: AtomicU64,
    /// Jobs currently sitting in the bounded queue (gauge).
    pub queue_depth: AtomicU64,
    /// Campaigns currently executing on the worker pool (gauge).
    pub jobs_inflight: AtomicU64,
    /// Currently open client connections (gauge).
    pub connections_open: AtomicU64,
    /// Connections accepted since startup.
    pub connections_total: AtomicU64,
    /// Connections turned away because the connection cap was reached.
    pub connections_rejected: AtomicU64,
    responses: Mutex<BTreeMap<(&'static str, u16), u64>>,
    latency: [Histogram; Endpoint::ALL.len()],
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one finished HTTP exchange: its response status and the
    /// handling latency (request fully parsed → response written).
    pub fn observe(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.latency[endpoint.index()].observe(elapsed);
        *self
            .responses
            .lock()
            .expect("no holder panics")
            .entry((endpoint.as_str(), status))
            .or_insert(0) += 1;
    }

    /// The latency histogram for one endpoint (used by tests).
    #[must_use]
    pub fn latency(&self, endpoint: Endpoint) -> &Histogram {
        &self.latency[endpoint.index()]
    }

    /// Renders everything in Prometheus text exposition format.
    /// `warm_cache` is the shared [`WarmStartCache`]'s `(computed, loaded,
    /// hits)` triple; `journal_depth` is the crash journal's count of
    /// submitted-but-not-terminal campaigns (0 without a journal).
    ///
    /// [`WarmStartCache`]: powerbalance_harness::WarmStartCache
    #[must_use]
    pub fn render(&self, warm_cache: (u64, u64, u64), journal_depth: u64) -> String {
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);

        counter(
            &mut out,
            "powerbalance_campaigns_submitted_total",
            "Well-formed campaign submissions (accepted + queue-full rejections).",
            load(&self.campaigns_submitted),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_submitted_exact_total",
            "Well-formed submissions whose configs all use Exact fidelity.",
            load(&self.campaigns_submitted_exact),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_submitted_fast_total",
            "Well-formed submissions with at least one Fast-fidelity config.",
            load(&self.campaigns_submitted_fast),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_rejected_total",
            "Submissions rejected with 429 because the bounded queue was full.",
            load(&self.campaigns_rejected),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_invalid_total",
            "Submissions rejected for malformed JSON or an invalid spec.",
            load(&self.campaigns_invalid),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_completed_total",
            "Campaigns that ran every job to completion.",
            load(&self.campaigns_completed),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_failed_total",
            "Campaigns that failed, including per-job wall-clock timeouts.",
            load(&self.campaigns_failed),
        );
        counter(
            &mut out,
            "powerbalance_campaigns_cancelled_total",
            "Campaigns cancelled before or during execution.",
            load(&self.campaigns_cancelled),
        );
        gauge(
            &mut out,
            "powerbalance_queue_depth",
            "Campaigns waiting in the bounded queue.",
            load(&self.queue_depth),
        );
        gauge(
            &mut out,
            "powerbalance_jobs_inflight",
            "Campaigns currently executing on the worker pool.",
            load(&self.jobs_inflight),
        );
        gauge(
            &mut out,
            "powerbalance_connections_open",
            "Currently open client connections.",
            load(&self.connections_open),
        );
        counter(
            &mut out,
            "powerbalance_connections_total",
            "Client connections accepted since startup.",
            load(&self.connections_total),
        );
        counter(
            &mut out,
            "powerbalance_connections_rejected_total",
            "Connections turned away at the connection cap.",
            load(&self.connections_rejected),
        );
        counter(
            &mut out,
            "powerbalance_warm_cache_computed_total",
            "Warmup snapshots computed by the shared warm-start cache.",
            warm_cache.0,
        );
        counter(
            &mut out,
            "powerbalance_warm_cache_loaded_total",
            "Warmup snapshots loaded from the checkpoint directory.",
            warm_cache.1,
        );
        counter(
            &mut out,
            "powerbalance_warm_cache_hits_total",
            "Warmup snapshot cache hits.",
            warm_cache.2,
        );
        counter(
            &mut out,
            "powerbalance_campaigns_replayed_total",
            "Campaigns re-queued from the crash journal at startup.",
            load(&self.campaigns_replayed),
        );
        gauge(
            &mut out,
            "powerbalance_journal_depth",
            "Submitted-but-not-terminal campaigns recorded in the journal.",
            journal_depth,
        );

        let _ = writeln!(
            &mut out,
            "# HELP powerbalance_http_responses_total HTTP responses by endpoint and status."
        );
        let _ = writeln!(&mut out, "# TYPE powerbalance_http_responses_total counter");
        for ((endpoint, status), count) in self.responses.lock().expect("no holder panics").iter() {
            let _ = writeln!(
                &mut out,
                "powerbalance_http_responses_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}"
            );
        }

        let _ = writeln!(
            &mut out,
            "# HELP powerbalance_http_request_duration_seconds Request handling latency by endpoint."
        );
        let _ = writeln!(&mut out, "# TYPE powerbalance_http_request_duration_seconds histogram");
        for endpoint in Endpoint::ALL {
            let histogram = &self.latency[endpoint.index()];
            if histogram.count() > 0 {
                histogram.render(
                    "powerbalance_http_request_duration_seconds",
                    endpoint.as_str(),
                    &mut out,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(100)); // <= 0.0005
        h.observe(Duration::from_millis(3)); // <= 0.005
        h.observe(Duration::from_secs(10)); // +Inf
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render("m", "submit", &mut out);
        assert!(out.contains("m_bucket{endpoint=\"submit\",le=\"0.0005\"} 1"));
        assert!(out.contains("m_bucket{endpoint=\"submit\",le=\"0.005\"} 2"));
        assert!(out.contains("m_bucket{endpoint=\"submit\",le=\"+Inf\"} 3"));
        assert!(out.contains("m_count{endpoint=\"submit\"} 3"));
    }

    #[test]
    fn render_reports_counters_and_statuses() {
        let m = Metrics::new();
        m.campaigns_submitted.fetch_add(3, Ordering::Relaxed);
        m.campaigns_completed.fetch_add(2, Ordering::Relaxed);
        m.campaigns_rejected.fetch_add(1, Ordering::Relaxed);
        m.observe(Endpoint::Submit, 202, Duration::from_micros(250));
        m.observe(Endpoint::Submit, 429, Duration::from_micros(80));
        m.campaigns_replayed.fetch_add(1, Ordering::Relaxed);
        let text = m.render((4, 0, 9), 5);
        assert!(text.contains("powerbalance_campaigns_submitted_total 3"));
        assert!(text.contains("powerbalance_campaigns_completed_total 2"));
        assert!(text.contains("powerbalance_campaigns_rejected_total 1"));
        assert!(text.contains("powerbalance_warm_cache_computed_total 4"));
        assert!(text.contains("powerbalance_warm_cache_hits_total 9"));
        assert!(text
            .contains("powerbalance_http_responses_total{endpoint=\"submit\",status=\"202\"} 1"));
        assert!(text
            .contains("powerbalance_http_responses_total{endpoint=\"submit\",status=\"429\"} 1"));
        assert!(text
            .contains("powerbalance_http_request_duration_seconds_count{endpoint=\"submit\"} 2"));
        assert!(text.contains("powerbalance_campaigns_replayed_total 1"));
        assert!(text.contains("powerbalance_journal_depth 5"));
    }
}
