//! Hand-rolled service metrics: atomic counters, gauges, and fixed-bucket
//! latency histograms, rendered in the Prometheus text exposition format.
//!
//! No external metrics crate exists in the offline build environment, so
//! this implements the minimum a scraper needs: monotonically increasing
//! `_total` counters, instantaneous gauges, and histograms with
//! cumulative `_bucket{le=...}` series plus estimated `p50`/`p90`/`p99`
//! gauges (linear interpolation inside the owning bucket — the standard
//! client-side quantile estimate for fixed buckets).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (batch updates, e.g. per-job fleet stats).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (saturating; a miscounted decrement clamps at zero
    /// rather than wrapping to 2^64).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (seconds) of the latency histogram buckets; `f64::INFINITY`
/// is implicit as the final `+Inf` bucket.
pub const LATENCY_BUCKETS: [f64; 10] = [0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 30.0];

/// A fixed-bucket latency histogram (seconds).
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket observation counts (non-cumulative); the last slot is
    /// the overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observations, in nanoseconds (fits ~584 years).
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..=LATENCY_BUCKETS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation, in seconds.
    pub fn observe(&self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds >= 0.0 {
            seconds
        } else {
            0.0
        };
        let slot = LATENCY_BUCKETS
            .iter()
            .position(|&le| seconds <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, seconds.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Estimated quantile (`0.0..=1.0`) by linear interpolation within the
    /// bucket that holds the target rank; 0.0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let here = bucket.load(Ordering::Relaxed);
            if seen + here >= target {
                let lower = if i == 0 { 0.0 } else { LATENCY_BUCKETS[i - 1] };
                let upper = LATENCY_BUCKETS
                    .get(i)
                    .copied()
                    .unwrap_or(LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1]);
                let into = (target - seen) as f64 / here.max(1) as f64;
                return lower + (upper - lower) * into;
            }
            seen += here;
        }
        LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1]
    }

    /// Renders the histogram as Prometheus `_bucket`/`_sum`/`_count`
    /// series plus `p50`/`p90`/`p99` estimate gauges.
    fn render(&self, name: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = LATENCY_BUCKETS
                .get(i)
                .map_or_else(|| "+Inf".to_string(), |b| format!("{b}"));
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            let _ = writeln!(
                out,
                "{name}_estimate{{quantile=\"{label}\"}} {}",
                self.quantile(q)
            );
        }
    }
}

/// All service metrics, shared by the router, admission gate and
/// executors.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests handled, any route.
    pub http_requests: Counter,
    /// Requests answered with a 4xx status.
    pub http_client_errors: Counter,
    /// Requests answered with a 5xx status.
    pub http_server_errors: Counter,
    /// Jobs accepted into the queue.
    pub jobs_submitted: Counter,
    /// Jobs accepted per simulation precision, indexed by
    /// [`cardopc_litho::Precision::tag`]; rendered as the labelled
    /// `cardopc_jobs_total{precision="..."}` family.
    pub jobs_by_precision: [Counter; 2],
    /// Designs successfully ingested per source format, indexed
    /// generated=0 / gds=1; rendered as the labelled
    /// `cardopc_designs_ingested_total{format="..."}` family.
    pub designs_ingested: [Counter; 2],
    /// Jobs that finished in each terminal state.
    pub jobs_done: Counter,
    /// Jobs that failed.
    pub jobs_failed: Counter,
    /// Jobs cancelled (by request or by drain).
    pub jobs_cancelled: Counter,
    /// Terminal jobs evicted by the retention cap (`retain_terminal`).
    pub jobs_evicted: Counter,
    /// Submissions rejected by the admission gate (429).
    pub admission_rejected: Counter,
    /// Submissions refused because the server is draining (503).
    pub drain_rejected: Counter,
    /// Jobs routed through the worker fleet instead of the in-process
    /// runtime.
    pub fleet_jobs: Counter,
    /// Fleet tile dispatch attempts (including steals and re-dispatches).
    pub fleet_tiles_dispatched: Counter,
    /// Fleet dispatch requests (one per class of congruent tiles).
    pub fleet_requests: Counter,
    /// Fleet steal dispatches (duplicate of a still-leased tile).
    pub fleet_tiles_stolen: Counter,
    /// Fleet tiles re-queued after a failed or expired dispatch.
    pub fleet_tiles_redispatched: Counter,
    /// Fleet results discarded because another dispatch won the tile.
    pub fleet_duplicates: Counter,
    /// Fleet workers retired (crashed, hung, or persistently failing).
    pub fleet_workers_retired: Counter,
    /// Fleet tiles adopted from workers' checkpoints during recovery.
    pub fleet_tiles_recovered: Counter,
    /// Jobs currently queued.
    pub queue_depth: Gauge,
    /// Jobs currently running.
    pub inflight: Gauge,
    /// Registered fleet workers (spawn-local + remote).
    pub fleet_workers: Gauge,
    /// Per-tile correction latency (executed tiles only).
    pub tile_seconds: Histogram,
    /// End-to-end job latency (queued → terminal).
    pub job_seconds: Histogram,
}

impl Metrics {
    /// Counts one accepted job against its simulation precision.
    pub fn record_job_precision(&self, precision: cardopc_litho::Precision) {
        self.jobs_by_precision[precision.tag() as usize].inc();
    }

    /// Counts one successfully ingested design against its source format.
    pub fn record_design_ingested(&self, source: &cardopc_layout::DesignSource) {
        let idx = match source {
            cardopc_layout::DesignSource::Generated { .. } => 0,
            cardopc_layout::DesignSource::Gds { .. } => 1,
        };
        self.designs_ingested[idx].inc();
    }

    /// [`Metrics::render`] plus the tile-cache series, when the server
    /// has a cache attached (`None` leaves the cache series out rather
    /// than exporting misleading zeros).
    pub fn render_with_cache(&self, cache: Option<cardopc_runtime::CacheStats>) -> String {
        use std::fmt::Write as _;
        let mut out = self.render();
        let Some(stats) = cache else {
            return out;
        };
        for (name, value) in [
            ("cardopc_cache_hits_total", stats.hits),
            ("cardopc_cache_misses_total", stats.misses),
            ("cardopc_cache_evicted_total", stats.evicted),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in [
            ("cardopc_cache_entries", stats.entries),
            ("cardopc_cache_bytes", stats.bytes),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }

    /// Renders every metric in the Prometheus text format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let counters: [(&str, &Counter); 17] = [
            ("cardopc_http_requests_total", &self.http_requests),
            ("cardopc_http_client_errors_total", &self.http_client_errors),
            ("cardopc_http_server_errors_total", &self.http_server_errors),
            ("cardopc_jobs_submitted_total", &self.jobs_submitted),
            ("cardopc_jobs_done_total", &self.jobs_done),
            ("cardopc_jobs_failed_total", &self.jobs_failed),
            ("cardopc_jobs_cancelled_total", &self.jobs_cancelled),
            ("cardopc_jobs_evicted_total", &self.jobs_evicted),
            ("cardopc_admission_rejected_total", &self.admission_rejected),
            ("cardopc_fleet_jobs_total", &self.fleet_jobs),
            (
                "cardopc_fleet_tiles_dispatched_total",
                &self.fleet_tiles_dispatched,
            ),
            ("cardopc_fleet_requests_total", &self.fleet_requests),
            ("cardopc_fleet_tiles_stolen_total", &self.fleet_tiles_stolen),
            (
                "cardopc_fleet_tiles_redispatched_total",
                &self.fleet_tiles_redispatched,
            ),
            ("cardopc_fleet_duplicates_total", &self.fleet_duplicates),
            (
                "cardopc_fleet_workers_retired_total",
                &self.fleet_workers_retired,
            ),
            (
                "cardopc_fleet_tiles_recovered_total",
                &self.fleet_tiles_recovered,
            ),
        ];
        for (name, counter) in counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        let _ = writeln!(out, "# TYPE cardopc_jobs_total counter");
        for precision in [cardopc_litho::Precision::F64, cardopc_litho::Precision::F32] {
            let _ = writeln!(
                out,
                "cardopc_jobs_total{{precision=\"{}\"}} {}",
                precision.name(),
                self.jobs_by_precision[precision.tag() as usize].get()
            );
        }
        let _ = writeln!(out, "# TYPE cardopc_designs_ingested_total counter");
        for (label, counter) in [
            ("generated", &self.designs_ingested[0]),
            ("gds", &self.designs_ingested[1]),
        ] {
            let _ = writeln!(
                out,
                "cardopc_designs_ingested_total{{format=\"{label}\"}} {}",
                counter.get()
            );
        }
        let _ = writeln!(out, "# TYPE cardopc_drain_rejected_total counter");
        let _ = writeln!(
            out,
            "cardopc_drain_rejected_total {}",
            self.drain_rejected.get()
        );
        for (name, gauge) in [
            ("cardopc_queue_depth", &self.queue_depth),
            ("cardopc_jobs_inflight", &self.inflight),
            ("cardopc_fleet_workers", &self.fleet_workers),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", gauge.get());
        }
        self.tile_seconds.render("cardopc_tile_seconds", &mut out);
        self.job_seconds.render("cardopc_job_seconds", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_move() {
        let m = Metrics::default();
        m.http_requests.inc();
        m.http_requests.inc();
        assert_eq!(m.http_requests.get(), 2);
        m.queue_depth.inc();
        m.queue_depth.dec();
        m.queue_depth.dec(); // saturates, no wrap
        assert_eq!(m.queue_depth.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..90 {
            h.observe(0.02); // bucket le=0.025
        }
        for _ in 0..10 {
            h.observe(2.0); // bucket le=5.0
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - (90.0 * 0.02 + 10.0 * 2.0)).abs() < 1e-6);
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.01 && p50 <= 0.025, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 > 1.0 && p99 <= 5.0, "p99 {p99}");
        // Out-of-range and non-finite observations are clamped, not lost.
        h.observe(f64::NAN);
        h.observe(-1.0);
        assert_eq!(h.count(), 102);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let m = Metrics::default();
        m.jobs_submitted.inc();
        m.tile_seconds.observe(0.3);
        let text = m.render();
        assert!(text.contains("cardopc_jobs_submitted_total 1"));
        assert!(text.contains("# TYPE cardopc_tile_seconds histogram"));
        assert!(text.contains("cardopc_tile_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("cardopc_tile_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("cardopc_tile_seconds_count 1"));
        assert!(text.contains("cardopc_tile_seconds_estimate{quantile=\"0.5\"}"));
    }

    #[test]
    fn per_precision_job_counters_render_labelled() {
        use cardopc_litho::Precision;
        let m = Metrics::default();
        let text = m.render();
        assert!(text.contains("cardopc_jobs_total{precision=\"f64\"} 0"));
        assert!(text.contains("cardopc_jobs_total{precision=\"f32\"} 0"));
        m.record_job_precision(Precision::F64);
        m.record_job_precision(Precision::F32);
        m.record_job_precision(Precision::F32);
        let text = m.render();
        assert!(text.contains("cardopc_jobs_total{precision=\"f64\"} 1"));
        assert!(text.contains("cardopc_jobs_total{precision=\"f32\"} 2"));
    }

    #[test]
    fn cache_series_render_only_when_a_cache_exists() {
        let m = Metrics::default();
        let without = m.render_with_cache(None);
        assert!(!without.contains("cardopc_cache_hits_total"));
        let stats = cardopc_runtime::CacheStats {
            hits: 7,
            misses: 2,
            evicted: 1,
            entries: 2,
            bytes: 4096,
        };
        let with = m.render_with_cache(Some(stats));
        assert!(with.contains("cardopc_cache_hits_total 7"));
        assert!(with.contains("cardopc_cache_misses_total 2"));
        assert!(with.contains("cardopc_cache_evicted_total 1"));
        assert!(with.contains("cardopc_cache_entries 2"));
        assert!(with.contains("cardopc_cache_bytes 4096"));
    }
}
