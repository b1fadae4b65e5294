//! Server-level aggregation of per-request reports.
//!
//! Every request's [`WireBreakdown`] and online latency, and every
//! session's setup cost, fold into one [`ServeStats`] — the serving
//! analogue of a single run's `InferenceReport`, summed across clients.
//!
//! Latencies are held as mergeable [`HistSnapshot`]s from the vendored
//! `telemetry` crate rather than scalar sums: the same snapshot that the
//! shutdown summary reduces to percentiles is what the `/metrics`
//! endpoint renders as a Prometheus histogram, so shard merging and
//! scraping share one code path ([`ServeStats::write_prometheus`]).

use std::collections::BTreeMap;

use deepsecure_core::session::WireBreakdown;
use telemetry::prom::PromWriter;
use telemetry::HistSnapshot;

use crate::pool::PoolStats;

/// Aggregated serving counters; snapshot via `Clone`.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Connections accepted (handshake attempted).
    pub sessions_opened: u64,
    /// Sessions that ended cleanly (client sent DONE).
    pub sessions_completed: u64,
    /// Sessions that ended in an error (bad handshake, disconnect, …).
    pub sessions_failed: u64,
    /// Sessions re-attached to stashed OT-extension state via a `RESUME`
    /// hello (each also counts in `sessions_opened`).
    pub sessions_resumed: u64,
    /// Sessions that died on an I/O timeout (idle client or blown
    /// per-phase deadline) — a subset of `sessions_failed`.
    pub sessions_timed_out: u64,
    /// Connections shed with a `BUSY` frame because the shard's accept
    /// queue was full.
    pub shed_queue_full: u64,
    /// Connections shed with a `BUSY` frame because the model's admission
    /// limit was reached.
    pub shed_model_limit: u64,
    /// Connections shed with a `BUSY` frame because an over-cap model
    /// missed the pool and live-garble capacity was saturated.
    pub shed_live_capacity: u64,
    /// Requests served across all sessions.
    pub requests: u64,
    /// Sum of every request's online-phase wire traffic (`base_ot` stays
    /// 0 here; setup traffic is in `setup_bytes`).
    pub wire: WireBreakdown,
    /// Sum of every session's base-OT setup traffic, both directions.
    pub setup_bytes: u64,
    /// Sessions that actually completed a base-OT setup (sessions that
    /// die during the handshake never reach one).
    pub setups: u64,
    /// Per-request online-phase latency distribution, microseconds.
    pub online_us: HistSnapshot,
    /// Per-session setup latency distribution, microseconds.
    pub setup_us: HistSnapshot,
    /// High-water mark, across all requests, of garbled-table bytes one
    /// session held at once — O(chunk), one cycle's tables at
    /// `chunk_gates = 0`. The measured number behind the streaming
    /// pipeline's constant-memory claim, printed at shutdown.
    pub peak_material_bytes: u64,
    /// Requests per model.
    pub per_model: BTreeMap<String, u64>,
    /// Precompute-pool counters. Shard accumulators leave this at zero
    /// (the pool is process-global, not per-shard); the server folds the
    /// pool's counters into the merged totals it reports and scrapes.
    pub pool: PoolStats,
}

const US_PER_S: f64 = 1e6;

impl ServeStats {
    /// A connection was accepted.
    pub fn open_session(&mut self) {
        self.sessions_opened += 1;
    }

    /// A session ended cleanly.
    pub fn complete_session(&mut self) {
        self.sessions_completed += 1;
    }

    /// A session ended in an error.
    pub fn fail_session(&mut self) {
        self.sessions_failed += 1;
    }

    /// A session re-attached to stashed OT-extension state.
    pub fn resume_session(&mut self) {
        self.sessions_resumed += 1;
    }

    /// A session died on an I/O timeout (also counts as failed).
    pub fn timeout_session(&mut self) {
        self.sessions_timed_out += 1;
        self.sessions_failed += 1;
    }

    /// Total connections shed with a `BUSY` frame, all reasons.
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_model_limit + self.shed_live_capacity
    }

    /// A session finished its base-OT setup.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn record_setup(&mut self, setup_s: f64, bytes: u64) {
        self.setup_us.record((setup_s.max(0.0) * US_PER_S) as u64);
        self.setup_bytes += bytes;
        self.setups += 1;
    }

    /// A request finished its online phase; `peak_material_bytes` is the
    /// most garbled-table bytes its session held at once while serving it.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn record_request(
        &mut self,
        model: &str,
        online_s: f64,
        wire: WireBreakdown,
        peak_material_bytes: u64,
    ) {
        self.requests += 1;
        self.online_us.record((online_s.max(0.0) * US_PER_S) as u64);
        self.wire += wire;
        self.peak_material_bytes = self.peak_material_bytes.max(peak_material_bytes);
        *self.per_model.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Folds another stats accumulator into this one — how the sharded
    /// server combines per-shard counters into the totals it reports.
    /// Sums, histograms, pool counters, and per-model counts add;
    /// `peak_material_bytes` is a max.
    pub fn merge(&mut self, other: &ServeStats) {
        self.sessions_opened += other.sessions_opened;
        self.sessions_completed += other.sessions_completed;
        self.sessions_failed += other.sessions_failed;
        self.sessions_resumed += other.sessions_resumed;
        self.sessions_timed_out += other.sessions_timed_out;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_model_limit += other.shed_model_limit;
        self.shed_live_capacity += other.shed_live_capacity;
        self.requests += other.requests;
        self.wire += other.wire;
        self.setup_bytes += other.setup_bytes;
        self.setups += other.setups;
        self.online_us.merge(&other.online_us);
        self.setup_us.merge(&other.setup_us);
        self.peak_material_bytes = self.peak_material_bytes.max(other.peak_material_bytes);
        for (model, n) in &other.per_model {
            *self.per_model.entry(model.clone()).or_insert(0) += n;
        }
        self.pool.merge(&other.pool);
    }

    /// Mean online latency per request, seconds (0 with no requests).
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_online_s(&self) -> f64 {
        self.online_us.mean() / US_PER_S
    }

    /// Mean setup latency per completed setup, seconds (sessions that die
    /// before setup don't dilute the mean).
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_setup_s(&self) -> f64 {
        self.setup_us.mean() / US_PER_S
    }

    /// An online-latency quantile in seconds (nearest-rank on the
    /// histogram's bucket bounds, so within the buckets' ≤12.5% width).
    #[allow(clippy::cast_precision_loss)]
    pub fn online_quantile_s(&self, q: f64) -> f64 {
        self.online_us.quantile(q) as f64 / US_PER_S
    }

    /// Human-readable multi-line summary (the server's shutdown report).
    pub fn summary(&self) -> String {
        let mut lines = vec![
            format!(
                "sessions     {} opened, {} completed, {} failed",
                self.sessions_opened, self.sessions_completed, self.sessions_failed
            ),
            format!(
                "resilience   {} resumed, {} timed out, shed {} \
                 (queue {}, model-limit {}, live-capacity {})",
                self.sessions_resumed,
                self.sessions_timed_out,
                self.sheds(),
                self.shed_queue_full,
                self.shed_model_limit,
                self.shed_live_capacity
            ),
            format!(
                "requests     {} total (mean online {:.3} s; mean session setup {:.3} s)",
                self.requests,
                self.mean_online_s(),
                self.mean_setup_s()
            ),
            format!(
                "latency      online p50 {:.3} s  p95 {:.3} s  p99 {:.3} s",
                self.online_quantile_s(0.50),
                self.online_quantile_s(0.95),
                self.online_quantile_s(0.99),
            ),
            format!(
                "wire bytes   online: ot-ext {} | tables {} | input-labels {} | \
                 output-bits {} — setup: base-ot {}",
                self.wire.ot_ext,
                self.wire.tables,
                self.wire.input_labels,
                self.wire.output_bits,
                self.setup_bytes
            ),
            format!(
                "peak tables  {} B resident per session (max over requests)",
                self.peak_material_bytes
            ),
            format!(
                "pool         base {} hits / {} misses, material {} hits / {} misses, \
                 {} live takes, {} produced",
                self.pool.base_hits,
                self.pool.base_misses,
                self.pool.material_hits,
                self.pool.material_misses,
                self.pool.live_takes,
                self.pool.produced
            ),
        ];
        for (model, n) in &self.per_model {
            lines.push(format!("model        {model}: {n} requests"));
        }
        lines.join("\n")
    }

    /// Renders this accumulator's families into a Prometheus exposition
    /// document — the same snapshot the shutdown summary reduces, so the
    /// scrape and the final report can never disagree. `labels` go on
    /// every sample (the caller adds e.g. a `shard` label for per-shard
    /// sections and none for the merged totals).
    #[allow(clippy::cast_precision_loss)]
    pub fn write_prometheus(&self, w: &mut PromWriter, labels: &[(&str, &str)]) {
        w.family(
            "deepsecure_sessions_total",
            "counter",
            "Sessions by terminal state.",
        );
        for (state, n) in [
            ("opened", self.sessions_opened),
            ("completed", self.sessions_completed),
            ("failed", self.sessions_failed),
        ] {
            let mut l = labels.to_vec();
            l.push(("state", state));
            w.sample("deepsecure_sessions_total", &l, n as f64);
        }
        w.family(
            "deepsecure_sessions_resumed_total",
            "counter",
            "Sessions re-attached to stashed OT-extension state via RESUME.",
        );
        w.sample(
            "deepsecure_sessions_resumed_total",
            labels,
            self.sessions_resumed as f64,
        );
        w.family(
            "deepsecure_session_timeouts_total",
            "counter",
            "Sessions that died on an I/O timeout (subset of failed).",
        );
        w.sample(
            "deepsecure_session_timeouts_total",
            labels,
            self.sessions_timed_out as f64,
        );
        w.family(
            "deepsecure_shed_total",
            "counter",
            "Connections shed with a BUSY frame, by admission-control reason.",
        );
        for (reason, n) in [
            ("queue_full", self.shed_queue_full),
            ("model_limit", self.shed_model_limit),
            ("live_capacity", self.shed_live_capacity),
        ] {
            let mut l = labels.to_vec();
            l.push(("reason", reason));
            w.sample("deepsecure_shed_total", &l, n as f64);
        }
        w.family(
            "deepsecure_requests_total",
            "counter",
            "Online inference requests served.",
        );
        w.sample("deepsecure_requests_total", labels, self.requests as f64);
        w.family(
            "deepsecure_requests_by_model_total",
            "counter",
            "Online inference requests served, per hosted model.",
        );
        for (model, n) in &self.per_model {
            let mut l = labels.to_vec();
            l.push(("model", model));
            w.sample("deepsecure_requests_by_model_total", &l, *n as f64);
        }
        w.family(
            "deepsecure_setup_bytes_total",
            "counter",
            "Base-OT setup traffic, both directions, summed over sessions.",
        );
        w.sample(
            "deepsecure_setup_bytes_total",
            labels,
            self.setup_bytes as f64,
        );
        w.family(
            "deepsecure_online_wire_bytes_total",
            "counter",
            "Online-phase wire traffic by protocol phase, summed over requests.",
        );
        for (phase, n) in [
            ("ot_ext", self.wire.ot_ext),
            ("tables", self.wire.tables),
            ("input_labels", self.wire.input_labels),
            ("output_bits", self.wire.output_bits),
        ] {
            let mut l = labels.to_vec();
            l.push(("phase", phase));
            w.sample("deepsecure_online_wire_bytes_total", &l, n as f64);
        }
        w.family(
            "deepsecure_peak_material_bytes",
            "gauge",
            "Most garbled-table bytes one session held at once.",
        );
        w.sample(
            "deepsecure_peak_material_bytes",
            labels,
            self.peak_material_bytes as f64,
        );
        w.family(
            "deepsecure_online_latency_seconds",
            "histogram",
            "Per-request online-phase latency.",
        );
        w.histogram(
            "deepsecure_online_latency_seconds",
            labels,
            &self.online_us,
            1.0 / US_PER_S,
        );
        w.family(
            "deepsecure_setup_latency_seconds",
            "histogram",
            "Per-session base-OT setup latency.",
        );
        w.histogram(
            "deepsecure_setup_latency_seconds",
            labels,
            &self.setup_us,
            1.0 / US_PER_S,
        );
        w.family(
            "deepsecure_pool_events_total",
            "counter",
            "Precompute-pool take outcomes and production.",
        );
        for (kind, n) in [
            ("base_hit", self.pool.base_hits),
            ("base_miss", self.pool.base_misses),
            ("material_hit", self.pool.material_hits),
            ("material_miss", self.pool.material_misses),
            ("live_take", self.pool.live_takes),
            ("produced", self.pool.produced),
        ] {
            let mut l = labels.to_vec();
            l.push(("kind", kind));
            w.sample("deepsecure_pool_events_total", &l, n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_sums_requests_and_sessions() {
        let mut stats = ServeStats::default();
        stats.open_session();
        stats.record_setup(0.5, 1000);
        let wire = WireBreakdown {
            tables: 100,
            ot_ext: 10,
            ..WireBreakdown::default()
        };
        stats.record_request("tiny_mlp", 0.2, wire, 640);
        stats.record_request("tiny_mlp", 0.4, wire, 96);
        stats.complete_session();
        // A handshake-only failure must not dilute the setup mean.
        stats.open_session();
        stats.fail_session();
        assert!((stats.mean_setup_s() - 0.5).abs() < 0.05);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.online_us.count(), 2);
        assert_eq!(stats.wire.tables, 200);
        assert_eq!(stats.wire.ot_ext, 20);
        assert_eq!(stats.wire.base_ot, 0, "setup bytes live in setup_bytes");
        assert_eq!(stats.setup_bytes, 1000);
        assert!((stats.mean_online_s() - 0.3).abs() < 1e-6);
        // Nearest-rank on log-scale buckets: within the bucket width.
        assert!((stats.online_quantile_s(0.5) - 0.2).abs() < 0.2 * 0.13);
        assert!((stats.online_quantile_s(0.99) - 0.4).abs() < 0.4 * 0.13);
        assert_eq!(stats.per_model["tiny_mlp"], 2);
        assert_eq!(
            stats.peak_material_bytes, 640,
            "peak is a max, not a sum, across requests"
        );
        let text = stats.summary();
        assert!(text.contains("2 total"), "{text}");
        assert!(text.contains("resilience   0 resumed"), "{text}");
        assert!(text.contains("tiny_mlp: 2 requests"), "{text}");
        assert!(text.contains("peak tables  640 B"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("pool         base 0 hits"), "{text}");
    }

    #[test]
    fn merge_sums_counters_histograms_and_maxes_peaks() {
        let mut a = ServeStats::default();
        a.open_session();
        a.record_setup(0.25, 500);
        a.record_request(
            "tiny_mlp",
            0.1,
            WireBreakdown {
                tables: 40,
                ..WireBreakdown::default()
            },
            100,
        );
        a.complete_session();
        a.pool.base_hits = 1;
        a.pool.material_hits = 2;
        let mut b = ServeStats::default();
        b.open_session();
        b.fail_session();
        b.record_request(
            "mnist_mlp",
            0.3,
            WireBreakdown {
                tables: 60,
                ..WireBreakdown::default()
            },
            900,
        );
        b.pool.base_misses = 3;
        b.pool.material_hits = 4;
        b.pool.produced = 5;
        a.merge(&b);
        assert_eq!(a.sessions_opened, 2);
        assert_eq!(a.sessions_completed, 1);
        assert_eq!(a.sessions_failed, 1);
        assert_eq!(a.requests, 2);
        assert_eq!(a.wire.tables, 100);
        assert_eq!(a.setup_bytes, 500);
        assert_eq!(a.peak_material_bytes, 900, "peak merges as a max");
        // The merged latency histogram holds both shards' samples.
        assert_eq!(a.online_us.count(), 2);
        assert!((a.mean_online_s() - 0.2).abs() < 0.2 * 0.13);
        assert!(a.online_quantile_s(0.99) >= a.online_quantile_s(0.5));
        assert_eq!(a.per_model["tiny_mlp"], 1);
        assert_eq!(a.per_model["mnist_mlp"], 1);
        // Pool counters merge by summation.
        assert_eq!(a.pool.base_hits, 1);
        assert_eq!(a.pool.base_misses, 3);
        assert_eq!(a.pool.material_hits, 6);
        assert_eq!(a.pool.produced, 5);
        let text = a.summary();
        assert!(text.contains("base 1 hits / 3 misses"), "{text}");
        assert!(text.contains("material 6 hits / 0 misses"), "{text}");
        // Merging an empty accumulator is the identity.
        let snapshot = a.clone();
        a.merge(&ServeStats::default());
        assert_eq!(a.requests, snapshot.requests);
        assert_eq!(a.wire, snapshot.wire);
        assert_eq!(a.online_us, snapshot.online_us);
    }

    #[test]
    fn prometheus_rendering_matches_the_accumulator() {
        let mut stats = ServeStats::default();
        stats.open_session();
        stats.record_setup(0.5, 1000);
        stats.record_request("tiny_mlp", 0.2, WireBreakdown::default(), 64);
        stats.complete_session();
        stats.pool.base_hits = 1;
        let mut w = PromWriter::new();
        stats.write_prometheus(&mut w, &[("shard", "0")]);
        let text = w.finish();
        assert!(
            text.contains("deepsecure_requests_total{shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("deepsecure_sessions_total{shard=\"0\",state=\"completed\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("deepsecure_requests_by_model_total{shard=\"0\",model=\"tiny_mlp\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("deepsecure_online_latency_seconds_count{shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("deepsecure_pool_events_total{shard=\"0\",kind=\"base_hit\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn resilience_counters_merge_and_render() {
        let mut a = ServeStats::default();
        a.open_session();
        a.resume_session();
        a.shed_queue_full += 1;
        a.shed_live_capacity += 2;
        let mut b = ServeStats::default();
        b.open_session();
        b.timeout_session();
        b.shed_model_limit += 3;
        a.merge(&b);
        assert_eq!(a.sessions_resumed, 1);
        assert_eq!(a.sessions_timed_out, 1);
        assert_eq!(a.sessions_failed, 1, "a timeout is also a failure");
        assert_eq!(a.sheds(), 6);
        let text = a.summary();
        assert!(
            text.contains("resilience   1 resumed, 1 timed out, shed 6"),
            "{text}"
        );
        let mut w = PromWriter::new();
        a.write_prometheus(&mut w, &[]);
        let doc = w.finish();
        assert!(doc.contains("deepsecure_sessions_resumed_total 1"), "{doc}");
        assert!(doc.contains("deepsecure_session_timeouts_total 1"), "{doc}");
        assert!(
            doc.contains("deepsecure_shed_total{reason=\"queue_full\"} 1"),
            "{doc}"
        );
        assert!(
            doc.contains("deepsecure_shed_total{reason=\"model_limit\"} 3"),
            "{doc}"
        );
        assert!(
            doc.contains("deepsecure_shed_total{reason=\"live_capacity\"} 2"),
            "{doc}"
        );
    }
}
