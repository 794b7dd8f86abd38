//! Service telemetry: per-query latency, per-batch accuracy, and
//! plan-cache effectiveness.
//!
//! Every executed query and batch, on either backend, lands in a
//! [`MetricsRegistry`] — counters, gauges, and log-linear latency
//! histograms with bounded-error quantiles ([`gcm_obs::hist`]) — which
//! is what the exporters ([`ServiceMetrics::to_prometheus`] /
//! [`ServiceMetrics::to_json_lines`]) serialize. The registry is the
//! *aggregated* view a scrape reads in O(1) space. Next to it,
//! executions on the simulator also append exact per-query/per-batch
//! records, which tests and the accuracy report read.

use crate::QueryService;
use gcm_obs::registry::labeled;
use gcm_obs::MetricsRegistry;
use gcm_workload::TenantClass;
use std::fmt;

/// Registry name of the per-query measured-latency histogram, and,
/// with a `{class="…"}` label, of each tenant class's.
pub const QUERY_LATENCY: &str = "gcm_service_query_latency_ns";
/// Registry name of the per-query predicted-latency histogram.
pub const QUERY_PREDICTED: &str = "gcm_service_query_predicted_ns";
/// Registry name of the per-batch measured-wall histogram.
pub const BATCH_WALL: &str = "gcm_service_batch_wall_ns";
/// Registry name of the executed-query counter.
pub const QUERIES_TOTAL: &str = "gcm_service_queries_total";
/// Registry name of the executed-batch counter.
pub const BATCHES_TOTAL: &str = "gcm_service_batches_total";
/// Registry family of the per-class shed counters (the class lands in
/// a `{class="…"}` label).
pub const SHED_TOTAL: &str = "gcm_service_shed_total";
/// Registry name of the pending-queue depth gauge.
pub const QUEUE_DEPTH: &str = "gcm_service_queue_depth";
/// Registry name of the pending-queue high-water-mark gauge.
pub const QUEUE_DEPTH_PEAK: &str = "gcm_service_queue_depth_peak";

/// One executed query's record.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// The id [`crate::QueryService::submit`] returned.
    pub id: u64,
    /// The logical plan (display form).
    pub plan: String,
    /// Index into [`ServiceMetrics::batches`] of the batch it ran in.
    pub batch: usize,
    /// Predicted latency inside its batch (⊙-composed memory + CPU),
    /// ns.
    pub predicted_ns: f64,
    /// Measured latency (charged memory + per-op CPU), ns.
    pub measured_ns: f64,
    /// Output cardinality.
    pub output_n: u64,
    /// FNV-1a hash of the output relation's 8-byte words
    /// ([`ExecutedQuery::output_hash`](crate::executor::ExecutedQuery)):
    /// equal hashes ⇔ byte-identical results.
    pub output_hash: u64,
}

impl QueryRecord {
    /// Relative prediction error `|measured − predicted| / measured`.
    pub fn error(&self) -> f64 {
        (self.measured_ns - self.predicted_ns).abs() / self.measured_ns.max(1.0)
    }
}

/// One executed batch's record.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Ids of the member queries.
    pub ids: Vec<u64>,
    /// Predicted batch wall time, ns.
    pub predicted_wall_ns: f64,
    /// Predicted serial fallback for the same members, ns.
    pub predicted_serial_ns: f64,
    /// Measured batch wall time: the slowest member plus the same
    /// per-worker dispatch constant the prediction charges (dispatch is
    /// host-side thread bring-up the simulator cannot see; charging it
    /// on both sides keeps [`BatchRecord::accuracy`] about the model),
    /// ns.
    pub measured_wall_ns: f64,
}

impl BatchRecord {
    /// Number of member queries.
    pub fn size(&self) -> usize {
        self.ids.len()
    }

    /// `measured / predicted` wall-time ratio (1.0 is a perfect
    /// prediction).
    pub fn accuracy(&self) -> f64 {
        self.measured_wall_ns / self.predicted_wall_ns.max(1.0)
    }
}

/// One shed query's record: what the service refused to serve, and
/// the projection that condemned it (see
/// [`crate::QueryService::next_batch_at`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// The id [`crate::QueryService::submit_classed`] returned.
    pub id: u64,
    /// The query's tenant class (budgets and priority come from it).
    pub class: TenantClass,
    /// How long the query had already queued when it was shed, ns.
    pub waited_ns: u64,
    /// Projected sojourn at the shed decision (waited + ⊙-priced drain
    /// of the higher-priority work ahead of it), ns.
    pub projected_ns: f64,
    /// The class budget the projection overran, ns.
    pub budget_ns: f64,
}

/// The service's accumulated report.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Every query executed on the simulator, in the order its batch
    /// completed and, within it, in member order. Only the simulator's
    /// charged clock shares the model's units; on the native serving
    /// path these vectors would grow without bound, so host runs feed
    /// the [`registry`](ServiceMetrics::registry) alone.
    pub queries: Vec<QueryRecord>,
    /// Every batch executed on the simulator, in completion order (see
    /// [`queries`](ServiceMetrics::queries)).
    pub batches: Vec<BatchRecord>,
    /// Every shed query, in shed order.
    pub shed: Vec<ShedRecord>,
    /// Plan-cache hits among all submissions so far.
    pub cache_hits: u64,
    /// Plan-cache misses among all submissions so far.
    pub cache_misses: u64,
    /// Times the optimizer actually ran.
    pub optimizer_runs: u64,
    /// Plan-cache entries retired by statistics-epoch bumps.
    pub cache_retired: u64,
    /// Shared hash-join builds computed
    /// ([`BuildRegistry`](crate::builds::BuildRegistry) misses).
    pub builds_built: u64,
    /// Shared-build requests served from an existing build — every
    /// reuse is one build phase a query skipped.
    pub builds_reused: u64,
    /// The aggregated counters/gauges/histograms behind the exporters.
    /// Interior-mutable (`&self` observes), so executors and benches
    /// can record into a shared metrics handle.
    pub registry: MetricsRegistry,
}

impl ServiceMetrics {
    /// Count one member that ran, on either backend: the measured and
    /// predicted latency histograms, the query counter, and — for a
    /// classed member — its class's `{class="…"}` latency sample.
    pub(crate) fn record_query(
        &self,
        class: Option<TenantClass>,
        measured_ns: f64,
        predicted_ns: f64,
    ) {
        self.registry.observe_ns(QUERY_LATENCY, measured_ns);
        self.registry.observe_ns(QUERY_PREDICTED, predicted_ns);
        self.registry.inc(QUERIES_TOTAL, 1);
        if let Some(class) = class {
            let name = labeled(QUERY_LATENCY, &[("class", class.label())]);
            self.registry.observe_ns(&name, measured_ns);
        }
    }

    /// Count one batch every member of which ran, on either backend: the
    /// batch-wall histogram and the batch counter.
    pub(crate) fn record_batch(&self, measured_wall_ns: f64) {
        self.registry.observe_ns(BATCH_WALL, measured_wall_ns);
        self.registry.inc(BATCHES_TOTAL, 1);
    }

    /// Record one shed query: appends the exact [`ShedRecord`] *and*
    /// bumps the class's `gcm_service_shed_total{class="…"}` counter.
    pub fn record_shed(&mut self, s: ShedRecord) {
        self.registry
            .inc(&labeled(SHED_TOTAL, &[("class", s.class.label())]), 1);
        self.shed.push(s);
    }

    /// Total queries shed so far (across all classes).
    pub fn shed_total(&self) -> u64 {
        self.shed.len() as u64
    }

    /// Queries shed for one class so far.
    pub fn shed_for_class(&self, class: TenantClass) -> u64 {
        self.shed.iter().filter(|s| s.class == class).count() as u64
    }

    /// Measured latency quantiles `(p50, p99, p999)` in ns, `None`
    /// until a query has executed. They carry the registry histogram's
    /// bounded relative error ([`gcm_obs::hist::QUANTILE_REL_ERROR`]).
    pub fn latency_quantiles(&self) -> Option<(u64, u64, u64)> {
        let h = self.registry.histogram(QUERY_LATENCY)?;
        Some((h.p50(), h.p99(), h.p999()))
    }

    /// Prometheus text exposition of the aggregated registry.
    pub fn to_prometheus(&self) -> String {
        self.registry.to_prometheus()
    }

    /// JSON-lines export of the aggregated registry (one metric per
    /// line).
    pub fn to_json_lines(&self) -> String {
        self.registry.to_json_lines()
    }
    /// Plan-cache hit fraction (0 when nothing was submitted).
    pub fn hit_rate(&self) -> f64 {
        let total = (self.cache_hits + self.cache_misses) as f64;
        if total > 0.0 {
            self.cache_hits as f64 / total
        } else {
            0.0
        }
    }

    /// Largest executed batch (0 when nothing ran).
    pub fn max_batch_size(&self) -> usize {
        self.batches
            .iter()
            .map(BatchRecord::size)
            .max()
            .unwrap_or(0)
    }

    /// Mean relative per-query prediction error.
    pub fn mean_query_error(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(QueryRecord::error).sum::<f64>() / self.queries.len() as f64
    }

    /// Total measured wall time across all batches, ns — the queue's
    /// elapsed service time.
    pub fn total_wall_ns(&self) -> f64 {
        self.batches.iter().map(|b| b.measured_wall_ns).sum()
    }

    /// Sum of the predicted serial fallbacks, ns — what the queue would
    /// have cost without batching, by the model's account.
    pub fn predicted_serial_total_ns(&self) -> f64 {
        self.batches.iter().map(|b| b.predicted_serial_ns).sum()
    }
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries {}  batches {}  max batch {}  cache hit rate {:.0}%  optimizer runs {}",
            self.queries.len(),
            self.batches.len(),
            self.max_batch_size(),
            self.hit_rate() * 100.0,
            self.optimizer_runs,
        )?;
        writeln!(
            f,
            "cache retired {}  shared builds {} built / {} reused  shed {}",
            self.cache_retired,
            self.builds_built,
            self.builds_reused,
            self.shed.len(),
        )?;
        write!(
            f,
            "measured wall {:.2} ms  predicted-serial {:.2} ms  mean query error {:.0}%",
            self.total_wall_ns() / 1e6,
            self.predicted_serial_total_ns() / 1e6,
            self.mean_query_error() * 100.0,
        )
    }
}

impl QueryService {
    /// The accumulated report, with the counters owned by other
    /// components (plan cache, build registry, span recorder, queue,
    /// drift monitor) copied into it and its registry first.
    pub fn metrics(&mut self) -> &ServiceMetrics {
        self.metrics.cache_hits = self.cache.hits();
        self.metrics.cache_misses = self.cache.misses();
        self.metrics.optimizer_runs = self.cache.optimizer_runs();
        self.metrics.cache_retired = self.cache.retired();
        self.metrics.builds_built = self.builds.built();
        self.metrics.builds_reused = self.builds.reused();
        let r = &self.metrics.registry;
        r.set_counter("gcm_service_cache_hits_total", self.metrics.cache_hits);
        r.set_counter("gcm_service_cache_misses_total", self.metrics.cache_misses);
        r.set_counter(
            "gcm_service_optimizer_runs_total",
            self.metrics.optimizer_runs,
        );
        r.set_counter(
            "gcm_service_cache_retired_total",
            self.metrics.cache_retired,
        );
        r.set_counter("gcm_service_builds_built_total", self.metrics.builds_built);
        r.set_counter(
            "gcm_service_builds_reused_total",
            self.metrics.builds_reused,
        );
        r.set_counter("gcm_service_spans_dropped_total", self.spans.dropped());
        let depth = self.queue.len() as f64;
        r.set_gauge(QUEUE_DEPTH, depth);
        r.gauge_max(QUEUE_DEPTH_PEAK, depth);
        // Per-class drift ratios + stale count + flag, as gauges.
        self.drift.export_gauges(r, "gcm_service_drift");
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(predicted: f64, measured: f64) -> QueryRecord {
        QueryRecord {
            id: 0,
            plan: "scan(0)".into(),
            batch: 0,
            predicted_ns: predicted,
            measured_ns: measured,
            output_n: 1,
            output_hash: 0,
        }
    }

    #[test]
    fn rates_and_errors() {
        let m = ServiceMetrics {
            queries: vec![record(100.0, 125.0), record(200.0, 160.0)],
            shed: Vec::new(),
            batches: vec![
                BatchRecord {
                    ids: vec![1, 2],
                    predicted_wall_ns: 200.0,
                    predicted_serial_ns: 300.0,
                    measured_wall_ns: 220.0,
                },
                BatchRecord {
                    ids: vec![3],
                    predicted_wall_ns: 50.0,
                    predicted_serial_ns: 50.0,
                    measured_wall_ns: 40.0,
                },
            ],
            cache_hits: 3,
            cache_misses: 1,
            optimizer_runs: 1,
            cache_retired: 2,
            builds_built: 1,
            builds_reused: 3,
            registry: MetricsRegistry::default(),
        };
        assert!((m.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(m.max_batch_size(), 2);
        // Errors: |125−100|/125 = 0.2 and |160−200|/160 = 0.25.
        assert!((m.mean_query_error() - 0.225).abs() < 1e-9);
        assert!((m.total_wall_ns() - 260.0).abs() < 1e-9);
        assert!((m.predicted_serial_total_ns() - 350.0).abs() < 1e-9);
        assert!((m.batches[0].accuracy() - 1.1).abs() < 1e-9);
        let s = m.to_string();
        assert!(s.contains("hit rate 75%"), "{s}");
        assert!(s.contains("1 built / 3 reused"), "{s}");
    }

    #[test]
    fn empty_metrics_are_calm() {
        let m = ServiceMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
        assert_eq!(m.max_batch_size(), 0);
        assert_eq!(m.mean_query_error(), 0.0);
        assert!(m.latency_quantiles().is_none());
    }

    #[test]
    fn record_shed_feeds_vector_and_labeled_counters() {
        let mut m = ServiceMetrics::default();
        let shed = |id, class| ShedRecord {
            id,
            class,
            waited_ns: 500,
            projected_ns: 9_000.0,
            budget_ns: 2_000.0,
        };
        m.record_shed(shed(1, TenantClass::JoinHeavy));
        m.record_shed(shed(2, TenantClass::JoinHeavy));
        m.record_shed(shed(3, TenantClass::PointLookup));
        assert_eq!(m.shed_total(), 3);
        assert_eq!(m.shed_for_class(TenantClass::JoinHeavy), 2);
        assert_eq!(m.shed_for_class(TenantClass::ScanHeavy), 0);
        assert_eq!(
            m.registry
                .counter("gcm_service_shed_total{class=\"join_heavy\"}"),
            Some(2)
        );
        let prom = m.to_prometheus();
        assert!(
            prom.contains("# TYPE gcm_service_shed_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("gcm_service_shed_total{class=\"point_lookup\"} 1\n"),
            "{prom}"
        );
        assert!(m.to_string().contains("shed 3"), "{m}");
    }

    #[test]
    fn record_query_and_batch_feed_the_registry() {
        let m = ServiceMetrics::default();
        let runs = [
            (Some(TenantClass::ScanHeavy), 100.0, 120.0),
            (None, 200.0, 180.0),
            (None, 400.0, 4000.0),
        ];
        for (class, predicted, measured) in runs {
            m.record_query(class, measured, predicted);
        }
        m.record_batch(4100.0);
        assert!(m.queries.is_empty() && m.batches.is_empty());
        assert_eq!(m.registry.counter(QUERIES_TOTAL), Some(3));
        assert_eq!(m.registry.counter(BATCHES_TOTAL), Some(1));
        let (p50, p99, p999) = m.latency_quantiles().unwrap();
        // Exact quantiles of {120, 180, 4000}: p50 = 180, p99 = 4000.
        assert!((p50 as f64 - 180.0).abs() / 180.0 <= gcm_obs::hist::QUANTILE_REL_ERROR);
        assert!((p99 as f64 - 4000.0).abs() / 4000.0 <= gcm_obs::hist::QUANTILE_REL_ERROR);
        assert!(p999 >= p99);
        // Only the classed member lands in its class's series.
        let scan = labeled(QUERY_LATENCY, &[("class", "scan_heavy")]);
        assert_eq!(m.registry.histogram(&scan).map(|h| h.count()), Some(1));
        let prom = m.to_prometheus();
        assert!(prom.contains("gcm_service_queries_total 3"), "{prom}");
        assert!(
            prom.contains("gcm_service_query_latency_ns{quantile=\"0.99\"}"),
            "{prom}"
        );
        let json = m.to_json_lines();
        assert!(json.contains("\"gcm_service_batch_wall_ns\""), "{json}");
    }
}
