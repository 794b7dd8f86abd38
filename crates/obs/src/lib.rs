//! # gcm-obs — the observability layer
//!
//! Instrumentation backbone for the cost-model workspace, built around
//! one idea from the paper: a calibrated model's predictions are only
//! trustworthy while measurement keeps agreeing with them, so the
//! serving stack must be able to (a) attribute measured cost to the
//! same plan nodes the model priced and (b) notice when the two
//! diverge.
//!
//! Five pieces, each usable on its own:
//!
//! - [`span`] — per-thread lock-free span recording with backend
//!   counter deltas (charged accesses and per-level misses on the sim
//!   backend, wall-ns on native), switched off at runtime with one
//!   relaxed atomic load per would-be span.
//! - [`hist`] — log-linear histograms with bounded quantile error, the
//!   p50/p99/p999 story for service latency.
//! - [`registry`] — named counters / gauges / histograms with
//!   JSON-lines and Prometheus text exporters.
//! - [`drift`] — per-operator-class EWMA of measured/predicted ratios
//!   that raises a recalibration flag when calibration goes stale.
//! - [`flight`] — a bounded ring of recent `EXPLAIN ANALYZE` reports
//!   for post-hoc dumps.
//!
//! Plus [`json`], the dependency-free serializer the exporters (and
//! the calibration report, bench artifacts, and `EXPLAIN ANALYZE`
//! JSON) share.
//!
//! The crate is deliberately std-only so every other crate in the
//! workspace can depend on it without cycles or new dependencies.

pub mod drift;
pub mod flight;
pub mod hist;
pub mod json;
pub mod registry;
pub mod span;

pub use drift::{ClassDrift, DriftMonitor};
pub use flight::FlightRecorder;
pub use hist::Histogram;
pub use registry::{Metric, MetricsRegistry};
pub use span::{Span, SpanKind, SpanRecorder, SpanSink};
