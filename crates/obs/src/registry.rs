//! Metrics registry: named counters, gauges, and histograms with
//! JSON-lines and Prometheus text exporters.
//!
//! Names follow Prometheus conventions (`snake_case`, unit suffix);
//! labels may be baked into the name Prometheus-style, e.g.
//! `query_latency_ns{class="join_heavy"}` — the exporters split on the
//! first `{` so the `# TYPE` header carries only the metric family.
//! A `BTreeMap` keeps export order stable, which is what lets tests
//! and committed bench artifacts pin exporter output.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Build a `family{key="value",…}` metric name with Prometheus
/// label-value escaping (`\` → `\\`, `"` → `\"`, newline → `\n`), so
/// arbitrary class names and paths survive the text exposition format.
/// With no labels the bare family is returned.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Log-linear sample distribution.
    Histogram(Histogram),
}

/// A thread-safe collection of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            inner: Mutex::new(self.inner.lock().unwrap().clone()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (creating it at zero first).
    pub fn inc(&self, name: &str, delta: u64) {
        let mut m = self.inner.lock().unwrap();
        match m.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => *other = Metric::Counter(delta),
        }
    }

    /// Set a counter to an absolute value (for mirroring externally
    /// maintained totals).
    pub fn set_counter(&self, name: &str, value: u64) {
        self.inner
            .lock()
            .unwrap()
            .insert(name.to_string(), Metric::Counter(value));
    }

    /// Set a gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .unwrap()
            .insert(name.to_string(), Metric::Gauge(value));
    }

    /// Raise a gauge to `value` if it is below it (creating it at
    /// `value` first) — high-water marks such as peak queue depth,
    /// where sampling the instantaneous value between scrapes would
    /// miss the spikes that matter.
    pub fn gauge_max(&self, name: &str, value: f64) {
        let mut m = self.inner.lock().unwrap();
        match m.entry(name.to_string()).or_insert(Metric::Gauge(value)) {
            Metric::Gauge(g) => *g = g.max(value),
            other => *other = Metric::Gauge(value),
        }
    }

    /// Record a sample into a histogram (creating it empty first).
    pub fn observe(&self, name: &str, value: u64) {
        let mut m = self.inner.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.record(value),
            other => {
                let mut h = Histogram::new();
                h.record(value);
                *other = Metric::Histogram(h);
            }
        }
    }

    /// Record a float nanosecond sample into a histogram.
    pub fn observe_ns(&self, name: &str, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0).round() as u64
        } else {
            0
        };
        self.observe(name, v);
    }

    /// Current value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.inner.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Current value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.inner.lock().unwrap().get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A copy of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.inner.lock().unwrap().get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Prometheus text exposition format. Histograms export as
    /// summaries (`{quantile="…"}` series plus `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let m = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            // `family{label="x"}` → family for the # TYPE line.
            let (family, labels) = match name.find('{') {
                Some(i) => (&name[..i], &name[i..]),
                None => (name.as_str(), ""),
            };
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {family} counter\n{name} {c}\n"));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "# TYPE {family} gauge\n{name} {}\n",
                        crate::json::num(*g)
                    ));
                }
                Metric::Histogram(h) => {
                    // Splice quantile labels into any existing label set:
                    // family{a="b"} → family{a="b",quantile="0.5"}.
                    let series = |q: &str, v: u64| -> String {
                        if labels.is_empty() {
                            format!("{family}{{quantile=\"{q}\"}} {v}\n")
                        } else {
                            let inner = &labels[1..labels.len() - 1];
                            format!("{family}{{{inner},quantile=\"{q}\"}} {v}\n")
                        }
                    };
                    out.push_str(&format!("# TYPE {family} summary\n"));
                    out.push_str(&series("0.5", h.p50()));
                    out.push_str(&series("0.99", h.p99()));
                    out.push_str(&series("0.999", h.p999()));
                    out.push_str(&format!(
                        "{family}_sum{labels} {}\n{family}_count{labels} {}\n",
                        crate::json::num(h.sum()),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// JSON-lines export: one object per metric, in name order.
    pub fn to_json_lines(&self) -> String {
        let m = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            let mut o = crate::json::Obj::new();
            o.str("name", name);
            match metric {
                Metric::Counter(c) => {
                    o.str("type", "counter").u64("value", *c);
                }
                Metric::Gauge(g) => {
                    o.str("type", "gauge").num("value", *g);
                }
                Metric::Histogram(h) => {
                    o.str("type", "histogram").raw("value", &h.to_json());
                }
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.inc("queries_total", 1);
        r.inc("queries_total", 2);
        r.set_gauge("queue_depth", 4.0);
        assert_eq!(r.counter("queries_total"), Some(3));
        assert_eq!(r.gauge("queue_depth"), Some(4.0));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let r = MetricsRegistry::new();
        r.gauge_max("queue_depth_peak", 3.0);
        r.gauge_max("queue_depth_peak", 9.0);
        r.gauge_max("queue_depth_peak", 5.0);
        assert_eq!(r.gauge("queue_depth_peak"), Some(9.0));
        // Raising an existing plain gauge works the same way.
        r.set_gauge("d", 2.0);
        r.gauge_max("d", 1.0);
        assert_eq!(r.gauge("d"), Some(2.0));
    }

    #[test]
    fn histograms_accumulate() {
        let r = MetricsRegistry::new();
        for v in [10u64, 20, 30] {
            r.observe("latency_ns", v);
        }
        let h = r.histogram("latency_ns").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn prometheus_export_is_stable_and_typed() {
        let r = MetricsRegistry::new();
        r.inc("b_total", 7);
        r.set_gauge("a_gauge", 1.5);
        r.observe("c_ns", 100);
        let text = r.to_prometheus();
        // BTreeMap order: a_gauge, b_total, c_ns.
        let a = text.find("# TYPE a_gauge gauge").unwrap();
        let b = text.find("# TYPE b_total counter").unwrap();
        let c = text.find("# TYPE c_ns summary").unwrap();
        assert!(a < b && b < c, "{text}");
        assert!(text.contains("b_total 7\n"), "{text}");
        assert!(text.contains("c_ns{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("c_ns_count 1\n"), "{text}");
    }

    #[test]
    fn prometheus_labels_stay_on_series_not_type() {
        let r = MetricsRegistry::new();
        r.observe("lat_ns{class=\"join\"}", 50);
        r.inc("hits_total{tier=\"l1\"}", 2);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE lat_ns summary\n"), "{text}");
        assert!(
            text.contains("lat_ns{class=\"join\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("lat_ns_count{class=\"join\"} 1"), "{text}");
        assert!(text.contains("# TYPE hits_total counter\n"), "{text}");
        assert!(text.contains("hits_total{tier=\"l1\"} 2\n"), "{text}");
    }

    #[test]
    fn json_lines_one_object_per_metric() {
        let r = MetricsRegistry::new();
        r.inc("n", 1);
        r.observe("h", 5);
        let text = r.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"histogram\""), "{}", lines[0]);
        assert!(lines[1].contains("\"type\":\"counter\""), "{}", lines[1]);
    }

    #[test]
    fn labeled_escapes_prometheus_special_characters() {
        assert_eq!(labeled("m_total", &[]), "m_total");
        assert_eq!(
            labeled("m_total", &[("class", "join"), ("lane", "0")]),
            "m_total{class=\"join\",lane=\"0\"}"
        );
        assert_eq!(
            labeled("m", &[("path", "a\\b\"c\nd")]),
            "m{path=\"a\\\\b\\\"c\\nd\"}"
        );
        // The escaped name still splits cleanly for the exporter.
        let r = MetricsRegistry::new();
        r.inc(&labeled("esc_total", &[("p", "x\"y")]), 1);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE esc_total counter\n"), "{text}");
        assert!(text.contains("esc_total{p=\"x\\\"y\"} 1\n"), "{text}");
    }

    #[test]
    fn clone_snapshots_state() {
        let r = MetricsRegistry::new();
        r.inc("n", 5);
        let snap = r.clone();
        r.inc("n", 5);
        assert_eq!(snap.counter("n"), Some(5));
        assert_eq!(r.counter("n"), Some(10));
    }

    #[test]
    fn observe_ns_clamps_garbage() {
        let r = MetricsRegistry::new();
        r.observe_ns("h", -5.0);
        r.observe_ns("h", f64::NAN);
        r.observe_ns("h", 1.6);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!((h.min(), h.max()), (0, 2));
    }
}
