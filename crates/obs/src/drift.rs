//! Model-drift monitor: notices when calibration has gone stale.
//!
//! The cost model's whole value is that prediction tracks measurement
//! (Eq 6.1: `T = T_mem + T_cpu` on calibrated parameters). This
//! monitor closes that loop: every executed query feeds its
//! `(measured, predicted)` pair in, keyed by operator class, and the
//! monitor keeps an EWMA of `log2(measured / predicted)` per class.
//! Working in log space makes over- and under-prediction symmetric —
//! a stable 4× miss in either direction pushes the EWMA toward ±2 —
//! and makes "drift by more than a factor F" a simple threshold:
//! `|ewma| > log2(F)`. When any class crosses it after a minimum
//! sample count, [`DriftMonitor::needs_recalibration`] flips, telling
//! the operator to re-run the calibrator on this host.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Drift state for one operator class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDrift {
    /// EWMA of `log2(measured / predicted)`.
    pub ewma_log2: f64,
    /// Samples observed.
    pub samples: u64,
}

impl ClassDrift {
    /// The smoothed measured/predicted ratio (1.0 = calibrated).
    pub fn ratio(&self) -> f64 {
        self.ewma_log2.exp2()
    }
}

/// Per-operator-class EWMA drift tracker with the `DEFAULT_*`
/// smoothing, threshold and minimum sample count below. Thread-safe;
/// shared by reference from the service layer.
#[derive(Debug)]
pub struct DriftMonitor {
    classes: Mutex<BTreeMap<String, ClassDrift>>,
}

/// Smoothing factor: each new sample contributes 25%, so a sustained
/// shift dominates after ~8 samples while a single moderate outlier
/// (under ~16×) cannot trip the flag on its own.
pub const DEFAULT_ALPHA: f64 = 0.25;
/// Flag when the smoothed ratio leaves `[1/2, 2]`.
pub const DEFAULT_THRESHOLD: f64 = 2.0;
/// Ignore classes with fewer samples than this.
pub const DEFAULT_MIN_SAMPLES: u64 = 8;

impl Default for DriftMonitor {
    fn default() -> Self {
        DriftMonitor::new()
    }
}

impl DriftMonitor {
    /// A monitor flagging a class once its smoothed measured/predicted
    /// ratio leaves `[1/DEFAULT_THRESHOLD, DEFAULT_THRESHOLD]` after
    /// [`DEFAULT_MIN_SAMPLES`] observations.
    pub fn new() -> DriftMonitor {
        DriftMonitor {
            classes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Feed one `(measured, predicted)` pair for an operator class.
    /// Non-positive or non-finite inputs are ignored (a zero-cost
    /// prediction says nothing about calibration).
    pub fn observe(&self, class: &str, measured_ns: f64, predicted_ns: f64) {
        let usable = measured_ns > 0.0
            && predicted_ns > 0.0
            && measured_ns.is_finite()
            && predicted_ns.is_finite();
        if !usable {
            return;
        }
        let sample = (measured_ns / predicted_ns).log2();
        let mut classes = self.classes.lock().unwrap();
        let entry = classes.entry(class.to_string()).or_insert(ClassDrift {
            ewma_log2: 0.0,
            samples: 0,
        });
        if entry.samples == 0 {
            entry.ewma_log2 = sample;
        } else {
            entry.ewma_log2 += DEFAULT_ALPHA * (sample - entry.ewma_log2);
        }
        entry.samples += 1;
    }

    /// Snapshot of every class's drift state.
    pub fn status(&self) -> BTreeMap<String, ClassDrift> {
        self.classes.lock().unwrap().clone()
    }

    /// The smoothed measured/predicted ratio for one class, if seen.
    pub fn ratio(&self, class: &str) -> Option<f64> {
        self.classes.lock().unwrap().get(class).map(|c| c.ratio())
    }

    fn is_stale(&self, d: &ClassDrift) -> bool {
        d.samples >= DEFAULT_MIN_SAMPLES && d.ewma_log2.abs() > DEFAULT_THRESHOLD.log2()
    }

    /// Classes whose smoothed ratio has crossed the threshold.
    pub fn stale_classes(&self) -> Vec<String> {
        self.classes
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, d)| self.is_stale(d))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// The recalibration flag: true when any class has drifted past
    /// the threshold.
    pub fn needs_recalibration(&self) -> bool {
        self.classes
            .lock()
            .unwrap()
            .values()
            .any(|d| self.is_stale(d))
    }

    /// Mirror the monitor into a [`MetricsRegistry`](crate::MetricsRegistry):
    /// one `{prefix}_ratio{class="…"}` gauge per observed class (the
    /// smoothed measured/predicted ratio), `{prefix}_stale_classes`
    /// (how many crossed the threshold), and `{prefix}_flag` (0/1).
    /// Class names go through [`labeled`](crate::registry::labeled) so
    /// arbitrary operator-class strings survive the exporters.
    pub fn export_gauges(&self, registry: &crate::MetricsRegistry, prefix: &str) {
        let classes = self.classes.lock().unwrap();
        let mut stale = 0u64;
        for (name, d) in classes.iter() {
            if self.is_stale(d) {
                stale += 1;
            }
            registry.set_gauge(
                &crate::registry::labeled(&format!("{prefix}_ratio"), &[("class", name)]),
                d.ratio(),
            );
        }
        registry.set_gauge(&format!("{prefix}_stale_classes"), stale as f64);
        registry.set_gauge(&format!("{prefix}_flag"), if stale > 0 { 1.0 } else { 0.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_model_never_flags() {
        let m = DriftMonitor::new();
        for i in 0..100 {
            // Noise within ±30% of the prediction.
            let jitter = 1.0 + 0.3 * if i % 2 == 0 { 1.0 } else { -1.0 };
            m.observe("scan", 1000.0 * jitter, 1000.0);
        }
        assert!(!m.needs_recalibration());
        let r = m.ratio("scan").unwrap();
        assert!((0.5..2.0).contains(&r), "ratio {r}");
    }

    #[test]
    fn four_x_miscalibration_flags_after_min_samples() {
        let m = DriftMonitor::new();
        for i in 0..DEFAULT_MIN_SAMPLES {
            m.observe("sort", 4000.0, 1000.0);
            if i + 1 < DEFAULT_MIN_SAMPLES {
                assert!(!m.needs_recalibration(), "flagged too early at {i}");
            }
        }
        assert!(m.needs_recalibration());
        assert_eq!(m.stale_classes(), vec!["sort".to_string()]);
        let r = m.ratio("sort").unwrap();
        assert!((r - 4.0).abs() < 0.5, "ratio {r}");
    }

    #[test]
    fn underprediction_and_overprediction_are_symmetric() {
        let over = DriftMonitor::new();
        let under = DriftMonitor::new();
        for _ in 0..20 {
            over.observe("join", 4000.0, 1000.0);
            under.observe("join", 1000.0, 4000.0);
        }
        assert!(over.needs_recalibration());
        assert!(under.needs_recalibration());
    }

    #[test]
    fn one_outlier_does_not_flag() {
        let m = DriftMonitor::new();
        for _ in 0..20 {
            m.observe("scan", 1000.0, 1000.0);
        }
        m.observe("scan", 10_000.0, 1000.0);
        assert!(!m.needs_recalibration());
    }

    #[test]
    fn garbage_inputs_are_ignored() {
        let m = DriftMonitor::new();
        m.observe("x", 0.0, 1.0);
        m.observe("x", 1.0, 0.0);
        m.observe("x", f64::NAN, 1.0);
        m.observe("x", 1.0, f64::INFINITY);
        assert!(m.status().is_empty());
    }

    #[test]
    fn export_gauges_mirrors_ratios_into_a_registry() {
        let m = DriftMonitor::new();
        for _ in 0..10 {
            m.observe("sort", 4000.0, 1000.0);
            m.observe("scan", 1000.0, 1000.0);
        }
        let r = crate::MetricsRegistry::new();
        m.export_gauges(&r, "svc_drift");
        let sort = r.gauge("svc_drift_ratio{class=\"sort\"}").unwrap();
        assert!((sort - 4.0).abs() < 0.5, "ratio {sort}");
        let scan = r.gauge("svc_drift_ratio{class=\"scan\"}").unwrap();
        assert!((scan - 1.0).abs() < 0.1, "ratio {scan}");
        assert_eq!(r.gauge("svc_drift_stale_classes"), Some(1.0));
        assert_eq!(r.gauge("svc_drift_flag"), Some(1.0));
        // The ratios appear in the Prometheus export, per class.
        let text = r.to_prometheus();
        assert!(text.contains("svc_drift_ratio{class=\"sort\"}"), "{text}");
    }
}
