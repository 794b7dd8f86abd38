//! Measured-vs-predicted comparison with explicit tolerances.

use gcm_core::MissPair;
use gcm_hardware::HardwareSpec;
use gcm_sim::Snapshot;

/// Result of comparing one level's measured misses with the prediction.
#[derive(Debug, Clone)]
pub struct LevelComparison {
    /// Level name.
    pub name: String,
    /// Simulator-measured misses.
    pub measured: f64,
    /// Model-predicted misses.
    pub predicted: f64,
}

impl LevelComparison {
    /// `predicted / measured` (∞ when measured is 0 but predicted is not).
    pub fn ratio(&self) -> f64 {
        if self.measured == 0.0 {
            if self.predicted.abs() < 1e-9 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.predicted / self.measured
        }
    }

    /// True if prediction is within `rel` relative error, ignoring levels
    /// with fewer than `abs_floor` measured misses (tiny counts are
    /// dominated by edge effects the model deliberately averages away).
    pub fn within(&self, rel: f64, abs_floor: f64) -> bool {
        self.rel_err(abs_floor) <= rel
    }

    /// The relative error [`within`](Self::within) bounds: zero when
    /// both counts are below `abs_floor`, else
    /// `|predicted − measured| / max(measured, abs_floor)`.
    pub fn rel_err(&self, abs_floor: f64) -> f64 {
        if self.measured < abs_floor && self.predicted < abs_floor {
            return 0.0;
        }
        ((self.predicted - self.measured) / self.measured.max(abs_floor)).abs()
    }
}

/// Compare per-level measured (snapshot delta) and predicted miss
/// counts.
pub fn compare_levels(
    spec: &HardwareSpec,
    measured: &Snapshot,
    predicted: &[MissPair],
) -> Vec<LevelComparison> {
    spec.levels()
        .iter()
        .zip(&measured.levels)
        .zip(predicted)
        .map(|((lvl, m), p)| LevelComparison {
            name: lvl.name.clone(),
            measured: (m.seq_misses + m.rand_misses) as f64,
            predicted: p.total(),
        })
        .collect()
}

/// Assert all levels agree within tolerance; panics with a full table
/// otherwise. `rel` is the allowed relative error, `abs_floor` the miss
/// count below which a level is exempt.
pub fn assert_levels_close(
    spec: &HardwareSpec,
    measured: &Snapshot,
    predicted: &[MissPair],
    rel: f64,
    abs_floor: f64,
    context: &str,
) {
    let rows = compare_levels(spec, measured, predicted);
    let bad: Vec<&LevelComparison> = rows.iter().filter(|r| !r.within(rel, abs_floor)).collect();
    if !bad.is_empty() {
        let mut msg = format!("{context}: model diverges from simulator\n");
        for r in &rows {
            msg.push_str(&format!(
                "  {:<5} measured {:>12.0} predicted {:>12.0} (ratio {:.2})\n",
                r.name,
                r.measured,
                r.predicted,
                r.ratio()
            ));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_within() {
        let c = LevelComparison {
            name: "L1".into(),
            measured: 100.0,
            predicted: 110.0,
        };
        assert!((c.ratio() - 1.1).abs() < 1e-12);
        assert!(c.within(0.15, 1.0));
        assert!(!c.within(0.05, 1.0));
    }

    #[test]
    fn small_counts_are_exempt() {
        let c = LevelComparison {
            name: "TLB".into(),
            measured: 2.0,
            predicted: 8.0,
        };
        assert!(c.within(0.10, 10.0));
        assert!(!c.within(0.10, 1.0));
    }

    #[test]
    fn zero_measured_zero_predicted_is_fine() {
        let c = LevelComparison {
            name: "L2".into(),
            measured: 0.0,
            predicted: 0.0,
        };
        assert_eq!(c.ratio(), 1.0);
        assert!(c.within(0.01, 1.0));
    }
}
