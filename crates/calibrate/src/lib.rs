//! # gcm-calibrate — the Calibrator
//!
//! Re-implementation of the paper's calibration tool (§2.3, `[MBK00b]`):
//! a set of blind micro-benchmarks — pointer chases and strided sweeps —
//! that recover a machine's memory-hierarchy parameters (capacities,
//! line/page sizes, TLB entries, sequential and random miss latencies)
//! purely from measured access costs.
//!
//! The original runs on real hardware and reads the wall clock; the
//! [`detect`] pipeline here runs against [`gcm_sim::MemorySystem`] and
//! reads the charged-latency clock, closing the loop of the
//! reproduction: the parameters the cost model needs are recoverable
//! from the very substrate the validation experiments measure (Table
//! 3's methodology). The [`native`] module restores the original's
//! real-machine half — pointer chases and sweeps over host memory,
//! timed with [`std::time::Instant`] — so the same workflow also
//! calibrates the machine the tests actually run on
//! ([`calibrate_host`]).
//!
//! ```
//! use gcm_calibrate::Calibrator;
//! use gcm_hardware::presets;
//!
//! let mut cal = Calibrator::new(presets::tiny(), 128 * 1024);
//! let report = cal.run();
//! assert_eq!(report.caches[0].capacity, 2048); // tiny L1 recovered
//! ```

pub mod chase;
pub mod detect;
pub mod native;

pub use detect::{CalibrationReport, Calibrator, DetectedCache, DetectedTlb};
pub use native::{calibrate_host, chase_ns_per_step, detect_host_tlb, sweep_ns_per_byte};

use gcm_hardware::{Associativity, CacheLevel, HardwareSpec, LevelKind, Sharing};

impl CalibrationReport {
    /// Build a [`HardwareSpec`] from the calibrated parameters — the
    /// closing step of the paper's workflow: run the Calibrator on a new
    /// machine, feed its output to the cost model (§2.3, "Adaptation of
    /// the model to a specific hardware is done by instantiating the
    /// parameters").
    ///
    /// Associativity is not measurable by the timing scans (and the model
    /// ignores it); calibrated specs are created fully associative.
    pub fn to_spec(
        &self,
        name: impl Into<String>,
        cpu_mhz: f64,
    ) -> Result<HardwareSpec, gcm_hardware::HardwareError> {
        let mut levels: Vec<CacheLevel> = self
            .caches
            .iter()
            .enumerate()
            .map(|(i, c)| CacheLevel {
                name: format!("L{}", i + 1),
                kind: LevelKind::Cache,
                capacity: c.capacity,
                line: c.line,
                assoc: Associativity::Full,
                seq_miss_ns: c.seq_miss_ns.max(0.01),
                rand_miss_ns: c.rand_miss_ns.max(0.01),
                sharing: Sharing::Private,
            })
            .collect();
        if let Some(t) = &self.tlb {
            levels.push(CacheLevel {
                name: "TLB".into(),
                kind: LevelKind::Tlb,
                capacity: t.entries * t.page,
                line: t.page,
                assoc: Associativity::Full,
                seq_miss_ns: t.miss_ns.max(0.01),
                rand_miss_ns: t.miss_ns.max(0.01),
                sharing: Sharing::Private,
            });
        }
        HardwareSpec::new(name, cpu_mhz, levels)
    }
}

/// Render a Table-3 style comparison of configured vs. calibrated
/// parameters.
pub fn comparison_table(spec: &HardwareSpec, report: &CalibrationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("machine: {}\n", spec.name));
    out.push_str("parameter                         configured     calibrated\n");
    let caches: Vec<_> = spec.data_caches().collect();
    for (i, lvl) in caches.iter().enumerate() {
        let det = report.caches.get(i);
        let fmt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{} capacity [bytes]               {:>11} {:>14}\n",
            lvl.name,
            lvl.capacity,
            fmt(det.map(|d| d.capacity.to_string()))
        ));
        out.push_str(&format!(
            "{} line size [bytes]              {:>11} {:>14}\n",
            lvl.name,
            lvl.line,
            fmt(det.map(|d| d.line.to_string()))
        ));
        out.push_str(&format!(
            "{} seq. miss latency [ns]         {:>11} {:>14}\n",
            lvl.name,
            lvl.seq_miss_ns,
            fmt(det.map(|d| format!("{:.1}", d.seq_miss_ns)))
        ));
        out.push_str(&format!(
            "{} rand. miss latency [ns]        {:>11} {:>14}\n",
            lvl.name,
            lvl.rand_miss_ns,
            fmt(det.map(|d| format!("{:.1}", d.rand_miss_ns)))
        ));
    }
    if let Some(tlb_spec) = spec.tlbs().next() {
        let det = report.tlb.as_ref();
        out.push_str(&format!(
            "TLB entries                       {:>11} {:>14}\n",
            tlb_spec.lines(),
            det.map(|t| t.entries.to_string())
                .unwrap_or_else(|| "-".into())
        ));
        out.push_str(&format!(
            "page size [bytes]                 {:>11} {:>14}\n",
            tlb_spec.line,
            det.map(|t| t.page.to_string())
                .unwrap_or_else(|| "-".into())
        ));
        out.push_str(&format!(
            "TLB miss latency [ns]             {:>11} {:>14}\n",
            tlb_spec.seq_miss_ns,
            det.map(|t| format!("{:.1}", t.miss_ns))
                .unwrap_or_else(|| "-".into())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    #[test]
    fn comparison_table_renders() {
        let report = CalibrationReport {
            caches: vec![DetectedCache {
                capacity: 2048,
                line: 32,
                seq_miss_ns: 5.0,
                rand_miss_ns: 15.0,
            }],
            tlb: Some(DetectedTlb {
                entries: 8,
                page: 1024,
                miss_ns: 100.0,
            }),
        };
        let table = comparison_table(&presets::tiny(), &report);
        assert!(table.contains("L1 capacity"));
        assert!(table.contains("2048"));
        assert!(table.contains("TLB entries"));
    }
}
