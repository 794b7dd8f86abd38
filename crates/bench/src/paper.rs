//! The gate behind `BENCH_paper.json`: one row per (artefact, x, level)
//! holding the model's prediction, the simulator's measurement, their
//! relative error under [`LevelComparison::within`]'s rule, and the
//! tolerance the row is held to.
//!
//! Tolerances are looked up by (artefact, level) in a table of constants
//! the caller owns; none is derived from the run being checked.

use crate::compare::LevelComparison;
use std::fmt::{Display, Write as _};

/// The `abs_floor` of [`LevelComparison::within`] for every row: a row
/// whose predicted and simulated values are both below one event is
/// exempt, and no count smaller than one divides an error.
pub const ABS_FLOOR: f64 = 1.0;

/// `(artefact, level, largest allowed relative error)`.
pub type Tolerance = (&'static str, &'static str, f64);

/// One recorded comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Table, figure panel, ablation or extension the row belongs to.
    pub artefact: String,
    /// The row's point on the artefact's x-axis.
    pub x: String,
    /// Level name, predicted and simulated values.
    pub cmp: LevelComparison,
    /// The tolerance looked up for (artefact, level).
    pub tol: f64,
}

impl Row {
    /// Relative error under [`LevelComparison::within`]'s rule.
    pub fn err(&self) -> f64 {
        self.cmp.rel_err(ABS_FLOOR)
    }
}

/// Collects rows, renders them as JSON and checks them against a fixed
/// tolerance table.
#[derive(Debug)]
pub struct Gate {
    tolerances: &'static [Tolerance],
    rows: Vec<Row>,
}

impl Gate {
    /// An empty gate over `tolerances`.
    pub fn new(tolerances: &'static [Tolerance]) -> Gate {
        Gate {
            tolerances,
            rows: Vec::new(),
        }
    }

    /// Record one row. Panics if (artefact, level) has no tolerance or a
    /// value is not finite: both are bugs in the harness.
    pub fn record(
        &mut self,
        artefact: &str,
        x: impl Display,
        level: &str,
        predicted: f64,
        simulated: f64,
    ) {
        let x = x.to_string();
        assert!(
            predicted.is_finite() && simulated.is_finite(),
            "{artefact} x={x} {level}: predicted {predicted}, simulated {simulated}"
        );
        let tol = self
            .tolerances
            .iter()
            .find(|(a, l, _)| *a == artefact && *l == level)
            .unwrap_or_else(|| panic!("no tolerance for ({artefact}, {level})"))
            .2;
        self.rows.push(Row {
            artefact: artefact.to_string(),
            x,
            cmp: LevelComparison {
                name: level.to_string(),
                measured: simulated,
                predicted,
            },
            tol,
        });
    }

    /// The recorded rows, in recording order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The artifact: one row per line so a change diffs row by row.
    /// Values are written at fixed precision (nine significant digits),
    /// so the text is a function of the code alone.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"gcm-paper/v1\",\"abs_floor\":{},\"rows\":[",
            num(ABS_FLOOR)
        );
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"artefact\":\"{}\",\"x\":\"{}\",\"level\":\"{}\",\"predicted\":{},\"simulated\":{},\"err\":{:.4},\"tol\":{:.2}}}{sep}",
                r.artefact,
                r.x,
                r.cmp.name,
                num(r.cmp.predicted),
                num(r.cmp.measured),
                r.err(),
                r.tol
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Panic, naming every offending row's artefact, x and level, if a
    /// row's error exceeds its tolerance; also if a tolerance matched no
    /// row, so the table cannot hold stale entries.
    pub fn check(&self) {
        let mut msg = String::new();
        for r in self.rows.iter().filter(|r| !r.cmp.within(r.tol, ABS_FLOOR)) {
            let _ = writeln!(
                msg,
                "  {} x={} {}: predicted {} simulated {} error {:.4} > tolerance {:.2}",
                r.artefact,
                r.x,
                r.cmp.name,
                num(r.cmp.predicted),
                num(r.cmp.measured),
                r.err(),
                r.tol
            );
        }
        for (a, l, _) in self.tolerances {
            if !self
                .rows
                .iter()
                .any(|r| r.artefact == *a && r.cmp.name == *l)
            {
                let _ = writeln!(msg, "  tolerance ({a}, {l}) matches no row");
            }
        }
        assert!(
            msg.is_empty(),
            "paper reproduction out of tolerance:\n{msg}"
        );
    }
}

/// `v` to nine significant digits with trailing zeros dropped: exact for
/// every simulator count below 10⁹, and coarse enough that a last-bit
/// difference in the platform's libm does not change the text.
fn num(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let decimals = 8 - v.abs().log10().floor() as i32;
    if decimals <= 0 {
        let scale = 10f64.powi(-decimals);
        return format!("{:.0}", (v / scale).round() * scale);
    }
    let s = format!("{v:.prec$}", prec = decimals as usize);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    static TOL: &[Tolerance] = &[("fig", "L1", 0.10), ("fig", "TLB", 0.05)];

    #[test]
    fn row_at_its_tolerance_passes() {
        let mut g = Gate::new(TOL);
        g.record("fig", 128, "L1", 110.0, 100.0);
        g.record("fig", 128, "TLB", 95.0, 100.0);
        assert_eq!(g.rows()[0].err(), 0.10);
        g.check();
    }

    #[test]
    #[should_panic(
        expected = "fig x=512 L1: predicted 110.5 simulated 100 error 0.1050 > tolerance 0.10"
    )]
    fn row_past_its_tolerance_panics_naming_it() {
        let mut g = Gate::new(TOL);
        g.record("fig", 128, "TLB", 100.0, 100.0);
        g.record("fig", 512, "L1", 110.5, 100.0);
        g.check();
    }

    #[test]
    fn zero_and_tiny_counts_follow_the_floor() {
        let mut g = Gate::new(TOL);
        // Both below the floor: exempt, whatever their ratio.
        g.record("fig", 1, "TLB", 0.9, 0.0);
        g.record("fig", 1, "L1", 0.0, 0.0);
        assert!(g.rows().iter().all(|r| r.err() == 0.0));
        g.check();
        // One side at or above the floor: the floor divides the error.
        g.record("fig", 2, "TLB", 1.04, 0.0);
        assert!((g.rows()[2].err() - 1.04).abs() < 1e-12);
        let failed = std::panic::catch_unwind(|| g.check());
        assert!(failed.is_err(), "1.04 events against none exceed 0.05");
    }

    #[test]
    #[should_panic(expected = "tolerance (fig, TLB) matches no row")]
    fn unused_tolerance_panics() {
        let mut g = Gate::new(TOL);
        g.record("fig", 1, "L1", 1.0, 1.0);
        g.check();
    }

    #[test]
    #[should_panic(expected = "no tolerance for (fig, L2)")]
    fn row_without_tolerance_panics() {
        Gate::new(TOL).record("fig", 1, "L2", 1.0, 1.0);
    }

    #[test]
    fn json_is_one_row_per_line_at_fixed_precision() {
        let mut g = Gate::new(TOL);
        g.record("fig", 128, "L1", 63463.4312, 77125.0);
        g.record("fig", "16kB/8", "TLB", 2.0 / 3.0, 1.0);
        let json = g.to_json();
        assert_eq!(
            json,
            "{\"schema\":\"gcm-paper/v1\",\"abs_floor\":1,\"rows\":[\n\
             {\"artefact\":\"fig\",\"x\":\"128\",\"level\":\"L1\",\"predicted\":63463.4312,\"simulated\":77125,\"err\":0.1771,\"tol\":0.10},\n\
             {\"artefact\":\"fig\",\"x\":\"16kB/8\",\"level\":\"TLB\",\"predicted\":0.666666667,\"simulated\":1,\"err\":0.3333,\"tol\":0.05}\n\
             ]}\n"
        );
    }

    #[test]
    fn num_keeps_nine_significant_digits() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(12614.0), "12614");
        assert_eq!(num(1.2188), "1.2188");
        assert_eq!(num(123_456_789.0), "123456789");
        assert_eq!(num(12_345_678_901.0), "12345678900");
        assert_eq!(num(1245.76 + 1e-12), "1245.76");
        assert_eq!(num(-0.5), "-0.5");
    }
}
