//! Plain-text series printing in the layout of the paper's figures:
//! one row per x-value, measured and predicted columns per metric.

use std::fmt::Write as _;

/// A printable experiment series: named columns, one row per x-value.
#[derive(Debug, Default)]
pub struct Series {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Series {
    /// A series titled `title` with the given column names (the first
    /// column is the x-axis).
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Series {
        Series {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the column count).
    pub fn row(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push(values.to_vec());
    }

    /// Render the paper-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let header: Vec<String> = self.columns.iter().map(|c| format!("{c:>16}")).collect();
        let _ = writeln!(out, "{}", header.join(" "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.abs() >= 1e6 {
                        format!("{:>16.3e}", v)
                    } else if v.fract() == 0.0 {
                        format!("{:>16.0}", v)
                    } else {
                        format!("{:>16.2}", v)
                    }
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join(" "));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows() {
        let mut s = Series::new("demo", &["x", "measured", "predicted"]);
        s.row(&[1.0, 100.0, 105.0]);
        s.row(&[2.0, 200.0, 210.0]);
        let out = s.render();
        assert!(out.contains("demo"));
        assert!(out.contains("measured"));
        assert!(out.contains("105"));
        assert!(out.contains("210"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut s = Series::new("demo", &["x", "y"]);
        s.row(&[1.0]);
    }
}
