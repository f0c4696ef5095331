//! # triton-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (Section 6), each exposing a typed `run(...)` function that
//! regenerates the figure's rows over the simulated hardware, plus a
//! printer. Thin binaries under `src/bin/` drive them; integration tests
//! call the same functions and assert the paper's shapes. The committed
//! `BENCH_*.json` sweeps are declared once each in [`sweep`] form and
//! written and gated by the one `sweep` binary.
//!
//! All experiments honour the `TRITON_SCALE` environment variable (the
//! capacity scale factor K; default 512). Axis labels stay in the paper's
//! units — "128 M tuples" runs `128 M / K` actual tuples against
//! capacities divided by K, which the scaling argument in `triton-hw`
//! makes throughput-equivalent.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figs;
pub mod json;
pub mod sweep;

use triton_hw::HwConfig;

/// Default capacity scale factor for bench binaries.
pub const DEFAULT_SCALE: u64 = 512;

/// Read the scale factor from `TRITON_SCALE` (default [`DEFAULT_SCALE`]).
pub fn scale() -> u64 {
    std::env::var("TRITON_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(DEFAULT_SCALE)
}

/// The scaled AC922 configuration used by all experiments.
pub fn hw() -> HwConfig {
    HwConfig::ac922().scaled(scale())
}

/// Fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let r: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(r.len(), self.headers.len(), "row width mismatch");
        self.rows.push(r);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Print an experiment banner.
pub fn banner(name: &str, what: &str) {
    println!("\n=== {name} — {what}");
    println!(
        "    (scale K = {}, paper-axis units; see DESIGN.md for the scaling argument)\n",
        scale()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["1", "2"]);
        t.row(["100", "x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn scale_default() {
        if std::env::var("TRITON_SCALE").is_err() {
            assert_eq!(scale(), DEFAULT_SCALE);
        }
    }
}
