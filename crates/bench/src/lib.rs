//! # triton-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (Section 6), each exposing a typed `run(...)` function that
//! regenerates the figure's rows over the simulated hardware and
//! declaring them once as a [`sweep::Sweep`]: its columns, its committed
//! `BENCH_<name>.json` and the paper's shapes as gates. The one `sweep`
//! binary writes, prints and gates every declared sweep
//! ([`figs::SWEEPS`]).
//!
//! The `sweep` binary honours the `TRITON_SCALE` environment variable
//! (the capacity scale factor K; default 512). Axis labels stay in the paper's
//! units — "128 M tuples" runs `128 M / K` actual tuples against
//! capacities divided by K, which the scaling argument in `triton-hw`
//! makes throughput-equivalent.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figs;
pub mod json;
pub mod sweep;

use triton_hw::HwConfig;

/// Default capacity scale factor K.
pub const DEFAULT_SCALE: u64 = 512;

/// Parse a `TRITON_SCALE` value: unset is [`DEFAULT_SCALE`], anything
/// but a positive integer is an error.
fn parse_scale(value: Option<&str>) -> Result<u64, String> {
    match value {
        None => Ok(DEFAULT_SCALE),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&k| k >= 1)
            .ok_or_else(|| format!("TRITON_SCALE={v:?} is not a positive integer")),
    }
}

/// The scale factor `TRITON_SCALE` selects (see [`parse_scale`]).
fn scale() -> Result<u64, String> {
    let value = std::env::var_os("TRITON_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(value.as_deref())
}

/// The AC922 configuration scaled by the factor `TRITON_SCALE` selects
/// (default [`DEFAULT_SCALE`]); `Err` when it is not a positive integer.
pub fn hw() -> Result<HwConfig, String> {
    Ok(HwConfig::ac922().scaled(scale()?))
}

/// Fixed-width table printer for sweep output.
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
        if std::env::var_os("TRITON_SCALE").is_none() {
            assert_eq!(scale(), Ok(DEFAULT_SCALE));
        }
    }

    #[test]
    fn scale_rejects_anything_but_a_positive_integer() {
        assert_eq!(parse_scale(Some("2048")), Ok(2048));
        for bad in ["abc", "0", ""] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("TRITON_SCALE"), "{bad:?}: {err}");
        }
    }
}
