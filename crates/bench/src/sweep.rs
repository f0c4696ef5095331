//! One layer for every committed sweep (`BENCH_<name>.json`).
//!
//! A sweep declares, once: its schema tag, its constant header fields,
//! its row columns (name and accessor, in document order), its row
//! count and its gates. `Sweep::render` writes the document each
//! committed file is compared against byte for byte, and
//! `Sweep::check` runs every gate on the typed rows. The `sweep`
//! binary drives the four committed sweeps through [`Sweep::drive`].

use std::fmt::Debug;
use std::path::Path;

use triton_hw::HwConfig;

use crate::json::JsonObject;

/// One JSON value of a header field or a row column.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell {
    /// A string.
    Str(&'static str),
    /// An integer.
    Int(u64),
    /// A float (non-finite renders as `null`).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl Cell {
    fn put(self, obj: JsonObject, key: &str) -> JsonObject {
        match self {
            Cell::Str(v) => obj.str(key, v),
            Cell::Int(v) => obj.int(key, v),
            Cell::Num(v) => obj.num(key, v),
            Cell::Bool(v) => obj.bool(key, v),
        }
    }
}

/// A named row column and its accessor.
pub(crate) type Column<R> = (&'static str, fn(&R) -> Cell);

/// A named gate over a sweep's rows; `Err` says what failed.
pub(crate) type Gate<R> = (&'static str, fn(&HwConfig, &[R]) -> Result<(), String>);

/// The declaration of one committed sweep.
pub struct Sweep<R: 'static> {
    /// Short name; the committed file is `BENCH_<name>.json`.
    pub(crate) name: &'static str,
    /// Schema tag, the header's first field (the second is `scale`).
    pub(crate) schema: &'static str,
    /// The header's constant fields after `schema` and `scale`.
    pub(crate) header: &'static [(&'static str, Cell)],
    /// Row columns in document order.
    pub(crate) columns: &'static [Column<R>],
    /// Rows a full run produces; [`Sweep::check`] gates it exactly.
    pub(crate) rows: usize,
    /// Run the full sweep.
    pub(crate) run: fn(&HwConfig) -> Vec<R>,
    /// Print the human-readable table of a run.
    pub(crate) print: fn(&[R]),
    /// Gates every committed run must pass besides the row count.
    pub(crate) gates: &'static [Gate<R>],
}

impl<R> Sweep<R> {
    /// The stable JSON document: the header object, then one object per
    /// row, each on its own line.
    pub(crate) fn render(&self, hw: &HwConfig, rows: &[R]) -> String {
        let header = self.header.iter().fold(
            JsonObject::new()
                .str("schema", self.schema)
                .int("scale", hw.scale),
            |obj, &(key, v)| v.put(obj, key),
        );
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                self.columns
                    .iter()
                    .fold(JsonObject::new(), |obj, (key, col)| col(r).put(obj, key))
                    .render()
            })
            .collect();
        format!(
            "{{\"config\":{},\"rows\":[\n{}\n]}}\n",
            header.render(),
            body.join(",\n")
        )
    }

    /// The row count, then every gate in order; `Err` names the first
    /// gate that failed and why.
    pub(crate) fn check(&self, hw: &HwConfig, rows: &[R]) -> Result<(), String> {
        if rows.len() != self.rows {
            return Err(format!(
                "row count: {} rows, want {}",
                rows.len(),
                self.rows
            ));
        }
        for (name, gate) in self.gates {
            gate(hw, rows).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Run the sweep, print its table, write `BENCH_<name>.json` into
    /// `out_dir`, and with `check` run its gates. `Err` starts with the
    /// sweep's name.
    pub fn drive(&self, hw: &HwConfig, out_dir: &Path, check: bool) -> Result<(), String> {
        let rows = (self.run)(hw);
        (self.print)(&rows);
        let path = out_dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render(hw, &rows))
            .map_err(|e| format!("{}: write {}: {e}", self.name, path.display()))?;
        println!("wrote {}", path.display());
        if check {
            self.check(hw, &rows)
                .map_err(|e| format!("{}: {e}", self.name))?;
            println!("check ok: {} ({} gates)", self.name, self.gates.len() + 1);
        }
        Ok(())
    }
}

/// `Ok` when `ok` holds, else `Err(detail())`.
pub(crate) fn ensure(ok: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(detail())
    }
}

/// `Ok` when every row satisfies `ok`, else `Err` showing the first row
/// that does not.
pub(crate) fn every<R: Debug>(rows: &[R], ok: impl Fn(&R) -> bool) -> Result<(), String> {
    match rows.iter().find(|r| !ok(r)) {
        Some(r) => Err(format!("{r:?}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs::{fig_elastic, fig_serve, fig_skew, fig_tpch};
    use crate::DEFAULT_SCALE;

    /// A gate that reads no rows: it reruns two serving points and
    /// compares their expositions, so no row mutation can reach it.
    /// `fig_serve`'s `expositions_replay_byte_identical` covers it.
    const ROWLESS: [&str; 1] = [fig_serve::REPLAY_GATE];

    /// The top-level keys of one flat JSON object line, in order.
    fn keys(line: &str) -> Vec<String> {
        let mut keys = Vec::new();
        let mut chars = line.chars().peekable();
        let (mut depth, mut current) = (0, None::<String>);
        while let Some(c) = chars.next() {
            match (c, current.as_mut()) {
                ('\\', Some(s)) => s.extend(chars.next()),
                ('"', Some(_)) => {
                    let s = current.take().expect("inside a string");
                    if depth == 1 && chars.peek() == Some(&':') {
                        keys.push(s);
                    }
                }
                (c, Some(s)) => s.push(c),
                ('"', None) => current = Some(String::new()),
                ('{', None) => depth += 1,
                ('}', None) => depth -= 1,
                _ => {}
            }
        }
        keys
    }

    /// A gate's name and a mutation of a passing run that must fail it.
    type Negative<R> = (&'static str, fn(&mut [R]));

    /// Render a committed-scale run and check its shape, then show that
    /// the row count and every gate pass on it and that each gate fails
    /// when `negatives` mutates the rows under it.
    fn exercise<R: Clone>(sweep: &Sweep<R>, negatives: &[Negative<R>]) {
        let hw = HwConfig::ac922().scaled(DEFAULT_SCALE);
        let rows = (sweep.run)(&hw);
        let doc = sweep.render(&hw, &rows);
        let lines: Vec<&str> = doc.lines().collect();
        let header = lines[0]
            .strip_prefix("{\"config\":")
            .and_then(|h| h.strip_suffix(",\"rows\":["))
            .expect("header line");
        let tag = format!("\"schema\":\"{}\"", sweep.schema);
        assert!(header.starts_with(&format!("{{{tag},")), "{header}");
        let fields: Vec<&str> = ["schema", "scale"]
            .into_iter()
            .chain(sweep.header.iter().map(|(k, _)| *k))
            .collect();
        assert_eq!(keys(header), fields, "{} header", sweep.name);
        let columns: Vec<&str> = sweep.columns.iter().map(|(k, _)| *k).collect();
        assert_eq!(lines.len(), rows.len() + 2, "{} rows", sweep.name);
        for line in &lines[1..=rows.len()] {
            assert_eq!(keys(line), columns, "{}: {line}", sweep.name);
        }
        assert_eq!(lines[rows.len() + 1], "]}");

        sweep.check(&hw, &rows).expect("committed run passes");
        let short = sweep.check(&hw, &rows[1..]).unwrap_err();
        assert!(short.starts_with("row count"), "{short}");
        for (name, gate) in sweep.gates {
            if ROWLESS.contains(name) {
                continue;
            }
            let (_, mutate) = negatives
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{}: no negative case for {name}", sweep.name));
            let mut bad = rows.clone();
            mutate(&mut bad);
            assert!(
                gate(&hw, &bad).is_err(),
                "{}: {name} passed a mutated row",
                sweep.name
            );
        }
        assert!(negatives
            .iter()
            .all(|(n, _)| sweep.gates.iter().any(|(g, _)| g == n)));
    }

    fn find<R>(rows: &mut [R], pick: impl Fn(&R) -> bool) -> &mut R {
        rows.iter_mut().find(|r| pick(r)).expect("row in sweep")
    }

    #[test]
    fn every_sweep_renders_its_schema_and_every_gate_fires() {
        exercise(
            &fig_skew::SWEEP,
            &[
                ("skew-aware total <= blind at theta 1.5", |rows| {
                    let r = find(rows, |r| r.policy == "aware" && r.theta == 1.5);
                    r.total_ns *= 10.0;
                }),
                ("policies agree on matches at every theta", |rows| {
                    rows[3].matches += 1;
                }),
            ],
        );
        exercise(
            &fig_tpch::SWEEP,
            &[
                (
                    "pipelined < materialized at the Q3 operating point",
                    |rows| {
                        let r = find(rows, |r| {
                            (r.query, r.mode, r.theta, r.m_tuples)
                                == ("q3", "pipelined", 1.0, fig_tpch::DEFAULT_M_TUPLES)
                        });
                        r.total_ns *= 10.0;
                    },
                ),
                ("materialized rows keep no edge resident", |rows| {
                    find(rows, |r| r.mode == "materialized").resident_edges = 1;
                }),
                ("materialized rows pay materialize time", |rows| {
                    find(rows, |r| r.mode == "materialized").materialize_ns = 0.0;
                }),
                (
                    "modes agree on groups and sum_digest at every point",
                    |rows| {
                        rows[5].sum_digest ^= 1;
                    },
                ),
            ],
        );
        exercise(
            &fig_elastic::SWEEP,
            &[
                ("elastic sheds nothing", |rows| {
                    find(rows, |r| r.policy == "elastic").shed = 1;
                }),
                ("fixed sheds at least once", |rows| {
                    for r in rows.iter_mut().filter(|r| r.policy == "fixed") {
                        r.shed = 0;
                    }
                }),
                ("every result exact", |rows| rows[2].exact = false),
                ("completed + shed == burst", |rows| rows[1].completed += 1),
                ("fixed grants never revise", |rows| {
                    find(rows, |r| r.policy == "fixed").grant_revisions = 1;
                }),
            ],
        );
        exercise(
            &fig_serve::SWEEP,
            &[
                ("outcomes cover submissions", |rows| rows[0].shed += 1),
                ("telemetry counts every completion", |rows| {
                    rows[1].telemetry_completed += 1;
                }),
                ("windowed rollups reconcile", |rows| {
                    rows[2].reconciled = false
                }),
                ("SLO attainment <= 1e6 ppm", |rows| {
                    rows[4].slo_attainment_ppm = 1_000_001;
                }),
                ("cost-memo hit share <= 1e6 ppm", |rows| {
                    rows[5].cost_cache_hit_ppm = 1_000_001;
                }),
                ("telemetry is non-empty", |rows| {
                    rows[6].exposition_bytes = 0
                }),
                ("modes are exactly clean and chaos", |rows| {
                    rows[3].mode = "warm"
                }),
                ("baseline floors at the committed scale", |rows| {
                    find(rows, |r| r.mode == "chaos").completed = 0;
                }),
                ("p99 does not fall as load rises", |rows| {
                    find(rows, |r| r.mode == "clean" && r.load == 2.0).p99_ns = 0.0;
                }),
            ],
        );
    }
}
