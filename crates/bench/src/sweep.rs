//! One layer for every committed sweep (`BENCH_<name>.json`).
//!
//! A sweep declares, once: its schema tag, its constant header fields,
//! its row columns (name and accessor, in document order), its row
//! count and its gates. `Sweep::render` writes the document each
//! committed file is compared against byte for byte, `Sweep::check`
//! runs every gate on the typed rows, and the console table is printed
//! from the same columns. The `sweep` binary drives every declared
//! sweep ([`crate::figs::SWEEPS`]) through [`Declared::drive`].

use std::fmt::Debug;
use std::path::Path;

use triton_hw::HwConfig;

use crate::json::JsonObject;
use crate::Table;

/// One JSON value of a header field or a row column.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell<'a> {
    /// A string.
    Str(&'a str),
    /// An integer.
    Int(u64),
    /// A float (non-finite renders as `null`).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl Cell<'_> {
    fn put(self, obj: JsonObject, key: &str) -> JsonObject {
        match self {
            Cell::Str(v) => obj.str(key, v),
            Cell::Int(v) => obj.int(key, v),
            Cell::Num(v) => obj.num(key, v),
            Cell::Bool(v) => obj.bool(key, v),
        }
    }

    /// The console form; floats keep four significant digits.
    fn show(self) -> String {
        match self {
            Cell::Str(v) => v.to_string(),
            Cell::Int(v) => v.to_string(),
            Cell::Bool(v) => v.to_string(),
            Cell::Num(v) if (1e-3..1e6).contains(&v.abs()) => {
                let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
                format!("{v:.decimals$}")
            }
            Cell::Num(v) if v.is_normal() => format!("{v:.3e}"),
            Cell::Num(v) => format!("{v}"),
        }
    }
}

/// A named row column and its accessor.
pub(crate) type Column<R> = (&'static str, for<'a> fn(&'a R) -> Cell<'a>);

/// A named gate over a sweep's rows; `Err` says what failed.
pub(crate) type Gate<R> = (&'static str, fn(&HwConfig, &[R]) -> Result<(), String>);

/// The declaration of one committed sweep.
pub struct Sweep<R: 'static> {
    /// Short name; the committed file is `BENCH_<name>.json`.
    pub(crate) name: &'static str,
    /// Schema tag, the header's first field (the second is `scale`).
    pub(crate) schema: &'static str,
    /// The header's constant fields after `schema` and `scale`.
    pub(crate) header: &'static [(&'static str, Cell<'static>)],
    /// Row columns in document order; the console table shows the same.
    pub(crate) columns: &'static [Column<R>],
    /// Rows a full run produces; [`Sweep::check`] gates it exactly.
    pub(crate) rows: usize,
    /// Run the full sweep.
    pub(crate) run: fn(&HwConfig) -> Vec<R>,
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

    /// The console table of a run: one column per declared column.
    fn table(&self, rows: &[R]) -> Table {
        let mut t = Table::new(self.columns.iter().map(|(key, _)| *key));
        for r in rows {
            t.row(self.columns.iter().map(|(_, col)| col(r).show()));
        }
        t
    }
}

/// A declared sweep whatever its row type: what the `sweep` binary
/// looks up by name and drives.
pub trait Declared {
    /// Short name; the committed file is `BENCH_<name>.json`.
    fn name(&self) -> &'static str;

    /// Run the sweep, print its table, write `BENCH_<name>.json` into
    /// `out_dir`, and with `check` run its gates. `Err` starts with the
    /// sweep's name.
    fn drive(&self, hw: &HwConfig, out_dir: &Path, check: bool) -> Result<(), String>;
}

impl<R> Declared for Sweep<R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn drive(&self, hw: &HwConfig, out_dir: &Path, check: bool) -> Result<(), String> {
        let rows = (self.run)(hw);
        println!(
            "\n=== {} ({}, scale K = {})",
            self.name, self.schema, hw.scale
        );
        self.table(&rows).print();
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

/// The one row `pick` selects, or `Err` naming what is missing.
pub(crate) fn row<'a, R>(
    rows: &'a [R],
    what: &str,
    pick: impl Fn(&R) -> bool,
) -> Result<&'a R, String> {
    rows.iter()
        .find(|r| pick(r))
        .ok_or_else(|| format!("{what} missing"))
}

/// A figure's unit tests: `SWEEP` run once at `scale` as
/// `tests::FIXTURE`, and one `#[test]` per entry asserting the named
/// gates on that run.
macro_rules! gate_tests {
    ($scale:expr, { $($test:ident: [$($gate:expr),+ $(,)?]),+ $(,)? }) => {
        #[cfg(test)]
        pub(crate) mod tests {
            use crate::sweep::tests::Fixture;

            pub(crate) static FIXTURE: Fixture<super::Row> =
                Fixture::new(&super::SWEEP, $scale);
            $(
                #[test]
                fn $test() {
                    FIXTURE.holds(&[$($gate),+]);
                }
            )+
        }
    };
}
pub(crate) use gate_tests;

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    use super::*;
    use crate::figs::{self, fig_elastic, fig_serve, fig_skew, fig_tpch};
    use crate::DEFAULT_SCALE;

    /// One run of a sweep at one scale, shared by every test that reads
    /// it (the run happens once per test binary).
    pub(crate) struct Fixture<R: 'static> {
        sweep: &'static Sweep<R>,
        scale: u64,
        run: OnceLock<(HwConfig, Vec<R>)>,
    }

    impl<R> Fixture<R> {
        pub(crate) const fn new(sweep: &'static Sweep<R>, scale: u64) -> Self {
            Fixture {
                sweep,
                scale,
                run: OnceLock::new(),
            }
        }

        fn get(&self) -> (&HwConfig, &[R]) {
            let (hw, rows) = self.run.get_or_init(|| {
                let hw = HwConfig::ac922().scaled(self.scale);
                let rows = (self.sweep.run)(&hw);
                (hw, rows)
            });
            (hw, rows)
        }

        /// Panic unless every named gate passes on the shared run.
        pub(crate) fn holds(&self, gates: &[&str]) {
            let (hw, rows) = self.get();
            for name in gates {
                let (_, gate) = self
                    .sweep
                    .gates
                    .iter()
                    .find(|(g, _)| g == name)
                    .unwrap_or_else(|| panic!("{}: no gate {name}", self.sweep.name));
                if let Err(e) = gate(hw, rows) {
                    panic!("{} at K = {}: {name}: {e}", self.sweep.name, self.scale);
                }
            }
        }
    }

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

    /// Render the fixture's run and check its shape, then show that the
    /// row count and every gate pass on it and that each gate fails when
    /// `negatives` mutates the rows under it.
    fn exercise<R: Clone>(fixture: &Fixture<R>, negatives: &[Negative<R>]) {
        let sweep = fixture.sweep;
        let (hw, rows) = fixture.get();
        let doc = sweep.render(hw, rows);
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

        sweep.check(hw, rows).expect("committed run passes");
        let short = sweep.check(hw, &rows[1..]).unwrap_err();
        assert!(short.starts_with("row count"), "{short}");
        for (name, gate) in sweep.gates {
            if ROWLESS.contains(name) {
                continue;
            }
            let (_, mutate) = negatives
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{}: no negative case for {name}", sweep.name));
            let mut bad = rows.to_vec();
            mutate(&mut bad);
            assert!(
                gate(hw, &bad).is_err(),
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

    static SKEW: Fixture<fig_skew::Row> = Fixture::new(&fig_skew::SWEEP, DEFAULT_SCALE);
    static TPCH: Fixture<fig_tpch::Row> = Fixture::new(&fig_tpch::SWEEP, DEFAULT_SCALE);
    static ELASTIC: Fixture<fig_elastic::Row> = Fixture::new(&fig_elastic::SWEEP, DEFAULT_SCALE);
    static SERVE: Fixture<fig_serve::Row> = Fixture::new(&fig_serve::SWEEP, DEFAULT_SCALE);

    #[test]
    fn every_sweep_renders_its_schema_and_every_gate_fires() {
        exercise(
            &SKEW,
            &[
                ("skew-aware total <= 0.85 x blind at theta 1.5", |rows| {
                    let r = find(rows, |r| r.policy == "aware" && r.theta == 1.5);
                    r.total_ns *= 10.0;
                }),
                ("blind spills and aware does not at theta 1.5", |rows| {
                    find(rows, |r| r.policy == "aware" && r.theta == 1.5).spill_ns = 1.0;
                }),
                ("aware <= blind on uniform keys", |rows| {
                    find(rows, |r| r.policy == "aware" && r.theta == 0.0).total_ns *= 2.0;
                }),
                ("aware within 10% of uniform at theta 1.75", |rows| {
                    find(rows, |r| r.policy == "aware" && r.theta == 1.75).total_ns *= 2.0;
                }),
                ("every row equals reference_join", |rows| {
                    find(rows, |r| r.policy == "off" && r.theta == 1.75).checksum ^= 1;
                }),
                ("policies agree on matches at every theta", |rows| {
                    rows[3].matches += 1;
                }),
            ],
        );
        exercise(
            &TPCH,
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
            &ELASTIC,
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
            &SERVE,
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

    /// The θ = 1.5 gates on the committed-scale run (`skewed(512, 1.5,
    /// 512)` at K = 512, where the blind executor overflows staging), and
    /// both executors exact against the reference on that same join.
    #[test]
    fn skew_aware_beats_blind_executor_on_zipf_1_5() {
        SKEW.holds(&[
            "skew-aware total <= 0.85 x blind at theta 1.5",
            "blind spills and aware does not at theta 1.5",
            "every row equals reference_join",
        ]);
    }

    /// Row indices follow each figure's axes in run order.
    #[test]
    fn every_figure_renders_its_schema_and_every_gate_fires() {
        use crate::figs::*;

        exercise(
            &fig04::tests::FIXTURE,
            &[
                ("GPU out-partitions the CPU at both destinations", |rows| {
                    rows[3].input_gibs = 0.0
                }),
                ("CPU partitions below 40 GiB/s", |rows| {
                    rows[2].input_gibs = 45.0
                }),
                ("CPU partitions below 1/1.5 of the link", |rows| {
                    rows[2].input_gibs = 45.0
                }),
                ("CPU at 20-40 and GPU at 30-65 GiB/s", |rows| {
                    rows[1].input_gibs = 70.0
                }),
            ],
        );
        exercise(
            &fig06::tests::FIXTURE,
            &[
                ("reads double per granularity doubling up to 64 B", |rows| {
                    rows[1].read_gibs *= 3.0
                }),
                ("128-512 B accesses saturate above 55 GiB/s", |rows| {
                    rows[6].write_gibs = 50.0
                }),
                (
                    "misalignment costs 10-30% of reads and 40-70% of writes",
                    |rows| rows[10].read_gibs = rows[8].read_gibs,
                ),
            ],
        );
        exercise(
            &fig07::tests::FIXTURE,
            &[
                ("GPU hits at 140-170 ns, misses at 185-235 ns", |rows| {
                    rows[..27].iter_mut().for_each(|r| r.latency_ns = 150.0)
                }),
                (
                    "CPU plateaus at 430-480, 500-600 and 2500-3300 ns",
                    |rows| rows[27..36].iter_mut().for_each(|r| r.latency_ns = 600.0),
                ),
                ("CPU plateaus ordered L2 < L3* < Miss*", |rows| {
                    rows[57..].iter_mut().for_each(|r| r.latency_ns = 100.0)
                }),
            ],
        );
        exercise(
            &fig13::tests::FIXTURE,
            &[
                ("in core, NPJ perfect beats 1.5x CPU P9 at 128 M", |rows| {
                    rows[0].cpu_p9 = 10.0
                }),
                ("NPJ LP collapses below 1/50 of its 128 M rate", |rows| {
                    rows[7].npj_lp = 1.0
                }),
                (
                    "out of core, Triton BC beats NPJ perfect and 1.4x CPU P9",
                    |rows| rows[7].cpu_p9 = 5.0,
                ),
                ("Triton BC keeps 60% of its peak at 2048 M", |rows| {
                    rows[7].triton_bc = 0.1
                }),
                (
                    "Triton BC loses at most 25% per step of the coarse axis",
                    |rows| rows[5].triton_bc = 0.5,
                ),
                ("hashing scheme moves Triton by < 10% at 2048 M", |rows| {
                    rows[7].triton_perfect = 3.0
                }),
                ("NPJ perfect beats 20x NPJ LP at 2048 M", |rows| {
                    rows[7].npj_lp = 0.5
                }),
                ("Triton BC beats 100x NPJ LP at 2048 M", |rows| {
                    rows[7].npj_lp = 0.1
                }),
                (
                    "Triton BC beats CPU P9 from 512 M on, once by 1.5x",
                    |rows| rows[5].cpu_p9 = 5.0,
                ),
                ("perfect hashing at 2048 M: NPJ < CPU P9 < Triton", |rows| {
                    rows[7].cpu_p9_perfect = 0.1
                }),
                ("Xeon never beats 1.05x POWER9", |rows| {
                    rows[0].cpu_xeon = 5.0
                }),
            ],
        );
        exercise(
            &fig14::tests::FIXTURE,
            &[
                (
                    "at 2048 M, LP walks > 1 per tuple and Triton 100x less",
                    |rows| rows[6].iommu_requests_per_tuple = 0.5,
                ),
                (
                    "LP utilisation collapses below 5% and 1/5 of 512 M",
                    |rows| rows[6].link_utilization = 0.5,
                ),
                (
                    "Triton utilisation keeps 90% of 128 M and 35% at 2048 M",
                    |rows| rows[8].link_utilization = 0.1,
                ),
            ],
        );
        exercise(
            &fig15::tests::FIXTURE,
            &[
                (
                    "Part 1 takes 25-65% and the largest share at 512 and 2048 M",
                    |rows| rows[7].share = 0.9,
                ),
                ("kernel shares sum to one", |rows| rows[0].share += 0.1),
                (
                    "Part 1 stalls on memory, the join issues 1.4x more",
                    |rows| rows[17].stalls.instr_issued = 0.0,
                ),
            ],
        );
        exercise(
            &fig16::tests::FIXTURE,
            &[
                ("Triton 1.05-1.6x over the CPU-partitioned join", |rows| {
                    rows[0].triton_gtps *= 3.0
                }),
                ("the GPU partitions 1.2-2.3x faster", |rows| {
                    rows[1].gpu_partition_gibs *= 3.0
                }),
            ],
        );
        exercise(
            &fig17::tests::FIXTURE,
            &[
                ("Hierarchical beats Linear and 2x Standard", |rows| {
                    rows[2].gtps[3] = 0.0
                }),
                ("Hierarchical keeps 60% from 128 to 2048 M", |rows| {
                    rows[4].gtps[3] = 0.1
                }),
            ],
        );
        exercise(
            &fig18::tests::FIXTURE,
            &[
                (
                    "Hierarchical keeps 60% at fanout 2048 and 1.5x Shared",
                    |rows| rows[23].gibs = 1.0,
                ),
                (
                    "coalescing: Shared and Hierarchical > 6 tuples/txn at 64",
                    |rows| rows[14].tuples_per_txn = 1.0,
                ),
                (
                    "Linear's wire overhead 1.3x Hierarchical's, which stays < 1.6",
                    |rows| rows[11].transfer_ratio = 1.0,
                ),
                (
                    "at fanout 2048, Standard 20x and Shared 4x Hierarchical's IOMMU rate",
                    |rows| rows[5].iommu_requests_per_tuple = 0.0,
                ),
                (
                    "Hierarchical issue utilisation rises from fanout 4 to 2048",
                    |rows| rows[23].issue_slot_util = 0.0,
                ),
            ],
        );
        exercise(
            &fig19::tests::FIXTURE,
            &[
                ("a full cache speeds NPJ up > 2x at 512 M", |rows| {
                    rows[14].gtps = 100.0
                }),
                (
                    "Triton spreads < 2x and a full cache keeps 80% of its best",
                    |rows| rows[41].gtps = 0.01,
                ),
                (
                    "Triton gains at 512 M >= 0.95x its gain at 2048 M",
                    |rows| rows[41].gtps *= 10.0,
                ),
            ],
        );
        exercise(
            &fig20::tests::FIXTURE,
            &[
                (
                    "CPU scans 1.3-2.6x faster: CPU at 95-135, GPU at 50-66 GiB/s",
                    |rows| rows[0].ps_gpu_gibs = 10.0,
                ),
                ("a CPU prefix sum speeds the join 1.0-1.35x", |rows| {
                    rows[2].join_gpu_ps *= 2.0
                }),
            ],
        );
        exercise(
            &fig21::tests::FIXTURE,
            &[
                (
                    "at 2048 M, LP runs 20x faster at 1:32 than at 1:1",
                    |rows| rows[17].npj_lp = 0.0,
                ),
                (
                    "at 2048 M, Triton stays within 1.6x across ratios",
                    |rows| rows[14].triton *= 3.0,
                ),
                ("at 2048 M and 1:32, NPJ perfect beats Triton", |rows| {
                    rows[17].npj_perfect = 0.0
                }),
            ],
        );
        exercise(
            &fig22::tests::FIXTURE,
            &[
                (
                    "late at 16 payloads < 1/8 of the join index and < 0.4 G/s",
                    |rows| rows[10].gtps = 1.0,
                ),
                ("late never gains > 5% with width", |rows| {
                    rows[6].gtps = 10.0
                }),
                ("early beats 2x late at 16 payloads", |rows| {
                    rows[9].gtps = 0.0
                }),
            ],
        );
        exercise(
            &fig23::tests::FIXTURE,
            &[
                (
                    "at 2048 M, the CPU beats Triton per Watt at 5-11 M/s/W",
                    |rows| rows[6].mtps_per_w = 1.0,
                ),
                ("Triton per Watt falls from 128 to 2048 M", |rows| {
                    rows[2].mtps_per_w = 0.0
                }),
            ],
        );
        exercise(
            &fig24::tests::FIXTURE,
            &[
                ("28 SMs reach 70% and 55 SMs 90% of peak", |rows| {
                    rows[4].pct_of_max = 10.0
                }),
                ("throughput never drops > 3 points with more SMs", |rows| {
                    rows[5].pct_of_max = 0.0
                }),
                ("10 -> 20 SMs gains more than 70 -> 80", |rows| {
                    rows[8].pct_of_max = 200.0
                }),
            ],
        );
        exercise(
            &table1::tests::FIXTURE,
            &[
                ("only Shared and Hierarchical coalesce perfectly", |rows| {
                    rows[1].perfect_coalescing = true
                }),
                ("Standard is not high-fanout capable", |rows| {
                    rows[0].high_fanout = true
                }),
                (
                    "Hierarchical is high-fanout capable and retains more than Shared",
                    |rows| rows[3].high_fanout_retention = 0.0,
                ),
            ],
        );
        exercise(
            &ablations::tests::FIXTURE,
            &[
                (
                    "at 2048 M, overlap, interleave and caching pay off",
                    |rows| rows[6].value = 100.0,
                ),
                (
                    "the second tier gives 1.8x and growing it never hurts",
                    |rows| rows[11].value = 0.0,
                ),
                ("NPJ runs 2x faster on 2 MiB pages than on 64 KiB", |rows| {
                    rows[16].value = 100.0
                }),
                ("the far socket costs 1.2x", |rows| rows[22].value = 100.0),
                (
                    "Bloom costs <= 2% at full match and gains 1.2x at 5%",
                    |rows| rows[30].value = 0.0,
                ),
            ],
        );
    }

    #[test]
    fn sweep_names_are_unique_and_match_the_committed_files() {
        let names: Vec<&str> = figs::SWEEPS.iter().map(|s| s.name()).collect();
        let declared: BTreeSet<String> = names.iter().map(|n| format!("BENCH_{n}.json")).collect();
        assert_eq!(
            declared.len(),
            names.len(),
            "duplicate sweep name in {names:?}"
        );
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed: BTreeSet<String> = std::fs::read_dir(&root)
            .expect("repo root")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        assert_eq!(
            committed, declared,
            "committed BENCH_*.json vs declared sweeps"
        );
    }
}
