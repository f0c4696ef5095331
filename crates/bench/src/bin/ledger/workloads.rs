//! The five ledger workloads and the loop that measures them.
//!
//! Every workload runs the same way: set up its inputs several times
//! (the median is `setup_s`), run timed iterations of the system calls
//! for the measurement window (the median is `host_ms`), read the peak
//! RSS, then check the outputs against the in-tree oracles. Simulated
//! metrics are deterministic per seed, so every iteration must reproduce
//! them bit for bit. With tracing on, untraced and traced iterations
//! alternate, and the rest of the window replays the workload's Triton
//! join layer by layer (see [`crate::replay`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use triton_core::{reference_join, JoinReport, JoinResult, TritonJoin};
use triton_datagen::{Relation, Rng, TpchSpec, Workload, WorkloadSpec};
use triton_exec::{JoinQuery, Operator, Scheduler, SchedulerConfig, SchedulerMetrics, ServeResult};
use triton_hw::kernel::utilization_ppm;
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_mem::OutOfMemory;
use triton_plan::{reference_plan, tpch_query, PlanNode, PlanQuery, PlanRun};

use crate::replay::{check_fidelity, replay_join, JoinTarget, Spans};
use crate::stats::{latencies_with_shed, max_load_at_slo, percentile, LadderPoint, Summary};

/// The committed capacity scale of every `BENCH_*.json`.
pub const SCALE: u64 = 512;

/// The `--quick` scale.
pub const QUICK_SCALE: u64 = 4096;

/// The workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's headline point: a join whose state spills.
    JoinSpill,
    /// A skewed join at the `fig_skew` operating point.
    JoinSkew,
    /// TPC-H-shaped Q3 and Q9 plans.
    PlanTpch,
    /// Open-loop serving of repeated statements.
    ServeRepeat,
    /// Open-loop serving of distinct statements.
    ServeUnique,
}

/// Every workload, in run order.
pub const ALL: [Kind; 5] = [
    Kind::JoinSpill,
    Kind::JoinSkew,
    Kind::PlanTpch,
    Kind::ServeRepeat,
    Kind::ServeUnique,
];

impl Kind {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::JoinSpill => "join-spill",
            Kind::JoinSkew => "join-skew",
            Kind::PlanTpch => "plan-tpch",
            Kind::ServeRepeat => "serve-repeat",
            Kind::ServeUnique => "serve-unique",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How one ledger run is sized.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Capacity scale factor K.
    pub scale: u64,
    /// Input seed; 0 reproduces the committed generators.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Fewest timed iterations (and replay repetitions).
    pub min_iterations: usize,
    /// Most timed iterations (and replay repetitions).
    pub max_iterations: usize,
    /// Fewest input regenerations timed for `setup_s`.
    pub min_regenerations: usize,
    /// Most input regenerations; between the two, they continue until
    /// [`SETUP_BUDGET`] is spent.
    pub max_regenerations: usize,
    /// Make the traced run and report per-layer metrics.
    pub trace: bool,
}

impl Settings {
    /// The committed configuration: K = 512, at least five
    /// regenerations and three iterations, as many more as the budgets
    /// allow.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Settings {
        Settings {
            scale: SCALE,
            seed,
            window: Duration::from_secs_f64(seconds.max(0.0)),
            min_iterations: 3,
            max_iterations: usize::MAX,
            min_regenerations: 5,
            max_regenerations: 50,
            trace,
        }
    }

    /// The smoke configuration: K = 4096 and exactly three iterations.
    pub fn quick(seed: u64, trace: bool) -> Settings {
        Settings {
            scale: QUICK_SCALE,
            seed,
            window: Duration::ZERO,
            min_iterations: 3,
            max_iterations: 3,
            min_regenerations: 3,
            max_regenerations: 3,
            trace,
        }
    }
}

/// Time the set-up regenerations of one run may take: a set-up of a few
/// milliseconds is timed many times, so its median is steady.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Seed of one generator: the default ledger seed (0) keeps `base`, the
/// committed generator's own seed, and any other seed is mixed into it.
pub fn derive(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    base ^ z ^ (z >> 31)
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`sim_gtps`, `part.pass1.host_ms`, ...).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Capacity scale factor the run used.
    pub scale: u64,
    /// Input seed.
    pub seed: u64,
    /// Digest of the generated inputs (differs between seeds).
    pub inputs_digest: u64,
    /// Operations (joins, plans, submitted queries) per iteration.
    pub ops_per_iteration: u64,
    /// Iterations run: the warm-up, timed, and traced ones.
    pub iterations: u64,
    /// Operations attempted over all iterations.
    pub ops_total: u64,
    /// Operations whose output was wrong, shed, or out of memory.
    pub ops_failed: u64,
    /// Every failure found, described.
    pub problems: Vec<String>,
    /// Simulated-clock metrics and exact counts: identical for a seed.
    pub sim: Vec<Metric>,
    /// Host-clock metrics: `host_ms` and `setup_s` summaries.
    pub host: Vec<(&'static str, Summary, &'static str)>,
    /// Peak resident set of the process (MiB).
    pub peak_rss_mb: f64,
    /// Per-layer metrics of the traced run.
    pub layers: Vec<Metric>,
    /// The traced run's Chrome trace.
    pub chrome: Option<String>,
}

impl Record {
    /// Whether every output matched its oracle and nothing else failed.
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.problems.is_empty()
    }
}

/// An oracle verdict over one iteration's outputs.
#[derive(Debug, Default)]
struct Check {
    ops: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        // The first few descriptions say enough.
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// Times the system calls of one iteration, as spans when traced.
pub struct Clock<'a> {
    spans: Option<&'a mut Spans>,
    host_ns: f64,
}

impl Clock<'_> {
    /// Time `f`, one call into the system under test.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.spans.as_deref_mut() {
            Some(spans) => {
                let s = spans.begin(0, name);
                let out = f();
                self.host_ns += spans.end(s);
                out
            }
            None => {
                let t0 = Instant::now();
                let out = f();
                self.host_ns += t0.elapsed().as_nanos() as f64;
                out
            }
        }
    }
}

/// Generated-input accounting of one setup.
#[derive(Debug, Default)]
struct Datagen {
    ns: f64,
    tuples: u64,
}

impl Datagen {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as f64;
        out
    }
}

/// What the traced run hands a workload's own layer metrics.
struct TraceFacts<'a> {
    /// Per end-to-end span name, its duration in each traced iteration
    /// (ms).
    e2e_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Median untraced `host_ms`.
    host_ms: f64,
    spans: &'a mut Spans,
}

/// One workload: inputs, the timed system calls, and the oracle.
trait Bench {
    type Setup;
    type Out;
    /// Generate inputs (datagen inside `dg`), build queries, calibrate.
    fn setup(&self, hw: &HwConfig, s: &Settings, dg: &mut Datagen) -> Self::Setup;
    /// Relations the setup generated, for the input digest.
    fn relations<'a>(&self, setup: &'a Self::Setup) -> Vec<&'a Relation>;
    /// One measured iteration; every call into the system goes through
    /// `clock`.
    fn iterate(&self, setup: &Self::Setup, hw: &HwConfig, clock: &mut Clock) -> Self::Out;
    /// Exact encoding of everything simulated an iteration produced.
    fn fingerprint(&self, out: &Self::Out) -> String;
    /// Check one iteration's outputs against the oracles.
    fn check(&self, setup: &Self::Setup, out: &Self::Out) -> Check;
    /// Simulated end-to-end metrics.
    fn sim_metrics(&self, setup: &Self::Setup, out: &Self::Out) -> Vec<Metric>;
    /// The Triton join the per-layer replay re-executes.
    fn target<'a>(
        &self,
        setup: &'a Self::Setup,
        out: &Self::Out,
        hw: &HwConfig,
    ) -> Result<JoinTarget<'a>, String>;
    /// Layer metrics only this workload has (plan executor, serving).
    fn own_layers(
        &self,
        _setup: &Self::Setup,
        _out: &Self::Out,
        _hw: &HwConfig,
        _facts: &mut TraceFacts,
    ) -> Vec<Metric> {
        Vec::new()
    }
}

/// Run one workload and measure it.
pub fn run(kind: Kind, s: &Settings) -> Record {
    match kind {
        Kind::JoinSpill => drive(
            kind,
            &JoinBench {
                spec: |k| WorkloadSpec::paper_default(2048, k),
                join: TritonJoin::default(),
            },
            s,
        ),
        Kind::JoinSkew => drive(
            kind,
            &JoinBench {
                spec: |k| WorkloadSpec::skewed(512, 1.5, k),
                join: TritonJoin {
                    skew: triton_core::SkewPolicy::aware(),
                    ..TritonJoin::default()
                },
            },
            s,
        ),
        Kind::PlanTpch => drive(kind, &PlanBench, s),
        Kind::ServeRepeat => drive(kind, &ServeBench { unique: false }, s),
        Kind::ServeUnique => drive(kind, &ServeBench { unique: true }, s),
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn drive<B: Bench>(kind: Kind, b: &B, s: &Settings) -> Record {
    let hw = HwConfig::ac922().scaled(s.scale);

    // Set-up, regenerated from scratch each time. The previous inputs
    // are dropped first, so peak RSS holds one copy.
    let mut setup_s = Vec::new();
    let mut datagen_ms = Vec::new();
    let mut tuples = 0;
    let mut setup = None;
    let t_setup = Instant::now();
    while setup_s.len() < s.max_regenerations.max(1)
        && (setup_s.len() < s.min_regenerations || t_setup.elapsed() < SETUP_BUDGET)
    {
        drop(setup.take());
        let mut dg = Datagen::default();
        let t0 = Instant::now();
        setup = Some(b.setup(&hw, s, &mut dg));
        setup_s.push(t0.elapsed().as_secs_f64());
        datagen_ms.push(ms(dg.ns));
        tuples = dg.tuples;
    }
    let Some(setup) = setup else {
        unreachable!("at least one regeneration ran")
    };

    // Warm-up: one untimed iteration lets first-touch page faults and
    // caches settle. Its output is the one the oracles check; every
    // timed iteration must reproduce it exactly.
    let out = b.iterate(
        &setup,
        &hw,
        &mut Clock {
            spans: None,
            host_ns: 0.0,
        },
    );
    let expect = b.fingerprint(&out);
    let mut problems = Vec::new();
    // Peak RSS of set-up plus one run. Later iterations repeat the same
    // allocations; the heap fragmentation they add varies from run to
    // run by a whole partition buffer and is not the workload's.
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|e| {
        problems.push(e);
        f64::NAN
    });
    let same = |o: B::Out, problems: &mut Vec<String>| {
        if b.fingerprint(&o) != expect && problems.is_empty() {
            problems.push("simulated results differ between iterations".to_string());
        }
    };

    // Timed iterations; with tracing, untraced and traced alternate so
    // drift in the machine's speed hits both alike.
    let mut spans = Spans::default();
    let mut untraced_ms = Vec::new();
    let mut traced = Vec::new();
    let window = if s.trace { s.window / 2 } else { s.window };
    let t_start = Instant::now();
    while untraced_ms.len() < s.max_iterations
        && (untraced_ms.len() < s.min_iterations || t_start.elapsed() < window)
    {
        let mut clock = Clock {
            spans: None,
            host_ns: 0.0,
        };
        let o = b.iterate(&setup, &hw, &mut clock);
        untraced_ms.push(ms(clock.host_ns));
        same(o, &mut problems);
        if s.trace {
            let root = spans.begin(0, "iteration");
            let root_idx = root.index();
            let mut clock = Clock {
                spans: Some(&mut spans),
                host_ns: 0.0,
            };
            let o = b.iterate(&setup, &hw, &mut clock);
            let traced_ms = ms(clock.host_ns);
            spans.end(root);
            traced.push((root_idx, traced_ms));
            same(o, &mut problems);
        }
    }
    let iterations = (1 + untraced_ms.len() + traced.len()) as u64;

    let check = b.check(&setup, &out);
    problems.extend(check.problems);
    let (Some(host_ms), Some(setup_summary)) = (Summary::of(&untraced_ms), Summary::of(&setup_s))
    else {
        unreachable!("settings run at least one regeneration and iteration")
    };
    let mut record = Record {
        workload: kind.name(),
        scale: s.scale,
        seed: s.seed,
        inputs_digest: digest(&b.relations(&setup)),
        ops_per_iteration: check.ops,
        iterations,
        ops_total: check.ops * iterations,
        ops_failed: check.failed * iterations,
        problems,
        sim: b.sim_metrics(&setup, &out),
        host: vec![("host_ms", host_ms, "ms"), ("setup_s", setup_summary, "s")],
        peak_rss_mb,
        layers: Vec::new(),
        chrome: None,
    };

    if s.trace {
        let mut e2e_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(root, _) in &traced {
            for (name, ns) in spans.self_by_name_under(root) {
                e2e_ms.entry(name).or_default().push(ms(ns));
            }
        }
        let traced_ms: Vec<f64> = traced.iter().map(|&(_, t)| t).collect();
        let traced_median = percentile(&traced_ms, 50).unwrap_or(f64::NAN);
        let mut layers = vec![
            metric("datagen.host_ms", median(&datagen_ms), "ms"),
            metric("datagen.tuples", tuples as f64, "count"),
        ];
        match replay_layers(b, &setup, &out, &hw, s, &mut spans, host_ms.median) {
            Ok(mut l) => layers.append(&mut l),
            Err(e) => record.problems.push(e),
        }
        let mut facts = TraceFacts {
            e2e_ms,
            host_ms: host_ms.median,
            spans: &mut spans,
        };
        layers.extend(b.own_layers(&setup, &out, &hw, &mut facts));
        layers.push(metric(
            "bench.trace_overhead_pct",
            (traced_median / host_ms.median - 1.0) * 100.0,
            "%",
        ));
        let trace = spans.to_trace(&format!("ledger {}", kind.name()));
        let t0 = Instant::now();
        let chrome = triton_trace::to_chrome_json(&trace);
        let export_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = triton_trace::validate_chrome(&chrome) {
            record
                .problems
                .push(format!("exported trace is invalid: {e}"));
        }
        layers.push(metric("bench.trace_events", trace.len() as f64, "count"));
        layers.push(metric("bench.trace_export_ms", export_ms, "ms"));
        record.layers = layers;
        record.chrome = Some(chrome);
    }
    record
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50).unwrap_or(f64::NAN)
}

/// Replay repetitions at most: enough for stable medians, few enough to
/// keep the exported trace small when the join is tiny.
const MAX_REPLAYS: usize = 50;

/// The shared per-layer metrics: replay the workload's Triton join until
/// the other half of the window is used, then take medians per span.
fn replay_layers<B: Bench>(
    b: &B,
    setup: &B::Setup,
    out: &B::Out,
    hw: &HwConfig,
    s: &Settings,
    spans: &mut Spans,
    host_ms: f64,
) -> Result<Vec<Metric>, String> {
    let target = b.target(setup, out, hw)?;
    let report = spans.time(1, "core.try_run", || target.run(hw))?;
    let mut reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first = None;
    let t0 = Instant::now();
    while reps.len() < s.max_iterations.min(MAX_REPLAYS)
        && (reps.len() < s.min_iterations || t0.elapsed() < s.window / 2)
    {
        let root = spans.begin(1, "replay");
        let root_idx = root.index();
        let replayed = replay_join(&target, &report, hw, spans);
        spans.end(root);
        let replayed = replayed?;
        reps.push(spans.self_by_name_under(root_idx));
        first.get_or_insert(replayed);
    }
    let Some(r) = first else {
        unreachable!("at least one replay ran")
    };
    check_fidelity(&r, &report).map_err(|e| format!("{}: {e}", target.label))?;

    let layer_ms = |name: &str| {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|m| ms(m.get(name).copied().unwrap_or(0.0)))
            .collect();
        median(&per_rep)
    };
    let covered: Vec<f64> = reps.iter().map(|m| ms(m.values().sum())).collect();
    let w = &*target.workload;
    let tuples = (w.r.len() + w.s.len()) as f64;
    // Folded from +0.0: an empty float sum is -0.0.
    let phase_us = |name: &str| {
        report
            .phases
            .iter()
            .filter(|p| p.name == name)
            .fold(0.0, |t, p| t + p.time.0)
            / 1e3
    };
    let placement = report.placement.clone().unwrap_or_default();
    let placed = placement.cache_hit_bytes + placement.spilled_bytes;
    Ok(vec![
        metric("part.hist.host_ms", layer_ms("part.hist"), "ms"),
        metric("part.pass1.host_ms", layer_ms("part.pass1"), "ms"),
        metric(
            "part.pass1.host_ns_per_tuple",
            layer_ms("part.pass1") * 1e6 / tuples,
            "ns/tuple",
        ),
        metric("part.ps2.host_ms", layer_ms("part.ps2"), "ms"),
        metric("part.pass2.host_ms", layer_ms("part.pass2"), "ms"),
        metric("part.pass3.host_ms", layer_ms("part.pass3"), "ms"),
        metric("core.skew_plan.host_ms", layer_ms("core.skew_plan"), "ms"),
        metric(
            "core.build_probe.host_ms",
            layer_ms("core.build_probe"),
            "ms",
        ),
        metric(
            "hw.pricing.host_ns_per_call",
            layer_ms("hw.pricing") * 1e6 / r.pricing_calls.max(1) as f64,
            "ns/call",
        ),
        metric("part.ps1.sim_us", r.ps1_sim.0 / 1e3, "us"),
        metric("part.pass1.sim_us", r.part1_sim.0 / 1e3, "us"),
        metric("part.ps2.sim_us", r.ps2_sim.0 / 1e3, "us"),
        metric("part.pass2.sim_us", r.part2_sim.0 / 1e3, "us"),
        metric(
            "part.pass1.tuples_per_txn",
            r.part1.tuples_per_txn(),
            "tuples/txn",
        ),
        metric(
            "part.pass1.tlb_walks",
            r.part1.tlb.full_misses as f64,
            "count",
        ),
        metric(
            "part.pass1.link_payload_bytes",
            r.part1.link.payload().as_f64(),
            "bytes",
        ),
        metric("core.join.sim_us", phase_us("Join"), "us"),
        metric("core.spill.sim_us", phase_us("Spill"), "us"),
        metric("core.sched.sim_us", phase_us("Sched"), "us"),
        metric(
            "core.pairs_cached",
            placement.pairs_cached() as f64,
            "count",
        ),
        metric("core.matches", report.result.matches as f64, "count"),
        metric("core.chain_steps", r.chain_steps as f64, "count"),
        metric(
            "mem.cache_hit_bytes",
            placement.cache_hit_bytes as f64,
            "bytes",
        ),
        metric("mem.spilled_bytes", placement.spilled_bytes as f64, "bytes"),
        metric(
            "mem.cache_hit_ppm",
            ppm(placement.cache_hit_bytes, placed),
            "ppm",
        ),
        metric(
            "hw.link_utilization_ppm",
            utilization_ppm(report.link_utilization(hw)) as f64,
            "ppm",
        ),
        metric("hw.iommu_walks", report.iommu_walks() as f64, "count"),
        metric(
            "bench.replay_coverage_ppm",
            median(&covered) / host_ms * 1e6,
            "ppm",
        ),
        metric("bench.replay_reps", reps.len() as f64, "count"),
    ])
}

/// `part / whole` in parts per million (0 for an empty whole).
fn ppm(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        (u128::from(part) * 1_000_000 / u128::from(whole)) as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Order-sensitive digest of relation columns.
fn digest(relations: &[&Relation]) -> u64 {
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in relations {
        for col in [&r.keys, &r.rids] {
            h = mix(h, col.len() as u64);
            for &v in col.iter() {
                h = mix(h, v);
            }
        }
    }
    h
}

/// Exact encoding of a join report's simulated outcome.
fn report_fingerprint(r: &JoinReport) -> String {
    let phases: Vec<u64> = r.phases.iter().map(|p| p.time.0.to_bits()).collect();
    format!("{:?} {:x} {phases:x?}", r.result, r.total.0.to_bits())
}

// ---------------------------------------------------------------- joins

/// `join-spill` and `join-skew`: one standalone Triton join.
struct JoinBench {
    spec: fn(u64) -> WorkloadSpec,
    join: TritonJoin,
}

impl Bench for JoinBench {
    type Setup = Workload;
    type Out = Result<JoinReport, OutOfMemory>;

    fn setup(&self, _hw: &HwConfig, s: &Settings, dg: &mut Datagen) -> Workload {
        let mut spec = (self.spec)(s.scale);
        spec.seed = derive(spec.seed, s.seed);
        let w = dg.time(|| spec.generate());
        dg.tuples = w.total_tuples();
        w
    }

    fn relations<'a>(&self, w: &'a Workload) -> Vec<&'a Relation> {
        vec![&w.r, &w.s]
    }

    fn iterate(&self, w: &Workload, hw: &HwConfig, clock: &mut Clock) -> Self::Out {
        clock.call("core.try_run", || self.join.try_run(w, hw))
    }

    fn fingerprint(&self, out: &Self::Out) -> String {
        match out {
            Ok(r) => report_fingerprint(r),
            Err(e) => format!("oom {e}"),
        }
    }

    fn check(&self, w: &Workload, out: &Self::Out) -> Check {
        let mut c = Check {
            ops: 1,
            ..Check::default()
        };
        match out {
            Err(e) => c.fail(format!("the join ran out of simulated memory: {e}")),
            Ok(r) => {
                let expect = reference_join(w);
                if r.result != expect {
                    c.fail(format!(
                        "join result {:?} differs from reference_join {expect:?}",
                        r.result
                    ));
                }
            }
        }
        c
    }

    fn sim_metrics(&self, _w: &Workload, out: &Self::Out) -> Vec<Metric> {
        let gtps = out.as_ref().map_or(f64::NAN, JoinReport::throughput_gtps);
        vec![metric("sim_gtps", gtps, "Gtuples/s")]
    }

    fn target<'a>(
        &self,
        w: &'a Workload,
        _out: &Self::Out,
        _hw: &HwConfig,
    ) -> Result<JoinTarget<'a>, String> {
        Ok(JoinTarget {
            label: "the workload's join",
            workload: Cow::Borrowed(w),
            join: self.join.clone(),
            r_resident: false,
            s_resident: false,
            output_resident: false,
        })
    }
}

// ----------------------------------------------------------------- plans

/// `plan-tpch`: pipelined Q3 and Q9 over Zipf(1.0) foreign keys.
struct PlanBench;

/// Lineitem size in modeled M tuples.
const TPCH_M_TUPLES: u64 = 1024;

/// Foreign-key skew of both queries.
const TPCH_THETA: f64 = 1.0;

struct PlanSetup {
    queries: [PlanQuery; 2],
}

impl PlanBench {
    const LABELS: [&'static str; 2] = ["plan.q3", "plan.q9"];
}

impl Bench for PlanBench {
    type Setup = PlanSetup;
    type Out = [Result<PlanRun, OutOfMemory>; 2];

    fn setup(&self, _hw: &HwConfig, s: &Settings, dg: &mut Datagen) -> PlanSetup {
        let spec = |mut t: TpchSpec| {
            t.zipf_theta = TPCH_THETA;
            t.seed = derive(t.seed, s.seed);
            t
        };
        let (q3, q9) = (
            spec(TpchSpec::q3(TPCH_M_TUPLES, s.scale)),
            spec(TpchSpec::q9(TPCH_M_TUPLES, s.scale)),
        );
        let (w3, w9) = dg.time(|| (q3.generate(), q9.generate()));
        dg.tuples = w3.total_tuples() + w9.total_tuples();
        PlanSetup {
            queries: [tpch_query(&w3), tpch_query(&w9)],
        }
    }

    fn relations<'a>(&self, setup: &'a PlanSetup) -> Vec<&'a Relation> {
        setup.queries.iter().flat_map(|q| q.inputs()).collect()
    }

    fn iterate(&self, setup: &PlanSetup, hw: &HwConfig, clock: &mut Clock) -> Self::Out {
        let [q3, q9] = &setup.queries;
        [
            clock.call(Self::LABELS[0], || q3.run(hw)),
            clock.call(Self::LABELS[1], || q9.run(hw)),
        ]
    }

    fn fingerprint(&self, out: &Self::Out) -> String {
        out.iter()
            .map(|r| match r {
                Ok(run) => format!("{:?} {}", run.agg, report_fingerprint(&run.report)),
                Err(e) => format!("oom {e}"),
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }

    fn check(&self, setup: &PlanSetup, out: &Self::Out) -> Check {
        let mut c = Check {
            ops: setup.queries.len() as u64,
            ..Check::default()
        };
        for ((q, run), label) in setup.queries.iter().zip(out).zip(Self::LABELS) {
            match run {
                Err(e) => c.fail(format!("{label} ran out of simulated memory: {e}")),
                Ok(run) => {
                    let expect = reference_plan(q.plan(), q.inputs());
                    if run.agg != expect {
                        c.fail(format!(
                            "{label} aggregate {:?} differs from reference_plan {expect:?}",
                            run.agg
                        ));
                    }
                }
            }
        }
        c
    }

    fn sim_metrics(&self, setup: &PlanSetup, out: &Self::Out) -> Vec<Metric> {
        let tuples: u64 = setup.queries.iter().map(PlanQuery::input_tuples).sum();
        let total: Option<Ns> = out
            .iter()
            .map(|r| r.as_ref().ok().map(|run| run.report.total))
            .sum();
        let gtps = match total {
            Some(t) if t.0 > 0.0 => tuples as f64 / t.as_secs() / 1e9,
            _ => f64::NAN,
        };
        vec![metric("sim_gtps", gtps, "Gtuples/s")]
    }

    /// Q9's first join whose inputs are base relations (a scan or a
    /// selection over one): `part ⋈ lineitem`, the plan's largest join,
    /// with the residency the footprint analysis gives it.
    fn target<'a>(
        &self,
        setup: &'a PlanSetup,
        _out: &Self::Out,
        hw: &HwConfig,
    ) -> Result<JoinTarget<'a>, String> {
        let q = &setup.queries[1];
        let nodes = &q.plan().nodes;
        let base = |i: usize| -> Option<Relation> {
            match nodes.get(i)? {
                PlanNode::Scan { input } => q.inputs().get(*input).cloned(),
                PlanNode::Select { child, pred } => match nodes.get(*child)? {
                    PlanNode::Scan { input } => {
                        let rel = q.inputs().get(*input)?;
                        let (keys, rids) = rel.iter().filter(|&(k, _)| pred.keep(k)).unzip();
                        Some(Relation::from_columns(keys, rids))
                    }
                    _ => None,
                },
                _ => None,
            }
        };
        let fp = q.footprint(hw, hw.gpu.mem_capacity.0);
        nodes
            .iter()
            .find_map(|n| match *n {
                PlanNode::Join { build, probe, .. } => {
                    let (r, s) = (base(build)?, base(probe)?);
                    let spec = WorkloadSpec {
                        r_tuples_modeled: r.len() as u64,
                        s_tuples_modeled: s.len() as u64,
                        scale: 1,
                        payload_cols: 0,
                        zipf_theta: 0.0,
                        match_fraction: 1.0,
                        seed: 0,
                    };
                    Some(JoinTarget {
                        label: "q9 part-lineitem join",
                        workload: Cow::Owned(Workload { r, s, spec }),
                        join: TritonJoin {
                            skew: q.skew,
                            ..TritonJoin::default()
                        },
                        r_resident: fp.resident[build],
                        s_resident: fp.resident[probe],
                        output_resident: true,
                    })
                }
                _ => None,
            })
            .ok_or_else(|| "q9 has no join over base relations".to_string())
    }

    fn own_layers(
        &self,
        setup: &PlanSetup,
        out: &Self::Out,
        hw: &HwConfig,
        facts: &mut TraceFacts,
    ) -> Vec<Metric> {
        let mut m: Vec<Metric> = Self::LABELS
            .iter()
            .map(|&l| {
                let t = facts.e2e_ms.get(l).map_or(f64::NAN, |v| median(v));
                metric(format!("{l}.host_ms"), t, "ms")
            })
            .collect();
        const ROUNDS: usize = 200;
        let budget = hw.gpu.mem_capacity.0;
        let t = facts.spans.time(1, "plan.footprint", || {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                for q in &setup.queries {
                    std::hint::black_box(q.footprint(hw, budget));
                }
            }
            t0.elapsed().as_secs_f64()
        });
        m.push(metric(
            "plan.footprint.host_us",
            t * 1e6 / (ROUNDS * setup.queries.len()) as f64,
            "us",
        ));
        let runs: Vec<&PlanRun> = out.iter().filter_map(|r| r.as_ref().ok()).collect();
        let (resident, materialized) = runs.iter().fold((0, 0), |(r, s), run| {
            let (a, b) = run.edge_counts();
            (r + a, s + b)
        });
        m.extend([
            metric(
                "plan.materialize_us",
                runs.iter().map(|r| r.materialize_time().0).sum::<f64>() / 1e3,
                "us",
            ),
            metric("plan.resident_edges", resident as f64, "count"),
            metric("plan.materialized_edges", materialized as f64, "count"),
            metric(
                "plan.peak_footprint_bytes",
                runs.iter().map(|r| r.footprint.peak).max().unwrap_or(0) as f64,
                "bytes",
            ),
        ]);
        m
    }
}

// --------------------------------------------------------------- serving

/// `serve-repeat` and `serve-unique`: an offered-load ladder of
/// open-loop Poisson arrivals on the simulated clock.
///
/// The ladder runs past the machine's capacity on purpose, to find the
/// highest load that meets the latency limit. Queries carry no deadline
/// and the queue holds a whole load's arrivals, so the scheduler refuses
/// nothing and every answer is checked; past capacity the backlog grows
/// and shows as p95 latency crossing the limit.
struct ServeBench {
    unique: bool,
}

/// Offered loads, as multiples of the serial drain rate. Concurrent
/// queries overlap on different resources and share build sides, so the
/// machine drains about 2.75 times the serial rate at K = 512: the top
/// of the ladder lies past that knee.
pub const LADDER: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];

/// Ladder index of load 1 (latency and throughput).
const AT_LOAD_1: usize = 1;

/// Ladder index of the top load (SLO attainment under overload).
const AT_TOP: usize = LADDER.len() - 1;

/// Queries submitted at each load.
pub const QUERIES_PER_LOAD: usize = 300;

/// Build families (distinct build relations).
const FAMILIES: usize = 4;

/// Distinct statements of `serve-repeat`.
const REPEAT_STATEMENTS: usize = 16;

/// The latency limit (SLO), in mean dedicated service times.
const SLO_SERVICE_TIMES: f64 = 10.0;

/// Base seed of the probe batches.
const PROBE_SEED: u64 = 0x5EED;

/// Base seed of the arrival stream (the `fig_serve` one).
const ARRIVAL_SEED: u64 = 0x5E12E;

struct ServeSetup {
    /// Distinct statements: `(family, workload)`.
    statements: Vec<(u64, Workload)>,
    /// Mean dedicated service time of the repeat statements.
    s_mean: Ns,
    /// Arrival times per ladder load (simulated ns).
    arrivals: Vec<Vec<f64>>,
}

impl ServeBench {
    /// Which statement query `i` submits at every load.
    fn statement_of(&self, i: usize) -> usize {
        if self.unique {
            i
        } else {
            i % REPEAT_STATEMENTS
        }
    }

    fn slo_limit(setup: &ServeSetup) -> Ns {
        setup.s_mean * SLO_SERVICE_TIMES
    }

    fn queries(&self, setup: &ServeSetup, load: usize) -> Vec<JoinQuery> {
        (0..QUERIES_PER_LOAD)
            .map(|i| {
                let (family, w) = &setup.statements[self.statement_of(i)];
                let mut q = JoinQuery::new(
                    format!("fam{family}-{i}"),
                    w.clone(),
                    Ns(setup.arrivals[load][i]),
                );
                q.build_key = Some(*family);
                q
            })
            .collect()
    }
}

/// What one offered load produced.
struct LoadOut {
    metrics: SchedulerMetrics,
    /// Per submitted query: latency (simulated ns) and result, or `None`
    /// when shed.
    completed: Vec<Option<(f64, JoinResult)>>,
    /// Per completed query: queue wait (ns) and service stretch.
    waits_ns: Vec<f64>,
    stretches: Vec<f64>,
    reconciled: bool,
    /// The full result, kept at load 1 for the traced run.
    serve: Option<ServeResult>,
}

impl LoadOut {
    fn of(res: ServeResult, keep: bool) -> LoadOut {
        let mut completed = Vec::with_capacity(res.outcomes.len());
        let (mut waits_ns, mut stretches) = (Vec::new(), Vec::new());
        for o in &res.outcomes {
            completed.push(o.completed().map(|c| {
                waits_ns.push((c.start - c.arrival).0);
                if c.dedicated.0 > 0.0 {
                    stretches.push((c.finish - c.start).0 / c.dedicated.0);
                }
                (c.latency().0, c.report.result)
            }));
        }
        LoadOut {
            metrics: res.metrics.clone(),
            completed,
            waits_ns,
            stretches,
            reconciled: res.telemetry.reconcile().is_ok(),
            serve: keep.then_some(res),
        }
    }

    fn latencies(&self) -> Vec<f64> {
        latencies_with_shed(self.completed.iter().map(|c| c.map(|(l, _)| l)))
    }
}

impl Bench for ServeBench {
    type Setup = ServeSetup;
    type Out = Vec<LoadOut>;

    fn setup(&self, hw: &HwConfig, s: &Settings, dg: &mut Datagen) -> ServeSetup {
        let n = if self.unique {
            QUERIES_PER_LOAD
        } else {
            REPEAT_STATEMENTS
        };
        let statements = dg.time(|| {
            let bases: Vec<Workload> = (0..FAMILIES as u64)
                .map(|f| {
                    let mut spec = WorkloadSpec::paper_default(8, s.scale);
                    spec.seed = derive(spec.seed ^ (f << 32), s.seed);
                    spec.generate()
                })
                .collect();
            (0..n)
                .map(|i| {
                    let family = i % FAMILIES;
                    let seed = derive(PROBE_SEED + i as u64, s.seed);
                    (family as u64, JoinQuery::probe_batch(&bases[family], seed))
                })
                .collect::<Vec<_>>()
        });
        dg.tuples = statements.iter().map(|(_, w)| w.total_tuples()).sum();

        // Service-time calibration over the repeat statements — the
        // first statements of both workloads — so both serve the same
        // arrivals under the same latency limit.
        let dedicated: f64 = statements[..REPEAT_STATEMENTS]
            .iter()
            .map(|(_, w)| Operator::triton().run(w, hw).map_or(0.0, |r| r.total.0))
            .sum();
        let s_mean = Ns(dedicated / REPEAT_STATEMENTS as f64);

        // Open-loop Poisson arrivals at `load` times the serial drain
        // rate 1 / s_mean, one stream per load: given its count, a
        // Poisson process's arrival times are sorted uniform draws over
        // the window. Fixing the count and the window keeps the offered
        // rate exact, so throughput does not vary with the seed.
        let arrivals = LADDER
            .iter()
            .map(|&load| {
                let window = QUERIES_PER_LOAD as f64 * s_mean.0 / load;
                let mut rng = Rng::seed_from_u64(derive(ARRIVAL_SEED ^ load.to_bits(), s.seed));
                let mut at: Vec<f64> = (0..QUERIES_PER_LOAD)
                    .map(|_| rng.next_f64() * window)
                    .collect();
                at.sort_by(f64::total_cmp);
                at
            })
            .collect();
        ServeSetup {
            statements,
            s_mean,
            arrivals,
        }
    }

    fn relations<'a>(&self, setup: &'a ServeSetup) -> Vec<&'a Relation> {
        setup
            .statements
            .iter()
            .flat_map(|(_, w)| [&w.r, &w.s])
            .collect()
    }

    fn iterate(&self, setup: &ServeSetup, hw: &HwConfig, clock: &mut Clock) -> Self::Out {
        (0..LADDER.len())
            .map(|i| {
                // Building the query vector clones the inputs: harness
                // work, outside the timed call.
                let queries = self.queries(setup, i);
                let config = SchedulerConfig {
                    max_queue: QUERIES_PER_LOAD,
                    ..SchedulerConfig::throughput()
                };
                let res = clock.call("exec.serve", || {
                    Scheduler::new(hw.clone(), config).run(queries)
                });
                LoadOut::of(res, i == AT_LOAD_1)
            })
            .collect()
    }

    fn fingerprint(&self, out: &Self::Out) -> String {
        out.iter()
            .map(|l| {
                let lat: Vec<u64> = l.latencies().iter().map(|x| x.to_bits()).collect();
                format!("{} {:x}", l.metrics.to_json(), digest_words(&lat))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn check(&self, setup: &ServeSetup, out: &Self::Out) -> Check {
        let mut c = Check {
            ops: (QUERIES_PER_LOAD * LADDER.len()) as u64,
            ..Check::default()
        };
        // Query i runs the same statement at every load: one oracle call
        // per distinct statement.
        let expect: Vec<JoinResult> = setup
            .statements
            .iter()
            .map(|(_, w)| reference_join(w))
            .collect();
        for (l, load) in out.iter().zip(LADDER) {
            for (i, done) in l.completed.iter().enumerate() {
                match done {
                    None => c.fail(format!("load {load}: query {i} was shed")),
                    Some((_, got)) if *got != expect[self.statement_of(i)] => c.fail(format!(
                        "load {load}: query {i} returned {got:?}, reference_join {:?}",
                        expect[self.statement_of(i)]
                    )),
                    Some(_) => {}
                }
            }
            if !l.reconciled {
                c.fail(format!("load {load}: telemetry failed to reconcile"));
            }
        }
        c
    }

    fn sim_metrics(&self, setup: &ServeSetup, out: &Self::Out) -> Vec<Metric> {
        let limit = Self::slo_limit(setup).0;
        let ladder: Vec<LadderPoint> = out
            .iter()
            .zip(LADDER)
            .map(|(l, load)| LadderPoint {
                load,
                shed: l.metrics.rejected,
                p95_ns: percentile(&l.latencies(), 95).unwrap_or(f64::INFINITY),
            })
            .collect();
        let at1 = &out[AT_LOAD_1];
        let lat1 = at1.latencies();
        let top = &out[AT_TOP];
        vec![
            metric("sim_gtps", top.metrics.throughput_gtps, "Gtuples/s"),
            metric(
                "sim_gtps_at_load_1",
                at1.metrics.throughput_gtps,
                "Gtuples/s",
            ),
            metric(
                "sim_p50_us",
                percentile(&lat1, 50).unwrap_or(f64::NAN) / 1e3,
                "us",
            ),
            metric(
                "sim_p95_us",
                percentile(&lat1, 95).unwrap_or(f64::NAN) / 1e3,
                "us",
            ),
            metric(
                "slo_attainment_ppm",
                ppm(
                    top.latencies().iter().filter(|&&l| l <= limit).count() as u64,
                    QUERIES_PER_LOAD as u64,
                ),
                "ppm",
            ),
            metric(
                "max_load_at_slo",
                max_load_at_slo(&ladder, limit).unwrap_or(0.0),
                "x_drain",
            ),
            metric("slo_limit_us", limit / 1e3, "us"),
            metric("generator_lateness_us", 0.0, "us"),
        ]
    }

    /// Query 0 at load 1, replayed with the cache grant it ran under.
    fn target<'a>(
        &self,
        setup: &'a ServeSetup,
        out: &Self::Out,
        _hw: &HwConfig,
    ) -> Result<JoinTarget<'a>, String> {
        let grant = out[AT_LOAD_1]
            .serve
            .as_ref()
            .and_then(|r| r.outcomes.first())
            .and_then(|o| o.completed())
            .and_then(|c| c.report.placement.as_ref())
            .map(|p| p.cache_budget_bytes)
            .ok_or("query 0 did not complete at load 1")?;
        Ok(JoinTarget {
            label: "query 0 at load 1",
            workload: Cow::Borrowed(&setup.statements[0].1),
            join: TritonJoin {
                cache_bytes: Some(Bytes(grant)),
                ..TritonJoin::default()
            },
            r_resident: false,
            s_resident: false,
            output_resident: false,
        })
    }

    fn own_layers(
        &self,
        setup: &ServeSetup,
        out: &Self::Out,
        hw: &HwConfig,
        facts: &mut TraceFacts,
    ) -> Vec<Metric> {
        const ROUNDS: usize = 20;
        let queries = (QUERIES_PER_LOAD * LADDER.len()) as f64;
        let serve_ms = facts
            .e2e_ms
            .get("exec.serve")
            .map_or(f64::NAN, |v| median(v));
        let stmt = &setup.statements[0].1;
        let op_us = {
            let mut us = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                let t0 = Instant::now();
                let r = facts
                    .spans
                    .time(1, "exec.op", || Operator::triton().run(stmt, hw));
                us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(r.ok());
            }
            median(&us)
        };
        let sum = |f: fn(&SchedulerMetrics) -> u64| out.iter().map(|l| f(&l.metrics)).sum::<u64>();
        let (hits, misses) = (sum(|m| m.cost_cache_hits), sum(|m| m.cost_cache_misses));
        let op_bound_ms = misses as f64 * op_us / 1e3;
        let at1 = &out[AT_LOAD_1];
        let mut m = vec![
            metric("exec.serve.host_ms_per_query", serve_ms / queries, "ms"),
            metric("exec.op.host_us", op_us, "us"),
            metric("exec.op_bound_ms", op_bound_ms, "ms"),
            metric("exec.sched_residual_ms", facts.host_ms - op_bound_ms, "ms"),
            metric("exec.cost_cache.hits", hits as f64, "count"),
            metric("exec.cost_cache.misses", misses as f64, "count"),
            metric("exec.cost_cache.hit_ppm", ppm(hits, hits + misses), "ppm"),
            metric(
                "exec.build_cache.hits",
                sum(|m| m.build_cache_hits) as f64,
                "count",
            ),
            metric(
                "exec.build_cache.prefix_hits",
                sum(|m| m.build_cache_prefix_hits) as f64,
                "count",
            ),
            metric(
                "exec.build_cache.misses",
                sum(|m| m.build_cache_misses) as f64,
                "count",
            ),
            metric(
                "exec.queue_wait_p95_us",
                percentile(&at1.waits_ns, 95).unwrap_or(0.0) / 1e3,
                "us",
            ),
            metric(
                "exec.service_stretch_p95",
                percentile(&at1.stretches, 95).unwrap_or(0.0),
                "ratio",
            ),
            metric(
                "exec.peak_concurrency",
                at1.metrics.peak_concurrency as f64,
                "count",
            ),
            metric(
                "exec.mean_concurrency",
                at1.metrics.mean_concurrency,
                "count",
            ),
        ];
        if let Some(res) = &at1.serve {
            let mut expose_ms = Vec::with_capacity(ROUNDS);
            let mut export_ms = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                let t0 = Instant::now();
                let text = facts.spans.time(1, "metrics.expose", || {
                    (res.telemetry.expose_text(), res.telemetry.expose_json())
                });
                expose_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(text);
                let t0 = Instant::now();
                let json = facts.spans.time(1, "trace.export", || {
                    triton_trace::to_chrome_json(&res.trace)
                });
                export_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(json);
            }
            m.extend([
                metric("metrics.expose.host_ms", median(&expose_ms), "ms"),
                metric(
                    "metrics.exposition_bytes",
                    res.telemetry.expose_text().len() as f64,
                    "bytes",
                ),
                metric("trace.events", res.trace.len() as f64, "count"),
                metric("trace.export.host_ms", median(&export_ms), "ms"),
            ]);
        }
        m
    }
}

fn digest_words(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
