//! `ledger` — the two-clock benchmark of the Triton join stack.
//!
//! Runs five workloads at the committed scale and reports, per workload,
//! simulated-clock metrics (exact for a seed) and host-clock metrics
//! (medians over timed iterations), after checking every output against
//! the in-tree oracles. `--trace 1` adds a traced run that replays each
//! workload's Triton join layer by layer and reports per-layer metrics.
//! See `README.md` beside this file for workloads, metrics, and bounds.
//!
//! ```text
//! ledger [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!        [--trace-out FILE] [--json FILE] [--quick]
//! ledger --compare BASE.json NEW.json
//! ```
//!
//! Without `--workload`, every workload runs in its own child process of
//! this binary, one after another, so each peak RSS is that workload's
//! alone. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, the metrics being
//! those `BENCHMARK.json` lists for the mode.

mod compare;
mod json;
mod replay;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use compare::{compare, Contract};
use json::{obj, Value};
use workloads::{Kind, Record, Settings, ALL};

/// Marks the line a child run prints its full record on.
const RECORD_PREFIX: &str = "ledger-record ";

/// Default measurement window per workload.
const DEFAULT_SECONDS: f64 = 10.0;

/// The benchmark contract, read from the working directory.
const CONTRACT_PATH: &str = "BENCHMARK.json";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<String>,
    json: Option<String>,
    quick: bool,
    record: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: ledger [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
[--trace-out FILE] [--json FILE] [--quick]\n       ledger --compare BASE.json NEW.json\n\
workloads: join-spill join-skew plan-tpch serve-repeat serve-unique";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                a.workload = Some(Kind::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => {
                let s = value("a number")?;
                a.seed = s.parse().map_err(|_| format!("bad seed {s:?}"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                let v: f64 = s.parse().map_err(|_| format!("bad seconds {s:?}"))?;
                if !(v.is_finite() && v > 0.0 && v <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                a.seconds = Some(v);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value("a file")?),
            "--json" => a.json = Some(value("a file")?),
            "--quick" => a.quick = true,
            "--record" => a.record = true,
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.trace_out.is_some() && !a.trace {
        return Err("--trace-out needs --trace 1".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((base, new)) = &args.compare {
        run_compare(base, new)
    } else if let Some(kind) = args.workload {
        run_one(kind, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn settings(args: &Args) -> Settings {
    if args.quick {
        Settings::quick(args.seed, args.trace)
    } else {
        Settings::standard(
            args.seed,
            args.seconds.unwrap_or(DEFAULT_SECONDS),
            args.trace,
        )
    }
}

fn run_compare(base: &str, new: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let contract = Contract::load(CONTRACT_PATH)?;
    let (report, worse) = compare(&read(base)?, &read(new)?, &contract)?;
    println!("{report}");
    Ok(!worse)
}

/// Measure one workload in this process.
fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let record = workloads::run(kind, &settings(args));
    print_human(&record);
    for p in &record.problems {
        eprintln!("{}: {p}", record.workload);
    }
    if let (Some(path), Some(chrome)) = (&args.trace_out, &record.chrome) {
        write(path, chrome)?;
    }
    let value = record_json(&record);
    if let Some(path) = &args.json {
        write(path, &document(std::slice::from_ref(&value)))?;
    }
    if args.record {
        println!("{RECORD_PREFIX}{}", value.render());
    }
    let line = result_line(&[value], args.trace, false)?;
    println!("{line}");
    Ok(record.correct())
}

/// Measure every workload, each in a fresh child process, one at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut records = Vec::new();
    let mut ok = true;
    for kind in ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name(), "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }, "--record"]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(p) = &args.trace_out {
            cmd.args(["--trace-out", &per_workload_path(p, kind.name())]);
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let mut got = false;
        // The child's own last line is its single-workload result; the
        // combined line below replaces it.
        for line in lines.iter().take(lines.len().saturating_sub(1)) {
            match line.strip_prefix(RECORD_PREFIX) {
                Some(rec) => {
                    records.push(json::parse(rec)?);
                    got = true;
                }
                None => println!("{line}"),
            }
        }
        if !out.status.success() || !got {
            ok = false;
            eprintln!("ledger: {} failed ({})", kind.name(), out.status);
        }
    }
    if let Some(path) = &args.json {
        write(path, &document(&records))?;
    }
    println!("{}", result_line(&records, args.trace, true)?);
    Ok(ok && records.len() == ALL.len())
}

/// `trace.json` → `trace-join-spill.json`.
fn per_workload_path(path: &str, workload: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}-{workload}.json"),
        None => format!("{path}-{workload}"),
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn print_human(r: &Record) {
    let w = r.workload;
    println!(
        "== {w}: K = {}, seed {}, {} iterations x {} ops, inputs {:016x}",
        r.scale, r.seed, r.iterations, r.ops_per_iteration, r.inputs_digest
    );
    for m in &r.sim {
        println!("{w}/{} {} {}", m.name, fmt(m.value), m.unit);
    }
    for (name, s, unit) in &r.host {
        println!(
            "{w}/{name} {} {unit} (q1 {}, q3 {}, n {})",
            fmt(s.median),
            fmt(s.q1),
            fmt(s.q3),
            s.n
        );
    }
    println!("{w}/peak_rss_mb {} MiB", fmt(r.peak_rss_mb));
    println!("{w}/ops_total {} count", r.ops_total);
    println!("{w}/ops_failed {} count", r.ops_failed);
    for m in &r.layers {
        println!("{w}/{} {} {}", m.name, fmt(m.value), m.unit);
    }
}

fn fmt(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v.fract().abs() < f64::EPSILON && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn metrics_obj(metrics: &[workloads::Metric]) -> Value {
    obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// A run's full record. `deterministic` holds everything that must be
/// byte-identical for a seed; `host` holds the host-clock readings and
/// the time-dependent totals.
fn record_json(r: &Record) -> Value {
    let mut host: Vec<(String, Value)> = r
        .host
        .iter()
        .map(|(name, s, unit)| {
            (
                name.to_string(),
                obj([
                    ("value", Value::Num(s.median)),
                    ("unit", Value::Str(unit.to_string())),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    ("n", Value::Num(s.n as f64)),
                ]),
            )
        })
        .collect();
    host.push((
        "peak_rss_mb".to_string(),
        obj([
            ("value", Value::Num(r.peak_rss_mb)),
            ("unit", Value::Str("MiB".to_string())),
        ]),
    ));
    obj([
        ("workload", Value::Str(r.workload.to_string())),
        ("scale", Value::Num(r.scale as f64)),
        ("seed", Value::Num(r.seed as f64)),
        (
            "deterministic",
            obj([
                ("correct", Value::Bool(r.correct())),
                (
                    "inputs_digest",
                    Value::Str(format!("{:016x}", r.inputs_digest)),
                ),
                ("ops_per_iteration", Value::Num(r.ops_per_iteration as f64)),
                ("metrics", metrics_obj(&r.sim)),
            ]),
        ),
        (
            "host",
            obj([
                ("iterations", Value::Num(r.iterations as f64)),
                ("ops_total", Value::Num(r.ops_total as f64)),
                ("ops_failed", Value::Num(r.ops_failed as f64)),
                ("metrics", Value::Obj(host)),
            ]),
        ),
        ("layers", metrics_obj(&r.layers)),
        (
            "problems",
            Value::Arr(r.problems.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

fn document(records: &[Value]) -> String {
    let doc = obj([
        ("schema", Value::Str("triton-ledger/v1".to_string())),
        ("workloads", Value::Arr(records.to_vec())),
    ]);
    doc.render() + "\n"
}

/// A metric of a record: `(value, unit)` from any of its sections.
fn find_metric(rec: &Value, name: &str) -> Option<(f64, String)> {
    let sections = [
        rec.get("deterministic").and_then(|s| s.get("metrics")),
        rec.get("host").and_then(|s| s.get("metrics")),
        rec.get("layers"),
    ];
    sections.into_iter().flatten().find_map(|s| {
        let m = s.get(name)?;
        Some((m.get("value")?.num()?, m.get("unit")?.str()?.to_string()))
    })
}

/// The last stdout line: correctness, operation counts, and the metrics
/// `BENCHMARK.json` lists for the mode (every metric of the mode when
/// there is no contract to read). With several records, metric names are
/// qualified by workload.
fn result_line(records: &[Value], trace: bool, qualify: bool) -> Result<String, String> {
    let contract = Contract::load(CONTRACT_PATH).ok();
    let num = |r: &Value, section: &str, key: &str| {
        r.get(section)
            .and_then(|s| s.get(key))
            .and_then(Value::num)
            .unwrap_or(0.0)
    };
    let correct = !records.is_empty()
        && records.iter().all(|r| {
            r.get("deterministic")
                .and_then(|d| d.get("correct"))
                .is_some_and(|c| *c == Value::Bool(true))
        });
    let mut metrics = Vec::new();
    for r in records {
        let workload = r.get("workload").and_then(Value::str).unwrap_or("?");
        let names: Vec<String> = match &contract {
            Some(c) if trace => c.per_layer.iter().map(|m| m.name.clone()).collect(),
            Some(c) => c.end_to_end.iter().map(|m| m.name.clone()).collect(),
            None => {
                let sections = if trace {
                    vec![r.get("layers")]
                } else {
                    vec![
                        r.get("deterministic").and_then(|d| d.get("metrics")),
                        r.get("host").and_then(|h| h.get("metrics")),
                    ]
                };
                sections
                    .into_iter()
                    .flatten()
                    .filter_map(Value::members)
                    .flatten()
                    .map(|(n, _)| n.clone())
                    .collect()
            }
        };
        for name in names {
            let (value, unit) = find_metric(r, &name)
                .ok_or_else(|| format!("{workload} did not report the metric {name}"))?;
            let key = if qualify {
                format!("{workload}/{name}")
            } else {
                name
            };
            metrics.push((
                key,
                obj([("value", Value::Num(value)), ("unit", Value::Str(unit))]),
            ));
        }
    }
    let sum = |key: &str| Value::Num(records.iter().map(|r| num(r, "host", key)).sum());
    Ok(obj([
        ("correct", Value::Bool(correct)),
        ("attempted", sum("ops_total")),
        ("failed", sum("ops_failed")),
        ("metrics", Value::Obj(metrics)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload join-skew --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Kind::JoinSkew));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--trace-out t.json",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn per_workload_trace_paths() {
        assert_eq!(per_workload_path("t.json", "plan-tpch"), "t-plan-tpch.json");
        assert_eq!(per_workload_path("out/t", "join-skew"), "out/t-join-skew");
    }

    const CONTRACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

    /// The benchmark contract lists exactly the workloads this binary
    /// runs, with bounds in range and a `setup_s` metric.
    #[test]
    fn contract_matches_the_workloads() {
        let c = Contract::load(CONTRACT).unwrap();
        let names: Vec<&str> = ALL.iter().map(|k| k.name()).collect();
        assert_eq!(c.workloads, names);
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &c.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
    }

    /// A `--quick` pass over all five workloads: the same seed gives a
    /// byte-identical deterministic section, traced or not; another seed
    /// changes the inputs and still passes every oracle; and every
    /// record carries each metric the contract lists, in its unit.
    #[test]
    fn quick_pass_is_exact_per_seed_and_meets_the_contract() {
        let c = Contract::load(CONTRACT).unwrap();
        for kind in ALL {
            let traced = workloads::run(kind, &Settings::quick(0, true));
            let plain = workloads::run(kind, &Settings::quick(0, false));
            let other = workloads::run(kind, &Settings::quick(7, false));
            for r in [&traced, &plain, &other] {
                assert!(r.correct(), "{}: {:?}", r.workload, r.problems);
            }
            // A warm-up plus three timed iterations (and three traced).
            assert_eq!((plain.iterations, traced.iterations), (4, 7));
            let det = |r: &Record| record_json(r).get("deterministic").unwrap().render();
            assert_eq!(det(&traced), det(&plain), "{}", kind.name());
            assert_ne!(plain.inputs_digest, other.inputs_digest);
            assert_ne!(det(&plain), det(&other));

            let (plain, traced) = (record_json(&plain), record_json(&traced));
            let check = |rec: &Value, m: &compare::ContractMetric| {
                let (v, unit) = find_metric(rec, &m.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", kind.name(), m.name));
                assert_eq!(unit, m.unit, "{} {}", kind.name(), m.name);
                assert!(v.is_finite(), "{} {} = {v}", kind.name(), m.name);
                v
            };
            for m in &c.end_to_end {
                assert!(check(&plain, m) > 0.0, "{} {} is 0", kind.name(), m.name);
            }
            for m in &c.per_layer {
                check(&traced, m);
            }
            let line = result_line(&[traced], true, false).unwrap();
            assert!(line.starts_with(r#"{"correct":true,"#), "{line}");
        }
    }
}
