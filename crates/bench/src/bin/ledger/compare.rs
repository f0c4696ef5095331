//! `BENCHMARK.json` and the `--compare` verdicts.
//!
//! `--compare a.json b.json` reads two ledger `--json` records and
//! gives every (workload, end-to-end metric) pair one verdict: `better`,
//! `same`, `worse`, or `unresolved` when either side's quartile spread
//! is wider than the metric's bound. Simulated metrics are exact per
//! seed, so any change in them is a real change; host metrics use the
//! bounds `BENCHMARK.json` fixes. Each workload gets its own row and no
//! combined score is formed.

use crate::json::{parse, Value};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// One metric the benchmark contract lists.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractMetric {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Tolerated worsening, as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported with `--trace 0`.
    pub end_to_end: Vec<ContractMetric>,
    /// Per-layer metrics, reported with `--trace 1`.
    pub per_layer: Vec<ContractMetric>,
}

impl Contract {
    /// Read and check a `BENCHMARK.json`.
    pub fn load(path: &str) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Contract::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parse the contract document.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = parse(text)?;
        let list = |key: &str, bounded: bool| -> Result<Vec<ContractMetric>, String> {
            let items = doc
                .get(key)
                .and_then(Value::arr)
                .ok_or(format!("missing \"{key}\" list"))?;
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::str)
                            .ok_or(format!("a {key} entry lacks \"{k}\""))
                    };
                    let bound = if bounded {
                        let b = m
                            .get("bound")
                            .and_then(Value::num)
                            .ok_or(format!("a {key} entry lacks \"bound\""))?;
                        Some(b)
                    } else {
                        None
                    };
                    Ok(ContractMetric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: Better::parse(field("better")?)
                            .ok_or(format!("bad \"better\" in {key}"))?,
                        bound,
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::arr)
            .ok_or("missing \"workloads\" list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::str)
                    .map(str::to_string)
                    .ok_or("a workload lacks \"name\"".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Contract {
            workloads,
            end_to_end: list("end_to_end", true)?,
            per_layer: list("per_layer", false)?,
        })
    }

    fn end_to_end(&self, name: &str) -> Option<&ContractMetric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// Improvement direction of end-to-end metrics the contract does not
/// list (the serving-only ones).
fn default_better(name: &str) -> Option<Better> {
    match name {
        "sim_gtps" | "sim_gtps_at_load_1" | "slo_attainment_ppm" | "max_load_at_slo" => {
            Some(Better::Higher)
        }
        "sim_p50_us" | "sim_p95_us" | "generator_lateness_us" => Some(Better::Lower),
        "host_ms" | "setup_s" | "peak_rss_mb" => Some(Better::Lower),
        // Calibration outputs, not outcomes.
        _ => None,
    }
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// A quartile spread exceeds the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric read from a record: its value and quartile spread.
#[derive(Debug, Clone, Copy)]
struct Reading {
    value: f64,
    spread: f64,
}

/// Judge `b` against the baseline `a`. `bound` 0 means exact.
fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let change = if a.value.abs() > 0.0 {
        (b.value - a.value) / a.value.abs()
    } else {
        b.value - a.value
    };
    let gain = match better {
        Better::Higher => change,
        Better::Lower => -change,
    };
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// The end-to-end readings of one workload record: simulated metrics
/// (exact, no spread) and host metrics (with their quartile spread).
fn readings(rec: &Value) -> Vec<(String, Reading, bool)> {
    let mut out = Vec::new();
    let section = |path: [&str; 2]| rec.get(path[0]).and_then(|s| s.get(path[1]));
    if let Some(ms) = section(["deterministic", "metrics"]).and_then(Value::members) {
        for (name, m) in ms {
            if let Some(v) = m.get("value").and_then(Value::num) {
                out.push((
                    name.clone(),
                    Reading {
                        value: v,
                        spread: 0.0,
                    },
                    true,
                ));
            }
        }
    }
    if let Some(ms) = section(["host", "metrics"]).and_then(Value::members) {
        for (name, m) in ms {
            let Some(v) = m.get("value").and_then(Value::num) else {
                continue;
            };
            let spread = match (
                m.get("q1").and_then(Value::num),
                m.get("q3").and_then(Value::num),
            ) {
                (Some(q1), Some(q3)) if v > 0.0 => (q3 - q1) / v,
                _ => 0.0,
            };
            out.push((name.clone(), Reading { value: v, spread }, false));
        }
    }
    out
}

fn workloads(doc: &Value) -> Vec<&Value> {
    doc.get("workloads")
        .and_then(Value::arr)
        .map(|w| w.iter().collect())
        .unwrap_or_default()
}

fn name_of(rec: &Value) -> &str {
    rec.get("workload").and_then(Value::str).unwrap_or("?")
}

/// Compare two `--json` documents. Returns one line per workload and
/// whether any metric got worse.
pub fn compare(a_text: &str, b_text: &str, contract: &Contract) -> Result<(String, bool), String> {
    let a = parse(a_text).map_err(|e| format!("baseline: {e}"))?;
    let b = parse(b_text).map_err(|e| format!("candidate: {e}"))?;
    let mut lines = Vec::new();
    let mut any_worse = false;
    for rb in workloads(&b) {
        let name = name_of(rb);
        let Some(ra) = workloads(&a).into_iter().find(|r| name_of(r) == name) else {
            lines.push(format!("{name}: not in the baseline"));
            continue;
        };
        let same_inputs = ["scale", "seed"]
            .iter()
            .all(|k| ra.get(k).and_then(Value::num) == rb.get(k).and_then(Value::num));
        if !same_inputs {
            lines.push(format!(
                "{name}: scale or seed differ; simulated metrics are not comparable"
            ));
            continue;
        }
        let base = readings(ra);
        let mut cells = Vec::new();
        for (metric, rb_reading, exact) in readings(rb) {
            let Some((_, ra_reading, _)) = base.iter().find(|(n, _, _)| *n == metric) else {
                continue;
            };
            let listed = contract.end_to_end(&metric);
            let Some(better) = listed.map(|m| m.better).or_else(|| default_better(&metric)) else {
                continue;
            };
            let bound = if exact {
                0.0
            } else {
                listed.and_then(|m| m.bound).unwrap_or(0.0)
            };
            let v = judge(*ra_reading, rb_reading, better, bound);
            any_worse |= v == Verdict::Worse;
            cells.push(format!(
                "{metric} {} ({} -> {})",
                v.label(),
                fmt(ra_reading.value),
                fmt(rb_reading.value)
            ));
        }
        lines.push(format!("{name}: {}", cells.join(" | ")));
    }
    Ok((lines.join("\n"), any_worse))
}

fn fmt(v: f64) -> String {
    if v.abs() >= 1000.0 || v.fract().abs() < f64::EPSILON {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{"command":["x"],"paths":["p"],"run_seconds":1,
        "workloads":[{"name":"w","why":"y"}],
        "end_to_end":[{"name":"host_ms","unit":"ms","better":"lower","bound":0.15},
                      {"name":"sim_gtps","unit":"Gtuples/s","better":"higher","bound":0.02}],
        "per_layer":[{"name":"part.pass1.host_ms","unit":"ms","better":"lower"}]}"#;

    fn doc(gtps: f64, host: (f64, f64, f64)) -> String {
        format!(
            r#"{{"workloads":[{{"workload":"w","scale":512,"seed":1,
            "deterministic":{{"metrics":{{"sim_gtps":{{"value":{gtps},"unit":"Gtuples/s"}},
                                          "slo_limit_us":{{"value":5,"unit":"us"}}}}}},
            "host":{{"metrics":{{"host_ms":{{"value":{},"unit":"ms","q1":{},"q3":{},"n":9}}}}}}}}]}}"#,
            host.1, host.0, host.2
        )
    }

    #[test]
    fn parses_the_contract() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert_eq!(c.workloads, vec!["w".to_string()]);
        assert_eq!(c.end_to_end.len(), 2);
        assert_eq!(c.end_to_end[0].bound, Some(0.15));
        assert_eq!(c.per_layer[0].better, Better::Lower);
        assert!(Contract::parse(r#"{"workloads":[]}"#).is_err());
    }

    #[test]
    fn verdicts_follow_bounds_and_spreads() {
        let c = Contract::parse(CONTRACT).unwrap();
        let a = doc(2.0, (99.0, 100.0, 101.0));
        // 20 % slower host time, beyond the 15 % bound; simulated
        // throughput identical.
        let (out, worse) = compare(&a, &doc(2.0, (119.0, 120.0, 121.0)), &c).unwrap();
        assert!(worse, "{out}");
        assert!(out.contains("host_ms worse"), "{out}");
        assert!(out.contains("sim_gtps same"), "{out}");
        // Calibration outputs get no verdict.
        assert!(!out.contains("slo_limit_us"), "{out}");
        // 10 % slower is within the bound.
        let (out, worse) = compare(&a, &doc(2.0, (109.0, 110.0, 111.0)), &c).unwrap();
        assert!(!worse && out.contains("host_ms same"), "{out}");
        // Simulated metrics are exact: any drop is worse, any rise better.
        let (out, _) = compare(&a, &doc(1.999, (99.0, 100.0, 101.0)), &c).unwrap();
        assert!(out.contains("sim_gtps worse"), "{out}");
        let (out, _) = compare(&a, &doc(2.001, (99.0, 100.0, 101.0)), &c).unwrap();
        assert!(out.contains("sim_gtps better"), "{out}");
        // A wide quartile spread leaves the host metric unresolved.
        let (out, worse) = compare(&a, &doc(2.0, (60.0, 130.0, 200.0)), &c).unwrap();
        assert!(!worse && out.contains("host_ms unresolved"), "{out}");
        // One row per workload, never a combined score.
        assert_eq!(out.lines().count(), 1);
    }

    #[test]
    fn refuses_to_compare_different_seeds() {
        let c = Contract::parse(CONTRACT).unwrap();
        let a = doc(2.0, (99.0, 100.0, 101.0));
        let b = a.replace("\"seed\":1", "\"seed\":2");
        let (out, worse) = compare(&a, &b, &c).unwrap();
        assert!(!worse && out.contains("not comparable"), "{out}");
    }

    #[test]
    fn judge_directions() {
        let r = |value| Reading { value, spread: 0.0 };
        assert_eq!(judge(r(10.0), r(8.0), Better::Lower, 0.1), Verdict::Better);
        assert_eq!(judge(r(10.0), r(8.0), Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(judge(r(10.0), r(10.5), Better::Lower, 0.1), Verdict::Same);
        assert_eq!(judge(r(0.0), r(0.0), Better::Higher, 0.0), Verdict::Same);
    }
}
