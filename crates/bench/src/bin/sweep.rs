//! Every committed sweep: the paper's figures, Table 1, the ablations,
//! and the skew, TPC-H, elastic and serving sweeps.
//!
//! Usage: `sweep [--check] [--out-dir DIR] [NAME...]`
//!
//! Runs each named sweep (default: all of them, in declaration order),
//! prints its table and writes `BENCH_<name>.json` into `DIR` (default:
//! the current directory). With `--check` it also runs each sweep's
//! gates and exits 1 naming every sweep and gate that failed.
//! `TRITON_SCALE` sets the capacity scale factor K (default 512). An
//! unknown argument or sweep name, or a `TRITON_SCALE` that is not a
//! positive integer, prints the usage and exits 2.

use std::path::PathBuf;
use std::process::ExitCode;

use triton_bench::figs::SWEEPS;
use triton_bench::sweep::Declared;

fn main() -> ExitCode {
    let mut check = false;
    let mut out_dir = PathBuf::from(".");
    let mut selected: Vec<&dyn Declared> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = dir.into(),
                None => return usage("--out-dir needs a directory"),
            },
            name => match SWEEPS.iter().find(|s| s.name() == name) {
                Some(&s) => selected.push(s),
                None => return usage(&format!("unknown argument or sweep {name:?}")),
            },
        }
    }
    if selected.is_empty() {
        selected = SWEEPS.to_vec();
    }
    let hw = match triton_bench::hw() {
        Ok(hw) => hw,
        Err(e) => return usage(&e),
    };

    let failures: Vec<String> = selected
        .iter()
        .filter_map(|s| s.drive(&hw, &out_dir, check).err())
        .collect();
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = SWEEPS.iter().map(|s| s.name()).collect();
    eprintln!("sweep: {problem}");
    eprintln!("usage: sweep [--check] [--out-dir DIR] [NAME...]");
    eprintln!("sweeps: {}", names.join(" "));
    ExitCode::from(2)
}
