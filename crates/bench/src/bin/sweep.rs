//! Every committed sweep: skew, TPC-H plans, elastic grants, serving.
//!
//! Usage: `sweep [--check] [--out-dir DIR]`
//!
//! Runs each sweep, prints its table and writes `BENCH_<name>.json` into
//! `DIR` (default: the current directory). With `--check` it also runs
//! each sweep's gates and exits 1 naming every sweep and gate that
//! failed. Unknown arguments print the usage and exit 2.

use std::path::PathBuf;
use std::process::ExitCode;

use triton_bench::figs::{fig_elastic, fig_serve, fig_skew, fig_tpch};

fn main() -> ExitCode {
    let mut check = false;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = dir.into(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let hw = triton_bench::hw();
    let failures: Vec<String> = [
        fig_skew::SWEEP.drive(&hw, &out_dir, check),
        fig_tpch::SWEEP.drive(&hw, &out_dir, check),
        fig_elastic::SWEEP.drive(&hw, &out_dir, check),
        fig_serve::SWEEP.drive(&hw, &out_dir, check),
    ]
    .into_iter()
    .filter_map(Result::err)
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

fn usage() -> ExitCode {
    eprintln!("usage: sweep [--check] [--out-dir DIR]");
    ExitCode::from(2)
}
