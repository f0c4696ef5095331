//! # triton-lint
//!
//! The workspace's determinism & unit-safety analyzer. The serving
//! runtime's headline guarantee is *byte-identical replay per seed*:
//! faults change timing and placement, never answers. This tool makes
//! the invariants behind that guarantee mechanical instead of tribal:
//!
//! * **D1** — no `HashMap`/`HashSet` in non-test code (iteration order
//!   is per-process random and silently breaks replay).
//! * **D2** — no `Instant`/`SystemTime`/`RandomState` outside
//!   `crates/bench` (the simulator has its own clock and seeded RNG).
//! * **D3** — no `thread::spawn`/`thread::scope`/`rayon` outside approved
//!   modules.
//! * **U1** — no re-wrapping raw `.0` arithmetic in the unit newtypes
//!   (`Bytes(a.0 + b.0)`) and no `.0 as` casts outside
//!   `crates/hw/src/units.rs`.
//! * **U2** — no float `==`/`!=` against float literals.
//! * **P1** — no `unwrap`/`expect`/`panic!` in library crates'
//!   non-test code.
//!
//! On top of the token rules, a small recursive-descent parser
//! ([`parser`]) feeds three flow-aware families ([`semantic`],
//! DESIGN.md §13):
//!
//! * **F1** — `PhaseReport`/`JoinReport` time fields must not be fed
//!   numeric literals; report times come from priced costs.
//! * **F2** — a `KernelCost` that accrues `.link` traffic must be
//!   priced (`.timing(hw)`) or escape the function.
//! * **L1** — admission-grant results (`try_admit`/`try_admit_shrunk`)
//!   must not be discarded or bound to a dead name.
//! * **L2** — allocator handles (`SimAllocator::{alloc*,resize}`)
//!   must not be discarded or bound to a dead name.
//! * **E1** — no `_` wildcard arms in matches over invariant-bearing
//!   enums in library crates.
//!
//! Exceptions are explicit pragmas — `// triton-lint: allow(rule) --
//! reason` — that cover their own line or the next code line, *must*
//! carry a written reason, and are counted and listed in the summary so
//! waiver creep stays visible. A waiver that matches no finding fails
//! the run (stale waivers hide future violations), and a committed
//! ratchet baseline (`lint-ratchet.json`) keeps per-rule finding counts
//! from growing.
//!
//! The analyzer tokenizes with a small hand-written lexer (zero
//! registry dependencies, consistent with the offline build) and never
//! matches inside strings, comments, or `#[cfg(test)]` regions. Run it
//! with `cargo run -p triton-lint --offline`; `--json <path>` writes a
//! machine-readable JSON Lines report in the bench harness's
//! conventions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod walk;

pub use report::{FileReport, WorkspaceReport};
pub use rules::{analyze_source, FileAnalysis, FileClass, Finding, Rule, Waiver, ALL_RULES};

/// Analyze every tracked `.rs` file under `root` (workspace layout:
/// `crates/*/{src,tests,benches,examples}`, top-level `tests/` and
/// `examples/`). Returns a full report; IO errors carry the offending
/// path.
pub fn analyze_workspace(root: &std::path::Path) -> Result<WorkspaceReport, String> {
    let files = walk::workspace_rs_files(root)?;
    analyze_files(root, &files)
}

/// Analyze an explicit file list. The report is sorted by
/// workspace-relative path before rendering, so the output — text and
/// JSON alike — is byte-identical regardless of the order the files
/// arrive in (the property the determinism tests pin).
pub fn analyze_files(
    root: &std::path::Path,
    files: &[std::path::PathBuf],
) -> Result<WorkspaceReport, String> {
    let mut report = WorkspaceReport {
        files: Vec::new(),
        files_scanned: files.len(),
    };
    for path in files {
        let rel = walk::rel_label(root, path);
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let class = FileClass::classify(&rel);
        let analysis = analyze_source(&class, &src);
        if !analysis.findings.is_empty()
            || !analysis.waivers.is_empty()
            || !analysis.malformed_waivers.is_empty()
            || !analysis.unused_waivers.is_empty()
        {
            report.files.push(FileReport {
                path: rel,
                analysis,
            });
        }
    }
    report.files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(report)
}
