//! The project rules: determinism (D1–D3), unit safety (U1–U2), panic
//! hygiene (P1), cost fidelity (F1–F2), grant lifecycle (L1–L2), and
//! match exhaustiveness (E1), plus the waiver pragma that makes
//! exceptions explicit and countable.
//!
//! Every rule works on the lexed token stream of one file — never on raw
//! text — so occurrences inside strings, comments, and `#[cfg(test)]`
//! regions are structurally invisible to it. The F/L/E families
//! additionally parse the stream into a small AST (see [`crate::parser`]
//! and [`crate::semantic`]). See `DESIGN.md` §8 and §13 for the
//! rationale behind each rule.

use crate::lexer::{lex, test_regions, TokKind, Token};
use crate::{parser, semantic};

/// The rules `triton-lint` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in non-test code: iteration order is
    /// seeded per-process, so any observable iteration breaks replay.
    D1,
    /// No wall clock or ambient entropy (`Instant`, `SystemTime`,
    /// `RandomState`) outside `crates/bench`.
    D2,
    /// No `thread::spawn` / `rayon` outside approved modules: scheduling
    /// nondeterminism has no place in the simulator.
    D3,
    /// No re-wrapping raw `.0` arithmetic in unit constructors
    /// (`Bytes(a.0 + b.0)`) and no `.0 as` casts outside `units.rs`.
    U1,
    /// No float `==`/`!=` against float literals.
    U2,
    /// No `unwrap`/`expect`/`panic!` in library crates' non-test code.
    P1,
    /// `PhaseReport`/`JoinReport` time fields must not be fed literals;
    /// report times come from costs priced through `crates/hw`.
    F1,
    /// A `KernelCost` that accrues `.link` traffic must be priced
    /// (`.timing(hw)`) or escape the function — no silent drops.
    F2,
    /// Admission-grant results (`try_admit`/`try_admit_shrunk`) must not
    /// be discarded or bound to a dead name.
    L1,
    /// Allocator handles (`SimAllocator::{alloc*,resize}`) must not be
    /// discarded or bound to a dead name.
    L2,
    /// No `_` wildcard arms in matches over invariant-bearing enums
    /// (`FaultKind`, `RejectReason`, `GrantRevision`, `PlanNode`,
    /// `EventKind`) in library crates.
    E1,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 11] = [
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::U1,
    Rule::U2,
    Rule::P1,
    Rule::F1,
    Rule::F2,
    Rule::L1,
    Rule::L2,
    Rule::E1,
];

impl Rule {
    /// Lower-case code used in reports and waiver pragmas.
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "d1",
            Rule::D2 => "d2",
            Rule::D3 => "d3",
            Rule::U1 => "u1",
            Rule::U2 => "u2",
            Rule::P1 => "p1",
            Rule::F1 => "f1",
            Rule::F2 => "f2",
            Rule::L1 => "l1",
            Rule::L2 => "l2",
            Rule::E1 => "e1",
        }
    }

    /// One-line description for the report header.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => "nondeterministic iteration (HashMap/HashSet)",
            Rule::D2 => "wall clock / ambient entropy",
            Rule::D3 => "unmanaged threading",
            Rule::U1 => "unit-newtype bypass",
            Rule::U2 => "float equality",
            Rule::P1 => "panic in library code",
            Rule::F1 => "literal-fed report field",
            Rule::F2 => "unpriced link traffic",
            Rule::L1 => "dropped admission grant",
            Rule::L2 => "dropped allocation handle",
            Rule::E1 => "wildcard over invariant enum",
        }
    }
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// `crates/<name>/…` component, if any.
    pub crate_name: Option<String>,
    /// Under a `tests/` or `benches/` directory (integration tests and
    /// bench harnesses are test code for every rule).
    pub is_test_file: bool,
    /// Under an `examples/` directory.
    pub is_example: bool,
    /// Is `crates/hw/src/units.rs` itself (the one home of raw unit
    /// arithmetic).
    pub is_units_rs: bool,
}

/// Library crates: panics in their non-test code take the whole serving
/// process down, so P1 applies. `bench` is a reporting harness and
/// exempt; `lint` holds itself to the same bar as the libraries.
const LIB_CRATES: [&str; 10] = [
    "core", "hw", "mem", "part", "datagen", "plan", "exec", "lint", "trace", "metrics",
];

impl FileClass {
    /// Classify a workspace-relative path (forward slashes).
    pub fn classify(rel_path: &str) -> FileClass {
        let segments: Vec<&str> = rel_path.split('/').collect();
        let crate_name = segments
            .iter()
            .position(|s| *s == "crates")
            .and_then(|i| segments.get(i + 1))
            .map(|s| (*s).to_string());
        FileClass {
            crate_name,
            is_test_file: segments.iter().any(|s| *s == "tests" || *s == "benches"),
            is_example: segments.contains(&"examples"),
            is_units_rs: rel_path.ends_with("hw/src/units.rs"),
        }
    }

    fn crate_is(&self, name: &str) -> bool {
        self.crate_name.as_deref() == Some(name)
    }

    fn applies(&self, rule: Rule) -> bool {
        if self.is_test_file {
            return false;
        }
        match rule {
            Rule::D1 => true,
            Rule::D2 | Rule::D3 => !self.crate_is("bench"),
            Rule::U1 => !self.is_units_rs,
            Rule::U2 => true,
            // The flow-aware families hold library code to the cost and
            // lifecycle contracts; examples and the bench harness narrate
            // rather than serve.
            Rule::P1 | Rule::F1 | Rule::F2 | Rule::L1 | Rule::L2 | Rule::E1 => {
                !self.is_example
                    && self
                        .crate_name
                        .as_deref()
                        .is_some_and(|c| LIB_CRATES.contains(&c))
            }
        }
    }
}

/// One rule hit, possibly waived by a pragma.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message (what was matched and what to do).
    pub message: String,
    /// The waiver reason, when a `triton-lint: allow(...)` pragma with a
    /// written reason covers this line.
    pub waived: Option<String>,
}

/// A parsed `// triton-lint: allow(rule, ...) -- reason` pragma.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the pragma sits on (covers this line and the next).
    pub line: u32,
    /// Lower-case rule codes it allows.
    pub rules: Vec<String>,
    /// The mandatory written reason (empty ⇒ the pragma is inert and
    /// reported as a violation of the waiver policy itself).
    pub reason: String,
}

/// Everything the analyzer produced for one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Rule hits, waived or not, in line order.
    pub findings: Vec<Finding>,
    /// Pragmas found (used for the waiver-creep summary).
    pub waivers: Vec<Waiver>,
    /// Pragmas missing the mandatory `-- reason` clause.
    pub malformed_waivers: Vec<u32>,
    /// Well-formed pragmas that matched no finding: stale waivers hide
    /// future violations, so they fail the run like violations do.
    pub unused_waivers: Vec<Waiver>,
}

/// Parse `triton-lint: allow(d1, u2) -- reason` out of a comment.
///
/// The pragma must be the comment's own content (only `/`, `!`, `*`,
/// and whitespace may precede it), so prose or code examples that
/// *mention* the syntax — inside backticks, mid-sentence — never
/// register as live waivers. Rule codes are validated: an unknown code
/// would silently waive nothing, so it is rejected here and surfaces as
/// a malformed pragma.
fn parse_waiver(text: &str, line: u32) -> Option<Waiver> {
    let body = text.trim_start_matches(['/', '!', '*', ' ', '\t']);
    let rest = body.strip_prefix("triton-lint:")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let (rules_part, after) = rest.split_once(')')?;
    let rules: Vec<String> = rules_part
        .split(',')
        .map(|r| r.trim().to_ascii_lowercase())
        .filter(|r| !r.is_empty())
        .collect();
    let known = |r: &String| ALL_RULES.iter().any(|rule| rule.code() == r);
    if rules.is_empty() || !rules.iter().all(known) {
        // Present but unusable (no rules, or a typoed code): report as
        // malformed rather than silently ignoring it.
        return Some(Waiver {
            line,
            rules,
            reason: String::new(),
        });
    }
    let reason = after
        .split_once("--")
        .map(|(_, r)| r.trim().trim_end_matches("*/").trim().to_string())
        .unwrap_or_default();
    Some(Waiver {
        line,
        rules,
        reason,
    })
}

/// Analyze one file's source under its [`FileClass`].
pub fn analyze_source(class: &FileClass, src: &str) -> FileAnalysis {
    let (tokens, comments) = lex(src);
    let in_test = test_regions(&tokens);
    let mut findings = Vec::new();

    for rule in [Rule::D1, Rule::D2, Rule::D3, Rule::U1, Rule::U2, Rule::P1] {
        if class.applies(rule) {
            run_rule(rule, &tokens, &in_test, &mut findings);
        }
    }

    // The flow-aware families parse once and share the AST. A malformed
    // file degrades to a partial AST (the parser never fails), so the
    // token rules above always run at full strength.
    let ast = parser::parse(&tokens, &in_test);
    semantic::run(&ast, |rule| class.applies(rule), &mut findings);

    let mut waivers = Vec::new();
    let mut malformed = Vec::new();
    for c in &comments {
        if let Some(w) = parse_waiver(&c.text, c.line) {
            if w.reason.is_empty() {
                malformed.push(w.line);
            } else {
                waivers.push(w);
            }
        }
    }

    // A pragma on line L covers findings on L (trailing comment) and on
    // the next line that holds any code — so a pragma above a doc
    // comment or a stacked pragma still reaches the flagged line.
    let covered_lines = |w: &Waiver| -> (u32, u32) {
        let next_code = tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > w.line)
            .min()
            .unwrap_or(w.line);
        (w.line, next_code)
    };
    let mut used = vec![false; waivers.len()];
    for f in &mut findings {
        let hit = waivers.iter().enumerate().find(|(_, w)| {
            let (own, next) = covered_lines(w);
            (f.line == own || f.line == next) && w.rules.iter().any(|r| r == f.rule.code())
        });
        if let Some((i, w)) = hit {
            f.waived = Some(w.reason.clone());
            used[i] = true;
        }
    }
    let unused_waivers = waivers
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(w, _)| w.clone())
        .collect();

    findings.sort_by_key(|f| (f.line, f.rule));
    FileAnalysis {
        findings,
        waivers,
        malformed_waivers: malformed,
        unused_waivers,
    }
}

fn push(findings: &mut Vec<Finding>, rule: Rule, line: u32, message: String) {
    findings.push(Finding {
        rule,
        line,
        message,
        waived: None,
    });
}

/// Unit newtypes whose `.0` must not leak into ad-hoc arithmetic.
const UNIT_TYPES: [&str; 5] = ["Bytes", "Ns", "Cycles", "BytesPerSec", "Tuples"];

fn run_rule(rule: Rule, tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    match rule {
        Rule::D1 => scan_idents(
            tokens,
            in_test,
            &["HashMap", "HashSet"],
            findings,
            Rule::D1,
            |name| {
                format!(
                    "{name} has nondeterministic iteration order; use BTreeMap/BTreeSet \
                 or a sorted drain (waive only for provably lookup-only use)"
                )
            },
        ),
        Rule::D2 => scan_idents(
            tokens,
            in_test,
            &["Instant", "SystemTime", "RandomState"],
            findings,
            Rule::D2,
            |name| {
                format!(
                    "{name} injects wall-clock time or ambient entropy; \
                     use the simulated clock / seeded RNG (allowed only in crates/bench)"
                )
            },
        ),
        Rule::D3 => rule_d3(tokens, in_test, findings),
        Rule::U1 => rule_u1(tokens, in_test, findings),
        Rule::U2 => rule_u2(tokens, in_test, findings),
        Rule::P1 => rule_p1(tokens, in_test, findings),
        // The flow-aware families run through `semantic::run`, not here.
        Rule::F1 | Rule::F2 | Rule::L1 | Rule::L2 | Rule::E1 => {}
    }
}

fn scan_idents(
    tokens: &[Token],
    in_test: &[bool],
    names: &[&str],
    findings: &mut Vec<Finding>,
    rule: Rule,
    msg: impl Fn(&str) -> String,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokKind::Ident && names.contains(&t.text.as_str()) && !in_test[i] {
            push(findings, rule, t.line, msg(&t.text));
        }
    }
}

/// D3: `thread::spawn`, `thread::scope` (whose `s.spawn` is a thread
/// too), and any `rayon` path.
fn rule_d3(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        if t.text == "rayon" {
            push(
                findings,
                Rule::D3,
                t.line,
                "rayon parallelism is nondeterministically scheduled; \
                 the simulator models concurrency explicitly"
                    .to_string(),
            );
        }
        let thread_path =
            t.text == "thread" && matches(tokens, i + 1, ":") && matches(tokens, i + 2, ":");
        let entry = tokens.get(i + 3).filter(|e| {
            thread_path && e.kind == TokKind::Ident && (e.text == "spawn" || e.text == "scope")
        });
        if let Some(entry) = entry {
            push(
                findings,
                Rule::D3,
                t.line,
                format!(
                    "thread::{} introduces scheduling nondeterminism; \
                     model concurrency through the scheduler instead",
                    entry.text
                ),
            );
        }
    }
}

fn matches(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.text == text)
}

/// Is `tokens[i]`+`tokens[i+1]` the tuple-index field access `.0`?
fn is_dot_zero(tokens: &[Token], i: usize) -> bool {
    tokens[i].kind == TokKind::Punct
        && tokens[i].text == "."
        && tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Int && t.text == "0")
}

/// U1: unit constructors re-wrapping raw `.0` values, and `.0 as` casts.
fn rule_u1(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // `.0 as` — casting the raw inner value instead of converting.
        if is_dot_zero(tokens, i)
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text == "as")
        {
            push(
                findings,
                Rule::U1,
                t.line,
                "`.0 as …` casts the raw inner value; use the unit's \
                 conversion methods (as_f64, as_gib, …) instead"
                    .to_string(),
            );
        }
        // `Bytes( … .0 … )` — raw arithmetic smuggled back into a unit.
        if t.kind == TokKind::Ident
            && UNIT_TYPES.contains(&t.text.as_str())
            && matches(tokens, i + 1, "(")
        {
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut smuggles = false;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                if depth > 0 && is_dot_zero(tokens, j) {
                    smuggles = true;
                }
                j += 1;
            }
            if smuggles {
                push(
                    findings,
                    Rule::U1,
                    t.line,
                    format!(
                        "{}(… .0 …) re-wraps raw inner-value arithmetic; \
                         use the unit type's operators/constructors instead",
                        t.text
                    ),
                );
            }
        }
    }
}

/// U2: `==` / `!=` where either operand is a float literal.
fn rule_u2(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        let (op, operand_right) = if matches(tokens, i, "=")
            && matches(tokens, i + 1, "=")
            && !matches(tokens, i + 2, "=")
            && (i == 0 || !is_cmp_punct(&tokens[i - 1]))
        {
            ("==", i + 2)
        } else if matches(tokens, i, "!")
            && matches(tokens, i + 1, "=")
            && !matches(tokens, i + 2, "=")
        {
            ("!=", i + 2)
        } else {
            continue;
        };
        let left_float = i > 0 && tokens[i - 1].kind == TokKind::Float;
        let right_float = tokens
            .get(operand_right)
            .is_some_and(|t| t.kind == TokKind::Float);
        if left_float || right_float {
            push(
                findings,
                Rule::U2,
                tokens[i].line,
                format!(
                    "float `{op}` against a literal is representation-fragile; \
                     compare with an epsilon or restructure around an integer state"
                ),
            );
        }
    }
}

fn is_cmp_punct(t: &Token) -> bool {
    t.kind == TokKind::Punct
        && matches!(
            t.text.as_str(),
            "=" | "<" | ">" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
        )
}

/// P1: `.unwrap()`, `.expect(`, `panic!` in library non-test code.
fn rule_p1(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect"
                if i > 0 && matches(tokens, i - 1, ".") && matches(tokens, i + 1, "(") =>
            {
                push(
                    findings,
                    Rule::P1,
                    t.line,
                    format!(
                        ".{}() panics at runtime; return a typed error or \
                         handle the None/Err arm (waive only with a written \
                         invariant argument)",
                        t.text
                    ),
                );
            }
            "panic" if matches(tokens, i + 1, "!") => {
                push(
                    findings,
                    Rule::P1,
                    t.line,
                    "panic! in library code takes the whole serving process \
                     down; return a typed error"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}
