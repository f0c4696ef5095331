//! Fixture-driven self-tests: one violating and one clean case per
//! rule, waiver parsing, and false-positive guards (strings, comments,
//! `#[cfg(test)]` regions, non-invariant enums, non-allocator
//! receivers). Deleting any single rule's implementation must fail at
//! least one case here.

use std::path::Path;

use triton_lint::{analyze_source, FileClass, Rule, ALL_RULES};

/// Expected result of analyzing one fixture under one classification.
struct Case {
    fixture: &'static str,
    /// Synthetic workspace-relative path deciding rule scopes.
    classify_as: &'static str,
    /// Exact expected unwaived count per rule (d1..e1 order).
    unwaived: [usize; 11],
    /// Expected count of findings covered by a valid waiver.
    waived: usize,
    /// Expected count of reasonless/typoed pragmas.
    malformed: usize,
    /// Expected count of well-formed pragmas matching no finding.
    unused: usize,
}

const CASES: &[Case] = &[
    Case {
        fixture: "d1_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "d1_clean.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "d2_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // The same wall-clock code is legal inside the bench crate.
    Case {
        fixture: "d2_violation.rs",
        classify_as: "crates/bench/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // The trace layer is the determinism-critical path: wall-clock reads
    // inside crates/trace must trip D2 like any other library crate.
    Case {
        fixture: "d2_violation.rs",
        classify_as: "crates/trace/src/fixture.rs",
        unwaived: [0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "d3_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // Scoped threads are threads too; a waived scope counts as waived.
    Case {
        fixture: "d3_scoped.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 1,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "d3_clean.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "u1_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // units.rs itself is the one home of raw unit arithmetic.
    Case {
        fixture: "u1_violation.rs",
        classify_as: "crates/hw/src/units.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "u1_clean.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "u2_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "u2_clean.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "p1_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // P1 is scoped to library crates: examples and bench are exempt.
    Case {
        fixture: "p1_violation.rs",
        classify_as: "examples/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "p1_violation.rs",
        classify_as: "crates/bench/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "p1_clean.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // crates/trace is a library crate: panics are banned there too.
    Case {
        fixture: "p1_violation.rs",
        classify_as: "crates/trace/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "waiver_ok.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 4,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "waiver_reasonless.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 1,
        // The well-formed allow(u2) names a rule with no finding here:
        // since v2 that is a stale waiver, not a silent no-op.
        unused: 1,
    },
    Case {
        fixture: "guards.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // The skew-aware planner's placement-plan code lives in crates/mem:
    // hash-ordered plan ranges and raw page/byte arithmetic must trip
    // D1/U1 there like in any library crate, and the real idiom
    // (ordered ranges, unit-operator arithmetic) must stay clean.
    Case {
        fixture: "placement_violation.rs",
        classify_as: "crates/mem/src/interleave.rs",
        unwaived: [2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "placement_clean.rs",
        classify_as: "crates/mem/src/interleave.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // Integration tests and bench harnesses are test code for every
    // rule.
    Case {
        fixture: "d1_violation.rs",
        classify_as: "tests/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "p1_violation.rs",
        classify_as: "crates/core/benches/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // --- F family: cost fidelity ------------------------------------
    Case {
        fixture: "f1_violation.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // Examples narrate; the cost-fidelity bar applies to library code.
    Case {
        fixture: "f1_violation.rs",
        classify_as: "examples/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "f1_clean.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "f2_violation.rs",
        classify_as: "crates/exec/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "f2_clean.rs",
        classify_as: "crates/exec/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // --- L family: grant & allocation lifecycle ----------------------
    Case {
        fixture: "l_violation.rs",
        classify_as: "crates/exec/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // Test harness code may drop handles freely.
    Case {
        fixture: "l_violation.rs",
        classify_as: "crates/exec/tests/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "l_clean.rs",
        classify_as: "crates/exec/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // --- E family: exhaustiveness over invariant enums ----------------
    Case {
        fixture: "e1_violation.rs",
        classify_as: "crates/hw/src/fixture.rs",
        unwaived: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // bench is not a library crate: E1 does not apply there.
    Case {
        fixture: "e1_violation.rs",
        classify_as: "crates/bench/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    Case {
        fixture: "e1_clean.rs",
        classify_as: "crates/hw/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
    // --- Waiver hygiene ----------------------------------------------
    Case {
        fixture: "waiver_unused.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [0; 11],
        waived: 0,
        malformed: 0,
        unused: 1,
    },
    // --- Parser degradation -------------------------------------------
    // Malformed items must not panic the parser, and the token rules
    // keep firing at full strength (the HashMap is still a D1 hit).
    Case {
        fixture: "malformed_items.rs",
        classify_as: "crates/core/src/fixture.rs",
        unwaived: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        waived: 0,
        malformed: 0,
        unused: 0,
    },
];

fn load(fixture: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn fixture_table() {
    for case in CASES {
        let src = load(case.fixture);
        let class = FileClass::classify(case.classify_as);
        let analysis = analyze_source(&class, &src);
        let label = format!("{} as {}", case.fixture, case.classify_as);
        for (i, rule) in ALL_RULES.iter().enumerate() {
            let got = analysis
                .findings
                .iter()
                .filter(|f| f.rule == *rule && f.waived.is_none())
                .count();
            assert_eq!(
                got,
                case.unwaived[i],
                "{label}: unwaived {} count (findings: {:#?})",
                rule.code(),
                analysis.findings
            );
        }
        let waived = analysis
            .findings
            .iter()
            .filter(|f| f.waived.is_some())
            .count();
        assert_eq!(waived, case.waived, "{label}: waived count");
        assert_eq!(
            analysis.malformed_waivers.len(),
            case.malformed,
            "{label}: malformed waiver count"
        );
        assert_eq!(
            analysis.unused_waivers.len(),
            case.unused,
            "{label}: unused waiver count (waivers: {:#?})",
            analysis.unused_waivers
        );
    }
}

#[test]
fn every_rule_is_exercised_by_some_fixture() {
    // The acceptance bar: deleting any one rule's implementation must
    // fail a fixture case. That holds iff every rule has a case
    // expecting a non-zero unwaived count.
    for (i, rule) in ALL_RULES.iter().enumerate() {
        assert!(
            CASES.iter().any(|c| c.unwaived[i] > 0),
            "no fixture exercises rule {}",
            rule.code()
        );
    }
}

#[test]
fn waiver_reasons_surface_in_findings() {
    let src = load("waiver_ok.rs");
    let class = FileClass::classify("crates/core/src/fixture.rs");
    let analysis = analyze_source(&class, &src);
    let d1_reason = analysis
        .findings
        .iter()
        .find(|f| f.rule == Rule::D1)
        .and_then(|f| f.waived.clone())
        .expect("d1 finding should carry its waiver reason");
    assert!(
        d1_reason.contains("lookup-only"),
        "reason text should round-trip: {d1_reason}"
    );
    assert_eq!(analysis.waivers.len(), 3);
    assert!(analysis.waivers.iter().all(|w| !w.reason.is_empty()));
    assert!(
        analysis.unused_waivers.is_empty(),
        "every waiver in waiver_ok.rs matches a finding"
    );
}

#[test]
fn new_rules_can_be_waived_like_old_ones() {
    // The F/L/E codes must round-trip through the waiver pragma.
    let src = "\
// triton-lint: allow(e1) -- transitional; variants enumerated in issue 9\n\
pub fn w(k: &FaultKind) -> f64 {\n\
    match k {\n\
        FaultKind::LinkDegrade { factor } => *factor,\n\
        _ => 1.0,\n\
    }\n\
}\n";
    let class = FileClass::classify("crates/hw/src/fixture.rs");
    let analysis = analyze_source(&class, src);
    // The pragma covers the next code line (the fn), not the `_` arm
    // four lines down — so the finding stays unwaived and the pragma is
    // stale. Line-accurate coverage is part of the contract.
    assert_eq!(analysis.unused_waivers.len(), 1);
    let on_site = "\
pub fn w(k: &FaultKind) -> f64 {\n\
    match k {\n\
        FaultKind::LinkDegrade { factor } => *factor,\n\
        // triton-lint: allow(e1) -- transitional; variants enumerated in issue 9\n\
        _ => 1.0,\n\
    }\n\
}\n";
    let analysis = analyze_source(&class, on_site);
    assert_eq!(analysis.unused_waivers.len(), 0, "{:#?}", analysis.waivers);
    assert!(analysis.findings.iter().all(|f| f.waived.is_some()));
}
