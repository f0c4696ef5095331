//! Resilience policies: how the scheduler recovers from injected
//! hardware faults instead of shedding.
//!
//! Three mechanisms compose (motivated by the robust-dynamic-hybrid-join
//! and CPU/GPU co-processing lines of work in PAPERS.md):
//!
//! * **retry with backoff** ([`backoff`]) — exponential backoff with
//!   deterministic, seed-derived jitter, bounded by each query's
//!   deadline, for transient kernel failures; [`MAX_RETRIES`] failures
//!   on one rung descend the ladder;
//! * a **degradation ladder** ([`downgrade_operator`]) — on admission
//!   failure or reservation revocation a query first shrinks its cache
//!   grant, then walks Triton → CPU-partitioned GPU join → CPU radix
//!   join, trading speed for survivability instead of being shed;
//! * a **circuit breaker** on the build cache (see
//!   [`crate::build_cache::BuildCache::quarantine_all`]).
//!
//! Above the ladder sit *elastic grants* ([`ResilienceConfig::elastic`]):
//! under memory pressure the scheduler shrinks running queries' optional
//! cache shares in place, at most [`MAX_REVISIONS`] times per query,
//! before it revokes anyone.
//!
//! Faults may change timing, placement, and operator choice — never
//! answers: every recovered query still produces an exact result.

use triton_core::{CpuPartitionedJoin, CpuRadixJoin, HashScheme};
use triton_hw::fault::unit_f64;
use triton_hw::units::Ns;

use crate::query::{Operator, QueryId};

/// Transient failures tolerated on one ladder rung before the query is
/// downgraded to the next operator.
pub const MAX_RETRIES: u32 = 2;

/// In-place grant revisions a running query absorbs before it stops
/// being a shrink victim (so one query's cache is not sanded away a page
/// at a time while others sit untouched).
pub const MAX_REVISIONS: u32 = 4;

/// Seed of the backoff jitter stream.
const JITTER_SEED: u64 = 0x7E57_AB1E;

/// Jitter amplitude as a fraction of the delay: each delay spreads ±25%.
const JITTER_FRAC: f64 = 0.25;

/// The backoff before retry number `attempt` (0-based) of `id`: 1 ms
/// doubling per attempt, jittered. Deterministic: the same `(id,
/// attempt)` always yields the same delay, so chaos runs replay
/// byte-identically.
#[must_use]
pub fn backoff(id: QueryId, attempt: u32) -> Ns {
    let raw = Ns::millis(1.0).0 * 2.0f64.powi(attempt.min(16) as i32);
    let u = unit_f64(
        JITTER_SEED ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 17),
    );
    let jitter = 1.0 + JITTER_FRAC * (2.0 * u - 1.0);
    Ns(raw * jitter)
}

/// [`backoff`] clamped so the query becomes eligible no later than
/// `deadline_slack` from now — a retry scheduled past the deadline is a
/// guaranteed shed, so recovery spends at most the remaining budget
/// waiting.
#[must_use]
pub fn backoff_within(id: QueryId, attempt: u32, deadline_slack: Option<Ns>) -> Ns {
    let b = backoff(id, attempt);
    match deadline_slack {
        Some(slack) => b.min(slack.max(Ns::ZERO)),
        None => b,
    }
}

/// The next rung of the degradation ladder, or `None` at the bottom.
///
/// Triton (either skew policy) → CPU-partitioned GPU join (tiny GPU
/// footprint) → CPU radix join (no GPU at all). The skew policy is kept
/// until Triton is given up: dropping it frees no memory and changes no
/// fault exposure. The no-partitioning join degrades like Triton: its
/// global hash table is what GPU faults keep killing.
///
/// Plans have one rung of their own: force-materialize every
/// intermediate to host memory (fidelity kept, the reservation shrinks
/// to the largest single operator floor). A plan that still faults is
/// shed — single-join fallback operators cannot answer a multi-operator
/// query.
#[must_use]
pub fn downgrade_operator(op: &Operator) -> Option<Operator> {
    match op {
        Operator::Triton(_) | Operator::NoPartitioning(_) => {
            Some(Operator::CpuPartitioned(CpuPartitionedJoin::default()))
        }
        Operator::CpuPartitioned(_) => Some(Operator::CpuRadix(CpuRadixJoin::power9(
            HashScheme::BucketChaining,
        ))),
        Operator::CpuRadix(_) => None,
        Operator::Plan(p) if !p.force_materialize => {
            let mut p = p.clone();
            p.force_materialize = true;
            Some(Operator::Plan(p))
        }
        Operator::Plan(_) => None,
    }
}

/// Scheduler-level resilience configuration.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Master switch. Disabled, every fault sheds its victim — the
    /// baseline the resilient path is compared against.
    pub enabled: bool,
    /// Elastic grants: under memory pressure (a device retires pages, or
    /// a bursty deadline-holding arrival cannot be admitted) the
    /// scheduler first issues priced, traced
    /// [`crate::admission::GrantRevision::Shrink`]s against running
    /// queries' optional cache shares, and only once every cache grant is
    /// exhausted falls back to revocation and the operator ladder. Off
    /// reproduces the fixed-grant scheduler: pressure goes straight to
    /// revocation/shedding.
    pub elastic: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            enabled: true,
            elastic: true,
        }
    }
}

impl ResilienceConfig {
    /// The no-resilience baseline: faults shed their victims.
    #[must_use]
    pub fn disabled() -> Self {
        ResilienceConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Resilient, but with immutable grants: the pre-elastic scheduler,
    /// kept as the comparison baseline for `fig_elastic`.
    #[must_use]
    pub fn fixed_grants() -> Self {
        ResilienceConfig {
            elastic: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_core::{SkewPolicy, TritonJoin};

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let a0 = backoff(QueryId(1), 0);
        let a1 = backoff(QueryId(1), 1);
        let a2 = backoff(QueryId(1), 2);
        assert!(a1.0 > a0.0 * 1.2, "{a0} -> {a1} should roughly double");
        assert!(a2.0 > a1.0 * 1.2);
        assert_eq!(backoff(QueryId(1), 1), a1, "same inputs, same delay");
        assert_ne!(
            backoff(QueryId(2), 0).0,
            a0.0,
            "different queries must not retry in lockstep"
        );
    }

    #[test]
    fn backoff_respects_deadline_slack() {
        let b = backoff_within(QueryId(3), 5, Some(Ns(10.0)));
        assert!(b.0 <= 10.0);
        let unbounded = backoff_within(QueryId(3), 5, None);
        assert!(unbounded.0 > 10.0, "attempt 5 should back off far longer");
    }

    #[test]
    fn ladder_ends_at_cpu_radix() {
        let skew_aware = Operator::Triton(TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        });
        for start in [Operator::triton(), skew_aware] {
            let mut op = start;
            let mut rungs = vec![op.label()];
            while let Some(next) = downgrade_operator(&op) {
                op = next;
                rungs.push(op.label());
            }
            assert_eq!(rungs, vec!["triton", "cpu-part", "cpu-radix"]);
            assert!(!op.uses_gpu(), "the bottom rung must not need the GPU");
        }
    }
}
