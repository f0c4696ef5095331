//! Memoized operator pricing for the serving hot path.
//!
//! Admission prices every query by *running* its operator functionally
//! ([`crate::query::Operator::run`]) — a pure function of the granted
//! operator configuration, the workload's relation data, and the (fixed)
//! hardware model. Repeat tenants therefore re-derive byte-identical
//! [`JoinReport`]s on every arrival. The [`CostCache`] memoizes those
//! reports keyed by a 128-bit fingerprint of `(workload signature,
//! granted operator)`, so a hit skips partitioning, planning, and the
//! roofline entirely while remaining semantically transparent: the
//! served report is a clone of the one the miss computed.
//!
//! # Key and invalidation
//!
//! The fingerprint covers the workload's relations (two probe batches
//! share `R` and a spec but differ in `S`, and must not collide), the
//! workload spec, and the granted operator's full configuration (cache
//! grant included — the same query under a different grant runs a
//! different placement). Relations enter through their content digests
//! ([`triton_datagen::Relation::digest`]): columns are immutable and
//! shared, so each column is digested once and a key costs O(1) in the
//! relation sizes, while equal content in separate allocations still
//! keys equal. Plan operators bypass the cache: their inputs live in
//! the plan itself and their footprint analyses are memoized separately
//! ([`triton_plan::FootprintCache`]). Only successful runs are cached —
//! an OOM depends on the grant under which it happened and must be
//! re-observed, never replayed. ECC retirement flushes the cache
//! wholesale: the capacity change alters future *grants*, not cached
//! results, but a flush is cheap and keeps the invalidation story
//! uniform (see DESIGN.md §15).

use std::collections::{BTreeMap, VecDeque};

use triton_core::JoinReport;

use crate::admission::{operator_with_grant, Reservation};
use crate::query::{JoinQuery, Operator};

/// 128-bit fingerprint identifying `(workload, granted operator)`.
pub type CostKey = (u64, u64);

/// Bounded memo of operator pricing runs; see the module docs.
#[derive(Debug, Default)]
pub struct CostCache {
    enabled: bool,
    entries: BTreeMap<CostKey, JoinReport>,
    order: VecDeque<CostKey>,
}

/// How [`CostCache::price`] served a pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memo {
    /// Replayed from the memo.
    Hit,
    /// Ran the operator and memoized the report.
    Miss,
    /// Ran the operator without the memo: caching is disabled, the
    /// operator is a plan, or the run failed (an OOM is never cached).
    Bypass,
}

/// Entry bound: far above any realistic distinct-tenant population; a
/// runaway stream of unique workloads evicts in insertion order.
const COST_CACHE_CAP: usize = 512;

impl CostCache {
    /// New cache; when `enabled` is false every pricing bypasses it and
    /// nothing is stored, so the disabled path is byte-identical to the
    /// pre-cache scheduler.
    pub fn new(enabled: bool) -> Self {
        CostCache {
            enabled,
            ..CostCache::default()
        }
    }

    /// Fingerprint a query under its grant; `None` when this query's
    /// pricing is not cacheable (plan operators).
    ///
    /// The relation columns dominate the input, but they are immutable
    /// and content-addressed ([`triton_datagen::Column`]): each column's
    /// digest is computed once, on its first pricing, and shared by
    /// every clone of the workload. A key therefore costs two cached
    /// digests plus a short string — O(1) in the relation sizes.
    pub fn key(query: &JoinQuery, granted: &Operator) -> Option<CostKey> {
        if matches!(query.op, Operator::Plan(_)) {
            return None;
        }
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 29)
        }
        let w = &query.workload;
        let (r, s) = (w.r.digest(), w.s.digest());
        let mut lo = mix(mix(0xcbf2_9ce4_8422_2325, r as u64), s as u64);
        let mut hi = mix(
            mix(0x6c62_272e_07bb_0142, (r >> 64) as u64),
            (s >> 64) as u64,
        );
        // The granted operator's debug encoding covers every field that
        // shapes execution (algorithms, hash scheme, skew and elastic
        // policies, and the grant-dependent cache budget), and the spec
        // covers the modeled-scale factors the report echoes. Short
        // strings: byte-at-a-time FNV is fine here.
        for byte in format!("{:?}|{:?}", granted, w.spec).bytes() {
            lo = (lo ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            hi = (hi ^ u64::from(byte).rotate_left(17)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Some((lo, hi))
    }

    /// Price `query` under `grant`: memo hit when possible, otherwise
    /// run the granted operator and (on success) memoize the report.
    /// The report is identical to calling [`Operator::run`] directly;
    /// the [`Memo`] says how it was served.
    pub fn price(
        &mut self,
        query: &JoinQuery,
        grant: &Reservation,
        hw: &triton_hw::HwConfig,
    ) -> (Result<JoinReport, triton_mem::OutOfMemory>, Memo) {
        let op = operator_with_grant(query, grant);
        let key = if self.enabled {
            Self::key(query, &op)
        } else {
            None
        };
        let Some(k) = key else {
            return (op.run(&query.workload, hw), Memo::Bypass);
        };
        if let Some(rep) = self.entries.get(&k) {
            return (Ok(rep.clone()), Memo::Hit);
        }
        let out = op.run(&query.workload, hw);
        let Ok(rep) = &out else {
            return (out, Memo::Bypass);
        };
        if self.entries.len() >= COST_CACHE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(k, rep.clone());
        self.order.push_back(k);
        (out, Memo::Miss)
    }

    /// Drop every memoized report (ECC-retirement invalidation hook).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Reports currently memoized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::{Relation, Workload, WorkloadSpec};
    use triton_hw::units::{Bytes, Ns};
    use triton_hw::HwConfig;

    fn hw() -> HwConfig {
        HwConfig::ac922().scaled(2048)
    }

    fn grant(cache: u64) -> Reservation {
        Reservation {
            reserved: Bytes(1 << 26),
            cache_grant: Bytes(cache),
            floor: Bytes(1 << 20),
        }
    }

    fn query(seed: u64) -> JoinQuery {
        let mut spec = WorkloadSpec::paper_default(2, 2048);
        spec.seed = seed;
        JoinQuery::new("t", spec.generate(), Ns::ZERO)
    }

    #[test]
    fn hit_is_byte_identical_to_the_run_it_replays() {
        let mut c = CostCache::new(true);
        let q = query(1);
        let (first, memo1) = c.price(&q, &grant(0), &hw());
        let (second, memo2) = c.price(&q, &grant(0), &hw());
        assert_eq!((memo1, memo2), (Memo::Miss, Memo::Hit));
        let (a, b) = (first.unwrap(), second.unwrap());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn distinct_grants_and_data_never_collide() {
        let mut c = CostCache::new(true);
        let q = query(1);
        assert_eq!(c.price(&q, &grant(0), &hw()).1, Memo::Miss);
        // A different cache grant is a different placement: miss.
        assert_eq!(c.price(&q, &grant(1 << 24), &hw()).1, Memo::Miss);
        // Same spec, different S data (a probe batch): miss.
        let mut probe = q.clone();
        probe.workload = JoinQuery::probe_batch(&q.workload, 99);
        assert_eq!(c.price(&probe, &grant(0), &hw()).1, Memo::Miss);
        assert_eq!(c.len(), 3);
        c.flush();
        assert!(c.is_empty());
    }

    /// Key of a default Triton query over `r ⋈ s`.
    fn key_of(r: Relation, s: Relation) -> CostKey {
        let spec = WorkloadSpec::paper_default(2, 2048);
        let q = JoinQuery::new("t", Workload { r, s, spec }, Ns::ZERO);
        CostCache::key(&q, &q.op).unwrap()
    }

    #[test]
    fn keys_are_content_addressed_not_pointer_addressed() {
        let q = query(1);
        let copy_of = |r: &Relation| Relation::from_columns(r.keys.to_vec(), r.rids.to_vec());
        let mut copy = q.clone();
        copy.workload.r = copy_of(&q.workload.r);
        copy.workload.s = copy_of(&q.workload.s);
        assert_ne!(copy.workload.r.keys.as_ptr(), q.workload.r.keys.as_ptr());
        assert_eq!(
            CostCache::key(&copy, &copy.op),
            CostCache::key(&q, &q.op),
            "equal content in separate allocations keys equal"
        );
    }

    #[test]
    fn one_changed_word_in_any_column_changes_the_key() {
        let rel = |k: u64, r: u64, p: u64| {
            Relation::with_payload(vec![1, k, 3], vec![10, r, 30], vec![vec![7, p, 9]])
        };
        let s = || Relation::from_columns(vec![1, 2], vec![5, 6]);
        let base = key_of(rel(2, 20, 8), s());
        assert_eq!(key_of(rel(2, 20, 8), s()), base);
        assert_ne!(key_of(rel(4, 20, 8), s()), base, "keys column");
        assert_ne!(key_of(rel(2, 21, 8), s()), base, "rids column");
        assert_ne!(key_of(rel(2, 20, 0), s()), base, "payload column");
        assert_ne!(key_of(s(), rel(2, 20, 8)), base, "sides swapped");
    }

    #[test]
    fn moving_a_column_boundary_changes_the_key() {
        // The same word stream 1..=6 split at a different R|S boundary.
        let a = key_of(
            Relation::from_columns(vec![1, 2], vec![3, 4]),
            Relation::from_columns(vec![5], vec![6]),
        );
        let b = key_of(
            Relation::from_columns(vec![1], vec![2]),
            Relation::from_columns(vec![3, 4], vec![5, 6]),
        );
        assert_ne!(a, b);
    }

    #[test]
    fn clones_share_columns_and_their_digest() {
        let q = query(1);
        let copy = q.clone();
        let (w, c) = (&q.workload, &copy.workload);
        for (a, b) in [
            (&w.r.keys, &c.r.keys),
            (&w.r.rids, &c.r.rids),
            (&w.s.keys, &c.s.keys),
            (&w.s.rids, &c.s.rids),
        ] {
            assert_eq!(a.as_ptr(), b.as_ptr(), "a clone copies no column");
            assert_eq!(b.cached_digest(), None, "digests are lazy");
        }
        let k = CostCache::key(&q, &q.op);
        // Keying the original digested the columns the clone shares.
        assert!(c.s.rids.cached_digest().is_some());
        assert_eq!(c.s.rids.cached_digest(), w.s.rids.cached_digest());
        assert_eq!(CostCache::key(&copy, &copy.op), k);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = CostCache::new(false);
        let q = query(1);
        let (_, memo1) = c.price(&q, &grant(0), &hw());
        let (_, memo2) = c.price(&q, &grant(0), &hw());
        assert_eq!((memo1, memo2), (Memo::Bypass, Memo::Bypass));
        assert!(c.is_empty());
    }
}
