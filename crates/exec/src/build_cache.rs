//! Build-side sharing: probe batches against the same build relation
//! reuse its partitioned state instead of re-partitioning R per query.
//!
//! The partitioned build relation (the output of PS 1 + Part 1 restricted
//! to R) lives in the hybrid array whose spill side is CPU memory — which
//! is plentiful — so the cache tracks *which* build relations are
//! resident and reference counts, not GPU bytes; GPU cache pages are
//! re-granted per query by admission control. A hit lets the scheduler
//! discount the build side's share of the first partitioning pass (see
//! [`crate::demand::ResourceDemand::from_report`]).
//!
//! # Prefix / subsume matching
//!
//! Partitioned build state is range-addressable: the first pass scatters
//! R by the low [`BUILD_RADIX_BITS`] radix bits of the hashed key, so a
//! resident build over partition range `[lo, hi)` physically *contains*
//! the partitioned state of any sub-range. Entries therefore key on
//! `(family, lo, hi)`, and a query whose build side is a sub-range of a
//! resident build reuses the covering state ([`BuildHit::Prefix`])
//! instead of rebuilding — the follower skips exactly its own build
//! side's share of the partitioning pass, which is what
//! [`crate::demand::ResourceDemand::from_report`] discounts, so prefix
//! reuse is priced identically honestly to exact reuse. Full-relation
//! builds use [`FULL_RANGE`] and behave exactly as before.
//!
//! # Circuit breaker
//!
//! A hardware fault can invalidate resident partitioned state (ECC page
//! retirement tears the GPU-cached pages of the hybrid array). The cache
//! then acts as a circuit breaker: [`BuildCache::quarantine_all`] evicts
//! every entry and *quarantines* its family. The next query naming a
//! quarantined family is forced to rebuild (a deliberate miss that
//! closes the breaker for that family) instead of trusting stale shared
//! state — sub-range reuse included, since the whole family's resident
//! state is suspect.

use std::collections::{BTreeMap, BTreeSet};

/// Radix bits addressing shared build state: partition = hash & 0xFF.
pub const BUILD_RADIX_BITS: u32 = 8;

/// The partition range of a whole-relation build.
pub const FULL_RANGE: (u32, u32) = (0, 1 << BUILD_RADIX_BITS);

/// How an acquire was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildHit {
    /// The exact `(family, range)` build was resident.
    Exact,
    /// A resident build of the same family covers this query's range;
    /// the sub-range state is reused without rebuilding.
    Prefix,
    /// Nothing reusable: this query builds (and leaves its state behind).
    Miss,
}

impl BuildHit {
    /// Whether the query skips re-partitioning its build side.
    pub fn is_hit(self) -> bool {
        !matches!(self, BuildHit::Miss)
    }
}

/// Refcounted registry of resident partitioned build relations.
#[derive(Debug, Default)]
pub struct BuildCache {
    /// Resident builds keyed by `(family, lo, hi)` partition range.
    entries: BTreeMap<(u64, u32, u32), Entry>,
    /// Families whose partitioned state a fault invalidated; the next
    /// acquire rebuilds and clears the quarantine.
    quarantined: BTreeSet<u64>,
}

#[derive(Debug)]
struct Entry {
    refs: usize,
    /// Build-side bytes (reporting only; the state lives in CPU memory).
    r_bytes: u64,
    /// Content digest of the R that built this state, when the caller
    /// supplied one (debug builds); checks the `build_key` contract.
    r_digest: Option<u128>,
}

impl BuildCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// First resident entry of `family` covering `range`, if any.
    fn covering(&self, family: u64, range: (u32, u32)) -> Option<(u64, u32, u32)> {
        self.entries
            .range((family, 0, 0)..=(family, u32::MAX, u32::MAX))
            .map(|(k, _)| *k)
            .find(|&(_, lo, hi)| lo <= range.0 && range.1 <= hi)
    }

    /// Acquire the build state for `key` over the full partition range,
    /// pinning it while the query runs. Returns `true` on a hit.
    pub fn acquire(&mut self, key: u64, r_bytes: u64) -> bool {
        self.acquire_range(key, r_bytes, FULL_RANGE, None).is_hit()
    }

    /// Acquire the build state for family `key` over the partition
    /// `range` (half-open, within `0..1 << BUILD_RADIX_BITS`), pinning
    /// the serving entry while the query runs. Exact entries are
    /// preferred; otherwise any resident build of the family whose range
    /// covers this one serves the acquire as a [`BuildHit::Prefix`]. On
    /// a miss this query partitions its own range and leaves the state
    /// behind for followers.
    ///
    /// `r_digest` is the query's [`triton_datagen::Relation::digest`]
    /// of R, or `None` to skip the check: a full-range exact hit must
    /// carry the same R as the resident build (debug assertion).
    pub fn acquire_range(
        &mut self,
        key: u64,
        r_bytes: u64,
        range: (u32, u32),
        r_digest: Option<u128>,
    ) -> BuildHit {
        let fresh = Entry {
            refs: 1,
            r_bytes,
            r_digest,
        };
        if self.quarantined.remove(&key) {
            // Breaker half-open: this query rebuilds the partitioned
            // state from scratch; followers may share the fresh copy.
            self.entries.insert((key, range.0, range.1), fresh);
            return BuildHit::Miss;
        }
        if let Some(e) = self.entries.get_mut(&(key, range.0, range.1)) {
            debug_assert!(
                range != FULL_RANGE
                    || !matches!((e.r_digest, r_digest), (Some(a), Some(b)) if a != b),
                "build family {key:#x}: full-range hit on a different R than the resident build"
            );
            e.refs += 1;
            return BuildHit::Exact;
        }
        if let Some(cover) = self.covering(key, range) {
            if let Some(e) = self.entries.get_mut(&cover) {
                e.refs += 1;
            }
            return BuildHit::Prefix;
        }
        self.entries.insert((key, range.0, range.1), fresh);
        BuildHit::Miss
    }

    /// Unpin the full-range build state after the query finishes.
    pub fn release(&mut self, key: u64) {
        self.release_range(key, FULL_RANGE);
    }

    /// Unpin after the query finishes: the exact entry if resident, else
    /// the covering entry that served the acquire. Entries only vanish
    /// wholesale (quarantine), so the lookup resolves to the same entry
    /// the acquire pinned — or to nothing, in which case the pin died
    /// with the quarantined state and there is nothing to unpin. Idle
    /// entries stay resident for later probe batches until
    /// [`Self::evict_idle`].
    pub fn release_range(&mut self, key: u64, range: (u32, u32)) {
        let target = if self.entries.contains_key(&(key, range.0, range.1)) {
            Some((key, range.0, range.1))
        } else {
            self.covering(key, range)
        };
        if let Some(k) = target {
            if let Some(e) = self.entries.get_mut(&k) {
                e.refs = e.refs.saturating_sub(1);
            }
        }
    }

    /// Trip the circuit breaker: evict *every* resident build (pinned
    /// or not — the backing pages are gone) and quarantine the families
    /// so the next acquire rebuilds instead of sharing stale state.
    /// Returns the number of builds invalidated. In-flight queries that
    /// already consumed their shared state keep exact results; only the
    /// reusable partitioned copy is lost.
    pub fn quarantine_all(&mut self) -> usize {
        let n = self.entries.len();
        for (family, _, _) in self.entries.keys() {
            self.quarantined.insert(*family);
        }
        self.entries.clear();
        n
    }

    /// Whether `key`'s family is currently quarantined (breaker open).
    pub fn is_quarantined(&self, key: u64) -> bool {
        self.quarantined.contains(&key)
    }

    /// Drop all unpinned entries, returning the bytes retired.
    pub fn evict_idle(&mut self) -> u64 {
        let mut freed = 0;
        self.entries.retain(|_, e| {
            if e.refs == 0 {
                freed += e.r_bytes;
                false
            } else {
                true
            }
        });
        freed
    }

    /// Number of resident build relations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_is_miss_then_hits() {
        let mut c = BuildCache::new();
        assert!(!c.acquire(7, 1000));
        assert_eq!(c.acquire_range(7, 1000, FULL_RANGE, None), BuildHit::Exact);
        assert_eq!(c.acquire_range(7, 1000, FULL_RANGE, None), BuildHit::Exact);
        assert!(!c.acquire(8, 500));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sub_range_reuses_the_covering_build() {
        let mut c = BuildCache::new();
        assert_eq!(c.acquire_range(7, 1000, FULL_RANGE, None), BuildHit::Miss);
        // A slice of the same family rides the resident full build.
        assert_eq!(c.acquire_range(7, 250, (0, 64), None), BuildHit::Prefix);
        assert_eq!(c.acquire_range(7, 500, (64, 192), None), BuildHit::Prefix);
        // Repeating the full range is an exact hit, not a prefix.
        assert_eq!(c.acquire_range(7, 1000, FULL_RANGE, None), BuildHit::Exact);
        // A different family never matches.
        assert_eq!(c.acquire_range(8, 250, (0, 64), None), BuildHit::Miss);
        // A *superset* of a resident slice is not covered: it rebuilds.
        assert_eq!(c.acquire_range(8, 500, (0, 128), None), BuildHit::Miss);
        // Only builds that actually ran left entries behind.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn prefix_pins_the_covering_entry() {
        let mut c = BuildCache::new();
        c.acquire_range(7, 1000, FULL_RANGE, None);
        c.release_range(7, FULL_RANGE);
        assert_eq!(c.acquire_range(7, 250, (0, 64), None), BuildHit::Prefix);
        // The covering full-range entry is pinned by the slice reader.
        assert_eq!(c.evict_idle(), 0);
        c.release_range(7, (0, 64));
        assert_eq!(c.evict_idle(), 1000);
        assert!(c.is_empty());
    }

    #[test]
    fn quarantine_trips_and_closes_the_breaker() {
        let mut c = BuildCache::new();
        c.acquire(7, 1000); // miss, resident
        c.release(7);
        assert!(c.acquire(7, 1000), "resident entry hits");
        c.release(7);
        assert_eq!(c.quarantine_all(), 1);
        assert!(c.is_quarantined(7));
        assert!(c.is_empty());
        // Breaker open: forced rebuild, not a hit on stale state.
        assert!(!c.acquire(7, 1000), "quarantined key must rebuild");
        assert!(!c.is_quarantined(7), "rebuild closes the breaker");
        // Followers share the rebuilt state again.
        assert_eq!(c.acquire_range(7, 1000, FULL_RANGE, None), BuildHit::Exact);
    }

    #[test]
    fn quarantine_blocks_sub_range_reuse_family_wide() {
        let mut c = BuildCache::new();
        c.acquire_range(7, 1000, FULL_RANGE, None);
        assert_eq!(c.quarantine_all(), 1);
        // The slice may not trust any of the family's torn state; its
        // rebuild closes the breaker for the family.
        assert_eq!(c.acquire_range(7, 250, (0, 64), None), BuildHit::Miss);
        assert!(
            !c.is_quarantined(7),
            "the slice's rebuild closes the breaker"
        );
        // The full build is gone, so a full query must rebuild too (the
        // slice's fresh state does not cover it).
        assert_eq!(c.acquire_range(7, 1000, FULL_RANGE, None), BuildHit::Miss);
    }

    #[test]
    fn full_range_hits_on_the_same_r_pass_the_contract_check() {
        let mut c = BuildCache::new();
        assert_eq!(
            c.acquire_range(7, 1000, FULL_RANGE, Some(1)),
            BuildHit::Miss
        );
        assert_eq!(
            c.acquire_range(7, 1000, FULL_RANGE, Some(1)),
            BuildHit::Exact
        );
        // A slice of the family legitimately carries a different R.
        assert_eq!(c.acquire_range(7, 250, (0, 64), Some(2)), BuildHit::Prefix);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different R")]
    fn full_range_hit_on_a_different_r_breaks_the_contract() {
        let mut c = BuildCache::new();
        c.acquire_range(7, 1000, FULL_RANGE, Some(1));
        c.acquire_range(7, 1000, FULL_RANGE, Some(2));
    }

    #[test]
    fn eviction_spares_pinned_entries() {
        let mut c = BuildCache::new();
        c.acquire(1, 100);
        c.acquire(2, 200);
        c.release(2);
        assert_eq!(c.evict_idle(), 200);
        assert_eq!(c.len(), 1);
        c.release(1);
        assert_eq!(c.evict_idle(), 100);
        assert!(c.is_empty());
    }
}
