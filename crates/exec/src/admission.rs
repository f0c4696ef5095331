//! Admission control: per-query GPU memory reservations through the
//! simulated allocator, so concurrent joins never oversubscribe device
//! memory.
//!
//! Each operator already sizes its own working set against the full GPU
//! (`TritonJoin` holds back its [`GpuBudget`] reserve, two partition-pair
//! buffers plus the runtime slice, then caches the rest; the NPJ caches
//! its hash table). Under concurrency the controller makes that budget
//! explicit: it reserves the operator's *pipeline floor*, read from the
//! same [`GpuBudget`] the operator runs with, and hands out a *cache
//! grant* from whatever device memory remains, and the query runs with
//! `cache_bytes = Some(grant)` so its cache stays inside the
//! reservation. The sum of reservations can never exceed the
//! (scaled) GPU capacity — that is enforced by a [`SimAllocator`], the
//! same capacity arithmetic the operators use.
//!
//! Grants are *elastic*: a [`MemoryGrant`] is a revisable contract, and
//! the scheduler issues [`GrantRevision`]s at phase boundaries as
//! concurrent queries arrive/finish or devices retire. A revision moves
//! only the optional cache share (the pipeline floor is untouchable),
//! resizes the reservation in place — so shrinking works even while the
//! controller is overcommitted after an ECC retirement — and is *priced*:
//! evicting cached state streams it back over the interconnect, reloading
//! it streams it in again ([`RevisionOutcome::reclaim`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use triton_core::{GpuBudget, TritonJoin};
use triton_datagen::TUPLE_BYTES;
use triton_hw::kernel::KernelCost;
use triton_hw::units::{Bytes, Ns};
use triton_hw::{HwConfig, MemSide};
use triton_mem::{Allocation, OutOfMemory, SimAllocator};

use crate::query::{JoinQuery, Operator, QueryId};

/// A granted memory reservation for one admitted query — a *revisable
/// contract*: the scheduler may issue a [`GrantRevision`] at a phase
/// boundary ([`AdmissionController::revise`]) and the grant's optional
/// share (everything above `floor`) shrinks or grows in place, priced
/// through the real link cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGrant {
    /// Total GPU bytes reserved (pipeline floor + cache grant).
    pub reserved: Bytes,
    /// Cache budget the operator may use for its working set; the query
    /// executes with `cache_bytes = Some(cache_grant)`.
    pub cache_grant: Bytes,
    /// The pipeline floor the grant can never shrink below — revisions
    /// only move the optional cache share.
    pub floor: Bytes,
}

/// Accounting bugs the controller surfaces as typed errors in *release*
/// builds (they used to be a `debug_assert`, which silently corrupted
/// the budget once assertions were compiled out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The query's grant was already released — the fault path and the
    /// completion path raced to the release. Harmless (the accounting is
    /// untouched) but worth surfacing.
    DoubleRelease {
        /// The query released twice.
        id: QueryId,
    },
    /// The query never held a grant at all: a caller accounting bug.
    NeverAdmitted {
        /// The unknown query.
        id: QueryId,
    },
    /// A revision named a query that is not currently in flight.
    NotInFlight {
        /// The query without a live grant.
        id: QueryId,
    },
    /// A [`GrantRevision::Grow`] asked for pages the device cannot spare.
    GrowDenied(OutOfMemory),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::DoubleRelease { id } => {
                write!(f, "grant of query {id} was already released")
            }
            AdmissionError::NeverAdmitted { id } => {
                write!(f, "query {id} was never admitted")
            }
            AdmissionError::NotInFlight { id } => {
                write!(f, "query {id} holds no live grant to revise")
            }
            AdmissionError::GrowDenied(oom) => write!(f, "grant grow denied: {oom}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A mid-query change to a live [`MemoryGrant`], issued by the scheduler
/// at a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantRevision {
    /// Take back up to this many bytes of the optional cache share
    /// (clamped so the grant never drops below its floor).
    Shrink(Bytes),
    /// Hand back up to this many bytes of previously reclaimed cache
    /// (clamped to what the device has free).
    Grow(Bytes),
}

/// What a [`GrantRevision`] actually did: the revised grant, the bytes
/// that moved, and the priced reclaim traffic. Shrinking is *not* free —
/// the evicted working set streams back over the interconnect
/// (GPU-memory read + link sequential write); growing reloads it (link
/// sequential read + GPU-memory write). The scheduler charges `reclaim`
/// onto the query's remaining work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevisionOutcome {
    /// The grant after the revision.
    pub grant: MemoryGrant,
    /// Bytes actually moved (may be less than asked, after clamping).
    pub delta: Bytes,
    /// Time the eviction (or reload) traffic costs on the dedicated
    /// machine, through the same roofline model as the join's kernels.
    pub reclaim: Ns,
}

/// The admission controller. Owns a [`SimAllocator`] whose GPU side is
/// the shared device-memory budget of all in-flight queries.
#[derive(Debug)]
pub struct AdmissionController {
    alloc: SimAllocator,
    capacity: Bytes,
    initial_capacity: Bytes,
    grants: BTreeMap<QueryId, (Allocation, MemoryGrant)>,
    /// Every id that ever held a grant — distinguishes a benign double
    /// release ([`AdmissionError::DoubleRelease`]) from a release of a
    /// query that was never admitted ([`AdmissionError::NeverAdmitted`],
    /// an accounting bug in the caller).
    ever_admitted: BTreeSet<QueryId>,
    /// High-water mark of reserved GPU bytes (for metrics/tests).
    pub peak_reserved: Bytes,
}

impl AdmissionController {
    /// Build for a machine configuration.
    pub fn new(hw: &HwConfig) -> Self {
        AdmissionController {
            alloc: SimAllocator::new(hw),
            capacity: hw.gpu.mem_capacity,
            initial_capacity: hw.gpu.mem_capacity,
            grants: BTreeMap::new(),
            ever_admitted: BTreeSet::new(),
            peak_reserved: Bytes(0),
        }
    }

    /// Current GPU capacity being arbitrated (initial capacity minus any
    /// ECC retirements).
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// The machine's GPU capacity before any retirement.
    pub fn initial_capacity(&self) -> Bytes {
        self.initial_capacity
    }

    /// Permanently retire `bytes` of GPU capacity (ECC page
    /// retirement). Existing reservations stay live — the caller must
    /// revoke queries until [`Self::overcommitted`] returns zero.
    pub fn retire(&mut self, bytes: Bytes) -> Bytes {
        self.capacity = self.alloc.retire(MemSide::Gpu, bytes);
        self.capacity
    }

    /// Reserved bytes in excess of the (possibly retired) capacity.
    pub fn overcommitted(&self) -> Bytes {
        self.reserved().saturating_sub(self.capacity)
    }

    /// GPU bytes currently reserved across all in-flight queries.
    pub fn reserved(&self) -> Bytes {
        self.alloc.used(MemSide::Gpu)
    }

    /// GPU bytes still grantable.
    pub fn available(&self) -> Bytes {
        self.alloc.available(MemSide::Gpu)
    }

    /// GPU bytes grant holders actually asked for (before page
    /// rounding) — the occupancy-gauge companion of [`Self::reserved`].
    pub fn requested(&self) -> Bytes {
        self.alloc.requested(MemSide::Gpu)
    }

    /// Page-rounding waste on the GPU side: reserved minus requested.
    pub fn fragmentation(&self) -> Bytes {
        self.alloc.fragmentation(MemSide::Gpu)
    }

    /// GPU occupancy in integer ppm of the (possibly retired) capacity;
    /// exceeds 1 000 000 while overcommitted after a retirement.
    pub fn occupancy_ppm(&self) -> u64 {
        self.alloc.occupancy_ppm(MemSide::Gpu)
    }

    /// The minimum GPU reservation `query` needs to start: the pipeline
    /// floor without any cache grant. A query whose floor exceeds the
    /// whole GPU can never be admitted (the caller should reject it
    /// permanently rather than queue it).
    ///
    /// A Triton join's floor budgets the unfiltered probe side. With
    /// `bloom_prefilter` the join budgets only the probe tuples that pass
    /// the filter, so its reported reserve can be lower than this floor,
    /// never higher.
    pub fn min_reserve(query: &JoinQuery, hw: &HwConfig) -> Bytes {
        let r_bytes = query.workload.r.len() as u64 * TUPLE_BYTES;
        let s_bytes = query.workload.s.len() as u64 * TUPLE_BYTES;
        let total = r_bytes + s_bytes;
        match &query.op {
            Operator::Triton(_) => Bytes(GpuBudget::new(r_bytes, total, hw).reserve()),
            // NPJ streams the inputs; only the runtime slice is a floor
            // (the hash table degrades gracefully to CPU memory).
            Operator::NoPartitioning(_) => Bytes(GpuBudget::runtime_slice(hw)),
            // The CPU partitions into CPU memory; the GPU only holds the
            // current working-set pair plus a small staging slice — the
            // cheap middle rung of the degradation ladder.
            Operator::CpuPartitioned(_) => {
                Bytes(GpuBudget::new(r_bytes, total, hw).pair_buffers()) + hw.gpu.mem_capacity / 16
            }
            // CPU operators take no GPU memory at all.
            Operator::CpuRadix(_) => Bytes(0),
            // Plans reserve the peak concurrent operator footprint along
            // the schedule — never the sum of all operators.
            Operator::Plan(p) => p.min_reserve(hw),
        }
    }

    /// The cache bytes `query` could profitably use on top of the floor.
    fn cache_desired(query: &JoinQuery) -> u64 {
        let r_bytes = query.workload.r.len() as u64 * TUPLE_BYTES;
        let s_bytes = query.workload.s.len() as u64 * TUPLE_BYTES;
        match &query.op {
            // The whole partitioned working set, ideally.
            Operator::Triton(_) => r_bytes + s_bytes,
            Operator::NoPartitioning(j) => j.table_bytes(query.workload.r.len()),
            // The CPU writes partitions to CPU memory; nothing to cache.
            Operator::CpuPartitioned(_) => 0,
            Operator::CpuRadix(_) => 0,
            Operator::Plan(p) => p.cache_desired().0,
        }
    }

    /// Try to reserve memory for `query`. On success the query may start
    /// immediately; the reservation stays held until [`Self::release`].
    ///
    /// The error carries the floor that could not be met, so the caller
    /// can distinguish *backpressure* (wait for a release) from
    /// *over-capacity* (the floor exceeds the entire GPU: shed).
    pub fn try_admit(
        &mut self,
        id: QueryId,
        query: &JoinQuery,
        hw: &HwConfig,
    ) -> Result<MemoryGrant, OutOfMemory> {
        self.try_admit_shrunk(id, query, hw, 0)
    }

    /// [`Self::try_admit`] with the cache desire halved `grant_shrink`
    /// times — the degradation ladder's first rung: a query revoked by a
    /// capacity fault retries asking for less optional memory before it
    /// gives up GPU execution entirely.
    pub fn try_admit_shrunk(
        &mut self,
        id: QueryId,
        query: &JoinQuery,
        hw: &HwConfig,
        grant_shrink: u32,
    ) -> Result<MemoryGrant, OutOfMemory> {
        let floor = Self::min_reserve(query, hw);
        let free = self.available().0;
        if floor.0 > free {
            return Err(OutOfMemory {
                side: MemSide::Gpu,
                requested: floor,
                available: Bytes(free),
            });
        }
        // Grant cache from the remainder, leaving headroom so one greedy
        // query cannot starve the queue: cap each grant at half of what
        // is free after the floor.
        let after_floor = free - floor.0;
        let desired = Self::cache_desired(query) >> grant_shrink.min(63);
        let grant = desired.min(after_floor / 2);
        let total = floor + Bytes(grant);
        let allocation = self.alloc.alloc(MemSide::Gpu, total)?;
        let reservation = MemoryGrant {
            reserved: Bytes(allocation.len),
            cache_grant: Bytes(grant),
            floor,
        };
        self.grants.insert(id, (allocation, reservation));
        self.ever_admitted.insert(id);
        let now = self.reserved();
        if now > self.peak_reserved {
            self.peak_reserved = now;
        }
        Ok(reservation)
    }

    /// Release the reservation of a finished (or failed) query.
    ///
    /// Returns the bytes freed. The fault path can revoke a query the
    /// completion path also releases; the second call surfaces a typed
    /// [`AdmissionError::DoubleRelease`] and — crucially — leaves the
    /// reserved-bytes accounting untouched, so release builds detect the
    /// race instead of silently corrupting the budget. Releasing an id
    /// that was *never admitted* is a caller accounting bug and comes
    /// back as [`AdmissionError::NeverAdmitted`].
    pub fn release(&mut self, id: QueryId) -> Result<Bytes, AdmissionError> {
        if let Some((allocation, grant)) = self.grants.remove(&id) {
            self.alloc.free(allocation);
            Ok(grant.reserved)
        } else if self.ever_admitted.contains(&id) {
            Err(AdmissionError::DoubleRelease { id })
        } else {
            Err(AdmissionError::NeverAdmitted { id })
        }
    }

    /// Revise the live grant of query `id` in place.
    ///
    /// A `Shrink` clamps to the grant's optional cache share (the floor
    /// is untouchable), releases the pages back to the device budget —
    /// in place, so it works even while the controller is overcommitted
    /// after an ECC retirement — and prices the eviction of the cached
    /// working set through the link cost model. A `Grow` clamps to what
    /// the device has free, charges the delta, and prices the reload.
    /// Either way the returned [`RevisionOutcome`] carries the revised
    /// grant and the reclaim time the caller must account to the query.
    pub fn revise(
        &mut self,
        id: QueryId,
        revision: GrantRevision,
        hw: &HwConfig,
    ) -> Result<RevisionOutcome, AdmissionError> {
        let Some((allocation, grant)) = self.grants.get(&id).map(|(a, g)| (*a, *g)) else {
            return Err(AdmissionError::NotInFlight { id });
        };
        let (delta, new_cache, evict) = match revision {
            GrantRevision::Shrink(ask) => {
                // Round the ask *up* to whole pages (still clamped to the
                // cache share): the freed physical pages then equal the
                // delta exactly, so shrinking by `overcommitted()` clears
                // an overcommit in one revision instead of converging by
                // sub-page slivers.
                let page = self.alloc.page_size();
                let aligned = ask.min(grant.cache_grant).0.div_ceil(page) * page;
                let delta = Bytes(aligned).min(grant.cache_grant);
                (delta, grant.cache_grant - delta, true)
            }
            GrantRevision::Grow(ask) => {
                // Round the clamp *down* to whole pages: the in-place
                // resize then charges exactly `delta` physical bytes and
                // can never bounce off a fractional-page shortfall.
                let page = self.alloc.page_size();
                let usable = self.available().0 / page * page;
                let delta = ask.min(Bytes(usable));
                (delta, grant.cache_grant + delta, false)
            }
        };
        let new_total = grant.floor + new_cache;
        let allocation = match self.alloc.resize(allocation, new_total) {
            Ok(a) => a,
            Err(oom) => return Err(AdmissionError::GrowDenied(oom)),
        };
        let revised = MemoryGrant {
            reserved: new_total,
            cache_grant: new_cache,
            floor: grant.floor,
        };
        self.grants.insert(id, (allocation, revised));
        let now = self.reserved();
        if now > self.peak_reserved {
            self.peak_reserved = now;
        }
        Ok(RevisionOutcome {
            grant: revised,
            delta,
            reclaim: reclaim_cost(delta, evict, hw),
        })
    }

    /// The live grant of query `id`, if it is in flight.
    pub fn grant_of(&self, id: QueryId) -> Option<MemoryGrant> {
        self.grants.get(&id).map(|(_, g)| *g)
    }

    /// Number of queries currently holding reservations.
    pub fn in_flight(&self) -> usize {
        self.grants.len()
    }
}

/// Price the traffic a grant revision moves: a shrink *evicts* the
/// reclaimed share of the cached working set (GPU-memory read + link
/// sequential write, the same shape as the join's staging-overflow
/// `Spill`), a grow *reloads* it (link sequential read + GPU-memory
/// write). Zero bytes cost zero time.
fn reclaim_cost(delta: Bytes, evict: bool, hw: &HwConfig) -> Ns {
    if delta.0 == 0 {
        return Ns::ZERO;
    }
    let mut k = KernelCost::new(if evict { "GrantShrink" } else { "GrantGrow" });
    k.sms = (hw.gpu.num_sms / 2).max(1);
    k.tuples_in = delta.0 / TUPLE_BYTES;
    if evict {
        k.gpu_mem.read += delta;
        k.link.seq_write += delta;
    } else {
        k.gpu_mem.write += delta;
        k.link.seq_read += delta;
    }
    k.timing(hw).total
}

/// Clone `query`'s operator with its cache budget clamped to the granted
/// reservation, so the dedicated-run report reflects exactly the memory
/// admission handed out.
pub fn operator_with_grant(query: &JoinQuery, grant: &MemoryGrant) -> Operator {
    match &query.op {
        Operator::Triton(j) => Operator::Triton(TritonJoin {
            cache_bytes: Some(grant.cache_grant),
            ..j.clone()
        }),
        Operator::NoPartitioning(j) => {
            let mut j = j.clone();
            j.cache_bytes = Some(grant.cache_grant);
            Operator::NoPartitioning(j)
        }
        // CPU-side operators have no GPU cache budget to clamp.
        Operator::CpuPartitioned(j) => Operator::CpuPartitioned(j.clone()),
        Operator::CpuRadix(j) => Operator::CpuRadix(j.clone()),
        // The plan's placement runs under exactly the granted budget, and
        // its join nodes split the cache grant.
        Operator::Plan(p) => {
            let mut p = p.clone();
            p.budget = Some(grant.reserved);
            p.cache_grant = Some(grant.cache_grant);
            Operator::Plan(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::WorkloadSpec;
    use triton_hw::units::Ns;

    fn query(m: u64, k: u64) -> JoinQuery {
        JoinQuery::new("q", WorkloadSpec::paper_default(m, k).generate(), Ns::ZERO)
    }

    #[test]
    fn reservations_never_exceed_capacity() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        let mut admitted = 0;
        for i in 0..64 {
            match ac.try_admit(QueryId(i), &q, &hw) {
                Ok(_) => admitted += 1,
                Err(e) => {
                    assert_eq!(e.side, MemSide::Gpu);
                    break;
                }
            }
        }
        assert!(admitted >= 2, "the GPU should fit at least two queries");
        assert!(ac.reserved() <= ac.capacity());
        assert_eq!(ac.in_flight(), admitted as usize);
    }

    #[test]
    fn release_returns_budget() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        let before = ac.available();
        let r = ac.try_admit(QueryId(0), &q, &hw).unwrap();
        assert!(ac.available() < before);
        assert_eq!(ac.release(QueryId(0)), Ok(r.reserved));
        assert_eq!(ac.available(), before);
        assert!(ac.peak_reserved.0 > 0);
    }

    #[test]
    fn double_release_is_a_typed_error_not_a_corruption() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        let before = ac.available();
        ac.try_admit(QueryId(0), &q, &hw).unwrap();
        assert!(ac.release(QueryId(0)).is_ok(), "first release frees");
        let after_first = ac.available();
        // The fault path may race the completion path to the release: the
        // second call surfaces the race as a typed error — in *release*
        // builds too, where the old debug_assert compiled away — and the
        // accounting stays intact.
        assert_eq!(
            ac.release(QueryId(0)),
            Err(AdmissionError::DoubleRelease { id: QueryId(0) })
        );
        assert_eq!(ac.available(), after_first);
        assert_eq!(ac.available(), before);
        assert_eq!(ac.in_flight(), 0);
        // Re-admission after a release works and frees again cleanly.
        ac.try_admit(QueryId(0), &q, &hw).unwrap();
        assert!(ac.release(QueryId(0)).is_ok());
        assert_eq!(ac.available(), before);
    }

    #[test]
    fn releasing_a_never_admitted_query_is_a_typed_error() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        assert_eq!(
            ac.release(QueryId(77)),
            Err(AdmissionError::NeverAdmitted { id: QueryId(77) })
        );
    }

    #[test]
    fn shrink_revision_reclaims_cache_and_prices_the_eviction() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        let full = ac.try_admit(QueryId(0), &q, &hw).unwrap();
        assert!(full.cache_grant.0 > 0);
        let before = ac.reserved();
        let ask = Bytes(full.cache_grant.0 / 2);
        let out = ac
            .revise(QueryId(0), GrantRevision::Shrink(ask), &hw)
            .unwrap();
        // The shrink delta rounds *up* to whole pages so the freed
        // physical pages match it exactly (one revision clears an
        // overcommit instead of converging by slivers).
        let page = hw.tlb.page_size.0.max(1);
        assert!(out.delta >= ask && out.delta.0 - ask.0 < page);
        assert_eq!(out.delta.0 % page, 0);
        assert_eq!(out.grant.cache_grant, full.cache_grant - out.delta);
        assert_eq!(out.grant.floor, full.floor);
        assert!(out.reclaim.0 > 0.0, "shrink is never free");
        assert!(ac.reserved() < before, "pages returned to the budget");
        assert_eq!(ac.grant_of(QueryId(0)), Some(out.grant));
        // A shrink past the cache share clamps at the floor.
        let all = ac
            .revise(QueryId(0), GrantRevision::Shrink(Bytes(u64::MAX)), &hw)
            .unwrap();
        assert_eq!(all.grant.cache_grant, Bytes(0));
        assert_eq!(all.grant.reserved, full.floor);
        // Nothing left to shrink: zero delta, zero reclaim.
        let noop = ac
            .revise(QueryId(0), GrantRevision::Shrink(Bytes(1)), &hw)
            .unwrap();
        assert_eq!(noop.delta, Bytes(0));
        assert_eq!(noop.reclaim, Ns::ZERO);
        ac.release(QueryId(0)).unwrap();
    }

    #[test]
    fn grow_revision_restores_cache_and_prices_the_reload() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        let full = ac.try_admit(QueryId(0), &q, &hw).unwrap();
        let shrunk = ac
            .revise(QueryId(0), GrantRevision::Shrink(full.cache_grant), &hw)
            .unwrap();
        assert_eq!(shrunk.grant.cache_grant, Bytes(0));
        let regrown = ac
            .revise(QueryId(0), GrantRevision::Grow(full.cache_grant), &hw)
            .unwrap();
        assert!(regrown.delta.0 > 0);
        assert!(regrown.reclaim.0 > 0.0, "the reload is priced too");
        assert!(regrown.grant.cache_grant <= full.cache_grant);
        // A grow can never outrun the device: ask for everything and the
        // delta clamps to whole free pages.
        let greedy = ac
            .revise(QueryId(0), GrantRevision::Grow(Bytes(u64::MAX)), &hw)
            .unwrap();
        assert!(greedy.grant.reserved <= ac.capacity());
        assert_eq!(ac.overcommitted(), Bytes(0));
        ac.release(QueryId(0)).unwrap();
    }

    #[test]
    fn shrink_works_while_overcommitted_after_retirement() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        let full = ac.try_admit(QueryId(0), &q, &hw).unwrap();
        // Retire down to the floor plus half the cache grant: the
        // controller is overcommitted and available() saturates at zero,
        // exactly where a free-then-realloc shrink would deadlock.
        let target = full.floor + Bytes(full.cache_grant.0 / 2);
        ac.retire(ac.capacity() - target);
        assert!(ac.overcommitted().0 > 0);
        assert_eq!(ac.available(), Bytes(0));
        let out = ac
            .revise(QueryId(0), GrantRevision::Shrink(ac.overcommitted()), &hw)
            .unwrap();
        assert!(out.delta.0 > 0);
        assert_eq!(ac.overcommitted(), Bytes(0), "shrink-in-place clears it");
        assert!(
            ac.revise(QueryId(7), GrantRevision::Shrink(Bytes(1)), &hw)
                .is_err(),
            "revising a query with no live grant is a typed error"
        );
        ac.release(QueryId(0)).unwrap();
    }

    #[test]
    fn retirement_shrinks_capacity_and_reports_overcommit() {
        let hw = HwConfig::ac922().scaled(512);
        let mut ac = AdmissionController::new(&hw);
        let q = query(64, 512);
        ac.try_admit(QueryId(0), &q, &hw).unwrap();
        let reserved = ac.reserved();
        let initial = ac.initial_capacity();
        // Retire everything except half of what is reserved.
        ac.retire(Bytes(initial.0 - reserved.0 / 2));
        assert_eq!(ac.capacity(), Bytes(reserved.0 / 2));
        assert_eq!(ac.initial_capacity(), initial);
        assert_eq!(ac.overcommitted(), Bytes(reserved.0 - reserved.0 / 2));
        assert_eq!(ac.available(), Bytes(0));
        // Revoking the query clears the overcommit.
        ac.release(QueryId(0)).unwrap();
        assert_eq!(ac.overcommitted(), Bytes(0));
    }

    #[test]
    fn shrunk_grants_ask_for_less_cache() {
        let hw = HwConfig::ac922().scaled(512);
        let q = query(64, 512);
        let mut ac = AdmissionController::new(&hw);
        let full = ac.try_admit_shrunk(QueryId(0), &q, &hw, 0).unwrap();
        ac.release(QueryId(0)).unwrap();
        let halved = ac.try_admit_shrunk(QueryId(0), &q, &hw, 1).unwrap();
        assert!(
            halved.cache_grant.0 <= full.cache_grant.0 / 2 + 1,
            "shrink 1 must halve the desire: {} vs {}",
            halved.cache_grant,
            full.cache_grant
        );
    }

    #[test]
    fn cpu_query_needs_no_gpu_memory() {
        let hw = HwConfig::ac922().scaled(512);
        let mut q = query(64, 512);
        q.op = Operator::CpuRadix(triton_core::CpuRadixJoin::power9(
            triton_core::HashScheme::BucketChaining,
        ));
        assert_eq!(AdmissionController::min_reserve(&q, &hw), Bytes(0));
        let mut ac = AdmissionController::new(&hw);
        let r = ac.try_admit(QueryId(0), &q, &hw).unwrap();
        assert_eq!(r.reserved, Bytes(0));
    }

    #[test]
    fn grant_clamps_operator_cache() {
        let hw = HwConfig::ac922().scaled(512);
        let q = query(64, 512);
        let mut ac = AdmissionController::new(&hw);
        let r = ac.try_admit(QueryId(0), &q, &hw).unwrap();
        match operator_with_grant(&q, &r) {
            Operator::Triton(j) => assert_eq!(j.cache_bytes, Some(r.cache_grant)),
            _ => panic!("expected a Triton operator"),
        }
    }

    /// Admission's floor for a Triton query is the reserve the join
    /// reports holding back, across sizes, build-to-probe ratios, scales
    /// and skew policies; at K = 512 the 2048 M join and the Zipf 1.5
    /// 512 M join both hold 4 444 304 B of a 33 554 432 B device.
    #[test]
    fn triton_floor_equals_the_reserve_the_join_reports() {
        use triton_core::SkewPolicy;
        let mut specs = Vec::new();
        for k in [512, 4096] {
            for m in [8, 128, 512, 2048] {
                specs.push(WorkloadSpec::paper_default(m, k));
                specs.push(WorkloadSpec::with_ratio(m, 32, k));
            }
        }
        specs.push(WorkloadSpec::skewed(512, 1.5, 512));
        let mut pinned = 0;
        for spec in specs {
            let hw = HwConfig::ac922().scaled(spec.scale);
            let w = spec.generate();
            for skew in [SkewPolicy::Off, SkewPolicy::aware()] {
                let q = JoinQuery {
                    op: Operator::Triton(TritonJoin {
                        skew,
                        ..TritonJoin::default()
                    }),
                    ..JoinQuery::new("q", w.clone(), Ns::ZERO)
                };
                let report = q.op.run(&q.workload, &hw).expect("the join fits");
                let reserve = report.placement.expect("Triton reports placement").reserve;
                let floor = AdmissionController::min_reserve(&q, &hw);
                assert_eq!(floor.0, reserve, "{spec:?}, {skew:?}");
                let m = spec.r_tuples_modeled / triton_datagen::M;
                if spec.scale == 512 && (m == 2048 || spec.zipf_theta == 1.5) {
                    assert_eq!(hw.gpu.mem_capacity.0, 33_554_432);
                    assert_eq!(reserve, 4_444_304, "{spec:?}, {skew:?}");
                    pinned += 1;
                }
            }
        }
        assert_eq!(pinned, 4, "both pinned K = 512 joins under both policies");
    }

    /// A Bloom-prefiltered join budgets the probe tuples that survive the
    /// filter, so its reserve can only fall below the floor, which
    /// budgets all of S: admission may over-reserve, never under-reserve.
    /// At K = 512, `selective(512, 0.1, 512)` reserves 4 331 776 B
    /// against a floor of 4 444 304 B.
    #[test]
    fn bloom_prefiltered_join_never_reserves_above_its_floor() {
        let mut pinned = 0;
        for k in [512, 4096] {
            let hw = HwConfig::ac922().scaled(k);
            let specs = [
                WorkloadSpec::selective(512, 0.1, k),
                WorkloadSpec::selective(128, 0.5, k),
                WorkloadSpec::paper_default(512, k),
            ];
            for (i, spec) in specs.into_iter().enumerate() {
                let w = spec.generate();
                let q = JoinQuery {
                    op: Operator::Triton(TritonJoin {
                        bloom_prefilter: true,
                        ..TritonJoin::default()
                    }),
                    ..JoinQuery::new("q", w, Ns::ZERO)
                };
                let report = q.op.run(&q.workload, &hw).expect("the join fits");
                let reserve = report.placement.expect("Triton reports placement").reserve;
                let floor = AdmissionController::min_reserve(&q, &hw);
                assert!(floor.0 >= reserve, "{spec:?}: floor {floor:?} < {reserve}");
                if (k, i) == (512, 0) {
                    assert_eq!((floor.0, reserve), (4_444_304, 4_331_776));
                    pinned += 1;
                }
            }
        }
        assert_eq!(pinned, 1);
    }
}
