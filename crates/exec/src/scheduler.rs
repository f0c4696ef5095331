//! The multi-query join scheduler: a fluid discrete-event simulation of
//! concurrent joins sharing one AC922-class machine.
//!
//! Lifecycle of a query: *arrive* → *queue* (priority order, bounded) →
//! *admit* (memory reservation through [`AdmissionController`]) →
//! *execute concurrently* (speed set each event by the weighted max-min
//! arbiter [`triton_hw::fair_share_rates`] over every query's
//! [`ResourceVector`]) → *complete* (release memory, unpin the build
//! cache). Queries can instead be *rejected* (queue full, or a memory
//! floor that exceeds the entire GPU) or *shed* (deadline passed while
//! queued) — always with a typed reason.
//!
//! # Fault injection
//!
//! [`Scheduler::run_with_faults`] replays a [`triton_hw::FaultPlan`]
//! against the same timeline: link degradations and CPU slowdowns
//! reshape every in-flight query's demand vector (so the fair-share
//! arbiter prices the *degraded* machine), ECC retirements shrink the
//! admission capacity and revoke reservations that no longer fit, and
//! transient kernel faults kill one GPU-resident attempt. With
//! resilience enabled (the default), victims recover through retry with
//! deterministic backoff, shrunken cache grants, and a degradation
//! ladder ending at the CPU radix join; disabled, they are shed with
//! [`RejectReason::Faulted`] — the baseline chaos tests compare against.
//!
//! # Elastic grants
//!
//! Admission grants are *revisable contracts*: under memory pressure —
//! an ECC retirement overcommitting the device, or a bursty
//! deadline-holding arrival that cannot be admitted — the scheduler
//! first issues priced, traced
//! [`crate::admission::GrantRevision::Shrink`]s against running
//! queries' optional cache shares (coldest victims re-priced through
//! the link cost model, never answers) and only falls back to
//! revocation or shedding once every cache grant is exhausted. See
//! [`crate::resilience::ResilienceConfig::elastic`];
//! [`SchedulerConfig::fixed_grants`] restores the pre-elastic behavior.
//!
//! Execution is functional: every admitted query actually runs its
//! operator (with the granted cache budget) and the scheduler records the
//! verifiable [`JoinReport`]. Only the *timing* is arbitrated; faults
//! change placement and speed, never answers.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::iter::{Enumerate, Peekable};
use std::vec;

use triton_core::JoinReport;
use triton_datagen::TUPLE_BYTES;
use triton_hw::fault::splitmix64;
use triton_hw::units::{Bytes, Ns};
use triton_hw::{
    aggregate_utilization, fair_share_rates, utilization_ppm, FaultPlan, HwConfig, ResourceVector,
};
use triton_mem::OutOfMemory;
use triton_metrics::MetricsRegistry;

use triton_trace::{Attr, Trace};

use crate::admission::{AdmissionController, GrantRevision, MemoryGrant};
use crate::build_cache::{BuildCache, FULL_RANGE};
use crate::cost_cache::CostCache;
use crate::demand::ResourceDemand;
use crate::fault::{degraded_vector, FaultCause, FaultOutcome};
use crate::metrics::SchedulerMetrics;
use crate::observe::{GaugeSample, Recorder};
use crate::query::{JoinQuery, QueryId};
pub use crate::resilience::ResilienceConfig;
use crate::resilience::{backoff_within, downgrade_operator, MAX_RETRIES, MAX_REVISIONS};
use crate::slo::SloAccount;

/// Why the scheduler refused to run a query.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The waiting queue was at its configured limit when the query
    /// arrived (backpressure: the client should retry later).
    QueueFull {
        /// The configured queue capacity.
        limit: usize,
    },
    /// The query's minimum memory floor exceeds the entire GPU — it can
    /// never be admitted on this machine, at any concurrency.
    OverCapacity {
        /// The unmeetable floor.
        needed: Bytes,
        /// Total device capacity.
        capacity: Bytes,
    },
    /// The operator itself ran out of simulated memory (e.g. CPU memory
    /// cannot hold the partitioned spill).
    Oom(OutOfMemory),
    /// The deadline expired while the query waited for memory.
    DeadlineExceeded {
        /// The latency budget that was missed.
        deadline: Ns,
        /// Time the query had already spent queued.
        waited: Ns,
    },
    /// A hardware fault killed the query and resilience could not (or
    /// was not allowed to) recover it.
    Faulted {
        /// Label of the fault that killed the final attempt.
        fault: String,
        /// Transient retries consumed before the query was lost.
        retries: u32,
    },
    /// The query's arrival time is NaN or infinite, so it can never land
    /// on the timeline.
    InvalidArrival {
        /// The non-finite arrival.
        arrival: Ns,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { limit } => write!(f, "queue full ({limit} waiting)"),
            RejectReason::OverCapacity { needed, capacity } => {
                write!(f, "needs {needed} of {capacity} GPU memory")
            }
            RejectReason::Oom(e) => write!(f, "{e}"),
            RejectReason::DeadlineExceeded { deadline, waited } => {
                write!(f, "deadline {deadline} passed after waiting {waited}")
            }
            RejectReason::Faulted { fault, retries } => {
                write!(f, "lost to {fault} after {retries} retries")
            }
            RejectReason::InvalidArrival { arrival } => {
                write!(f, "arrival {arrival} is not a finite time")
            }
        }
    }
}

/// A query that ran to completion.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// Scheduler-assigned id (submission order).
    pub id: QueryId,
    /// The query's name tag.
    pub name: String,
    /// Arrival time.
    pub arrival: Ns,
    /// Admission time of the final (successful) attempt.
    pub start: Ns,
    /// Completion time.
    pub finish: Ns,
    /// Dedicated-run service requirement (what the query would take
    /// alone); `finish - start >= dedicated` under contention.
    pub dedicated: Ns,
    /// The functional dedicated-run report (exact join result).
    pub report: JoinReport,
    /// GPU bytes reserved while running.
    pub reserved: Bytes,
    /// Whether the partitioned build side was already resident.
    pub build_cache_hit: bool,
    /// Label of the operator that finally completed the query (the
    /// degradation ladder may have moved it off its submitted operator).
    pub operator: &'static str,
    /// What recovering from faults cost this query; all zeros on a
    /// clean run.
    pub fault: FaultOutcome,
}

impl CompletedQuery {
    /// End-to-end latency (queueing + retries + arbitrated execution).
    #[must_use]
    pub fn latency(&self) -> Ns {
        self.finish - self.arrival
    }
}

/// Terminal state of one submitted query.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Ran to completion.
    Completed(Box<CompletedQuery>),
    /// Refused with a typed reason (never produced a result).
    Rejected {
        /// Scheduler-assigned id.
        id: QueryId,
        /// The query's name tag.
        name: String,
        /// Why it was refused.
        reason: RejectReason,
    },
}

impl Outcome {
    /// The completed record, if this query finished.
    #[must_use]
    pub fn completed(&self) -> Option<&CompletedQuery> {
        match self {
            Outcome::Completed(c) => Some(c),
            Outcome::Rejected { .. } => None,
        }
    }

    /// The rejection reason, if this query was refused.
    #[must_use]
    pub fn rejection(&self) -> Option<&RejectReason> {
        match self {
            Outcome::Completed(_) => None,
            Outcome::Rejected { reason, .. } => Some(reason),
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum concurrently executing queries (admission also requires a
    /// memory reservation; this bounds arbitration overheads).
    pub max_inflight: usize,
    /// Maximum queries waiting for admission before new arrivals are
    /// rejected with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Fault-recovery policies (see [`crate::resilience`]).
    pub resilience: ResilienceConfig,
    /// Arrival-wake batching (epoch scheduling). With work in flight the
    /// event loop defers its arrival wake until this many pending
    /// arrivals are due — or the next completion / fault / retry wake,
    /// whichever comes first — then drains and admits the whole due
    /// batch in one pass instead of re-running admission and arbitration
    /// per arrival. `1` wakes per arrival: the classic event-per-arrival
    /// loop, reproduced exactly. An idle machine always wakes on the
    /// first arrival regardless.
    pub arrival_batch: usize,
    /// Memoize operator pricing ([`crate::CostCache`]) across
    /// decisions. Semantically transparent: outcomes, trace, and SLO
    /// accounts are identical with the memo on or off (only the
    /// `sched.cost_cache.*` telemetry counters differ), so the off path
    /// is the reference the memo is tested against.
    pub cost_caching: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_inflight: 8,
            max_queue: 64,
            resilience: ResilienceConfig::default(),
            arrival_batch: 1,
            cost_caching: true,
        }
    }
}

impl SchedulerConfig {
    /// One query at a time: the serial baseline concurrency is compared
    /// against.
    pub fn serial() -> Self {
        SchedulerConfig {
            max_inflight: 1,
            ..Self::default()
        }
    }

    /// Faults shed their victims instead of recovering — the baseline
    /// the resilient path is compared against.
    #[must_use]
    pub fn no_resilience() -> Self {
        SchedulerConfig {
            resilience: ResilienceConfig::disabled(),
            ..Self::default()
        }
    }

    /// Resilient but with immutable grants: memory pressure goes
    /// straight to revocation/shedding instead of shrink-in-place — the
    /// pre-elastic scheduler, kept as the `fig_elastic` baseline.
    #[must_use]
    pub fn fixed_grants() -> Self {
        SchedulerConfig {
            resilience: ResilienceConfig::fixed_grants(),
            ..Self::default()
        }
    }

    /// The sustained-load throughput path: epoch-batched admission
    /// (arrival wakes amortized over batches of 8) on top of the default
    /// cost/plan memos. Per-query outcomes are unchanged in kind —
    /// every query still terminates with a typed outcome and exact
    /// results — but decision points, and therefore scheduler overhead
    /// per arrival, drop under bursty load.
    #[must_use]
    pub fn throughput() -> Self {
        SchedulerConfig {
            arrival_batch: 8,
            ..Self::default()
        }
    }
}

/// Everything a serving run produces.
#[derive(Debug)]
pub struct ServeResult {
    /// One outcome per submitted query, in submission order.
    pub outcomes: Vec<Outcome>,
    /// Aggregate scheduler metrics.
    pub metrics: SchedulerMetrics,
    /// The run's span/event trace (see [`crate::observe`]): per-query
    /// lifecycle and phase tracks, fault instants, and flight-recorder
    /// dumps, all on the simulated clock. Export with
    /// [`triton_trace::to_chrome_json`] or render with
    /// [`triton_hw::Timeline::from_trace`].
    pub trace: Trace,
    /// Windowed time-series telemetry on the simulated clock: scheduler
    /// counters, allocator gauges, and latency histograms. Deterministic:
    /// equal runs expose byte-identical text/JSON.
    pub telemetry: MetricsRegistry,
    /// Per-tenant SLO accounts (latency attainment, shed counts, error
    /// budget burn, grant revisions), sorted by tenant label.
    pub slo: Vec<SloAccount>,
}

impl ServeResult {
    /// Completed queries, in submission order.
    pub fn completed(&self) -> impl Iterator<Item = &CompletedQuery> {
        self.outcomes.iter().filter_map(Outcome::completed)
    }
}

/// One in-flight query inside the fluid simulation.
struct Running {
    id: QueryId,
    /// Kept whole so a faulted attempt can be requeued and re-run.
    query: JoinQuery,
    start: Ns,
    /// Remaining dedicated-run nanoseconds.
    remaining: f64,
    demand: ResourceVector,
    weight: f64,
    dedicated: Ns,
    report: JoinReport,
    reservation: MemoryGrant,
    build_cache_hit: bool,
    uses_gpu: bool,
    op_label: &'static str,
    fault: FaultOutcome,
    /// Transient failures survived on the current ladder rung.
    attempts_at_rung: u32,
    /// In-place grant revisions absorbed so far (bounded by
    /// [`crate::resilience::MAX_REVISIONS`]).
    revisions: u32,
}

/// One query waiting for admission (fresh, or sleeping out a backoff).
struct Queued {
    id: QueryId,
    query: JoinQuery,
    /// Not considered for admission before this instant (retry backoff).
    eligible_at: Ns,
    fault: FaultOutcome,
    attempts_at_rung: u32,
}

/// Revocation victim: the lowest-priority reservation holder, breaking
/// ties toward the most recently submitted query (highest id) so the
/// oldest work survives capacity loss.
fn victim_index(running: &[Running]) -> Option<usize> {
    running
        .iter()
        .enumerate()
        .filter(|(_, r)| r.reservation.reserved.0 > 0)
        .min_by_key(|(_, r)| (r.query.priority, Reverse(r.id)))
        .map(|(i, _)| i)
}

/// The multi-query join scheduler.
pub struct Scheduler {
    hw: HwConfig,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Build for a machine and configuration.
    pub fn new(hw: HwConfig, config: SchedulerConfig) -> Self {
        Scheduler { hw, config }
    }

    /// Run a batch of queries to completion and report every outcome.
    /// Queries may arrive in any order; they are processed by arrival
    /// time, queued in priority order, and executed concurrently under
    /// memory-budget admission.
    pub fn run(&self, queries: Vec<JoinQuery>) -> ServeResult {
        self.run_with_faults(queries, &FaultPlan::none())
    }

    /// [`Self::run`] with a [`FaultPlan`] replayed against the timeline.
    /// Fully deterministic: the same queries and the same plan (seed
    /// included) produce identical outcomes and metrics.
    pub fn run_with_faults(&self, queries: Vec<JoinQuery>, plan: &FaultPlan) -> ServeResult {
        let mut w = World::new(&self.hw, &self.config, plan, queries);
        loop {
            w.retire_memory();
            w.strike_kernels();
            w.admit_ready();
            if w.running.is_empty() && w.arrivals.is_empty() {
                // Sleeping retries may still wake; jump to the earliest.
                if w.wake_sleeper() {
                    continue;
                }
                w.shed_backlog();
                break;
            }
            let rates = w.arbitrate();
            let dt = w.time_to_next_event(&rates);
            if !dt.is_finite() {
                break;
            }
            w.advance(dt, &rates);
            w.land_arrivals();
            w.complete_finished();
        }
        w.finish()
    }
}

/// The event loop's whole state for one serving run. Every repeated
/// scheduling step (reject, release, downgrade, price) is one method, so
/// each decision is taken and recorded in exactly one place; event
/// counts live in the [`Recorder`]'s registry and are read back when the
/// run ends.
struct World<'a> {
    hw: &'a HwConfig,
    config: &'a SchedulerConfig,
    plan: &'a FaultPlan,
    /// ECC retirements not yet due, in time order.
    retirements: Peekable<vec::IntoIter<(Ns, Bytes)>>,
    /// Kernel faults not yet due, numbered by strike.
    kernel_faults: Peekable<Enumerate<vec::IntoIter<Ns>>>,
    /// Fault-plan rate transitions not yet passed.
    transitions: Peekable<vec::IntoIter<Ns>>,
    clock: Ns,
    arrivals: VecDeque<(QueryId, JoinQuery)>,
    queue: VecDeque<Queued>,
    running: Vec<Running>,
    outcomes: Vec<(QueryId, Outcome)>,
    admission: AdmissionController,
    cache: BuildCache,
    costs: CostCache,
    obs: Recorder,
    builds_quarantined: u64,
    grant_reclaimed: Bytes,
    peak_concurrency: usize,
    /// Integral of (running > 0) dt.
    busy_time: f64,
    /// Integral of |running| dt.
    weighted_conc: f64,
}

impl<'a> World<'a> {
    fn new(
        hw: &'a HwConfig,
        config: &'a SchedulerConfig,
        plan: &'a FaultPlan,
        queries: Vec<JoinQuery>,
    ) -> Self {
        // A NaN or infinite arrival never lands on the timeline; it is
        // rejected up front so every query still gets one outcome.
        let (mut arrivals, invalid): (Vec<_>, Vec<_>) = queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| (QueryId(i as u64), q))
            .partition(|(_, q)| q.arrival.0.is_finite());
        // Stable by arrival time; ids preserve submission order.
        arrivals.sort_by(|a, b| a.1.arrival.0.total_cmp(&b.1.arrival.0));
        let mut world = World {
            hw,
            config,
            plan,
            retirements: plan.retirements().into_iter().peekable(),
            kernel_faults: plan.kernel_faults().into_iter().enumerate().peekable(),
            transitions: plan.transitions().into_iter().peekable(),
            clock: Ns::ZERO,
            arrivals: arrivals.into(),
            queue: VecDeque::new(),
            running: Vec::new(),
            outcomes: Vec::new(),
            admission: AdmissionController::new(hw),
            cache: BuildCache::new(),
            costs: CostCache::new(config.cost_caching),
            obs: Recorder::new(),
            builds_quarantined: 0,
            grant_reclaimed: Bytes(0),
            peak_concurrency: 0,
            busy_time: 0.0,
            weighted_conc: 0.0,
        };
        for (id, query) in invalid {
            let arrival = query.arrival;
            world.reject(id, query, RejectReason::InvalidArrival { arrival });
        }
        world
    }

    /// Whether faults shrink grants in place before revoking anyone.
    fn elastic(&self) -> bool {
        self.config.resilience.enabled && self.config.resilience.elastic
    }

    /// Refuse a query with a typed reason.
    fn reject(&mut self, id: QueryId, query: JoinQuery, reason: RejectReason) {
        self.obs.shed(id, self.clock, &reason);
        let name = query.name;
        self.outcomes
            .push((id, Outcome::Rejected { id, name, reason }));
    }

    /// Return a query's reservation and unpin its shared build.
    fn release(&mut self, id: QueryId, query: &JoinQuery) {
        let _ = self.admission.release(id);
        if let Some(k) = query.build_key {
            self.cache
                .release_range(k, query.build_range.unwrap_or(FULL_RANGE));
        }
    }

    /// Move a queued query one rung down the degradation ladder; false
    /// when it is already on the last rung.
    fn downgrade(&mut self, q: &mut Queued, reason: &'static str) -> bool {
        let Some(op) = downgrade_operator(&q.query.op) else {
            return false;
        };
        let from = q.query.op.label();
        q.query.op = op;
        q.fault.downgrades += 1;
        q.attempts_at_rung = 0;
        self.obs
            .downgrade(q.id, self.clock, from, q.query.op.label(), reason);
        true
    }

    /// Functional dedicated run of `query` under `grant`, memoized: a
    /// repeat (workload, grant) pricing replays the byte-identical report
    /// instead of re-running the operator.
    fn price(&mut self, query: &JoinQuery, grant: &MemoryGrant) -> Result<JoinReport, OutOfMemory> {
        let (priced, memo) = self.costs.price(query, grant, self.hw);
        self.obs.cost_cache(memo, self.clock);
        priced
    }

    /// Insert preserving priority order, FIFO within a priority class.
    fn enqueue(&mut self, q: Queued) {
        let pos = self
            .queue
            .iter()
            .position(|e| e.query.priority < q.query.priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, q);
    }

    /// ECC retirements due now: shrink capacity, trip the build-cache
    /// breaker, then reclaim cache grants and revoke reservations until
    /// the shrunk device fits them again.
    fn retire_memory(&mut self) {
        let clock = self.clock;
        while let Some((_, bytes)) = self.retirements.next_if(|(at, _)| at.0 <= clock.0) {
            let before = self.admission.capacity();
            let retired_now = before.saturating_sub(self.admission.retire(bytes));
            // The retired pages tear resident partitioned builds:
            // trip the circuit breaker so followers rebuild instead
            // of sharing stale state. Memoized pricings go with them
            // (the capacity change alters future grants; a wholesale
            // flush keeps the invalidation story uniform).
            let quarantined = self.cache.quarantine_all() as u64;
            self.builds_quarantined += quarantined;
            self.costs.flush();
            self.obs.fault(
                "ecc-retirement",
                clock,
                vec![
                    Attr::u64("retired_bytes", retired_now.0),
                    Attr::u64("builds_quarantined", quarantined),
                ],
            );
            // Shrink-in-place rungs: before revoking anyone, reclaim
            // running queries' optional cache shares — each a priced,
            // traced revision — until the shrunk device fits its
            // reservations again or no cache grant is left to take.
            if self.elastic() {
                self.reclaim_cache(|a| a.overcommitted(), "ecc-retirement");
            }
            // Revoke reservations until the shrunk device fits them.
            while self.admission.overcommitted().0 > 0 {
                let Some(vi) = victim_index(&self.running) else {
                    break;
                };
                let victim = self.running.swap_remove(vi);
                self.recover_or_shed(victim, FaultCause::Revoked);
            }
        }
    }

    /// Transient kernel faults due now, each killing one GPU-resident
    /// attempt.
    fn strike_kernels(&mut self) {
        let clock = self.clock;
        while let Some((strike, _)) = self.kernel_faults.next_if(|(_, at)| at.0 <= clock.0) {
            // Deterministic victim among GPU-resident queries: rank
            // by id, pick by a seed-derived roll. An idle GPU means
            // the fault fizzles.
            let mut ids: Vec<QueryId> = self
                .running
                .iter()
                .filter(|r| r.uses_gpu)
                .map(|r| r.id)
                .collect();
            if ids.is_empty() {
                continue;
            }
            ids.sort_unstable();
            let roll = splitmix64(self.plan.seed ^ 0xC0DE ^ strike as u64);
            let pick = ids[(roll % ids.len() as u64) as usize];
            let Some(vi) = self.running.iter().position(|r| r.id == pick) else {
                continue;
            };
            self.obs.fault(
                "kernel-fault",
                clock,
                vec![Attr::str("victim", pick.to_string())],
            );
            let victim = self.running.swap_remove(vi);
            self.recover_or_shed(victim, FaultCause::Transient);
        }
    }

    /// Recover a faulted in-flight query (retry / shrink / downgrade per
    /// the resilience config) or shed it with a typed reason. The
    /// victim's reservation and cache pin are released either way; its
    /// partial work is lost and a recovered attempt restarts from
    /// scratch.
    fn recover_or_shed(&mut self, victim: Running, cause: FaultCause) {
        self.release(victim.id, &victim.query);
        let mut q = Queued {
            id: victim.id,
            query: victim.query,
            eligible_at: self.clock,
            fault: victim.fault,
            attempts_at_rung: victim.attempts_at_rung,
        };
        match cause {
            FaultCause::Transient => {
                q.fault.retries += 1;
                q.attempts_at_rung += 1;
            }
            FaultCause::Revoked => {
                q.fault.revocations += 1;
                self.obs.revoked(q.id, self.clock);
            }
        }
        if !self.config.resilience.enabled {
            let reason = RejectReason::Faulted {
                fault: cause.label().to_string(),
                retries: q.fault.retries,
            };
            self.reject(q.id, q.query, reason);
            return;
        }
        match cause {
            // First revocation: retry on the same rung asking for less
            // optional cache. Repeat offenders descend the ladder.
            FaultCause::Revoked => {
                if q.fault.revocations <= 1 {
                    q.fault.grant_shrinks += 1;
                } else {
                    self.downgrade(&mut q, "repeat-revocation");
                }
            }
            // Retries exhausted on this rung: descend.
            FaultCause::Transient => {
                if q.attempts_at_rung > MAX_RETRIES {
                    self.downgrade(&mut q, "retries-exhausted");
                }
            }
        }
        // Back off before re-admission, spending at most the remaining
        // deadline budget (a wake past the deadline is a guaranteed
        // shed).
        let attempt = q.fault.retries + q.fault.revocations - 1;
        let slack = q.query.deadline.map(|d| d - (self.clock - q.query.arrival));
        let delay = backoff_within(q.id, attempt, slack);
        self.obs
            .retry(q.id, self.clock, cause.label(), attempt, delay);
        q.eligible_at = self.clock + delay;
        self.enqueue(q);
    }

    /// Shrink-in-place: reclaim optional cache from running queries —
    /// lowest priority first, biggest cache grant first within a class,
    /// most recent submission on ties — until `need` reports zero bytes
    /// missing or no eligible victim remains.
    fn reclaim_cache(
        &mut self,
        need: impl Fn(&AdmissionController) -> Bytes,
        reason: &'static str,
    ) {
        loop {
            let missing = need(&self.admission);
            if missing.0 == 0 {
                break;
            }
            let Some(vi) = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.reservation.cache_grant.0 > 0 && r.revisions < MAX_REVISIONS)
                .min_by_key(|(_, r)| {
                    (
                        r.query.priority,
                        Reverse(r.reservation.cache_grant.0),
                        Reverse(r.id),
                    )
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            // Detached while revised so its re-pricing can go through
            // the world; put back at the same index so the arbitration
            // order is unchanged.
            let mut r = self.running.remove(vi);
            let ask = missing.min(r.reservation.cache_grant);
            self.shrink_grant(&mut r, ask, reason);
            self.running.insert(vi, r);
        }
    }

    /// Shrink one running query's cache grant by up to `ask`. The
    /// revision is priced through the link cost model
    /// ([`AdmissionController::revise`]), traced as a `grant-revision`
    /// event, and re-prices the victim's remaining work under its revised
    /// grant; the victim's *answer* cannot change (a cache budget only
    /// moves placement and time).
    fn shrink_grant(&mut self, r: &mut Running, ask: Bytes, reason: &'static str) {
        let out = match self
            .admission
            .revise(r.id, GrantRevision::Shrink(ask), self.hw)
        {
            Ok(out) if out.delta.0 > 0 => out,
            // Nothing movable on this victim: exhaust it so the
            // search cannot pick it again and spin.
            _ => {
                r.revisions = MAX_REVISIONS;
                return;
            }
        };
        r.revisions += 1;
        r.reservation = out.grant;
        self.grant_reclaimed += out.delta;
        // Re-price the rest of the query under the revised grant:
        // same workload, same operator, smaller cache — placement
        // and timing change, the answer cannot. Re-pricings go
        // through the memo too: a repeat shrink to a grant already
        // priced replays the identical report.
        if let Ok(rep) = self.price(&r.query, &out.grant) {
            let demand = ResourceDemand::from_report(&rep, r.build_cache_hit, probe_frac(&r.query));
            let frac = if r.dedicated.0 > 0.0 {
                (r.remaining / r.dedicated.0).clamp(0.0, 1.0)
            } else {
                0.0
            };
            r.remaining = demand.work.0 * frac + out.reclaim.0;
            r.demand = demand.vector;
            r.dedicated = demand.work;
            r.report = rep;
        } else {
            // A shrunk re-run cannot OOM harder than the original;
            // if it somehow does, keep the old pricing and only pay
            // the reclaim time.
            r.remaining += out.reclaim.0;
        }
        self.obs.revise(
            r.id,
            self.clock,
            "shrink",
            out.delta,
            out.grant.reserved,
            out.reclaim,
            reason,
        );
    }

    /// Admit queued queries in priority order while memory, the
    /// concurrency cap, and deadlines allow. Entries sleeping out a
    /// retry backoff are skipped until eligible.
    ///
    /// The walk is a single sweep: a cursor remembers how far the
    /// priority order has been scanned at this instant, so admitting a
    /// whole epoch batch is one pass over the queue instead of a
    /// from-the-front rescan per admission (entries before the cursor
    /// were already found ineligible and the clock does not move inside
    /// an admit pass; only a re-enqueue can seat an eligible entry in
    /// scanned territory, which rewinds the cursor).
    fn admit_ready(&mut self) {
        let mut cursor = 0usize;
        while self.running.len() < self.config.max_inflight {
            // Highest-priority eligible entry (sleepers excluded) at or
            // past the cursor, taken out while it is decided on.
            let clock = self.clock;
            let Some(off) = self
                .queue
                .iter()
                .skip(cursor)
                .position(|q| q.eligible_at.0 <= clock.0)
            else {
                break;
            };
            let pos = cursor + off;
            cursor = pos;
            let Some(mut q) = self.queue.remove(pos) else {
                break;
            };

            // Deadline shedding: a query whose budget is already spent
            // queueing will miss it regardless — drop it now.
            if let Some(deadline) = q.query.deadline {
                let waited = clock - q.query.arrival;
                if waited.0 > deadline.0 {
                    self.reject(
                        q.id,
                        q.query,
                        RejectReason::DeadlineExceeded { deadline, waited },
                    );
                    continue;
                }
            }

            // Floors exceeding the (possibly retired) capacity: when the
            // shortfall comes from a retirement, resilience descends the
            // ladder in place — the CPU radix floor is zero, so descent
            // always terminates. A query too big for the *pristine*
            // machine is shed with the typed reason as always.
            let mut floor = AdmissionController::min_reserve(&q.query, self.hw);
            while floor > self.admission.capacity()
                && self.config.resilience.enabled
                && self.admission.capacity() < self.admission.initial_capacity()
                && self.downgrade(&mut q, "capacity-floor")
            {
                floor = AdmissionController::min_reserve(&q.query, self.hw);
            }
            if floor > self.admission.capacity() {
                let capacity = self.admission.capacity();
                self.reject(
                    q.id,
                    q.query,
                    RejectReason::OverCapacity {
                        needed: floor,
                        capacity,
                    },
                );
                continue;
            }

            // Backpressure: memory is busy. A query *without* a deadline
            // just waits for a completion (head-of-line blocking is
            // intentional: priority order is strict, so a big
            // high-priority query is not starved by small ones slipping
            // past it). Under the elastic policy a deadline-holding
            // arrival cannot afford the wait: it reclaims running
            // queries' optional cache down to its own floor and retries
            // once.
            let shrink = q.fault.grant_shrinks;
            let reservation = match self
                .admission
                .try_admit_shrunk(q.id, &q.query, self.hw, shrink)
            {
                Ok(r) => Some(r),
                Err(_) if self.elastic() && q.query.deadline.is_some() => {
                    self.reclaim_cache(|a| floor.saturating_sub(a.available()), "burst-admission");
                    self.admission
                        .try_admit_shrunk(q.id, &q.query, self.hw, shrink)
                        .ok()
                }
                Err(_) => None,
            };
            let Some(reservation) = reservation else {
                self.queue.insert(pos, q);
                break;
            };

            // Build-side sharing: exact builds hit as always, and a
            // query over a sub-range of a resident build of the same
            // family rides the covering state ([`crate::BuildHit`]).
            let hit = match q.query.build_key {
                Some(k) => {
                    let r_bytes = q.query.workload.r.len() as u64 * TUPLE_BYTES;
                    let range = q.query.build_range.unwrap_or(FULL_RANGE);
                    let r_digest = cfg!(debug_assertions).then(|| q.query.workload.r.digest());
                    let served = self.cache.acquire_range(k, r_bytes, range, r_digest);
                    self.obs.build_cache(served, clock);
                    served.is_hit()
                }
                None => false,
            };

            let report = match self.price(&q.query, &reservation) {
                Ok(rep) => rep,
                Err(e) => {
                    self.release(q.id, &q.query);
                    // OOM inside the operator: descend and retry
                    // immediately (the radix floor never OOMs). The
                    // requeued entry is eligible now and may land
                    // anywhere in priority order: rescan.
                    if self.config.resilience.enabled && self.downgrade(&mut q, "oom") {
                        q.eligible_at = clock;
                        self.enqueue(q);
                        cursor = 0;
                        continue;
                    }
                    self.reject(q.id, q.query, RejectReason::Oom(e));
                    continue;
                }
            };

            self.obs.admit(
                q.id,
                clock,
                q.query.op.label(),
                reservation.reserved,
                reservation.cache_grant,
                hit,
                q.fault.grant_shrinks,
            );
            let demand = ResourceDemand::from_report(&report, hit, probe_frac(&q.query));
            self.running.push(Running {
                id: q.id,
                start: clock,
                remaining: demand.work.0,
                demand: demand.vector,
                weight: q.query.priority.max(1) as f64,
                dedicated: demand.work,
                report,
                reservation,
                build_cache_hit: hit,
                uses_gpu: q.query.op.uses_gpu(),
                op_label: q.query.op.label(),
                fault: q.fault,
                attempts_at_rung: q.attempts_at_rung,
                revisions: 0,
                query: q.query,
            });
        }
        self.peak_concurrency = self.peak_concurrency.max(self.running.len());
    }

    /// With nothing running and nothing left to arrive, jump the clock
    /// to the earliest sleeping retry; false when none sleeps.
    fn wake_sleeper(&mut self) -> bool {
        let clock = self.clock;
        let next_wake = self
            .queue
            .iter()
            .map(|q| q.eligible_at.0)
            .filter(|&t| t > clock.0)
            .fold(f64::INFINITY, f64::min);
        if next_wake.is_finite() {
            self.clock = Ns(next_wake);
        }
        next_wake.is_finite()
    }

    /// Anything still queued can never start (no completions left to
    /// free memory): shed it as over-capacity backlog.
    fn shed_backlog(&mut self) {
        while let Some(q) = self.queue.pop_front() {
            let needed = AdmissionController::min_reserve(&q.query, self.hw);
            let capacity = self.admission.capacity();
            self.reject(
                q.id,
                q.query,
                RejectReason::OverCapacity { needed, capacity },
            );
        }
    }

    /// Arbitrated speeds for the current in-flight set, priced on the
    /// degraded machine (factors are piecewise-constant between fault
    /// transitions, which bound every step), plus the gauge observation
    /// at this decision point: allocator occupancy and aggregate
    /// utilization priced off the same rates that drive the fluid state.
    fn arbitrate(&mut self) -> Vec<f64> {
        let link_factor = self.plan.link_factor(self.clock);
        let cpu_factor = self.plan.cpu_factor(self.clock);
        let loads: Vec<ResourceVector> = self
            .running
            .iter()
            .map(|r| degraded_vector(r.demand, link_factor, cpu_factor))
            .collect();
        let weights: Vec<f64> = self.running.iter().map(|r| r.weight).collect();
        let rates = fair_share_rates(&loads, &weights);
        let util = aggregate_utilization(&loads, &rates);
        let a = &self.admission;
        self.obs.sample_gauges(
            self.clock,
            &GaugeSample {
                gpu_used: a.reserved(),
                gpu_capacity: a.capacity(),
                gpu_requested: a.requested(),
                gpu_fragmentation: a.fragmentation(),
                gpu_occupancy_ppm: a.occupancy_ppm(),
                link_util_ppm: utilization_ppm(util.link),
                sm_util_ppm: utilization_ppm(util.compute),
                gpu_mem_util_ppm: utilization_ppm(util.gpu_mem),
                cpu_util_ppm: utilization_ppm(util.cpu),
                running: self.running.len() as u64,
                queued: self.queue.len() as u64,
            },
        );
        rates
    }

    /// Time to the next completion, arrival wake, fault transition, or
    /// retry wake.
    fn time_to_next_event(&mut self, rates: &[f64]) -> f64 {
        let clock = self.clock;
        let t_complete = self
            .running
            .iter()
            .zip(rates)
            .map(|(r, &s)| r.remaining / s.max(1e-12))
            .fold(f64::INFINITY, f64::min);
        // Epoch batching: with work already in flight, the arrival
        // wake is deferred to the k-th pending arrival (k =
        // min(arrival_batch, pending)) so a burst is drained and
        // admitted in one pass; completions, fault transitions, and
        // retry wakes still fire on time and drain whatever is due.
        // An idle machine (or batch = 1) wakes on the very next
        // arrival — the classic loop, reproduced exactly.
        let k = if self.running.is_empty() {
            1
        } else {
            self.config.arrival_batch.max(1).min(self.arrivals.len())
        };
        let t_arrival = self
            .arrivals
            .get(k.saturating_sub(1))
            .map_or(f64::INFINITY, |(_, q)| (q.arrival.0 - clock.0).max(0.0));
        while self.transitions.next_if(|t| t.0 <= clock.0).is_some() {}
        let t_fault = self
            .transitions
            .peek()
            .map_or(f64::INFINITY, |t| t.0 - clock.0);
        let t_wake = self
            .queue
            .iter()
            .map(|q| q.eligible_at.0 - clock.0)
            .filter(|&d| d > 0.0)
            .fold(f64::INFINITY, f64::min);
        t_complete.min(t_arrival).min(t_fault).min(t_wake)
    }

    /// Advance the fluid state by `dt` at the arbitrated `rates`.
    fn advance(&mut self, dt: f64, rates: &[f64]) {
        if !self.running.is_empty() {
            self.busy_time += dt;
            self.weighted_conc += dt * self.running.len() as f64;
        }
        self.clock += Ns(dt);
        for (r, &s) in self.running.iter_mut().zip(rates) {
            r.remaining = (r.remaining - dt * s).max(0.0);
        }
    }

    /// Arrivals due now land in the queue (or bounce off its limit);
    /// under epoch batching the whole due batch lands here at once and
    /// the next admit pass handles it in a single sweep.
    fn land_arrivals(&mut self) {
        let clock = self.clock;
        while self
            .arrivals
            .front()
            .is_some_and(|(_, q)| q.arrival.0 <= clock.0)
        {
            let Some((id, query)) = self.arrivals.pop_front() else {
                break;
            };
            if self.queue.len() >= self.config.max_queue {
                let limit = self.config.max_queue;
                self.reject(id, query, RejectReason::QueueFull { limit });
                continue;
            }
            self.obs.enqueue(id, &query, query.arrival);
            let eligible_at = query.arrival;
            self.enqueue(Queued {
                id,
                query,
                eligible_at,
                fault: FaultOutcome::default(),
                attempts_at_rung: 0,
            });
        }
    }

    /// Retire every query whose remaining work ran out.
    fn complete_finished(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining > 1e-9 {
                i += 1;
                continue;
            }
            let r = self.running.swap_remove(i);
            self.release(r.id, &r.query);
            let c = CompletedQuery {
                id: r.id,
                name: r.query.name,
                arrival: r.query.arrival,
                start: r.start,
                finish: self.clock,
                dedicated: r.dedicated,
                report: r.report,
                reserved: r.reservation.reserved,
                build_cache_hit: r.build_cache_hit,
                operator: r.op_label,
                fault: r.fault,
            };
            self.obs.complete(&c, self.hw);
            self.outcomes.push((c.id, Outcome::Completed(Box::new(c))));
        }
    }

    /// End the run: outcomes in submission order, metrics with each
    /// number read from its one owner — the outcome scan, the admission
    /// controller, the world's own totals, or the registry's event
    /// counters.
    fn finish(mut self) -> ServeResult {
        self.outcomes.sort_by_key(|(id, _)| *id);
        let outcomes: Vec<Outcome> = self.outcomes.into_iter().map(|(_, o)| o).collect();
        let phases = self.obs.rollups();
        let (trace, telemetry, slo) = self.obs.into_parts();
        let count = |name: &str| telemetry.counter(name);
        let a = &self.admission;
        let metrics = SchedulerMetrics {
            peak_gpu_reserved: a.peak_reserved,
            gpu_capacity: a.initial_capacity(),
            gpu_retired: a.initial_capacity().saturating_sub(a.capacity()),
            peak_concurrency: self.peak_concurrency,
            mean_concurrency: if self.busy_time > 0.0 {
                self.weighted_conc / self.busy_time
            } else {
                0.0
            },
            build_cache_hits: count("sched.build_cache.exact_hit")
                + count("sched.build_cache.prefix_hit"),
            build_cache_prefix_hits: count("sched.build_cache.prefix_hit"),
            build_cache_misses: count("sched.build_cache.miss"),
            builds_quarantined: self.builds_quarantined,
            faults_injected: count("sched.faults"),
            grant_revisions: count("sched.grant_revisions"),
            grant_reclaimed: self.grant_reclaimed,
            cost_cache_hits: count("sched.cost_cache.hit"),
            cost_cache_misses: count("sched.cost_cache.miss"),
            ..SchedulerMetrics::from_outcomes(&outcomes, self.clock, phases)
        };
        ServeResult {
            outcomes,
            metrics,
            trace,
            telemetry,
            slo,
        }
    }
}

/// Share of a query's input bytes on the probe side.
fn probe_frac(query: &JoinQuery) -> f64 {
    let r_bytes = query.workload.r.len() as u64 * TUPLE_BYTES;
    let s_bytes = query.workload.s.len() as u64 * TUPLE_BYTES;
    s_bytes as f64 / (r_bytes + s_bytes).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Operator;
    use crate::resilience::backoff;
    use triton_core::{reference_join, SkewPolicy, TritonJoin};
    use triton_datagen::WorkloadSpec;

    fn hw() -> HwConfig {
        HwConfig::ac922().scaled(512)
    }

    fn batch(n: usize, arrival_gap: f64) -> Vec<JoinQuery> {
        (0..n)
            .map(|i| {
                let mut spec = WorkloadSpec::paper_default(32, 512);
                spec.seed ^= i as u64;
                JoinQuery::new(format!("t{i}"), spec.generate(), Ns(i as f64 * arrival_gap))
            })
            .collect()
    }

    #[test]
    fn all_complete_with_exact_results() {
        let sched = Scheduler::new(hw(), SchedulerConfig::default());
        let queries = batch(4, 0.0);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference_join(&q.workload))
            .collect();
        let res = sched.run(queries);
        assert_eq!(res.metrics.completed, 4);
        for (o, exp) in res.outcomes.iter().zip(&expected) {
            let c = o.completed().expect("query should complete");
            assert_eq!(&c.report.result, exp, "{} result mismatch", c.name);
            assert!(c.fault.clean(), "no faults on a clean run");
            assert_eq!(c.operator, "triton");
        }
        assert!(res.metrics.peak_gpu_reserved <= res.metrics.gpu_capacity);
        assert!(res.metrics.peak_concurrency >= 2);
        assert_eq!(res.metrics.faults_injected, 0);
    }

    #[test]
    fn empty_fault_plan_matches_plain_run() {
        let a = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(4, 0.0));
        let b = Scheduler::new(hw(), SchedulerConfig::default())
            .run_with_faults(batch(4, 0.0), &FaultPlan::none());
        assert_eq!(a.metrics, b.metrics, "FaultPlan::none must be a no-op");
    }

    #[test]
    fn concurrent_no_slower_than_serial() {
        let conc = Scheduler::new(hw(), SchedulerConfig::default())
            .run(batch(4, 0.0))
            .metrics
            .makespan;
        let serial = Scheduler::new(hw(), SchedulerConfig::serial())
            .run(batch(4, 0.0))
            .metrics
            .makespan;
        assert!(
            conc.0 <= serial.0 * 1.0001,
            "concurrent {conc} must not exceed serial {serial}"
        );
    }

    #[test]
    fn queue_full_rejects_typed() {
        let sched = Scheduler::new(
            hw(),
            SchedulerConfig {
                max_inflight: 1,
                max_queue: 1,
                ..SchedulerConfig::default()
            },
        );
        let res = sched.run(batch(4, 0.0));
        let rejected = res
            .outcomes
            .iter()
            .filter(|o| matches!(o.rejection(), Some(RejectReason::QueueFull { .. })))
            .count();
        assert!(rejected >= 1, "tiny queue must bounce arrivals");
        assert_eq!(res.metrics.completed + res.metrics.rejected, 4);
    }

    #[test]
    fn deadline_sheds_queued_queries() {
        let mut queries = batch(3, 0.0);
        // Arrive together; queue behind each other at concurrency 1 with
        // an impossible deadline for the stragglers.
        for q in &mut queries[1..] {
            q.deadline = Some(Ns(1.0));
        }
        let res = Scheduler::new(hw(), SchedulerConfig::serial()).run(queries);
        let shed = res
            .outcomes
            .iter()
            .filter(|o| matches!(o.rejection(), Some(RejectReason::DeadlineExceeded { .. })))
            .count();
        assert_eq!(shed, 2);
        assert_eq!(res.metrics.completed, 1);
    }

    #[test]
    fn build_sharing_hits_and_speeds_up() {
        let base = WorkloadSpec::paper_default(32, 512).generate();
        let mk = |share: bool| {
            (0..4)
                .map(|i| {
                    let w = if i == 0 {
                        base.clone()
                    } else {
                        JoinQuery::probe_batch(&base, 100 + i)
                    };
                    let mut q = JoinQuery::new(format!("b{i}"), w, Ns::ZERO);
                    if share {
                        q.build_key = Some(42);
                    }
                    q
                })
                .collect::<Vec<_>>()
        };
        let shared = Scheduler::new(hw(), SchedulerConfig::serial()).run(mk(true));
        let solo = Scheduler::new(hw(), SchedulerConfig::serial()).run(mk(false));
        assert_eq!(shared.metrics.build_cache_hits, 3);
        assert_eq!(solo.metrics.build_cache_hits, 0);
        assert!(
            shared.metrics.makespan.0 < solo.metrics.makespan.0,
            "sharing the partitioned build side must save work"
        );
        // Results stay exact despite the discount.
        for c in shared.completed() {
            assert!(c.report.result.matches > 0);
        }
    }

    #[test]
    fn cpu_and_gpu_queries_overlap() {
        let mut queries = batch(2, 0.0);
        queries[1].op = Operator::CpuRadix(triton_core::CpuRadixJoin::power9(
            triton_core::HashScheme::BucketChaining,
        ));
        let res = Scheduler::new(hw(), SchedulerConfig::default()).run(queries);
        assert_eq!(res.metrics.completed, 2);
        // Disjoint executors: the makespan is close to the slower of the
        // two dedicated runs, far below their sum.
        let durs: Vec<f64> = res.completed().map(|c| c.dedicated.0).collect();
        let sum: f64 = durs.iter().sum();
        let max = durs.iter().cloned().fold(0.0, f64::max);
        assert!(res.metrics.makespan.0 < sum * 0.95);
        assert!(res.metrics.makespan.0 >= max * 0.999);
    }

    #[test]
    fn kernel_fault_retries_and_completes_exactly() {
        let queries = batch(2, 0.0);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference_join(&q.workload))
            .collect();
        // Strike mid-run: the clean makespan bounds where "mid-run" is.
        let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2, 0.0));
        let plan = FaultPlan::with_seed(11).kernel_fault(Ns(clean.metrics.makespan.0 * 0.5));
        let res = Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(queries, &plan);
        assert_eq!(res.metrics.completed, 2, "retry must recover the victim");
        assert_eq!(res.metrics.retries, 1);
        assert_eq!(res.metrics.faults_injected, 1);
        assert!(
            res.metrics.makespan.0 > clean.metrics.makespan.0,
            "lost work plus backoff must cost time"
        );
        for (o, exp) in res.outcomes.iter().zip(&expected) {
            assert_eq!(&o.completed().unwrap().report.result, exp);
        }
    }

    #[test]
    fn exhausted_retries_descend_once_to_cpu_partitioned() {
        // `MAX_RETRIES + 1` kernel faults, each striking the lone query
        // half-way through a fresh Triton attempt, exhaust its retries.
        // A skew-aware query lands on the same rung: the skew policy is
        // not a rung of its own.
        let skew_aware = Operator::Triton(TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        });
        for op in [Operator::triton(), skew_aware] {
            let mut q = batch(1, 0.0).remove(0);
            q.op = op;
            let expected = reference_join(&q.workload);
            let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(vec![q.clone()]);
            let run = clean.metrics.makespan;
            // Attempt k + 1 starts once retry k's backoff has elapsed.
            let mut plan = FaultPlan::with_seed(7);
            let mut start = Ns::ZERO;
            for attempt in 0..=MAX_RETRIES {
                let strike = start + run * 0.5;
                plan = plan.kernel_fault(strike);
                start = strike + backoff(QueryId(0), attempt);
            }
            let res =
                Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(vec![q], &plan);
            let done = res.outcomes[0]
                .completed()
                .expect("retries recover the query");
            assert_eq!(done.operator, "cpu-part");
            assert_eq!(done.fault.downgrades, 1, "{:?}", done.fault);
            assert_eq!(done.fault.retries, MAX_RETRIES + 1, "{:?}", done.fault);
            assert_eq!(done.report.result, expected);
        }
    }

    #[test]
    fn no_resilience_sheds_the_kernel_fault_victim() {
        let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2, 0.0));
        let plan = FaultPlan::with_seed(11).kernel_fault(Ns(clean.metrics.makespan.0 * 0.5));
        let res = Scheduler::new(hw(), SchedulerConfig::no_resilience())
            .run_with_faults(batch(2, 0.0), &plan);
        assert_eq!(res.metrics.shed_faulted, 1);
        assert_eq!(res.metrics.completed, 1);
        // The two retry counts differ by definition: the metric is per
        // outcome (the lost query's one retry), the registry counter per
        // re-queue (none without resilience).
        assert_eq!(res.metrics.retries, 1);
        assert_eq!(res.telemetry.counter("sched.retries"), 0);
        let lost = res
            .outcomes
            .iter()
            .find_map(Outcome::rejection)
            .expect("one query must be lost");
        assert!(lost.to_string().contains("kernel-fault"), "{lost}");
    }
}
