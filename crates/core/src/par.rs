//! Fork-join host parallelism for the simulator's independent work.
//!
//! The Triton join is built from independent units (Section 5.1): R and
//! S are partitioned separately in the first pass, and every partition
//! pair runs its own second-pass/join lane. [`join`] runs two such units
//! on two host threads. It only changes how long the *simulator* takes:
//! the two closures share no mutable state, and the caller folds both
//! results on its own thread in submission order (`a` before `b`), so
//! answers, simulated times and byte pins do not depend on how the OS
//! schedules the two threads.

use std::sync::OnceLock;

/// Host tuples a join must read before forking pays. Starting and
/// joining a scoped thread costs about 20 µs, and one join forks three
/// times. On a 2-vCPU Linux host a forked join took 14% longer than the
/// serial one at 31 250 tuples (0.39 ms, the size of the serving
/// scheduler's pricing joins at K = 512) and 36% less at 62 500. The
/// floor is the next power of two, so the pricing joins stay serial
/// with a twofold margin.
const FORK_FLOOR_TUPLES: usize = 1 << 16;

/// Host CPUs this process may use, read once: on Linux
/// `available_parallelism` reads cgroup files on every call.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether work over `tuples` host tuples is worth a second thread.
pub(crate) fn worth_forking(tuples: usize) -> bool {
    tuples >= FORK_FLOOR_TUPLES && host_cpus() > 1
}

/// Run `a` and `b` and return both results in that order. With `fork`,
/// `b` runs on a scoped worker while `a` runs inline; without it, `a`
/// then `b` run inline, exactly as sequential code would. A panic in
/// either closure propagates to the caller.
pub(crate) fn join<RA, RB>(
    fork: bool,
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RB: Send,
{
    if !fork {
        let ra = a();
        return (ra, b());
    }
    // triton-lint: allow(d3) -- both results are folded by the caller in submission order, so nothing observable depends on thread scheduling
    std::thread::scope(|s| {
        let worker = s.spawn(b);
        let ra = a();
        let rb = worker
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order_either_way() {
        for fork in [false, true] {
            let data: Vec<u64> = (0..1000).collect();
            let (lo, hi) = join(
                fork,
                || data[..500].iter().sum::<u64>(),
                || data[500..].iter().sum::<u64>(),
            );
            assert_eq!((lo, hi), (124_750, 374_750));
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| join(true, || 1, || -> u32 { panic!("worker") }));
        let msg = caught.unwrap_err();
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"worker"));
    }

    #[test]
    fn small_work_never_forks() {
        assert!(!worth_forking(FORK_FLOOR_TUPLES - 1));
        assert_eq!(worth_forking(FORK_FLOOR_TUPLES), host_cpus() > 1);
    }
}
