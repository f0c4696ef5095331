//! Reference join used to verify every operator's functional result.

use triton_datagen::Workload;

use crate::report::JoinResult;

/// Straightforward sort-merge join over `(key, rid)` pairs; the ground
/// truth all simulated operators are checked against. The result is a
/// count and a wrapping sum, so the order matches are found in does not
/// matter.
pub fn reference_join(w: &Workload) -> JoinResult {
    let sorted = |mut pairs: Vec<(u64, u64)>| {
        pairs.sort_unstable();
        pairs
    };
    let r = sorted(w.r.iter().collect());
    let s = sorted(w.s.iter().collect());
    let mut result = JoinResult::empty();
    let mut first = 0;
    for (k, srid) in s {
        // Both sides ascend, so R's run of equal keys only moves forward.
        while r.get(first).is_some_and(|&(rk, _)| rk < k) {
            first += 1;
        }
        for &(_, rrid) in r[first..].iter().take_while(|&&(rk, _)| rk == k) {
            result.add(rrid, srid);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::WorkloadSpec;

    #[test]
    fn fk_join_matches_probe_side_cardinality() {
        let w = WorkloadSpec::paper_default(1, 500).generate();
        let r = reference_join(&w);
        assert_eq!(r.matches, w.s.len() as u64);
    }

    #[test]
    fn empty_probe_side() {
        let mut spec = WorkloadSpec::paper_default(1, 1000);
        spec.s_tuples_modeled = 1; // -> 1 actual tuple minimum
        let w = spec.generate();
        let r = reference_join(&w);
        assert_eq!(r.matches, w.s.len() as u64);
    }
}
