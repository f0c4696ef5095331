//! Workload construction (Section 6.1 of the paper).
//!
//! The default workload scales |R| = |S| ∈ {128, 512, 2048} million tuples
//! at paper scale; a [`WorkloadSpec`] expresses sizes in *modeled* million
//! tuples and divides by the capacity scale factor K to obtain the actual
//! tuple counts executed functionally. Build-to-probe ratios (Fig 21) and
//! wide tuples (Fig 22) are parameters of the spec.

use crate::distributions::Zipf;
use crate::relation::Relation;
use crate::rng::Rng;

/// One million, the paper's workload unit.
pub const M: u64 = 1_000_000;

/// Specification of an R ⋈ S workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Build-relation cardinality in *modeled* tuples (paper scale).
    pub r_tuples_modeled: u64,
    /// Probe-relation cardinality in modeled tuples.
    pub s_tuples_modeled: u64,
    /// Capacity scale factor K; actual tuples = modeled / K.
    pub scale: u64,
    /// Extra 8-byte payload attributes on S (Fig 22).
    pub payload_cols: usize,
    /// Zipf exponent of the foreign-key distribution (0 = the paper's
    /// uniform default; larger values skew the probe side towards hot
    /// build keys — the robustness scenario of Section 1).
    pub zipf_theta: f64,
    /// Fraction of probe tuples that find a match (1.0 = the paper's
    /// FK-join default). Lower values draw the remainder from a disjoint
    /// key range — the selective-join scenario where Bloom-filter
    /// pre-filtering (Section 7, "filtering the outer relation") pays.
    pub match_fraction: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's default workload: |R| = |S| = `m_tuples` million
    /// modeled tuples at scale `k`.
    pub fn paper_default(m_tuples: u64, k: u64) -> Self {
        WorkloadSpec {
            r_tuples_modeled: m_tuples * M,
            s_tuples_modeled: m_tuples * M,
            scale: k,
            payload_cols: 0,
            zipf_theta: 0.0,
            match_fraction: 1.0,
            seed: 0x0712_1701,
        }
    }

    /// Skewed variant: uniform build side, Zipf(θ) foreign keys.
    pub fn skewed(m_tuples: u64, theta: f64, k: u64) -> Self {
        WorkloadSpec {
            zipf_theta: theta,
            ..Self::paper_default(m_tuples, k)
        }
    }

    /// Build-to-probe ratio variant (Fig 21): total modeled tuples stay at
    /// `2 * m_tuples` million while R:S = 1:`ratio`.
    pub fn with_ratio(m_tuples: u64, ratio: u64, k: u64) -> Self {
        let total = 2 * m_tuples * M;
        let r = total / (ratio + 1);
        WorkloadSpec {
            r_tuples_modeled: r,
            s_tuples_modeled: total - r,
            scale: k,
            payload_cols: 0,
            zipf_theta: 0.0,
            match_fraction: 1.0,
            seed: 0x0712_1702,
        }
    }

    /// Selective-join variant: only `fraction` of probe tuples match.
    pub fn selective(m_tuples: u64, fraction: f64, k: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        WorkloadSpec {
            match_fraction: fraction,
            ..Self::paper_default(m_tuples, k)
        }
    }

    /// Actual build-side tuples executed functionally.
    pub fn r_tuples(&self) -> usize {
        (self.r_tuples_modeled / self.scale).max(1) as usize
    }

    /// Actual probe-side tuples executed functionally.
    pub fn s_tuples(&self) -> usize {
        (self.s_tuples_modeled / self.scale).max(1) as usize
    }

    /// Generate the workload.
    pub fn generate(&self) -> Workload {
        let mut rng = Rng::seed_from_u64(self.seed);
        let n_r = self.r_tuples();
        let n_s = self.s_tuples();

        // R: shuffled unique primary keys 1..=|R|, random record ids.
        let mut r_keys: Vec<u64> = (1..=n_r as u64).collect();
        rng.shuffle(&mut r_keys);
        let r_rids: Vec<u64> = (0..n_r).map(|_| rng.next_u64()).collect();

        // S: foreign keys in [1, |R|] — uniform by default, Zipf when a
        // skew exponent is configured. Non-matching probes (when
        // `match_fraction` < 1) draw from the disjoint range above |R|.
        let zipf = (self.zipf_theta > 0.0).then(|| Zipf::new(n_r, self.zipf_theta));
        let s_keys: Vec<u64> = (0..n_s)
            .map(|_| {
                if self.match_fraction < 1.0 && rng.next_f64() >= self.match_fraction {
                    rng.gen_range_u64(n_r as u64 + 1, 2 * n_r as u64)
                } else if let Some(z) = &zipf {
                    z.sample(&mut rng)
                } else {
                    rng.gen_range_u64(1, n_r as u64)
                }
            })
            .collect();
        let s_rids: Vec<u64> = (0..n_s).map(|_| rng.next_u64()).collect();

        let payload: Vec<Vec<u64>> = (0..self.payload_cols)
            .map(|_| (0..n_s).map(|_| rng.next_u64()).collect())
            .collect();

        Workload {
            r: Relation::from_columns(r_keys, r_rids),
            s: Relation::with_payload(s_keys, s_rids, payload),
            spec: self.clone(),
        }
    }
}

/// A generated R ⋈ S workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Build (inner) relation with unique primary keys.
    pub r: Relation,
    /// Probe (outer) relation with foreign keys into R.
    pub s: Relation,
    /// The spec that produced it.
    pub spec: WorkloadSpec,
}

impl Workload {
    /// Total actual tuples (|R| + |S|), the numerator of the paper's
    /// throughput metric.
    pub fn total_tuples(&self) -> u64 {
        (self.r.len() + self.s.len()) as u64
    }

    /// Total modeled tuples at paper scale.
    pub fn total_tuples_modeled(&self) -> u64 {
        self.spec.r_tuples_modeled + self.spec.s_tuples_modeled
    }

    /// Total modeled data volume in bytes at paper scale (base columns).
    pub fn total_bytes_modeled(&self) -> u64 {
        self.total_tuples_modeled() * crate::relation::TUPLE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn r_keys_are_unique_permutation() {
        let w = WorkloadSpec::paper_default(1, 10).generate();
        let n = w.r.len() as u64;
        let set: HashSet<u64> = w.r.keys.iter().copied().collect();
        assert_eq!(set.len() as u64, n);
        assert_eq!(*w.r.keys.iter().min().unwrap(), 1);
        assert_eq!(*w.r.keys.iter().max().unwrap(), n);
        // Shuffled: not the identity permutation.
        assert!(w.r.keys.windows(2).any(|p| p[0] > p[1]));
    }

    #[test]
    fn s_keys_reference_r() {
        let w = WorkloadSpec::paper_default(1, 10).generate();
        let n = w.r.len() as u64;
        assert!(w.s.keys.iter().all(|&k| (1..=n).contains(&k)));
    }

    #[test]
    fn s_keys_roughly_uniform() {
        let w = WorkloadSpec::paper_default(2, 10).generate();
        let n = w.r.len();
        let mut counts = [0u32; 11];
        for &k in &w.s.keys {
            counts[((k - 1) as usize * 10 / n).min(10)] += 1;
        }
        let expected = w.s.len() as f64 / 10.0;
        for c in &counts[..10] {
            let dev = (*c as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "decile deviates {dev}");
        }
    }

    #[test]
    fn ratio_splits_total() {
        let spec = WorkloadSpec::with_ratio(128, 32, 1);
        assert_eq!(spec.r_tuples_modeled + spec.s_tuples_modeled, 2 * 128 * M);
        let ratio = spec.s_tuples_modeled as f64 / spec.r_tuples_modeled as f64;
        assert!((ratio - 32.0).abs() < 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WorkloadSpec::paper_default(1, 100).generate();
        let b = WorkloadSpec::paper_default(1, 100).generate();
        assert_eq!(a.r.keys, b.r.keys);
        assert_eq!(a.s.keys, b.s.keys);
    }

    #[test]
    fn payload_columns_generated() {
        let mut spec = WorkloadSpec::paper_default(1, 100);
        spec.payload_cols = 4;
        let w = spec.generate();
        assert_eq!(w.s.payload_cols.len(), 4);
        assert!(w.s.payload_cols.iter().all(|c| c.len() == w.s.len()));
    }

    #[test]
    fn selective_spec_reduces_matches() {
        let w = WorkloadSpec::selective(1, 0.25, 100).generate();
        let n = w.r.len() as u64;
        let matching = w.s.keys.iter().filter(|&&k| k <= n).count() as f64;
        let frac = matching / w.s.len() as f64;
        assert!((0.2..0.3).contains(&frac), "match fraction {frac}");
        // Non-matching keys stay within the documented disjoint range.
        assert!(w.s.keys.iter().all(|&k| k >= 1 && k <= 2 * n));
    }

    #[test]
    fn skewed_spec_concentrates_keys() {
        let uniform = WorkloadSpec::paper_default(1, 100).generate();
        let skewed = WorkloadSpec::skewed(1, 1.0, 100).generate();
        let head_count = |w: &Workload| {
            let head = (w.r.len() / 100).max(1) as u64;
            w.s.keys.iter().filter(|&&k| k <= head).count()
        };
        assert!(
            head_count(&skewed) > head_count(&uniform) * 3,
            "skew must concentrate probes on hot keys"
        );
    }

    #[test]
    fn modeled_vs_actual_scale() {
        let spec = WorkloadSpec::paper_default(128, 256);
        assert_eq!(spec.r_tuples(), (128 * M / 256) as usize);
        let w = spec.generate();
        assert_eq!(w.total_tuples_modeled(), 2 * 128 * M);
    }
}
