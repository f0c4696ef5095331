//! Foreign-key distributions beyond uniform.
//!
//! The paper evaluates uniform foreign keys (Section 6.1) and motivates
//! robustness with the observation that "cardinality estimates can be
//! significantly wrong" (Section 1). A skewed probe side is the classic
//! way such estimates go wrong in practice, so the reproduction also
//! ships a Zipf generator: it exercises the Triton join's robustness the
//! same way the paper's cache sweeps do — some partitions become much
//! larger than planned.

use crate::rng::{Rng, UNIT_53};

/// A Zipf(θ) sampler over `1..=n` by CDF inversion: value `k` has
/// probability proportional to `1 / k^θ`.
///
/// A draw is the first CDF entry at or above a uniform `u`, found in
/// constant expected time through a guide table (Chen & Asau's indexed
/// search). The table splits `[0, 1)` into `m = n.next_power_of_two()`
/// equal buckets; the top bits of the 53-bit draw name the bucket, and
/// its two guide entries bracket the answer, so a binary search over the
/// bracket returns exactly what a search over the whole CDF would (see
/// `DESIGN.md` §5, "Exact Zipf sampling").
///
/// ```
/// use triton_datagen::Zipf;
/// use triton_datagen::Rng;
/// let z = Zipf::new(100, 1.0);
/// let mut rng = Rng::seed_from_u64(7);
/// let v = z.sample(&mut rng);
/// assert!((1..=100).contains(&v));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]`: the first index `i` with `cdf[i] >= t_j`, capped at
    /// `n - 1`, where `t_j = (j << shift) * 2^-53` is the smallest
    /// uniform in bucket `j`. `m + 1` entries.
    guide: Vec<u32>,
    /// `53 - log2(m)`: a 53-bit draw's bucket is `x >> shift`.
    shift: u32,
}

impl Zipf {
    /// Build a sampler over `1..=n` with exponent `theta` (0 = uniform,
    /// ~1 = heavily skewed).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "domain must be non-empty");
        assert!(theta >= 0.0, "theta must be non-negative");
        assert!(u32::try_from(n - 1).is_ok(), "domain exceeds u32 indices");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }

        // One merge pass: bucket starts and CDF entries both ascend.
        let m = n.next_power_of_two();
        let shift = 53 - m.trailing_zeros();
        let mut guide = Vec::with_capacity(m + 1);
        let mut i = 0;
        for j in 0..=m as u64 {
            let t = (j << shift) as f64 * UNIT_53;
            while i < n - 1 && cdf[i] < t {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { cdf, guide, shift }
    }

    /// Sample one value in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.index(rng.next_u53()) + 1
    }

    /// Zero-based index drawn by the 53-bit uniform `x`: the first `i`
    /// with `cdf[i] >= x * 2^-53`, capped at `n - 1`.
    fn index(&self, x: u64) -> u64 {
        let u = x as f64 * UNIT_53;
        let j = (x >> self.shift) as usize;
        let mut lo = self.guide[j] as usize;
        let mut hi = self.guide[j + 1] as usize;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-CDF binary search the guide table replaced: the first
    /// index with `cdf >= u`, or `n - 1` when there is none.
    fn oracle(z: &Zipf, x: u64) -> u64 {
        let u = x as f64 * UNIT_53;
        let mut lo = 0usize;
        let mut hi = z.cdf.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if z.cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }

    #[test]
    fn guided_draws_equal_full_search() {
        for n in [1, 2, 3, 7, 1000, 62_500, 500_000] {
            for theta in [0.0, 0.25, 1.0, 1.5, 3.0, 50.0] {
                let z = Zipf::new(n, theta);
                let mut rng = Rng::seed_from_u64(n as u64);
                for _ in 0..100_000 {
                    let x = rng.next_u53();
                    assert_eq!(z.index(x), oracle(&z, x), "n {n} theta {theta} x {x}");
                }
            }
        }
    }

    #[test]
    fn guided_draws_equal_full_search_at_bucket_edges() {
        let top = (1u64 << 53) - 1;
        for n in [1, 2, 3, 7, 1000] {
            for theta in [0.0, 0.25, 1.0, 1.5, 3.0, 50.0] {
                let z = Zipf::new(n, theta);
                let m = z.guide.len() as u64 - 1;
                let edges = (0..m).flat_map(|j| [j << z.shift, ((j + 1) << z.shift) - 1]);
                for x in [0, 1, 1 << 52, top].into_iter().chain(edges) {
                    assert_eq!(z.index(x), oracle(&z, x), "n {n} theta {theta} x {x}");
                }
            }
        }
    }

    #[test]
    fn saturated_cdf_keeps_returning_one() {
        let z = Zipf::new(1000, 50.0);
        let mut rng = Rng::seed_from_u64(5);
        assert!((0..100_000).all(|_| z.sample(&mut rng) == 1));
    }

    #[test]
    fn sample_consumes_the_bits_next_f64_uses() {
        let z = Zipf::new(1000, 1.0);
        let (mut a, mut b) = (Rng::seed_from_u64(6), Rng::seed_from_u64(6));
        for _ in 0..1000 {
            let u = b.next_f64();
            let want = z.cdf.iter().position(|&c| c >= u).unwrap_or(999) as u64 + 1;
            assert_eq!(z.sample(&mut a), want);
        }
    }
    #[test]
    fn samples_within_domain() {
        let z = Zipf::new(100, 0.9);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = z.sample(&mut rng);
            assert!((1..=100).contains(&v));
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[(z.sample(&mut rng) - 1) as usize] += 1;
        }
        for c in counts {
            let dev = (c as f64 - n as f64 / 10.0).abs() / (n as f64 / 10.0);
            assert!(dev < 0.05, "uniform deviation {dev}");
        }
    }

    #[test]
    fn high_theta_concentrates_mass() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::seed_from_u64(3);
        let n = 100_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) <= 10).count();
        // Zipf(1.0) over 1000 values puts ~39% of mass on the top 10.
        let frac = head as f64 / n as f64;
        assert!((0.3..0.5).contains(&frac), "head mass {frac}");
    }

    #[test]
    fn singleton_domain() {
        let z = Zipf::new(1, 1.2);
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 1);
    }
}
