//! In-tree pseudo-random number generation (no external dependencies).
//!
//! The workspace must build with zero network access, so instead of the
//! `rand` crate the generators use SplitMix64 for seeding and
//! xoshiro256** for the stream — the same algorithms `rand`'s `SmallRng`
//! family builds on (Blackman & Vigna, "Scrambled linear pseudorandom
//! number generators"). Deterministic for a given seed, which every
//! workload spec relies on for reproducibility.

/// `2^-53`: scales a [`Rng::next_u53`] draw into `[0, 1)`. Both factors
/// are exact, so the product is the exact value `x / 2^53`.
pub(crate) const UNIT_53: f64 = 1.0 / (1u64 << 53) as f64;

/// SplitMix64 step: used to expand a 64-bit seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** generator: fast, full 256-bit state, passes BigCrush.
///
/// ```
/// use triton_datagen::Rng;
/// let mut rng = Rng::seed_from_u64(7);
/// let v = rng.gen_range_u64(1, 100);
/// assert!((1..=100).contains(&v));
/// assert_eq!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(7).next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed deterministically from a single 64-bit value.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; SplitMix64 cannot
        // produce four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, 2^53)`: the top 53 bits of one
    /// [`Self::next_u64`] draw, exactly the bits [`Self::next_f64`]
    /// scales by `2^-53`. Samplers that need the draw as both an
    /// integer and a float call this once and scale it themselves.
    #[inline]
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.next_u53() as f64 * UNIT_53
    }

    /// Uniform integer in the inclusive range `[lo, hi]`, via Lemire's
    /// nearly-divisionless bounded sampling (unbiased).
    #[inline]
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let bound = span + 1;
        // Rejection sampling over the biased tail of the 128-bit product.
        let mut m = (self.next_u64() as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
                low = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform index in `[0, n)`; `n` must be non-zero.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.gen_range_u64(0, n as u64 - 1) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..32)
            .map({
                let mut r = Rng::seed_from_u64(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..32)
            .map({
                let mut r = Rng::seed_from_u64(42);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c = Rng::seed_from_u64(43).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn range_is_inclusive_and_unbiased_enough() {
        let mut r = Rng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            let v = r.gen_range_u64(5, 14);
            assert!((5..=14).contains(&v));
            counts[(v - 5) as usize] += 1;
        }
        for c in counts {
            let dev = (c as f64 - n as f64 / 10.0).abs() / (n as f64 / 10.0);
            assert!(dev < 0.05, "uniform deviation {dev}");
        }
    }

    #[test]
    fn float_in_unit_interval() {
        let mut r = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(3);
        let mut v: Vec<u64> = (0..1000).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u64>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }
}
