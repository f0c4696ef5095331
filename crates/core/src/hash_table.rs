//! Hash tables used by the joins (Section 6.1 of the paper).
//!
//! * [`BucketChainTable`] — the bucket-chaining scheme of the radix joins:
//!   a fixed 2048-entry bucket array plus a chain of tuple indices, built
//!   per partition in scratchpad memory.
//! * [`LinearProbeTable`] — open addressing at a 50% load factor, used by
//!   the no-partitioning join.
//! * [`PerfectArrayTable`] — the "perfect hashing" array join: primary
//!   keys are dense, so key `k` lives at slot `k - 1`.
//!
//! All tables are functional; the joins charge their *accesses* against
//! the hardware model, using the per-operation access counts these tables
//! report.

use triton_datagen::{multiply_shift, table_slot};

/// Hashing scheme selector (the paper's three variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashScheme {
    /// Bucket chaining with 2048 buckets (radix joins).
    BucketChaining,
    /// Linear probing at 50% load factor (no-partitioning join).
    LinearProbing,
    /// Perfect/array hashing over dense primary keys.
    Perfect,
}

impl HashScheme {
    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            HashScheme::BucketChaining => "Bucket Chaining",
            HashScheme::LinearProbing => "Linear Probing",
            HashScheme::Perfect => "Perfect",
        }
    }
}

/// Number of buckets in the scratchpad bucket-chaining table
/// (Section 6.1: "a bucket-chaining hash table with 2048 entries").
pub const BUCKET_CHAIN_ENTRIES: usize = 2048;

/// Bucket-chaining hash table over `(key, rid)` pairs.
///
/// `buckets[h]` holds the index of the first tuple in bucket `h`;
/// `next[i]` chains to the following tuple. Indices are offset by one so
/// that 0 means "empty". The table borrows the build partition's columns
/// in place; only the buckets and the chain are its own.
#[derive(Debug, Clone)]
pub struct BucketChainTable<'a> {
    buckets: Vec<u32>,
    next: Vec<u32>,
    keys: &'a [u64],
    rids: &'a [u64],
    mask: u64,
    skip_bits: u32,
}

impl<'a> BucketChainTable<'a> {
    /// Build from a build-side partition. `O(n)`.
    ///
    /// `skip_bits` must be the number of low hash bits the radix
    /// partitioning already consumed: every tuple of a partition shares
    /// those bits, so the bucket index uses the bits *above* them —
    /// otherwise all tuples would collapse into a handful of buckets.
    pub fn build(keys: &'a [u64], rids: &'a [u64], entries: usize, skip_bits: u32) -> Self {
        assert!(entries.is_power_of_two());
        assert!(skip_bits < 64);
        let mut t = BucketChainTable {
            buckets: vec![0; entries],
            next: vec![0; keys.len()],
            keys,
            rids,
            mask: entries as u64 - 1,
            skip_bits,
        };
        for (i, &k) in keys.iter().enumerate() {
            let h = ((multiply_shift(k) >> t.skip_bits) & t.mask) as usize;
            t.next[i] = t.buckets[h];
            t.buckets[h] = i as u32 + 1;
        }
        t
    }

    /// Probe for `key`; returns the rid of the first match plus the number
    /// of chain links traversed (the access count for cost models).
    pub fn probe(&self, key: u64) -> (Option<u64>, u32) {
        let h = ((multiply_shift(key) >> self.skip_bits) & self.mask) as usize;
        let mut cur = self.buckets[h];
        let mut steps = 1; // bucket head access
        while cur != 0 {
            let i = (cur - 1) as usize;
            steps += 1;
            if self.keys[i] == key {
                return (Some(self.rids[i]), steps);
            }
            cur = self.next[i];
        }
        (None, steps)
    }

    /// Iterate all matches for `key` (non-unique build keys).
    pub fn probe_all<'t>(&'t self, key: u64) -> impl Iterator<Item = u64> + 't {
        let h = ((multiply_shift(key) >> self.skip_bits) & self.mask) as usize;
        let mut cur = self.buckets[h];
        std::iter::from_fn(move || {
            while cur != 0 {
                let i = (cur - 1) as usize;
                cur = self.next[i];
                if self.keys[i] == key {
                    return Some(self.rids[i]);
                }
            }
            None
        })
    }

    /// Walk `key`'s chain once: call `on_match` with the rid of every
    /// match, in [`Self::probe_all`] order, and return the step count
    /// [`Self::probe`] reports (bucket head plus the links up to the
    /// first match, or the whole chain when there is none).
    pub fn probe_each(&self, key: u64, mut on_match: impl FnMut(u64)) -> u32 {
        let h = ((multiply_shift(key) >> self.skip_bits) & self.mask) as usize;
        let mut cur = self.buckets[h];
        let mut steps = 1; // bucket head access
        let mut found = false;
        while cur != 0 {
            let i = (cur - 1) as usize;
            if !found {
                steps += 1;
            }
            if self.keys[i] == key {
                found = true;
                on_match(self.rids[i]);
            }
            cur = self.next[i];
        }
        steps
    }

    /// Bytes this table occupies (buckets + chain + tuple columns),
    /// counting the borrowed columns.
    pub fn bytes(&self) -> u64 {
        (self.buckets.len() * 4 + self.next.len() * 4 + self.keys.len() * 16) as u64
    }
}

/// Linear-probing hash table at a configurable load factor.
#[derive(Debug, Clone)]
pub struct LinearProbeTable {
    slots: Vec<(u64, u64)>, // (key+1, rid); key 0 encodes empty
    bits: u32,
    mask: usize,
}

impl LinearProbeTable {
    /// Capacity (slots, a power of two) needed for `n` tuples at
    /// `load_factor`.
    pub fn capacity_for(n: usize, load_factor: f64) -> usize {
        let min = ((n as f64 / load_factor).ceil() as usize).max(2);
        min.next_power_of_two()
    }

    /// Build from the build relation. Returns the table and the total
    /// number of slot accesses performed while inserting.
    pub fn build(keys: &[u64], rids: &[u64], load_factor: f64) -> (Self, u64) {
        let cap = Self::capacity_for(keys.len(), load_factor);
        let bits = cap.trailing_zeros();
        let mut t = LinearProbeTable {
            slots: vec![(0, 0); cap],
            bits,
            mask: cap - 1,
        };
        let mut accesses = 0u64;
        for (&k, &r) in keys.iter().zip(rids) {
            let mut s = table_slot(k, t.bits);
            loop {
                accesses += 1;
                if t.slots[s].0 == 0 {
                    t.slots[s] = (k + 1, r);
                    break;
                }
                s = (s + 1) & t.mask;
            }
        }
        (t, accesses)
    }

    /// Probe for `key`: `(rid if found, slot accesses, slot index probed
    /// first)`.
    pub fn probe(&self, key: u64) -> (Option<u64>, u32, usize) {
        let first = table_slot(key, self.bits);
        let mut s = first;
        let mut accesses = 0;
        loop {
            accesses += 1;
            let (k1, r) = self.slots[s];
            if k1 == key + 1 {
                return (Some(r), accesses, first);
            }
            if k1 == 0 {
                return (None, accesses, first);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Slot index of the first probe for `key` (for address modelling).
    pub fn first_slot(&self, key: u64) -> usize {
        table_slot(key, self.bits)
    }

    /// Table size in bytes (16-byte slots).
    pub fn bytes(&self) -> u64 {
        self.slots.len() as u64 * 16
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Perfect/array hash table: dense primary keys `1..=n` map to slot
/// `key - 1`.
#[derive(Debug, Clone)]
pub struct PerfectArrayTable {
    rids: Vec<u64>,
    present: Vec<bool>,
}

impl PerfectArrayTable {
    /// Build from the build relation (keys must lie in `1..=n_max`).
    pub fn build(keys: &[u64], rids: &[u64], n_max: usize) -> Self {
        let mut t = PerfectArrayTable {
            rids: vec![0; n_max],
            present: vec![false; n_max],
        };
        for (&k, &r) in keys.iter().zip(rids) {
            let i = (k - 1) as usize;
            t.rids[i] = r;
            t.present[i] = true;
        }
        t
    }

    /// Probe for `key`: exactly one access.
    pub fn probe(&self, key: u64) -> Option<u64> {
        let i = (key - 1) as usize;
        if i < self.rids.len() && self.present[i] {
            Some(self.rids[i])
        } else {
            None
        }
    }

    /// Slot index of `key`.
    pub fn slot(&self, key: u64) -> usize {
        (key - 1) as usize
    }

    /// Table size in bytes (16 bytes per dense slot).
    pub fn bytes(&self) -> u64 {
        self.rids.len() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_chain_finds_all_keys() {
        let keys: Vec<u64> = (1..=500).collect();
        let rids: Vec<u64> = keys.iter().map(|k| k * 10).collect();
        let t = BucketChainTable::build(&keys, &rids, 256, 0);
        for &k in &keys {
            let (r, steps) = t.probe(k);
            assert_eq!(r, Some(k * 10));
            assert!(steps >= 2);
        }
        assert_eq!(t.probe(9999).0, None);
    }

    #[test]
    fn bucket_chain_probe_all_duplicates() {
        let keys = vec![7, 7, 7, 8];
        let rids = vec![1, 2, 3, 4];
        let t = BucketChainTable::build(&keys, &rids, 8, 0);
        let mut all: Vec<u64> = t.probe_all(7).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
        assert_eq!(t.probe_all(9).count(), 0);
    }

    #[test]
    fn probe_each_matches_probe_and_probe_all() {
        // Duplicates, uniques and a small bucket array so chains are long.
        let keys: Vec<u64> = (1..=300).chain([7, 7, 42]).collect();
        let rids: Vec<u64> = (0..keys.len() as u64).collect();
        let t = BucketChainTable::build(&keys, &rids, 16, 0);
        for k in [1, 7, 42, 150, 300, 301, 9999] {
            let mut seen = Vec::new();
            let steps = t.probe_each(k, |r| seen.push(r));
            assert_eq!(steps, t.probe(k).1, "steps for key {k}");
            assert_eq!(
                seen,
                t.probe_all(k).collect::<Vec<_>>(),
                "matches for key {k}"
            );
        }
    }

    #[test]
    fn linear_probe_roundtrip_and_load_factor() {
        let keys: Vec<u64> = (1..=1000).collect();
        let rids: Vec<u64> = keys.iter().map(|k| k + 5).collect();
        let (t, build_acc) = LinearProbeTable::build(&keys, &rids, 0.5);
        assert!(t.capacity() >= 2000);
        assert!(t.capacity().is_power_of_two());
        // At 50% load, average probe length should be short.
        assert!(build_acc < 2500, "build accesses {build_acc}");
        let mut probe_acc = 0u64;
        for &k in &keys {
            let (r, acc, _) = t.probe(k);
            assert_eq!(r, Some(k + 5));
            probe_acc += acc as u64;
        }
        let avg = probe_acc as f64 / keys.len() as f64;
        assert!(avg < 2.5, "avg probe length {avg}");
        assert_eq!(t.probe(123456).0, None);
    }

    #[test]
    fn linear_probe_capacity_rounds_to_power_of_two() {
        assert_eq!(LinearProbeTable::capacity_for(1000, 0.5), 2048);
        assert_eq!(LinearProbeTable::capacity_for(1024, 0.5), 2048);
        assert_eq!(LinearProbeTable::capacity_for(1025, 0.5), 4096);
    }

    #[test]
    fn perfect_table_is_exact() {
        let keys: Vec<u64> = vec![3, 1, 4, 2];
        let rids: Vec<u64> = vec![30, 10, 40, 20];
        let t = PerfectArrayTable::build(&keys, &rids, 6);
        assert_eq!(t.probe(1), Some(10));
        assert_eq!(t.probe(4), Some(40));
        assert_eq!(t.probe(5), None);
        assert_eq!(t.probe(6), None);
        assert_eq!(t.bytes(), 96);
    }

    #[test]
    fn table_sizes_match_paper_ratio() {
        // Section 6.2.2: at 2048 M tuples linear probing needs 64 GiB vs
        // 30.5 GiB for perfect hashing (2x from the load factor, rounded
        // up to a power of two).
        let n = 1 << 20;
        let keys: Vec<u64> = (1..=n as u64).collect();
        let rids = keys.clone();
        let (lp, _) = LinearProbeTable::build(&keys, &rids, 0.5);
        let pf = PerfectArrayTable::build(&keys, &rids, n);
        assert_eq!(lp.bytes(), 2 * pf.bytes());
    }
}
