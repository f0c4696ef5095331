//! Columnar relations of 16-byte `<key, record-id>` tuples.
//!
//! Section 6.1 of the paper: two base relations R and S of 16-byte tuples
//! stored column-oriented; R holds randomly shuffled unique primary keys,
//! S references them with uniformly distributed foreign keys; record-ids
//! are random values. Fig 22 additionally attaches up to 16 extra 8-byte
//! payload attributes for the tuple-width experiment.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Bytes per base tuple (8-byte key + 8-byte record id).
pub const TUPLE_BYTES: u64 = 16;

/// Bytes per key (one column entry).
pub const KEY_BYTES: u64 = 8;

/// Bytes per extra payload attribute.
pub const PAYLOAD_BYTES: u64 = 8;

/// An immutable, shared, content-addressed column of 8-byte words.
///
/// Clones share one allocation, and the column dereferences to `[u64]`
/// but never mutably, so its content is fixed at construction. That is
/// what makes [`Column::digest`] safe to compute once and keep: no
/// clone or reassigned field can ever carry a stale digest.
#[derive(Clone, Default)]
pub struct Column(Arc<ColumnData>);

#[derive(Default)]
struct ColumnData {
    words: Vec<u64>,
    digest: OnceLock<u128>,
}

impl Column {
    /// Wrap `words` without copying them.
    pub fn new(words: Vec<u64>) -> Self {
        Column(Arc::new(ColumnData {
            words,
            digest: OnceLock::new(),
        }))
    }

    /// 128-bit digest of the column's length and every word, computed
    /// on first request and shared by every clone. Columns that are
    /// never asked (the standalone join paths) never pay for it.
    pub fn digest(&self) -> u128 {
        *self.0.digest.get_or_init(|| {
            let mut d = Digest::default();
            // Length first: concatenation across columns cannot alias.
            d.eat(self.len() as u64);
            for &v in self.iter() {
                d.eat(v);
            }
            d.finish()
        })
    }

    /// The digest if some clone of this column already computed it.
    pub fn cached_digest(&self) -> Option<u128> {
        self.0.digest.get().copied()
    }
}

impl Deref for Column {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.0.words
    }
}

impl<'a> IntoIterator for &'a Column {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        **self == **other
    }
}

impl Eq for Column {}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Two-lane multiply–xorshift mixer (splitmix-style per word; a
/// rotation decorrelates the lanes) behind the column and relation
/// digests. It consumes a whole `u64` per step.
struct Digest {
    lo: u64,
    hi: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }
}

impl Digest {
    #[inline]
    fn eat(&mut self, v: u64) {
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 29)
        }
        self.lo = mix(self.lo, v);
        self.hi = mix(self.hi, v.rotate_left(17));
    }

    fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// A column-oriented relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Join-key column.
    pub keys: Column,
    /// Record-id column (the paper's second 8-byte attribute).
    pub rids: Column,
    /// Optional wide-tuple payload columns (Fig 22).
    pub payload_cols: Vec<Column>,
}

impl Relation {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Base bytes (key + rid columns).
    pub fn base_bytes(&self) -> u64 {
        self.len() as u64 * TUPLE_BYTES
    }

    /// Bytes including extra payload columns.
    pub fn total_bytes(&self) -> u64 {
        self.base_bytes() + self.payload_cols.len() as u64 * self.len() as u64 * PAYLOAD_BYTES
    }

    /// Build a relation from parallel key/rid vectors.
    pub fn from_columns(keys: Vec<u64>, rids: Vec<u64>) -> Self {
        Self::with_payload(keys, rids, Vec::new())
    }

    /// Build a relation from parallel key, rid, and payload vectors;
    /// every column must have one entry per tuple.
    pub fn with_payload(keys: Vec<u64>, rids: Vec<u64>, payload_cols: Vec<Vec<u64>>) -> Self {
        assert_eq!(keys.len(), rids.len());
        for col in &payload_cols {
            assert_eq!(col.len(), keys.len(), "payload column length");
        }
        Relation {
            keys: Column::new(keys),
            rids: Column::new(rids),
            payload_cols: payload_cols.into_iter().map(Column::new).collect(),
        }
    }

    /// 128-bit content digest over the column count and every column's
    /// [`Column::digest`], payload columns included. Equal content gives
    /// equal digests whatever the allocations.
    pub fn digest(&self) -> u128 {
        let mut d = Digest::default();
        d.eat(2 + self.payload_cols.len() as u64);
        for col in [&self.keys, &self.rids]
            .into_iter()
            .chain(&self.payload_cols)
        {
            let c = col.digest();
            d.eat(c as u64);
            d.eat((c >> 64) as u64);
        }
        d.finish()
    }

    /// Iterate `(key, rid)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().copied().zip(self.rids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        let r = Relation::from_columns(vec![1, 2, 3], vec![10, 20, 30]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.base_bytes(), 48);
        assert_eq!(r.total_bytes(), 48);
        let r = Relation::with_payload(vec![1, 2, 3], vec![10, 20, 30], vec![vec![0; 3]; 2]);
        assert_eq!(r.total_bytes(), 48 + 2 * 24);
    }

    #[test]
    fn iter_pairs() {
        let r = Relation::from_columns(vec![5, 6], vec![50, 60]);
        let v: Vec<_> = r.iter().collect();
        assert_eq!(v, vec![(5, 50), (6, 60)]);
    }

    #[test]
    #[should_panic]
    fn mismatched_columns_panic() {
        let _ = Relation::from_columns(vec![1], vec![]);
    }

    #[test]
    #[should_panic(expected = "payload column length")]
    fn mismatched_payload_panics() {
        let _ = Relation::with_payload(vec![1, 2], vec![10, 20], vec![vec![0; 2], vec![0]]);
    }

    #[test]
    fn column_debug_matches_the_slice() {
        let c = Column::new(vec![3, 1, 2]);
        assert_eq!(format!("{c:?}"), format!("{:?}", [3u64, 1, 2]));
    }
}
