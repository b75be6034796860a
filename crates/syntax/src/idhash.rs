//! A small deterministic hasher for tables keyed by program-internal ids.
//!
//! The analysis keeps large hash tables keyed by [`NodeId`](crate::NodeId)s
//! and by keys built from node ids, symbols and abstract values. Their keys
//! are made by the program, not read from outside it, so they need no
//! protection against crafted collisions, and SipHash (the std default)
//! is wasted work on them. [`IdHasher`] is one multiply-and-rotate per
//! word, in the style of the Fx hasher. Keep the std default for any table
//! keyed by outside input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-and-rotate hasher for program-internal keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s.
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by program-internal ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildIdHasher::default().hash_one(t)
    }

    #[test]
    fn deterministic_and_spreads_small_ids() {
        assert_eq!(hash(&7u32), hash(&7u32));
        let hashes: std::collections::HashSet<u64> = (0u32..10_000).map(|i| hash(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_tails_count() {
        assert_ne!(hash(&"abcdefgh1"), hash(&"abcdefgh2"));
        assert_ne!(hash(&"ab"), hash(&"ba"));
    }
}
