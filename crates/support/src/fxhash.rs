//! A fixed, fast, non-cryptographic hasher for small integer keys.
//!
//! The multiply–rotate scheme of rustc's `FxHasher`: each word is folded
//! into the state with one rotate, one xor and one multiply, and `finish`
//! rotates the well-mixed high bits of the last product down to the low
//! bits a hash table indexes by (a product's low bits depend only on its
//! inputs' low bits). It is not DoS-resistant, so use it only for keys
//! the program mints itself (node ids, watcher variants), never for bytes
//! read from a client. The seed is fixed, so iteration order is the same
//! on every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state; build sets with [`FxHashSet`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
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
        self.hash.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn hashing_is_fixed_and_spreads_small_keys() {
        assert_eq!(hash_of(&7u32), hash_of(&7u32));
        let hashes: HashSet<u64> = (0u32..1000).map(|n| hash_of(&n)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn set_deduplicates() {
        let mut set: FxHashSet<(u32, u16)> = FxHashSet::default();
        assert!(set.insert((3, 1)));
        assert!(!set.insert((3, 1)));
        assert!(set.insert((1, 3)));
        assert_eq!(set.len(), 2);
    }
}
