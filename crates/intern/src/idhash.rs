//! A fast, deterministic hasher for maps keyed by interned ids.
//!
//! The search phases key their hot tables by small dense integers: succinct
//! type ids, environment ids, symbols, goal ids, or tuples of those. The
//! standard library's SipHash is built to resist adversarial keys, which such
//! keys can never be: every id is handed out by one of our own interners.
//! [`IdHasher`] trades that resistance for a single multiply per word.
//!
//! # Example
//!
//! ```
//! use insynth_intern::{IdHashMap, Symbol};
//!
//! let mut weights: IdHashMap<Symbol, u32> = IdHashMap::default();
//! weights.insert(Symbol::from_index(7), 3);
//! assert_eq!(weights[&Symbol::from_index(7)], 3);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An Fx-style multiplicative hasher for **fixed-width id keys only**.
///
/// Use it for keys made of `u32`/`u64`-sized ids that our own interners hand
/// out: [`Id`](crate::Id), [`Symbol`](crate::Symbol), and tuples or plain
/// structs of those. Each word is folded in with one rotate, xor and
/// multiply, and the result is the same in every run and on every machine.
///
/// Never use it for strings, simple-type trees or variable-length id lists.
/// Such keys hash as many words plus a length, so one multiply per word mixes
/// them poorly, and their contents can come from outside the process:
/// declaration names and types arrive from server clients. A client that
/// knows the fixed function could then choose colliding keys and make every
/// lookup linear. Those maps keep the standard library's randomly keyed
/// SipHash.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

/// The 64-bit multiplier of the Fx hash (an odd constant, so the multiply is
/// a bijection and consecutive ids land in distinct low-bit buckets).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
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
        self.hash
    }
}

/// A `HashMap` keyed by fixed-width ids, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of fixed-width ids, hashed with [`IdHasher`].
pub type IdHashSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Symbol;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_are_deterministic_across_runs() {
        // Pinned values: a change here would make id-keyed map iteration
        // differ between builds, so it must be deliberate.
        assert_eq!(hash_of(&0u32), 0);
        assert_eq!(hash_of(&1u32), SEED);
        assert_eq!(hash_of(&Symbol::from_index(1)), SEED);
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
        assert_eq!(
            hash_of(&(1u32, 2u32)),
            (SEED.rotate_left(5) ^ 2).wrapping_mul(SEED)
        );
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // Maps index buckets by the low bits and tag slots with the top 7
        // bits; sequential ids must spread over both.
        let ids = 0u32..4096;
        let low: HashSet<u64> = ids.clone().map(|i| hash_of(&i) & 4095).collect();
        assert_eq!(low.len(), 4096, "sequential ids collide in the low bits");
        let top: HashSet<u64> = ids.clone().map(|i| hash_of(&i) >> 57).collect();
        assert_eq!(top.len(), 128, "sequential ids miss some top-7-bit tags");
        let pairs: HashSet<u64> = (0u32..64)
            .flat_map(|env| (0u32..64).map(move |sym| hash_of(&(env, sym)) & 4095))
            .collect();
        assert!(
            pairs.len() > 2048,
            "id pairs crowd into {} buckets",
            pairs.len()
        );
    }

    #[test]
    fn id_maps_behave_like_std_maps() {
        let mut map: IdHashMap<(u32, u32), usize> = IdHashMap::default();
        let mut set: IdHashSet<u32> = IdHashSet::default();
        for i in 0..1000u32 {
            map.insert((i, i * 7), i as usize);
            set.insert(i % 10);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&(999, 6993)], 999);
        assert_eq!(set.len(), 10);
    }
}
