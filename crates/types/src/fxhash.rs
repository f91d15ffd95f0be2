//! A fast, deterministic hasher for simulator-internal tables.
//!
//! `std`'s default `RandomState` is seeded per process, which is fine for
//! correctness but (a) costs SipHash rounds on every lookup in the engine's
//! hottest paths (page tables, residency maps) and (b) makes iteration order
//! vary between runs, which deterministic code must never rely on.  This
//! module provides the classic Fx multiply-rotate hash (as used by rustc):
//! not DoS-resistant, but extremely cheap and the same in every process.
//!
//! Use it only for tables whose keys come from the simulation itself (page
//! numbers, identifiers) — never for attacker-controlled input.

// This module is the one sanctioned home for the std hash tables: they are
// re-exported below with the fixed-seed FxBuildHasher (clippy.toml bans them
// with the default RandomState everywhere else).
#![allow(
    clippy::disallowed_types,
    reason = "the std tables are re-exported below with the fixed-seed FxBuildHasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher.  Deterministic across processes and runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// The `BuildHasher` for [`FxHasher`]; `Default` yields the zero state, so
/// equal keys hash equally in every process.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one(0x1234_5678_u64);
        let b = FxBuildHasher::default().hash_one(0x1234_5678_u64);
        assert_eq!(a, b);
        assert_ne!(a, FxBuildHasher::default().hash_one(0x1234_5679_u64));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        m.insert(1 << 40, "big");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&(1 << 40)), Some(&"big"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn byte_writes_match_word_writes_for_exact_chunks() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
