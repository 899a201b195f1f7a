//! A fixed, fast hasher for the simulator's integer-keyed maps.
//!
//! std's default `RandomState` runs SipHash with a per-process key, and
//! its `Hasher::write_u64` is not always inlined into the lookup, so every
//! controller and checker map access can pay a function call. The hot
//! maps here are keyed by one small integer (a block or word address, an
//! op id), all produced inside the simulator, so a multiply-rotate hash in
//! the style of rustc's FxHash suffices. Being unkeyed, it also gives the
//! same iteration order in every process. Keep std's hasher for keys that
//! come from outside the program: this one has no defence against keys
//! crafted to collide.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: one rotate, xor and multiply per written word.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identically_filled_maps_iterate_identically() {
        let fill = || {
            let mut m: FxMap<u64, u64> = FxMap::default();
            for k in 0..256u64 {
                m.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
            }
            m
        };
        let (a, b) = (fill(), fill());
        assert!(a.iter().eq(b.iter()));
    }
}
