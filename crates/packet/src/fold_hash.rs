//! One fixed multiply-fold hash for the maps a packet reaches.
//!
//! Those maps are keyed by addresses the simulation assigns itself, never
//! by outside input, and none is iterated, so they need neither SipHash's
//! defence against crafted collisions nor a per-map random key: one
//! multiply per word does.

use std::hash::{BuildHasher, Hasher};

/// Builds [`FoldHasher`]s, every one alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHash;

impl BuildHasher for FoldHash {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(0)
    }
}

/// Folds each word into the state with one 64 × 64 → 128-bit multiply by
/// an odd constant, XOR-ing the product's halves, so every bit of the word
/// reaches the low bits a table indexes by.
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_that_differ_only_in_high_bits_spread_over_the_low_bits() {
        // Packed host pairs of one destination: only the top half varies.
        let low_bytes: std::collections::HashSet<u64> = (0..256u64)
            .map(|src| FoldHash.hash_one(src << 32 | 7) & 0xff)
            .collect();
        assert!(
            low_bytes.len() > 140,
            "{} distinct low bytes",
            low_bytes.len()
        );
    }
}
