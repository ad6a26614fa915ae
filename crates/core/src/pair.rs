//! One hash map for `(address, history)` pairs.
//!
//! Every tagged table and every aliasing instrument keys a map on the
//! pair the paper's tables are tagged with. The standard library's
//! default hasher (SipHash, randomly keyed per process) guards against
//! adversarial keys, which a trace walk does not need; it costs more than
//! the rest of a lookup. [`PairHasher`] is a multiply-fold hash instead:
//! each 64-bit word is xored into the state and folded through one
//! 64×64→128-bit multiply, whose high and low halves are xored together.
//! Every input bit then reaches both the low bits (the bucket index) and
//! the top bits (the 7-bit control tag) of the hashbrown table under
//! [`std::collections::HashMap`].
//!
//! The hash is fixed, not randomly keyed, so a map's iteration order is
//! the same in every process. Walks still reduce over a map only in
//! order-free ways (counts, sums of integers, sorts under a total order).
//!
//! ```
//! use bpred_core::pair::PairMap;
//!
//! let mut ids: PairMap<u32> = PairMap::default();
//! ids.insert((0x4000, 0b1011), 0);
//! assert_eq!(ids.get(&(0x4000, 0b1011)), Some(&0));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The fold multiplier: an odd constant with well-spread bits (the
/// fractional part of π).
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;
/// The starting state, so that a zero word still mixes (the fractional
/// part of e).
const SEED: u64 = 0xb7e1_5162_8aed_2a6b;

/// The high and low halves of the 128-bit product `a * b`, xored.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// A multiply-fold [`Hasher`] for `(u64, u64)` keys (see the module
/// documentation). Other key types hash through [`Hasher::write`], eight
/// bytes at a time.
#[derive(Debug, Clone, Copy)]
pub struct PairHasher {
    state: u64,
}

impl Default for PairHasher {
    fn default() -> Self {
        PairHasher { state: SEED }
    }
}

impl Hasher for PairHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state ^ word, MULTIPLIER);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A hash map keyed on `(address, history)` pairs, hashed by
/// [`PairHasher`]. Build one with `PairMap::default()`.
pub type PairMap<V> = HashMap<(u64, u64), V, BuildHasherDefault<PairHasher>>;

/// A set of `(address, history)` pairs, hashed by [`PairHasher`].
pub type PairSet = HashSet<(u64, u64), BuildHasherDefault<PairHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(pair: (u64, u64)) -> u64 {
        BuildHasherDefault::<PairHasher>::default().hash_one(pair)
    }

    /// The number of distinct buckets `pairs` land in, where `bucket`
    /// picks a bucket from a hash.
    fn buckets(pairs: impl Iterator<Item = (u64, u64)>, bucket: impl Fn(u64) -> u64) -> usize {
        let mut seen = HashSet::new();
        for p in pairs {
            seen.insert(bucket(hash(p)));
        }
        seen.len()
    }

    #[test]
    fn swapped_pairs_hash_differently() {
        for (a, b) in [(1, 2), (0, 1), (0x4000, 0xff), (u64::MAX, 7)] {
            assert_ne!(hash((a, b)), hash((b, a)), "({a}, {b})");
        }
    }

    #[test]
    fn zero_words_mix() {
        assert_ne!(hash((0, 0)), 0);
        assert_ne!(hash((0, 0)), hash((0, 1)));
    }

    #[test]
    fn strided_pairs_spread_over_the_low_bits() {
        // 1024 keys into 1024 buckets: a uniform hash fills about 63%.
        let low = |h: u64| h & 1023;
        let strided: [fn(u64) -> (u64, u64); 4] = [
            |i| (i << 12, 0),
            |i| (0, i),
            |i| (i << 2, 0),
            |i| (0x4000, i << 20),
        ];
        for (k, pair) in strided.into_iter().enumerate() {
            let used = buckets((0..1024).map(pair), low);
            assert!(used >= 512, "stride {k} fills {used} of 1024 low buckets");
        }
    }

    #[test]
    fn strided_pairs_spread_over_the_control_bits() {
        // hashbrown's control tag is the top 7 bits.
        let top = |h: u64| h >> 57;
        let strided: [fn(u64) -> (u64, u64); 2] = [|i| (i << 12, 0), |i| (0, i)];
        for pair in strided {
            let used = buckets((0..1024).map(pair), top);
            assert!(used >= 64, "fills {used} of 128 tags");
        }
    }

    #[test]
    fn byte_writes_hash_other_keys() {
        let build = BuildHasherDefault::<PairHasher>::default();
        assert_ne!(build.hash_one("gshare"), build.hash_one("gskew"));
        assert_ne!(build.hash_one(3u32), build.hash_one(4u32));
    }
}
