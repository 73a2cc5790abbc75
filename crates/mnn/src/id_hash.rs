//! A seedless hasher for `u32` node ids, for maps whose keys the corpus
//! alone chooses.
//!
//! std's default `RandomState` is keyed SipHash: several mixing rounds
//! per `u32` and a fresh random seed per map, which buy resistance to
//! hash-flooding by whoever chooses the keys. A posting map's keys are the
//! ids its index was built over, and a score accumulator's keys are the
//! ad ids read out of those postings, so nobody outside the build chooses
//! them. A client's ids only *probe* such a table; they cannot lengthen
//! its probe chains. [`IdHasher`] drops the seed and the rounds: one
//! rotate, xor and multiply per `u32`.
//!
//! The contract is the other side of the same coin: key an [`IdHashMap`]
//! only by corpus-assigned ids. A map that stores ids a request supplies
//! (the retriever's batch fetch cache holds the raw query and the
//! pre-click items) keeps `RandomState`, or one crafted request could
//! force quadratic probing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by corpus-assigned `u32` node ids, hashed with
/// [`IdHasher`]. Build one with `IdHashMap::default()` or
/// `IdHashMap::with_capacity_and_hasher(n, Default::default())`.
pub type IdHashMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// FxHash-style multiplicative hasher: each word is folded in as
/// `state = (state.rotate_left(5) ^ word) * K` with an odd 64-bit `K`.
///
/// Multiplying by an odd constant is a bijection modulo every power of
/// two, so any run of consecutive ids — the layout every corpus here
/// assigns — lands in distinct buckets of a table up to the run's length,
/// and the product's high bits (which the table uses to tag its slots)
/// differ even between small ids. Ids that differ only above a table's
/// bit width share a bucket, which is why this is not a general-purpose
/// hasher. Unseeded: the same key hashes the same in every map and every
/// process, so iteration order follows from the keys and the insertion
/// history alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

/// The multiplier of FxHash (`rustc-hash` 1.x): odd, with its set bits
/// spread over the whole word.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.fold(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.fold(u64::from(id));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// The id layout the corpora use: queries, items, ads and delta-added
    /// ads each a dense run at their own base, plus the two extremes.
    fn corpus_ids() -> Vec<u32> {
        let mut ids: Vec<u32> = [0, 1_000_000, 2_000_000, 3_000_000]
            .iter()
            .flat_map(|&base| base..base + 512)
            .collect();
        ids.extend([0, u32::MAX]);
        ids
    }

    fn hashes(hasher: &impl BuildHasher) -> Vec<u64> {
        corpus_ids()
            .into_iter()
            .map(|id| hasher.hash_one(id))
            .collect()
    }

    /// Low bits pick the bucket: across table sizes 2¹⁰–2¹³ no bucket
    /// takes more than a handful of the 2 050 ids.
    fn max_bucket_load(hashes: &[u64], bits: u32) -> usize {
        let mut load = vec![0usize; 1 << bits];
        for &h in hashes {
            load[(h & ((1 << bits) - 1)) as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// The top 7 bits are the control-byte tag a probe compares first.
    fn distinct_tags(hashes: &[u64]) -> usize {
        let mut seen = [false; 128];
        for &h in hashes {
            seen[(h >> 57) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn corpus_ids_spread_over_buckets_and_tags() {
        let h = hashes(&BuildHasherDefault::<IdHasher>::default());
        for bits in 10..=13 {
            let load = max_bucket_load(&h, bits);
            assert!(load <= 6, "2^{bits} buckets: a bucket holds {load} ids");
        }
        let tags = distinct_tags(&h);
        assert!(tags >= 100, "only {tags} of 128 tags used");
    }

    /// Why the multiply is there: an identity hash spreads dense runs over
    /// buckets just as well, but leaves every tag zero, so each probe of a
    /// group matches all its slots and falls back to comparing keys.
    #[test]
    fn an_identity_hash_fails_the_tag_check() {
        #[derive(Default)]
        struct Identity(u64);
        impl Hasher for Identity {
            fn write(&mut self, _: &[u8]) {
                unreachable!("u32 keys hash through write_u32")
            }
            fn write_u32(&mut self, id: u32) {
                self.0 = u64::from(id);
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        let h = hashes(&BuildHasherDefault::<Identity>::default());
        assert!(distinct_tags(&h) < 100);
    }
}
