//! Exact (brute-force) top-K retrieval with data-level parallelism.
//!
//! The paper's MNN module distributes index construction over a fleet of
//! workers and parallelises the per-worker computation with OpenMP (data
//! level) and SIMD (instruction level).  Here the data-level parallelism is
//! provided by `std::thread::scope` threads over key shards, and the inner
//! distance loops are simple slice arithmetic the compiler can vectorise.
//!
//! The scan is exact and most of it is rejection: of a key's thousands of
//! candidates all but ≈ `k·ln(n/k)` never enter its top-K. `TopK`
//! therefore keeps its worst entry cached and declines a candidate in one
//! comparison, and `scan_top_k` hands that worst distance to the SoA
//! chunk kernel as a threshold, so a candidate whose cheap lower bound is
//! already above it costs three dot products and no `ln_1p` / `atan`
//! (see [`crate::quant::soa`]). Posting lists are the same ids and the
//! same distance bits as a per-candidate `distance_to` followed by a sort.

use crate::id_hash::IdHashMap;
use crate::points::MixedPointSet;
use crate::quant::soa::SCAN_CHUNK;

/// One inverted-index posting list: the K nearest candidates of a key, with
/// their mixed-curvature distances, sorted by increasing distance.
pub type Postings = Vec<(u32, f64)>;

/// An inverted index: key node id → top-K nearest candidate ids.
///
/// The keys are the ids the index was built over, so the map hashes with
/// the seedless [`crate::IdHasher`]: a request's ids only probe it and
/// cannot lengthen its chains. Iteration order is deterministic but
/// follows the insertion history, so callers that need an order sort.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    entries: IdHashMap<Postings>,
}

impl InvertedIndex {
    /// Posting list of a key, if present.
    pub fn get(&self, key: u32) -> Option<&Postings> {
        self.entries.get(&key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(key, postings)` pairs, in no specified order.
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &Postings)> {
        self.entries.iter()
    }

    /// Insert a posting list (used by the IVF index and tests).
    pub fn insert(&mut self, key: u32, postings: Postings) {
        self.entries.insert(key, postings);
    }
}

/// Keep the `k` smallest `(distance, id)` pairs of a candidate stream —
/// the cut every backend's search ends in. `NaN` distances count as `+∞`;
/// ties at the cut go to the smaller id, so the kept list does not depend
/// on the order candidates are offered in.
///
/// The entries sit unordered in a `k`-long buffer allocated once, with the
/// position of the worst one cached: an offer that cannot enter — almost
/// every offer of a long scan — is one comparison, and the `k`-entry
/// search for the new worst runs only after a replacement, ≈ `k·ln(n/k)`
/// times over `n` offers in random order.
#[derive(Debug)]
pub(crate) struct TopK {
    entries: Vec<(f64, u32)>,
    len: usize,
    /// Index of the largest `(distance, id)` entry; meaningful once full.
    worst: usize,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            entries: vec![(0.0, 0); k],
            len: 0,
            worst: 0,
        }
    }

    /// The distance a candidate must not exceed to be kept: `+∞` until `k`
    /// entries are held, then the largest kept distance. A scan may skip
    /// any candidate whose distance is above it without offering it.
    #[inline]
    pub(crate) fn threshold(&self) -> f64 {
        match self.entries.get(self.worst) {
            Some(worst) if self.len == self.entries.len() => worst.0,
            _ => f64::INFINITY,
        }
    }

    /// Offer one candidate; it is kept if it is among the `k` smallest
    /// `(distance, id)` pairs offered so far.
    #[inline]
    pub(crate) fn offer(&mut self, distance: f64, id: u32) {
        // Normalise corrupt (NaN) distances to +inf up front: total_cmp
        // would order a sign-bit-set NaN (the hardware default for 0/0)
        // BELOW every real number, letting it head posting lists and
        // squat in the buffer. As +inf it sorts last and any real distance
        // evicts it.
        let distance = if distance.is_nan() {
            f64::INFINITY
        } else {
            distance
        };
        if self.len < self.entries.len() {
            self.entries[self.len] = (distance, id);
            self.len += 1;
            if self.len == self.entries.len() {
                self.find_worst();
            }
        } else if let Some(&worst) = self.entries.get(self.worst) {
            // The kept set is the k smallest by (distance, id) — the id
            // tie-break makes the result independent of candidate scan
            // order, so exact and full-probe IVF scans (which visit
            // candidates in different orders) keep identical sets even
            // when distances tie at the boundary.
            if Self::order(&(distance, id), &worst).is_lt() {
                self.entries[self.worst] = (distance, id);
                self.find_worst();
            }
        }
    }

    // total_cmp keeps the order total and panic-free for any f64 (offer
    // already normalised NaN distances to +inf, so they rank last)
    fn order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    fn find_worst(&mut self) {
        self.worst = (0..self.entries.len())
            .max_by(|&a, &b| Self::order(&self.entries[a], &self.entries[b]))
            .unwrap_or(0);
    }

    pub(crate) fn into_sorted(mut self) -> Postings {
        self.entries.truncate(self.len);
        self.entries.sort_by(Self::order);
        self.entries.into_iter().map(|(d, id)| (id, d)).collect()
    }
}

/// The per-key inverted-index construction loop shared by the
/// [`crate::backend::AnnIndex`] trait default and [`crate::IvfIndex`]:
/// search every key against one `search` closure. No candidates (or
/// `k == 0`) yields an EMPTY index, not keys with empty posting lists —
/// downstream emptiness checks rely on that contract.
pub(crate) fn build_index_with(
    search: impl Fn(&[f64], &[f64], usize, Option<u32>) -> Postings,
    candidates_empty: bool,
    keys: &MixedPointSet,
    k: usize,
    exclude_same_id: bool,
) -> InvertedIndex {
    let mut index = InvertedIndex::default();
    if k == 0 || candidates_empty {
        return index;
    }
    for i in 0..keys.len() {
        let id = keys.id(i);
        let exclude = if exclude_same_id { Some(id) } else { None };
        index.insert(id, search(keys.point(i), keys.weight(i), k, exclude));
    }
    index
}

/// One exact top-K scan of a query point over a candidate set — the
/// kernel shared by the bulk builder below and the per-query
/// `ExactBackend::search` path, so the two can never diverge. The scan
/// walks the SoA component blocks in [`SCAN_CHUNK`]-sized chunks, passing
/// each chunk the worst distance kept so far: the kernel writes `+∞` for
/// a candidate it could bound above that threshold, and the loop below
/// skips every distance above it without touching the candidate's id.
/// `norm_lanes` is the kernel's scratch (`ComponentBlocks::norm_lanes`),
/// owned by the caller so one allocation serves every key of a build.
pub(crate) fn scan_top_k(
    candidates: &MixedPointSet,
    query: &[f64],
    query_weight: &[f64],
    k: usize,
    exclude_id: Option<u32>,
    norm_lanes: &mut [f64],
) -> Postings {
    let blocks = candidates.blocks();
    let grams = blocks.query_grams(query);
    let mut distances = [0.0f64; SCAN_CHUNK];
    let mut topk = TopK::new(k);
    let n = candidates.len();
    let mut start = 0;
    while start < n {
        let len = SCAN_CHUNK.min(n - start);
        blocks.scan_chunk_into(
            &grams,
            query,
            query_weight,
            start,
            topk.threshold(),
            norm_lanes,
            &mut distances[..len],
        );
        for (jj, &d) in distances[..len].iter().enumerate() {
            // written so that a NaN distance is offered (it ranks as +inf)
            if d > topk.threshold() {
                continue;
            }
            let cand_id = candidates.id(start + jj);
            if exclude_id == Some(cand_id) {
                continue;
            }
            topk.offer(d, cand_id);
        }
        start += len;
    }
    topk.into_sorted()
}

/// Exact top-K search from every key to the candidate set.
///
/// * `exclude_same_id`: skip a candidate whose id equals the key's id (used
///   for the self-indices Q2Q / I2I).
/// * `threads`: number of worker threads (1 = sequential).
pub fn build_exact_index(
    keys: &MixedPointSet,
    candidates: &MixedPointSet,
    k: usize,
    exclude_same_id: bool,
    threads: usize,
) -> InvertedIndex {
    let n_keys = keys.len();
    if n_keys == 0 || candidates.is_empty() || k == 0 {
        return InvertedIndex::default();
    }
    let threads = threads.max(1).min(n_keys);

    let search_range = |start: usize, end: usize| -> Vec<(u32, Postings)> {
        let mut out = Vec::with_capacity(end - start);
        let mut norm_lanes = candidates.blocks().norm_lanes();
        for i in start..end {
            let key_id = keys.id(i);
            let exclude = if exclude_same_id { Some(key_id) } else { None };
            let (point, weight) = (keys.point(i), keys.weight(i));
            out.push((
                key_id,
                scan_top_k(candidates, point, weight, k, exclude, &mut norm_lanes),
            ));
        }
        out
    };

    let mut entries = IdHashMap::with_capacity_and_hasher(n_keys, Default::default());
    if threads == 1 {
        for (key, postings) in search_range(0, n_keys) {
            entries.insert(key, postings);
        }
    } else {
        let chunk = n_keys.div_ceil(threads);
        // amcad-lint: allow(thread-discipline) — build-time scoped fan-out in a leaf crate (joined before return): amcad-mnn sits below amcad-retrieval in the dependency graph, so it cannot borrow the serving crate's pools without a cycle
        let results: Vec<Vec<(u32, Postings)>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let start = t * chunk;
                let end = ((t + 1) * chunk).min(n_keys);
                if start >= end {
                    continue;
                }
                let search = &search_range;
                handles.push(scope.spawn(move || search(start, end)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("index-building threads must not panic"))
                .collect()
        });
        for shard in results {
            for (key, postings) in shard {
                entries.insert(key, postings);
            }
        }
    }
    InvertedIndex { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_set;

    #[test]
    fn index_contains_every_key_with_k_sorted_postings() {
        let keys = random_set(20, 1);
        let cands = random_set(50, 2);
        let index = build_exact_index(&keys, &cands, 5, false, 1);
        assert_eq!(index.len(), 20);
        for (_, postings) in index.iter() {
            assert_eq!(postings.len(), 5);
            for w in postings.windows(2) {
                assert!(w[0].1 <= w[1].1, "postings must be sorted by distance");
            }
        }
    }

    #[test]
    fn nearest_neighbour_of_a_key_present_in_candidates_is_itself() {
        let set = random_set(30, 3);
        let index = build_exact_index(&set, &set, 3, false, 1);
        for i in 0..set.len() {
            let id = set.id(i);
            let postings = index.get(id).unwrap();
            assert_eq!(postings[0].0, id, "self must be the nearest neighbour");
            assert!(postings[0].1.abs() < 1e-9);
        }
    }

    #[test]
    fn exclude_same_id_removes_self_matches() {
        let set = random_set(30, 4);
        let index = build_exact_index(&set, &set, 3, true, 1);
        for i in 0..set.len() {
            let id = set.id(i);
            assert!(index.get(id).unwrap().iter().all(|(c, _)| *c != id));
        }
    }

    #[test]
    fn parallel_and_sequential_results_agree() {
        let keys = random_set(40, 5);
        let cands = random_set(80, 6);
        let seq = build_exact_index(&keys, &cands, 4, false, 1);
        // 2 and 4 split the keys, 41 exceeds them (clamped to one key per
        // thread), 7 leaves the last chunk short
        for threads in [2, 4, 7, 41] {
            let par = build_exact_index(&keys, &cands, 4, false, threads);
            assert_eq!(seq.len(), par.len(), "threads={threads}");
            for (key, postings) in seq.iter() {
                assert_eq!(par.get(*key), Some(postings), "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_index() {
        let keys = random_set(0, 7);
        let cands = random_set(10, 8);
        assert!(build_exact_index(&keys, &cands, 3, false, 2).is_empty());
        assert!(build_exact_index(&cands, &keys, 3, false, 2).is_empty());
        assert!(build_exact_index(&cands, &cands, 0, false, 2).is_empty());
    }

    #[test]
    fn topk_keeps_the_smallest_distances() {
        let mut topk = TopK::new(2);
        topk.offer(3.0, 1);
        topk.offer(1.0, 2);
        topk.offer(2.0, 3);
        topk.offer(0.5, 4);
        let sorted = topk.into_sorted();
        assert_eq!(
            sorted.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![4, 2]
        );
    }

    #[test]
    fn topk_tie_breaking_is_scan_order_independent() {
        // equal distances at the top-K boundary: the kept set is the
        // smallest (distance, id) pairs regardless of scan order, so
        // exact and full-probe IVF scans agree even on ties
        let permutations: [[(f64, u32); 3]; 3] = [
            [(1.0, 5), (2.0, 9), (2.0, 3)],
            [(2.0, 3), (2.0, 9), (1.0, 5)],
            [(2.0, 9), (1.0, 5), (2.0, 3)],
        ];
        for order in permutations {
            let mut topk = TopK::new(2);
            for (d, id) in order {
                topk.offer(d, id);
            }
            let ids: Vec<u32> = topk.into_sorted().iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, vec![5, 3], "kept set must not depend on scan order");
        }
    }

    /// What `TopK` must equal: sort everything by `(distance with NaN →
    /// +∞, id)` and take `k`.
    fn sort_and_take(stream: &[(f64, u32)], k: usize) -> Postings {
        let mut all: Vec<(f64, u32)> = stream
            .iter()
            .map(|&(d, id)| (if d.is_nan() { f64::INFINITY } else { d }, id))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all.into_iter().map(|(d, id)| (id, d)).collect()
    }

    fn bits(postings: &Postings) -> Vec<(u32, u64)> {
        postings.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    #[test]
    fn topk_equals_sort_and_take_and_threshold_is_the_largest_kept_distance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // few distinct values (heavy ties), both NaN signs, both infinities
        // and both zeros
        let values = [
            0.0,
            -0.0,
            0.25,
            0.5,
            0.5000000000000001,
            1.0,
            3.0,
            -2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(15);
        for len in [0usize, 1, 7, 40, 300] {
            let mut stream: Vec<(f64, u32)> = (0..len)
                .map(|i| (values[rng.gen_range(0..values.len())], i as u32))
                .collect();
            for _permutation in 0..4 {
                for i in (1..stream.len()).rev() {
                    stream.swap(i, rng.gen_range(0..=i));
                }
                for k in [0, 1, 5, 20, len + 3] {
                    let mut topk = TopK::new(k);
                    assert_eq!(topk.threshold(), f64::INFINITY);
                    for (seen, &(d, id)) in stream.iter().enumerate() {
                        topk.offer(d, id);
                        let want = match sort_and_take(&stream[..=seen], k).last() {
                            Some(&(_, worst)) if seen + 1 >= k => worst,
                            _ => f64::INFINITY,
                        };
                        assert_eq!(
                            topk.threshold().to_bits(),
                            want.to_bits(),
                            "len {len}, k {k}, after {} offers",
                            seen + 1
                        );
                    }
                    assert_eq!(
                        bits(&topk.into_sorted()),
                        bits(&sort_and_take(&stream, k)),
                        "len {len}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_with_k_zero_keeps_nothing_and_a_short_stream_is_returned_whole() {
        let mut none = TopK::new(0);
        none.offer(1.0, 1);
        none.offer(f64::NAN, 2);
        assert_eq!(none.threshold(), f64::INFINITY);
        assert!(none.into_sorted().is_empty());

        let mut short = TopK::new(5);
        short.offer(2.0, 7);
        short.offer(1.0, 9);
        assert_eq!(short.threshold(), f64::INFINITY, "not full yet");
        assert_eq!(short.into_sorted(), vec![(9, 1.0), (7, 2.0)]);
    }

    #[test]
    fn topk_evicts_nan_distances_for_real_candidates() {
        // a corrupt (NaN) distance — of either sign bit, since hardware
        // 0/0 yields a sign-bit-set NaN — must not panic, squat in the
        // heap, or outrank any real candidate
        for nan in [f64::NAN, -f64::NAN] {
            let mut topk = TopK::new(2);
            topk.offer(5.0, 1);
            topk.offer(nan, 2);
            topk.offer(0.1, 3);
            let sorted = topk.into_sorted();
            assert_eq!(
                sorted.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                vec![3, 1],
                "the real 0.1 candidate must evict the NaN entry"
            );
            // all-NaN input still yields a full, non-panicking posting list
            let mut all_nan = TopK::new(2);
            all_nan.offer(nan, 7);
            all_nan.offer(nan, 8);
            all_nan.offer(1.0, 9);
            let sorted = all_nan.into_sorted();
            assert_eq!(sorted.first().unwrap().0, 9, "real candidate ranks first");
        }
    }
}
