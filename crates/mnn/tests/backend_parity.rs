//! Backend-parity properties: the approximate backends degrade gracefully
//! from "identical to exact" (full probing / saturated graphs) to "high
//! recall" (partial probing / narrow beams), the HNSW graph built
//! incrementally is the graph built in bulk, and the exact scan's
//! bound-and-prune kernel returns the bits of the unbounded reference.

use amcad_manifold::{ProductManifold, SubspaceSpec};
use amcad_mnn::quant::soa::SCAN_CHUNK;
use amcad_mnn::{
    recall_at_k, AnnIndex, ExactBackend, HnswConfig, IndexBackend, IvfConfig, MixedPointSet,
    Postings, QuantConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_set(n: usize, seed: u64) -> MixedPointSet {
    let manifold =
        ProductManifold::new(vec![SubspaceSpec::new(3, -1.0), SubspaceSpec::new(3, 1.0)]);
    let mut set = MixedPointSet::new(manifold.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let tangent: Vec<f64> = (0..6).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let w0: f64 = rng.gen_range(0.2..0.8);
        set.push(i as u32, &manifold.exp0(&tangent), &[w0, 1.0 - w0]);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With `nprobe == num_clusters` every cluster is scanned, so the IVF
    /// backend must return posting lists identical to the exact backend
    /// (same ids, same distances) for any point set and key set.
    #[test]
    fn full_probe_ivf_equals_exact(
        seed in 0u64..1_000,
        n_cands in 20usize..120,
        n_keys in 5usize..25,
        num_clusters in 2usize..12,
        k in 1usize..8,
    ) {
        let cands = random_set(n_cands, seed);
        let keys = random_set(n_keys, seed.wrapping_add(1));

        let exact = ExactBackend::new(cands.clone(), 1).build_index(&keys, k, false);
        let ivf_backend = IndexBackend::Ivf(IvfConfig {
            num_clusters,
            kmeans_iters: 4,
            nprobe: num_clusters, // probe everything
            seed: seed ^ 0xABCD,
        })
        .instantiate(cands, 1);
        let ivf = ivf_backend.build_index(&keys, k, false);

        prop_assert_eq!(exact.len(), ivf.len());
        for (key, exact_postings) in exact.iter() {
            let ivf_postings = ivf.get(*key).expect("every key must be indexed");
            prop_assert_eq!(exact_postings.len(), ivf_postings.len());
            for (a, b) in exact_postings.iter().zip(ivf_postings) {
                prop_assert_eq!(a.0, b.0, "posting ids must match for key {}", key);
                prop_assert!((a.1 - b.1).abs() < 1e-12, "distances must match exactly");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The HNSW analogue of full probing: with `m` and both beam widths
    /// at the corpus size the graph is complete and the beam exhaustive,
    /// so posting lists must be identical to the exact backend's (same
    /// ids, same distances) for any point set and key set — with and
    /// without self-exclusion.
    #[test]
    fn saturated_hnsw_equals_exact(
        seed in 0u64..1_000,
        n_cands in 20usize..100,
        n_keys in 5usize..20,
        k in 1usize..8,
        exclude_bit in 0u32..2,
    ) {
        let exclude = exclude_bit == 1;
        let cands = random_set(n_cands, seed);
        let keys = random_set(n_keys, seed.wrapping_add(1));

        let exact = ExactBackend::new(cands.clone(), 1).build_index(&keys, k, exclude);
        let hnsw = IndexBackend::Hnsw(HnswConfig::saturated(n_cands))
            .instantiate(cands, 1)
            .build_index(&keys, k, exclude);

        prop_assert_eq!(exact.len(), hnsw.len());
        for (key, exact_postings) in exact.iter() {
            let hnsw_postings = hnsw.get(*key).expect("every key must be indexed");
            prop_assert_eq!(
                exact_postings, hnsw_postings,
                "postings (ids and distances) must match for key {}", key
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The quantised backend's saturation point: with `rerank_k` at the
    /// corpus size every candidate survives the approximate table scan
    /// into the exact rerank, so posting lists must be identical to the
    /// exact backend's (same ids, same distances, bit for bit) for any
    /// point set, key set and codebook size — with and without
    /// self-exclusion.
    #[test]
    fn corpus_wide_rerank_quant_equals_exact(
        seed in 0u64..1_000,
        n_cands in 20usize..120,
        n_keys in 5usize..25,
        ksub in 2usize..32,
        k in 1usize..8,
        exclude_bit in 0u32..2,
    ) {
        let exclude = exclude_bit == 1;
        let cands = random_set(n_cands, seed);
        let keys = random_set(n_keys, seed.wrapping_add(1));

        let exact = ExactBackend::new(cands.clone(), 1).build_index(&keys, k, exclude);
        let quant = IndexBackend::Quant(QuantConfig {
            ksub,
            train_iters: 3,
            rerank_k: n_cands, // the whole corpus reaches the exact rerank
            seed: seed ^ 0x5150,
        })
        .instantiate(cands, 1)
        .build_index(&keys, k, exclude);

        prop_assert_eq!(exact.len(), quant.len());
        for (key, exact_postings) in exact.iter() {
            let quant_postings = quant.get(*key).expect("every key must be indexed");
            prop_assert_eq!(
                exact_postings, quant_postings,
                "postings (ids and distances) must match for key {}", key
            );
        }
    }
}

/// Partial probing on a well-seeded point set keeps recall@10 high: this
/// is the quality bar that makes the IVF backend a usable serving option.
#[test]
fn partial_probe_recall_at_10_is_at_least_0_8() {
    let cands = random_set(400, 42);
    let keys = random_set(60, 43);
    let k = 10;

    let exact = ExactBackend::new(cands.clone(), 2).build_index(&keys, k, false);
    let ivf = IndexBackend::Ivf(IvfConfig {
        num_clusters: 16,
        kmeans_iters: 8,
        nprobe: 6,
        seed: 44,
    })
    .instantiate(cands, 1)
    .build_index(&keys, k, false);

    let recall = recall_at_k(&ivf, &exact, k);
    assert!(
        recall >= 0.8,
        "IVF nprobe=6/16 should keep recall@10 >= 0.8, got {recall:.3}"
    );
    assert!(recall <= 1.0 + 1e-12);
}

/// The HNSW quality bar on the same property corpus: a wide (but far from
/// saturated) beam keeps recall@10 ≥ 0.8 against the exact index.
#[test]
fn high_ef_hnsw_recall_at_10_is_at_least_0_8() {
    let cands = random_set(400, 42);
    let keys = random_set(60, 43);
    let k = 10;

    let exact = ExactBackend::new(cands.clone(), 2).build_index(&keys, k, false);
    let hnsw = IndexBackend::Hnsw(HnswConfig {
        m: 16,
        ef_construction: 100,
        ef_search: 128,
        seed: 44,
    })
    .instantiate(cands, 1)
    .build_index(&keys, k, false);

    let recall = recall_at_k(&hnsw, &exact, k);
    assert!(
        recall >= 0.8,
        "HNSW ef_search=128 should keep recall@10 >= 0.8, got {recall:.3}"
    );
    assert!(recall <= 1.0 + 1e-12);
    // exclude_id is honoured through the trait path
    let set = random_set(50, 45);
    let backend = IndexBackend::Hnsw(HnswConfig::default()).instantiate(set.clone(), 1);
    for i in 0..set.len() {
        let id = set.id(i);
        let hits = backend.search(set.point(i), set.weight(i), 5, Some(id));
        assert!(hits.iter().all(|(c, _)| *c != id));
    }
}

/// The quant quality bar on the same property corpus: the serving-default
/// `rerank_k` (48 of 400 candidates survive the table scan) keeps
/// recall@10 ≥ 0.8 against the exact index.
#[test]
fn serving_rerank_quant_recall_at_10_is_at_least_0_8() {
    let cands = random_set(400, 42);
    let keys = random_set(60, 43);
    let k = 10;

    let exact = ExactBackend::new(cands.clone(), 2).build_index(&keys, k, false);
    let quant = IndexBackend::Quant(QuantConfig::default()) // rerank_k: 48
        .instantiate(cands, 1)
        .build_index(&keys, k, false);

    let recall = recall_at_k(&quant, &exact, k);
    assert!(
        recall >= 0.8,
        "quant rerank_k=48/400 should keep recall@10 >= 0.8, got {recall:.3}"
    );
    assert!(recall <= 1.0 + 1e-12);
    // exclude_id is honoured through the trait path
    let set = random_set(50, 45);
    let backend = IndexBackend::Quant(QuantConfig::default()).instantiate(set.clone(), 1);
    for i in 0..set.len() {
        let id = set.id(i);
        let hits = backend.search(set.point(i), set.weight(i), 5, Some(id));
        assert!(hits.iter().all(|(c, _)| *c != id));
    }
}

/// Every branch of the curvature trigonometry and both sides of each of
/// its seams (`KAPPA_EPS` is 1e-7).
const CURVATURES: [f64; 15] = [
    -2.0,
    2.0,
    -0.8,
    0.8,
    -0.6,
    0.6,
    -1e-3,
    1e-3,
    -1.0000001e-7,
    1.0000001e-7,
    -1e-7,
    1e-7,
    -9e-8,
    9e-8,
    0.0,
];

/// A candidate set built to stress the bounded scan: a random product
/// manifold (1–4 components, dims 1–9, curvatures from the list above),
/// clustered or not, with points pushed onto the ball boundary (few or
/// many) or off the manifold, duplicated points under fresh ids (distance
/// ties) and, on odd seeds, one candidate with a `NaN` coordinate.
/// Returns the set and its tangents.
fn pruning_scene(seed: u64, n: usize, clustered: bool) -> (MixedPointSet, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<SubspaceSpec> = (0..rng.gen_range(1..=4usize))
        .map(|_| {
            let kappa = CURVATURES[rng.gen_range(0..CURVATURES.len())];
            SubspaceSpec::new(rng.gen_range(1..=9usize), kappa)
        })
        .collect();
    let manifold = ProductManifold::new(specs);
    let (dim, comps) = (manifold.total_dim(), manifold.num_subspaces());
    let centres: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect())
        .collect();
    let mut set = MixedPointSet::new(manifold.clone());
    let mut tangents: Vec<Vec<f64>> = Vec::with_capacity(n);
    let nan_slot = (seed % 2 == 1).then(|| rng.gen_range(0..n));
    let far_share = if rng.gen_bool(0.5) { 0.05 } else { 0.35 };
    // ids in shuffled order, so a tie at the cut can arrive after the
    // entry it must displace
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 && rng.gen_bool(0.2) {
            // a duplicate of an earlier point, weights and all
            let j = rng.gen_range(0..i);
            let (point, weight) = (set.point(j).to_vec(), set.weight(j).to_vec());
            set.push(id, &point, &weight);
            tangents.push(tangents[j].clone());
            continue;
        }
        let mut tangent: Vec<f64> = if clustered {
            let centre = &centres[rng.gen_range(0..centres.len())];
            centre
                .iter()
                .map(|c| c + rng.gen_range(-0.02..0.02))
                .collect()
        } else {
            (0..dim).map(|_| rng.gen_range(-0.6..0.6)).collect()
        };
        if rng.gen_bool(far_share) {
            // far out: exp0 lands on the ball boundary (κ < 0) or next to
            // the pole (κ > 0), where the bound is at its loosest
            tangent.iter_mut().for_each(|t| *t *= 50.0);
        }
        let mut point = manifold.exp0(&tangent);
        if rng.gen_bool(0.03) {
            // not on the manifold at all (outside the ball for κ < 0)
            point = tangent.iter().map(|t| t * 5.0).collect();
        }
        if nan_slot == Some(i) {
            point[rng.gen_range(0..dim)] = f64::NAN;
        }
        let weight: Vec<f64> = (0..comps).map(|_| rng.gen_range(0.1..0.8)).collect();
        set.push(id, &point, &weight);
        tangents.push(tangent);
    }
    (set, tangents)
}

/// Per-candidate `distance_to`, NaN → +∞, sorted by `(distance, id)`, cut
/// at `k` — what every exact scan must equal, ids and distance bits.
fn scan_reference(
    cands: &MixedPointSet,
    query: &[f64],
    query_weight: &[f64],
    k: usize,
    exclude_id: Option<u32>,
) -> Vec<(u32, u64)> {
    let mut all: Vec<(f64, u32)> = (0..cands.len())
        .filter(|&j| exclude_id != Some(cands.id(j)))
        .map(|j| {
            let d = cands.blocks().distance_to(query, query_weight, j);
            (if d.is_nan() { f64::INFINITY } else { d }, cands.id(j))
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bounded scan — threshold from `TopK`, candidates dismissed on a
    /// lower bound — returns the ids and the distance bits of the
    /// unbounded reference, whatever the geometry, the weights' signs or
    /// the ties at the cut.
    #[test]
    fn bounded_exact_scan_equals_the_per_candidate_reference(
        seed in 0u64..1_000_000,
        n in 130usize..420,
        clustered_bit in 0u32..2,
        k in 1usize..26,
        exclude_bit in 0u32..2,
        negative_weight_bit in 0u32..2,
    ) {
        let (cands, tangents) = pruning_scene(seed, n, clustered_bit == 1);
        let manifold = cands.manifold().clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        // the query sits on a candidate (a zero distance, and its
        // duplicates tie) or just beside one
        let anchor = rng.gen_range(0..n);
        let query = if rng.gen_bool(0.5) {
            cands.point(anchor).to_vec()
        } else {
            let beside: Vec<f64> = tangents[anchor]
                .iter()
                .map(|t| t + rng.gen_range(-0.01..0.01))
                .collect();
            manifold.exp0(&beside)
        };
        let mut query_weight: Vec<f64> = (0..manifold.num_subspaces())
            .map(|_| rng.gen_range(0.1..0.6))
            .collect();
        if negative_weight_bit == 0 {
            // summed with stored weights in 0.1..0.8: negative for some
            // candidates, positive for others
            let m = rng.gen_range(0..query_weight.len());
            query_weight[m] = -0.45;
        }
        let exclude = (exclude_bit == 1).then(|| cands.id(anchor));

        let want = scan_reference(&cands, &query, &query_weight, k, exclude);
        let got: Vec<(u32, u64)> = ExactBackend::new(cands, 1)
            .search(&query, &query_weight, k, exclude)
            .into_iter()
            .map(|(id, d)| (id, d.to_bits()))
            .collect();
        prop_assert_eq!(got, want, "seed {}, n {}, k {}", seed, n, k);
    }
}

/// `scan_range_into` is the chunk kernel with every candidate finished,
/// cut into `SCAN_CHUNK`s: whatever the length and wherever it starts,
/// every lane holds the bits of `distance_to` — including the candidates
/// past a chunk's last whole group of four, whose dot products take the
/// serial path (`len % 4` of 1, 2 and 3, inside a chunk and across edges).
#[test]
fn scan_range_into_is_bit_identical_to_distance_to_across_chunk_edges() {
    for seed in [3u64, 8] {
        let (cands, _) = pruning_scene(seed, 1_100, seed == 8);
        let blocks = cands.blocks();
        let query = cands.point(500).to_vec();
        let query_weight = vec![0.3; cands.manifold().num_subspaces()];
        let grams = blocks.query_grams(&query);
        for (start, len) in [
            (7, 1),
            (5, 2),
            (6, 3),
            (7, SCAN_CHUNK - 1),
            (7, SCAN_CHUNK),
            (7, SCAN_CHUNK + 1),
            (7, SCAN_CHUNK + 2),
            (0, 2 * SCAN_CHUNK + 3),
            (93, 1_000),
        ] {
            let mut out = vec![-1.0; len];
            blocks.scan_range_into(&grams, &query, &query_weight, start, &mut out);
            for (jj, d) in out.iter().enumerate() {
                assert_eq!(
                    d.to_bits(),
                    blocks
                        .distance_to(&query, &query_weight, start + jj)
                        .to_bits(),
                    "seed {seed}, start {start}, len {len}, lane {jj}"
                );
            }
        }
    }
}

/// `k` is a cut, not a buffer size. A snapshot manifest may carry a
/// `top_k` (and a Quant `rerank_k`) up to `u32::MAX`, and a caller may
/// pass `usize::MAX`. Every backend sizes its top-K buffer by the
/// candidates that can be offered, so such a `k` returns at most the
/// corpus — the exact scan exactly what `k = n` returns, ids and bits —
/// instead of aborting on a `k`-sized allocation.
#[test]
fn a_k_past_the_corpus_returns_at_most_the_corpus_on_every_backend() {
    let n = 10;
    let cands = random_set(n, 41);
    let queries = random_set(1, 42);
    let (query, weight) = (queries.point(0), queries.weight(0));
    let bits = |postings: Postings| -> Vec<(u32, u64)> {
        postings.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    };
    let huge = [u32::MAX as usize, usize::MAX];

    let exact = ExactBackend::new(cands.clone(), 1);
    for exclude in [None, Some(3)] {
        let want = bits(exact.search(query, weight, n, exclude));
        assert_eq!(want.len(), n - usize::from(exclude.is_some()));
        for k in huge {
            let got = bits(exact.search(query, weight, k, exclude));
            assert_eq!(got, want, "exact, k {k}, exclude {exclude:?}");
        }
    }

    let approximate = [
        IndexBackend::Ivf(IvfConfig {
            num_clusters: 3,
            kmeans_iters: 2,
            nprobe: 2,
            seed: 7,
        }),
        IndexBackend::Hnsw(HnswConfig {
            m: 4,
            ef_construction: 8,
            ef_search: 8,
            seed: 7,
        }),
        // every width a decoded manifest can carry, at its cap
        IndexBackend::Hnsw(HnswConfig {
            m: u32::MAX as usize,
            ef_construction: u32::MAX as usize,
            ef_search: u32::MAX as usize,
            seed: 7,
        }),
        IndexBackend::Quant(QuantConfig {
            ksub: 4,
            train_iters: 2,
            rerank_k: 4,
            seed: 7,
        }),
        IndexBackend::Quant(QuantConfig {
            ksub: 4,
            train_iters: 2,
            rerank_k: u32::MAX as usize,
            seed: 7,
        }),
    ];
    for backend in approximate {
        let index = backend.instantiate(cands.clone(), 1);
        for k in huge {
            for exclude in [None, Some(3)] {
                let got = index.search(query, weight, k, exclude);
                assert!(
                    !got.is_empty() && got.len() <= n,
                    "{backend:?}, k {k}: {} entries",
                    got.len()
                );
                assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "{backend:?}");
                assert!(exclude.is_none_or(|id| got.iter().all(|&(c, _)| c != id)));
            }
        }
    }
}
