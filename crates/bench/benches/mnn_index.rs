//! Criterion benchmarks of MNN inverted-index construction: exact scan with
//! 1 vs 4 threads (the paper's data-level parallelism claim) and the IVF
//! and HNSW approximate indices.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use amcad_manifold::{ProductManifold, SubspaceSpec};
use amcad_mnn::{
    build_exact_index, AnnIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, MixedPointSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_set(n: usize, dim_per_space: usize, seed: u64) -> MixedPointSet {
    let manifold = ProductManifold::new(vec![
        SubspaceSpec::new(dim_per_space, -1.0),
        SubspaceSpec::new(dim_per_space, 1.0),
    ]);
    let mut set = MixedPointSet::new(manifold.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let tangent: Vec<f64> = (0..2 * dim_per_space)
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        let w: f64 = rng.gen_range(0.2..0.8);
        set.push(i as u32, &manifold.exp0(&tangent), &[w, 1.0 - w]);
    }
    set
}

fn bench_mnn(c: &mut Criterion) {
    let keys = random_set(200, 8, 1);
    let candidates = random_set(1_000, 8, 2);

    let mut group = c.benchmark_group("mnn_index_build");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        group.bench_function(format!("exact_200x1000_top20/threads={threads}"), |b| {
            b.iter(|| {
                black_box(build_exact_index(
                    black_box(&keys),
                    black_box(&candidates),
                    20,
                    false,
                    threads,
                ))
            })
        });
    }
    group.bench_function("ivf_build_1000", |b| {
        b.iter(|| black_box(IvfIndex::build(candidates.clone(), IvfConfig::default())))
    });
    let ivf = IvfIndex::build(candidates.clone(), IvfConfig::default());
    group.bench_function("ivf_search_200_keys_top20", |b| {
        b.iter(|| black_box(ivf.build_index(&keys, 20, false)))
    });
    group.bench_function("hnsw_build_1000", |b| {
        b.iter(|| black_box(HnswIndex::build(candidates.clone(), HnswConfig::default())))
    });
    let hnsw = HnswIndex::build(candidates.clone(), HnswConfig::default());
    group.bench_function("hnsw_search_200_keys_top20", |b| {
        b.iter(|| black_box(hnsw.build_index(&keys, 20, false)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mnn
}
criterion_main!(benches);
