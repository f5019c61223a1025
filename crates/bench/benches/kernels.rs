//! Wall-clock micro-benchmarks of the algorithmic kernels (the simulated
//! cost model covers the paper's FPS comparisons; these measure the real
//! CPU cost of this implementation's hot paths).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use tm_core::sampling::WithoutReplacement;
use tm_core::score::{exact_scores, sum_pairwise_distances_naive, sum_pairwise_unit_distances};
use tm_core::{merge_mapping, SelectionInput, UnionFind};
use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device, Feature, ReidSession};
use tm_track::hungarian::min_cost_assignment;
use tm_track::{KalmanBoxFilter, KalmanConfig};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for n in [8usize, 32, 128] {
        let mut rng = StdRng::seed_from_u64(1);
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| min_cost_assignment(black_box(cost)))
        });
    }
    group.finish();
}

fn bench_kalman(c: &mut Criterion) {
    c.bench_function("kalman_predict_update", |b| {
        let mut kf = KalmanBoxFilter::new(
            &BBox::from_center(100.0, 100.0, 40.0, 80.0),
            KalmanConfig::default(),
        );
        let mut f = 0u64;
        b.iter(|| {
            f += 1;
            kf.predict();
            kf.update(&BBox::from_center(100.0 + f as f64, 100.0, 40.0, 80.0));
            black_box(kf.current_box())
        })
    });
}

fn bench_reid(c: &mut Criterion) {
    let model = AppearanceModel::new(AppearanceConfig::default());
    c.bench_function("reid_feature_inference", |b| {
        let mut f = 0u64;
        b.iter(|| {
            f += 1;
            black_box(model.observe(GtObjectId(f % 30), FrameIdx(f), 0.9))
        })
    });
    let fa = model.observe(GtObjectId(1), FrameIdx(0), 1.0);
    let fb = model.observe(GtObjectId(2), FrameIdx(0), 1.0);
    c.bench_function("reid_euclidean_distance", |b| {
        b.iter(|| black_box(&fa).euclidean(black_box(&fb)))
    });
    c.bench_function("feature_normalize_32d", |b| {
        let raw: Vec<f64> = (0..32).map(|i| i as f64 * 0.1 - 1.5).collect();
        b.iter(|| Feature::normalized(black_box(raw.clone())))
    });
}

fn bench_sampling(c: &mut Criterion) {
    c.bench_function("without_replacement_draw", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sampler = WithoutReplacement::new(u64::MAX / 2);
        b.iter(|| black_box(sampler.draw(&mut rng)))
    });
}

fn bench_union_find(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let pairs: Vec<TrackPair> = (0..500)
        .filter_map(|_| {
            TrackPair::new(
                TrackId(rng.random_range(0..200)),
                TrackId(rng.random_range(0..200)),
            )
        })
        .collect();
    c.bench_function("merge_mapping_500_pairs", |b| {
        b.iter(|| merge_mapping(black_box(&pairs)))
    });
    c.bench_function("union_find_union", |b| {
        let mut uf = UnionFind::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            uf.union(TrackId(i % 1000), TrackId((i * 7) % 1000))
        })
    });
}

/// The two pairwise-sum kernels head-to-head on model-generated unit-norm
/// feature matrices (`n × n` row pairs, dim 32): the blocked dot-product
/// rewrite in `exact_scores` vs the reference subtract-square kernel.
fn bench_dense_score_kernel(c: &mut Criterion) {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let mut group = c.benchmark_group("pairwise_distance_sum");
    for n in [32usize, 128, 512] {
        let pack = |actor: u64, offset: u64| -> Vec<f64> {
            (0..n as u64)
                .flat_map(|f| {
                    model
                        .observe(GtObjectId(actor), FrameIdx(offset + f), 0.9)
                        .as_slice()
                        .to_vec()
                })
                .collect()
        };
        let fa = pack(1, 0);
        let fb = pack(2, 100_000);
        let dim = fa.len() / n;
        group.bench_with_input(BenchmarkId::new("blocked_dot", n), &n, |b, _| {
            b.iter(|| sum_pairwise_unit_distances(black_box(&fa), black_box(&fb), dim))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| sum_pairwise_distances_naive(black_box(&fa), black_box(&fb), dim))
        });
    }
    group.finish();
}

/// End-to-end exact scoring of a synthetic window (12 tracks × 40 boxes,
/// all 66 pairs) through the parallel dense scorer. (The serial reference
/// scorer is built for `tm-core`'s tests only; its kernel is timed against
/// the dense one in `pairwise_distance_sum`.)
fn bench_exact_scores(c: &mut Criterion) {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let tracks = TrackSet::from_tracks(
        (0..12u64)
            .map(|id| {
                Track::with_boxes(
                    TrackId(id + 1),
                    classes::PEDESTRIAN,
                    (0..40u64)
                        .map(|i| {
                            TrackBox::new(
                                FrameIdx(id * 1_000 + i),
                                BBox::new(i as f64 * 5.0, 100.0, 40.0, 80.0),
                            )
                            .with_provenance(GtObjectId(id % 5))
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    let mut pairs_all = Vec::new();
    for i in 1..=12u64 {
        for j in (i + 1)..=12u64 {
            pairs_all.push(TrackPair::new(TrackId(i), TrackId(j)).unwrap());
        }
    }
    let input = SelectionInput {
        pairs: &pairs_all,
        tracks: &tracks,
        k: 1.0,
        voi: None,
    };
    let mut group = c.benchmark_group("exact_scores");
    group.bench_function("rewrite", |b| {
        b.iter(|| {
            let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
            black_box(exact_scores(&input, &mut session).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_hungarian,
    bench_kalman,
    bench_reid,
    bench_sampling,
    bench_union_find,
    bench_dense_score_kernel,
    bench_exact_scores
);
criterion_main!(kernels);
