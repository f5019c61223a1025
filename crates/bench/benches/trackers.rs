//! Dense-vs-gated assignment and full tracker steps at 10/50/200 objects
//! per frame.
//!
//! Two geometries per size:
//!
//! * **sparse** — objects spread over a wide scene, so well under 25% of
//!   track×detection pairs plausibly overlap. The gated path should beat
//!   the dense path here, increasingly with scene size.
//! * **dense** — every object crammed into one small cluster, so nearly
//!   every pair overlaps and gating can prune nothing. The gated path must
//!   stay within 1.1× of the dense path (acceptance bound).
//!
//! Both solver benches measure the full per-frame work from box lists:
//! the dense arm builds the masked IoU cost matrix and solves it whole with
//! the flat Kuhn–Munkres solver (the pre-gating production path, minus its
//! per-call allocations); the gated arm runs `iou_threshold_matches` with a
//! reused scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use tm_track::assign::{
    iou_threshold_matches, min_cost_assignment_flat, AssignmentScratch, BoxMatchScratch,
};
use tm_track::hungarian::FORBIDDEN;
use tm_track::{
    track_video, ByteTrack, ByteTrackConfig, Sort, SortConfig, Tracker, TracktorLike,
    TracktorLikeConfig,
};
use tm_types::{ids::classes, BBox, Detection, FrameIdx, GtObjectId};

/// `n` boxes jittered around distinct anchors spread over a scene whose
/// side scales with √n — keeps density constant, so plausible pairs stay
/// well below 25% at n ≥ 20.
fn sparse_boxes(n: usize, rng: &mut StdRng) -> Vec<BBox> {
    let side = 40.0 * (n as f64).sqrt().ceil();
    let per_row = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let cx = (i % per_row) as f64 / per_row as f64 * side + rng.random_range(-4.0..4.0);
            let cy = (i / per_row) as f64 / per_row as f64 * side + rng.random_range(-4.0..4.0);
            BBox::from_center(cx, cy, 20.0, 20.0)
        })
        .collect()
}

/// `n` boxes all jittered around one point — nearly every pair overlaps.
fn dense_boxes(n: usize, rng: &mut StdRng) -> Vec<BBox> {
    (0..n)
        .map(|_| {
            BBox::from_center(
                100.0 + rng.random_range(-8.0..8.0),
                100.0 + rng.random_range(-8.0..8.0),
                20.0,
                20.0,
            )
        })
        .collect()
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment");
    for &n in &[10usize, 50, 200] {
        for (geom, maker) in [
            (
                "sparse",
                sparse_boxes as fn(usize, &mut StdRng) -> Vec<BBox>,
            ),
            ("dense", dense_boxes),
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let rows = maker(n, &mut rng);
            let cols = maker(n, &mut rng);
            let max_cost = 0.7;

            group.bench_with_input(
                BenchmarkId::new(format!("dense/{geom}"), n),
                &(&rows, &cols),
                |b, (rows, cols)| {
                    let mut scratch = AssignmentScratch::new();
                    b.iter(|| {
                        let cost: Vec<f64> = rows
                            .iter()
                            .flat_map(|r| cols.iter().map(move |c| 1.0 - r.iou(c)))
                            .map(|c| if c > max_cost { FORBIDDEN } else { c })
                            .collect();
                        let matched = min_cost_assignment_flat(&cost, n, n, &mut scratch)
                            .into_iter()
                            .enumerate()
                            .filter(|&(i, j)| j.is_some_and(|j| cost[i * n + j] <= max_cost))
                            .count();
                        black_box(matched)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("gated/{geom}"), n),
                &(&rows, &cols),
                |b, (rows, cols)| {
                    let mut scratch = BoxMatchScratch::new();
                    b.iter(|| {
                        black_box(iou_threshold_matches(rows, cols, max_cost, &mut scratch).len())
                    })
                },
            );
        }
    }
    group.finish();
}

/// A short synthetic video: `n` objects drifting right, redetected each
/// frame with positional jitter.
fn detection_frames(n: usize, n_frames: usize, sparse: bool) -> Vec<Vec<Detection>> {
    let mut rng = StdRng::seed_from_u64(11);
    let anchors = if sparse {
        sparse_boxes(n, &mut rng)
    } else {
        dense_boxes(n, &mut rng)
    };
    (0..n_frames)
        .map(|f| {
            anchors
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let drift = f as f64 * 1.5;
                    let jitter = rng.random_range(-1.0..1.0);
                    Detection::of_actor(
                        FrameIdx(f as u64),
                        BBox::new(b.x + drift + jitter, b.y + jitter, b.w, b.h),
                        0.9,
                        classes::PEDESTRIAN,
                        1.0,
                        GtObjectId(i as u64 + 1),
                    )
                })
                .collect()
        })
        .collect()
}

type TrackerFactory = Box<dyn Fn() -> Box<dyn Tracker>>;

fn bench_tracker_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracker_video_30f");
    group.sample_size(10);
    for &n in &[10usize, 50, 200] {
        let frames = detection_frames(n, 30, true);
        let trackers: Vec<(&str, TrackerFactory)> = vec![
            (
                "sort",
                Box::new(|| Box::new(Sort::new(SortConfig::default()))),
            ),
            (
                "byte_track",
                Box::new(|| Box::new(ByteTrack::new(ByteTrackConfig::default()))),
            ),
            (
                "tracktor",
                Box::new(|| Box::new(TracktorLike::new(TracktorLikeConfig::default()))),
            ),
        ];
        for (name, make) in &trackers {
            group.bench_with_input(BenchmarkId::new(*name, n), &frames, |b, frames| {
                b.iter(|| {
                    let mut t = make();
                    black_box(track_video(t.as_mut(), frames).len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solver, bench_tracker_steps);
criterion_main!(benches);
