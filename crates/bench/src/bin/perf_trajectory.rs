//! The perf trajectory: a fixed, seeded workload suite whose results are
//! written to `BENCH_kernels.json`, `BENCH_cache.json` and
//! `BENCH_ingest.json` at the repository root, tagged with the git SHA and
//! CPU dispatch that produced them. Re-run after a change and diff the
//! files to see the performance trajectory of the repo.
//!
//! Suites:
//!
//! * **kernels** — the dense scoring dot product (SIMD vs the pinned
//!   scalar reference — the ≥ 1.5× speedup gate lives here), the blocked
//!   pairwise-distance kernel, the end-to-end exact scorer on a warm
//!   scratch, one TMerge selection at the offline shape (105 pairs,
//!   τ_max = 10 000), and the IoU gating/assignment kernels.
//! * **cache** — hit and miss storms of 4 lanes, one thread each, over one
//!   [`tm_reid::BatchScheduler`].
//! * **ingest** — a reduced `FleetIngester` multi-stream window loop
//!   (construction through `finish`).
//!
//! `--quick` shrinks iteration counts for CI smoke use. Every report is
//! validated and round-tripped through the schema decoder before the
//! previous trajectory point is overwritten; failure exits non-zero.

use std::sync::atomic::{AtomicU64, Ordering};
use tm_bench::perf::{
    collect_meta, repo_root, speedup, time_iters, BenchCase, BenchReport, CountingAlloc, Timing,
};
use tm_core::score::{exact_scores_with, ScoreScratch};
use tm_core::selector::{CandidateSelector, SelectionInput};
use tm_core::{FleetIngester, StreamConfig, TMerge, TMergeConfig};
use tm_reid::{
    AppearanceConfig, AppearanceModel, Attempt, BatchConfig, BatchScheduler, BatchingBackend,
    BoxKey, CostModel, Device, InferenceBackend, ReidSession,
};
use tm_track::assign::{
    iou_threshold_matches, min_cost_assignment_into, AssignmentScratch, BoxMatchScratch,
};
use tm_types::simd::{dot, dot_scalar, simd_enabled};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Minimum accepted median speedup of the SIMD dot kernel over the pinned
/// scalar reference on hosts where the AVX2+FMA path is active.
const MIN_DOT_SPEEDUP: f64 = 1.5;

fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn unit_matrix(rows: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    let mut out = Vec::with_capacity(rows * dim);
    for _ in 0..rows {
        let row: Vec<f64> = (0..dim).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
        let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        out.extend(row.iter().map(|x| x / norm));
    }
    out
}

fn track(id: u64, actor: u64, start: u64, n: usize, x0: f64) -> Track {
    Track::with_boxes(
        TrackId(id),
        classes::PEDESTRIAN,
        (0..n)
            .map(|i| {
                TrackBox::new(
                    FrameIdx(start + i as u64),
                    BBox::new(x0 + i as f64 * 5.0, 100.0, 40.0, 80.0),
                )
                .with_provenance(GtObjectId(actor))
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Suite 1: kernels
// ---------------------------------------------------------------------------

fn kernels_suite(quick: bool) -> Vec<BenchCase> {
    let iters = if quick { 7 } else { 30 };
    let mut cases = Vec::new();

    // Dot product, 64×64 row pairs at dim 256 — the speedup gate workload.
    let (rows, dim) = (64usize, 256usize);
    let fa = unit_matrix(rows, dim, 1);
    let fb = unit_matrix(rows, dim, 2);
    let dots = (rows * rows) as u64;
    let run_dot = |f: &dyn Fn(&[f64], &[f64]) -> f64| {
        let mut acc = 0.0f64;
        for ra in fa.chunks_exact(dim) {
            for rb in fb.chunks_exact(dim) {
                acc += f(ra, rb);
            }
        }
        std::hint::black_box(acc);
    };
    let t_scalar = time_iters(iters, || run_dot(&dot_scalar));
    let t_simd = time_iters(iters, || run_dot(&dot));
    cases.push(BenchCase::from_timing(
        "dot_scalar_d256",
        t_scalar,
        dots,
        0,
        0,
    ));
    cases.push(BenchCase::from_timing("dot_simd_d256", t_simd, dots, 0, 0));
    gate_dot_speedup(t_scalar, t_simd);

    // Blocked pairwise-distance kernel, the exact scorer's arithmetic core.
    let (na, nb, sdim) = (40usize, 200usize, 32usize);
    let ka = unit_matrix(na, sdim, 3);
    let kb = unit_matrix(nb, sdim, 4);
    let t_pair_scalar = time_iters(iters, || {
        std::hint::black_box(tm_core::simd::sum_pairwise_unit_distances_scalar(
            &ka, &kb, sdim,
        ));
    });
    let t_pair = time_iters(iters, || {
        std::hint::black_box(tm_core::score::sum_pairwise_unit_distances(&ka, &kb, sdim));
    });
    let pairs = (na * nb) as u64;
    cases.push(BenchCase::from_timing(
        "pairwise_scalar_40x200_d32",
        t_pair_scalar,
        pairs,
        0,
        0,
    ));
    cases.push(BenchCase::from_timing(
        "pairwise_simd_40x200_d32",
        t_pair,
        pairs,
        0,
        0,
    ));

    // End-to-end exact scorer on a warm scratch (steady-state window).
    let model = AppearanceModel::new(AppearanceConfig::default());
    let tracks = TrackSet::from_tracks(vec![
        track(1, 10, 0, 20, 0.0),
        track(2, 10, 40, 20, 160.0),
        track(3, 11, 0, 20, 400.0),
        track(4, 12, 10, 20, 800.0),
        track(5, 13, 0, 20, 1200.0),
        track(6, 13, 30, 20, 1360.0),
    ]);
    let mut pairs_v = Vec::new();
    for a in 1..=6u64 {
        for b in (a + 1)..=6 {
            pairs_v.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
        }
    }
    let input = SelectionInput {
        pairs: &pairs_v,
        tracks: &tracks,
        k: 1.0,
        voi: None,
    };
    let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let mut scratch = ScoreScratch::new();
    let mut out = Vec::new();
    let inf_before = session.stats().inferences;
    let alloc = CountingAlloc::snapshot();
    let t_score = time_iters(iters, || {
        exact_scores_with(&input, &mut session, &mut scratch, &mut out).expect("score");
        std::hint::black_box(out.len());
    });
    let bench_bytes = alloc.delta().bytes;
    let inferences = session.stats().inferences - inf_before;
    // 15 pairs × 400 bbox pairs per call.
    cases.push(BenchCase::from_timing(
        "exact_scores_warm_15x400",
        t_score,
        pairs_v.len() as u64 * 400,
        inferences,
        bench_bytes,
    ));

    // One TMerge selection at the offline workload's shape: 105 pairs
    // (15 tracks of 40 boxes, 7 of them fragments of another), K = 5%,
    // τ_max = 10 000 on CPU, ULB on. Every round draws a Beta posterior for
    // each live pair, so a round costs Σ(S+F) uniforms and the run grows
    // as τ_max².
    let sel_tracks = TrackSet::from_tracks(
        (0..15u64)
            .map(|i| track(i + 1, 20 + i % 8, (i / 8) * 50, 40, i as f64 * 150.0))
            .collect(),
    );
    let mut sel_pairs = Vec::new();
    for a in 1..=15u64 {
        for b in (a + 1)..=15 {
            sel_pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
        }
    }
    let sel_input = SelectionInput {
        pairs: &sel_pairs,
        tracks: &sel_tracks,
        k: 0.05,
        voi: None,
    };
    let tmerge = TMerge::new(TMergeConfig {
        seed: 1,
        ..TMergeConfig::default()
    });
    let (mut pulls, mut sel_inferences) = (0, 0);
    let alloc = CountingAlloc::snapshot();
    let t_select = time_iters(if quick { 2 } else { 10 }, || {
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let r = tmerge.select(&sel_input, &mut session).expect("select");
        pulls = r.distance_evals;
        sel_inferences = session.stats().inferences;
    });
    cases.push(BenchCase::from_timing(
        &format!("tmerge_select_{}x{}_cpu", sel_pairs.len(), pulls),
        t_select,
        pulls,
        sel_inferences,
        alloc.delta().bytes,
    ));

    // IoU gating: dense mask-and-solve and grid-gated sparse paths.
    let mut seed = 77u64;
    let cols: Vec<BBox> = (0..256)
        .map(|i| {
            BBox::new(
                (i % 16) as f64 * 120.0 + splitmix(&mut seed) * 30.0,
                (i / 16) as f64 * 120.0 + splitmix(&mut seed) * 30.0,
                40.0 + splitmix(&mut seed) * 20.0,
                80.0 + splitmix(&mut seed) * 20.0,
            )
        })
        .collect();
    let rows_b: Vec<BBox> = cols
        .iter()
        .step_by(4)
        .map(|b| BBox::new(b.x + 6.0, b.y + 4.0, b.w, b.h))
        .collect();
    let mut bm = BoxMatchScratch::new();
    let t_dense = time_iters(iters, || {
        // max_cost ≥ 1 forces the dense reference path.
        std::hint::black_box(iou_threshold_matches(&rows_b, &cols, 1.0, &mut bm).len());
    });
    cases.push(BenchCase::from_timing(
        "iou_dense_64x256",
        t_dense,
        (rows_b.len() * cols.len()) as u64,
        0,
        0,
    ));
    let t_gated = time_iters(iters, || {
        std::hint::black_box(iou_threshold_matches(&rows_b, &cols, 0.5, &mut bm).len());
    });
    cases.push(BenchCase::from_timing(
        "iou_gated_64x256",
        t_gated,
        (rows_b.len() * cols.len()) as u64,
        0,
        0,
    ));

    // Dense assignment solve into a reused buffer.
    let n = 64usize;
    let mut seed = 5u64;
    let cost: Vec<f64> = (0..n * n).map(|_| splitmix(&mut seed)).collect();
    let mut asg = AssignmentScratch::default();
    let mut assign_out = Vec::new();
    let t_assign = time_iters(iters, || {
        min_cost_assignment_into(&cost, n, n, &mut asg, &mut assign_out);
        std::hint::black_box(assign_out.len());
    });
    cases.push(BenchCase::from_timing(
        "assignment_dense_64x64",
        t_assign,
        n as u64,
        0,
        0,
    ));

    cases
}

/// The hard perf gate: on hosts running the AVX2+FMA path, the SIMD dot
/// kernel must beat the pinned scalar reference by ≥ 1.5× median. On
/// fallback hosts the gate is skipped (recorded, not failed).
fn gate_dot_speedup(t_scalar: Timing, t_simd: Timing) {
    let ratio = speedup(t_scalar, t_simd);
    if simd_enabled() {
        println!("simd dot speedup: {ratio:.2}x (gate: >= {MIN_DOT_SPEEDUP}x)");
        assert!(
            ratio >= MIN_DOT_SPEEDUP,
            "SIMD dot kernel only {ratio:.2}x over scalar (need {MIN_DOT_SPEEDUP}x)"
        );
    } else {
        println!("simd dot gate skipped: scalar-fallback dispatch (ratio {ratio:.2}x)");
    }
}

// ---------------------------------------------------------------------------
// Suite 2: lane storms
// ---------------------------------------------------------------------------

const STORM_THREADS: u64 = 4;

/// Lane `lane` demands storm box `k`: a clean attempt keyed by the lane's
/// own track id, so only the box content is shared between lanes.
fn storm_attempt(lane: u64, k: u64) -> Attempt {
    Attempt {
        epoch: 0,
        attempt: 0,
        key: BoxKey::new(TrackId(lane), FrameIdx(k)),
    }
}

fn cache_suite(quick: bool) -> Vec<BenchCase> {
    let iters = if quick { 3 } else { 10 };
    let keys: u64 = if quick { 512 } else { 4096 };
    let model = AppearanceModel::new(AppearanceConfig::default());
    let boxes: Vec<TrackBox> = (0..keys)
        .map(|k| {
            TrackBox::new(
                FrameIdx(k),
                BBox::new((k % 64) as f64 * 10.0, 100.0, 40.0, 80.0),
            )
            .with_provenance(GtObjectId(k % 97))
        })
        .collect();
    let mut cases = Vec::new();

    // Hit storm: a pre-warmed scheduler, every lane demands every key.
    let warm = BatchScheduler::new(&model, BatchConfig::default());
    let lane = warm.backend(&model);
    for (k, b) in (0..keys).zip(&boxes) {
        lane.try_observe(b, &storm_attempt(0, k));
    }
    let alloc = CountingAlloc::snapshot();
    let t_hits = time_iters(iters, || {
        std::thread::scope(|s| {
            for w in 0..STORM_THREADS {
                let lane = warm.backend(&model);
                let boxes = &boxes;
                s.spawn(move || {
                    for (k, b) in (0..keys).zip(boxes) {
                        let reply = lane.try_observe(b, &storm_attempt(w, k));
                        assert!(reply.outcome.is_ok());
                    }
                });
            }
        });
    });
    assert_eq!(warm.stats().computed, keys, "a hit storm computes nothing");
    cases.push(BenchCase::from_timing(
        &format!("lane_hits_t{STORM_THREADS}"),
        t_hits,
        keys * STORM_THREADS,
        0,
        alloc.delta().bytes,
    ));

    // Miss storm: a cold scheduler per iteration; lanes race over rotated
    // key orders, demanding each key.
    let computed = AtomicU64::new(0);
    let alloc = CountingAlloc::snapshot();
    let t_misses = time_iters(iters, || {
        let scheduler = BatchScheduler::new(&model, BatchConfig::default());
        std::thread::scope(|s| {
            for w in 0..STORM_THREADS {
                let lane = scheduler.backend(&model);
                let boxes = &boxes;
                s.spawn(move || {
                    for k in (0..keys).map(|k| (k + w * keys / STORM_THREADS) % keys) {
                        let reply = lane.try_observe(&boxes[k as usize], &storm_attempt(w, k));
                        assert!(reply.outcome.is_ok());
                    }
                });
            }
        });
        let stats = scheduler.stats();
        assert_eq!(stats.computed, keys, "each key computed once");
        assert_eq!(stats.requests, keys * STORM_THREADS);
        computed.fetch_add(stats.computed, Ordering::Relaxed);
    });
    cases.push(BenchCase::from_timing(
        &format!("lane_misses_t{STORM_THREADS}"),
        t_misses,
        keys * STORM_THREADS,
        computed.load(Ordering::Relaxed),
        alloc.delta().bytes,
    ));
    cases
}

// ---------------------------------------------------------------------------
// Suite 3: fleet ingest
// ---------------------------------------------------------------------------

fn stream_tracks(i: usize, scale: usize) -> TrackSet {
    let mut tracks = vec![
        track(1, 10, 0, 30 * scale / 4, 0.0),
        track(2, 10, 80, 30 * scale / 4, 160.0),
        track(3, 11, 0, 60 * scale / 4, 400.0),
        track(4, 12, 100, 60 * scale / 4, 800.0),
        track(5, 13, 250, 40 * scale / 4, 1200.0),
    ];
    tracks.push(track(
        100 + i as u64,
        50 + i as u64,
        120,
        10 * scale / 4,
        2000.0 + i as f64 * 37.0,
    ));
    TrackSet::from_tracks(tracks)
}

fn ingest_suite(quick: bool) -> Vec<BenchCase> {
    let iters = if quick { 2 } else { 5 };
    let n_streams = if quick { 2 } else { 4 };
    let n_frames = 700u64;
    let schedule = [250u64, 480, n_frames];
    let model = AppearanceModel::new(AppearanceConfig::default());
    let feeds: Vec<TrackSet> = (0..n_streams).map(|i| stream_tracks(i, 4)).collect();
    let stream_config = StreamConfig {
        window_len: 200,
        k: 0.2,
        gate: tm_reid::GatePolicy::Off,
        voi: tm_core::VoiMode::Off,
    };
    let inferences = AtomicU64::new(0);
    let alloc = CountingAlloc::snapshot();
    let t = time_iters(iters, || {
        let scheduler = BatchScheduler::new(&model, BatchConfig::default());
        let lanes: Vec<BatchingBackend<'_>> =
            (0..n_streams).map(|_| scheduler.backend(&model)).collect();
        let backends: Vec<&dyn InferenceBackend> =
            lanes.iter().map(|l| l as &dyn InferenceBackend).collect();
        let mut fleet = FleetIngester::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            stream_config,
            |_| {
                TMerge::new(TMergeConfig {
                    tau_max: 1_500,
                    seed: 4,
                    ..TMergeConfig::default()
                })
            },
            &backends,
        )
        .expect("valid fleet");
        for frames in schedule {
            let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, frames)).collect();
            fleet.advance(&refs).expect("fleet advance");
        }
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, n_frames)).collect();
        fleet.finish(&refs).expect("fleet finish");
        inferences.store(scheduler.stats().computed, Ordering::Relaxed);
    });
    vec![BenchCase::from_timing(
        &format!("fleet_ingest_{n_streams}x{n_frames}"),
        t,
        n_streams as u64 * n_frames,
        inferences.load(Ordering::Relaxed),
        alloc.delta().bytes,
    )]
}

// ---------------------------------------------------------------------------

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let meta = collect_meta(quick);
    let root = repo_root();
    println!(
        "perf trajectory @ {} (threads={}, simd={}, quick={})",
        meta.git_sha, meta.threads, meta.simd, quick
    );
    let suites: [(&str, Vec<BenchCase>); 3] = [
        ("BENCH_kernels.json", kernels_suite(quick)),
        ("BENCH_cache.json", cache_suite(quick)),
        ("BENCH_ingest.json", ingest_suite(quick)),
    ];
    for (file, cases) in suites {
        let report = BenchReport {
            meta: meta.clone(),
            cases,
        };
        // Validate and round-trip through the schema decoder BEFORE
        // overwriting the previous trajectory point.
        report
            .validate()
            .unwrap_or_else(|e| panic!("{file}: invalid report: {e}"));
        let text = report.encode();
        let back = BenchReport::decode(&text)
            .unwrap_or_else(|e| panic!("{file}: self round-trip failed: {e}"));
        assert_eq!(back, report, "{file}: decode(encode) drifted");
        let path = root.join(file);
        std::fs::write(&path, &text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        for c in &report.cases {
            println!(
                "  {:<34} p50 {:>12} ns  p99 {:>12} ns  {:>14.0} items/s",
                c.name, c.wall_ns_p50, c.wall_ns_p99, c.throughput_items_per_s
            );
        }
        println!("wrote {}", path.display());
    }
}
