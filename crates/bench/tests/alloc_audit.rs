//! Steady-state allocation audit: after warm-up, the scoring and
//! assignment hot paths must perform **zero** heap allocations, and a live
//! query must allocate in proportion to the retained feed, not to the
//! merge history behind it.
//!
//! A counting global allocator ([`tm_bench::perf::CountingAlloc`]) is
//! installed for this whole test binary, and everything runs inside ONE
//! `#[test]` function: the default test harness runs `#[test]`s on
//! multiple threads, and any concurrent test's allocations would pollute
//! the counters.
//!
//! Thread fan-out is pinned with `tm_par::serial_scope` — not the
//! `TMERGE_THREADS` env var, because `std::env::var_os` itself allocates
//! when the variable is set, which would show up as a false positive
//! inside the audited region.

use tm_bench::perf::CountingAlloc;
use tm_core::score::{exact_scores_with, ScoreScratch};
use tm_core::selector::SelectionInput;
use tm_core::{StreamConfig, TMerge, TMergeConfig, VoiMode};
use tm_query::Query;
use tm_reid::{
    AppearanceConfig, AppearanceModel, CostModel, Device, GateConfig, GatePolicy, InferenceBackend,
    ReidSession,
};
use tm_serve::{AdmissionConfig, ServeConfig, TenantSpec, TmServe};
use tm_synth::{TenantWorkload, TenantWorkloadConfig};
use tm_track::assign::{
    iou_threshold_matches, min_cost_assignment_into, AssignmentScratch, BoxMatchScratch,
};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// Runs `label`'s steady state: two warm rounds to grow every pool, then
/// the counters must stay flat over the audited rounds.
fn assert_zero_alloc(label: &str, mut round: impl FnMut()) {
    round();
    round();
    let before = CountingAlloc::snapshot();
    for _ in 0..5 {
        round();
    }
    let delta = before.delta();
    assert_eq!(
        (delta.calls, delta.bytes),
        (0, 0),
        "{label}: steady-state rounds allocated {} times / {} bytes",
        delta.calls,
        delta.bytes
    );
}

/// Bytes one Count + Co-occurrence query pair allocates on a live daemon
/// at cycles 50 and 150, with the merges its shard had committed by then.
/// The traffic is serve_suite's `gated_retention_keeps_the_envelope_flat`:
/// one tenant, one gated stream, two actors, horizon 6, ten windows a
/// cycle over a rolling feed, so the shard commits merges every cycle
/// while retention keeps the feed flat.
fn live_query_bytes(model: &AppearanceModel) -> [(u64, usize); 2] {
    const WINDOW: u64 = 200;
    const HORIZON: u64 = 6;
    const WINDOWS_PER_CYCLE: u64 = 10;
    let workload = TenantWorkload::new(TenantWorkloadConfig {
        actors: 2,
        ..TenantWorkloadConfig::default()
    });
    let config = ServeConfig {
        stream: StreamConfig {
            window_len: WINDOW,
            k: 0.1,
            gate: GatePolicy::On(GateConfig::default()),
            voi: VoiMode::Off,
        },
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: Some(HORIZON),
    };
    let mut serve = TmServe::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        config,
        |_, _| {
            TMerge::new(TMergeConfig {
                tau_max: 1_500,
                seed: 4,
                ..TMergeConfig::default()
            })
        },
    );
    let backends: [&dyn InferenceBackend; 1] = [model];
    let admission = AdmissionConfig {
        max_queue: 64,
        bytes_per_window: u64::MAX / 4,
        quota_window_ms: 1_000.0,
        rate_capacity: 1_000.0,
        rate_per_ms: 100.0,
        retry_hint_ms: 10,
    };
    serve
        .register(
            TenantSpec {
                id: 1,
                streams: 1,
                admission,
            },
            &backends,
        )
        .expect("register");
    let stride = WINDOW / 2;
    let mut samples = Vec::new();
    for c in 0..150u64 {
        let frames = (c + 1) * WINDOWS_PER_CYCLE * stride;
        let lo = frames.saturating_sub((HORIZON + WINDOWS_PER_CYCLE + 8) * stride + 2 * WINDOW);
        let feed = workload.tracks_range(1, 0, lo, frames);
        assert!(serve.submit(c as f64, 1, 0, feed, frames).is_admitted());
        serve.run_once(c as f64 + 0.5).expect("cycle");
        if c + 1 == 50 || c + 1 == 150 {
            let before = CountingAlloc::snapshot();
            let answers = (
                serve.query(1, 0, Query::Count { min_frames: 200 }),
                serve.query(
                    1,
                    0,
                    Query::CoOccurrence {
                        group_size: 3,
                        min_frames: 50,
                    },
                ),
            );
            let bytes = before.delta().bytes;
            assert!(answers.0.is_ok() && answers.1.is_ok());
            let accepted = serve.fleet(1).expect("tenant").shard(0).accepted().len();
            samples.push((bytes, accepted));
        }
    }
    [samples[0], samples[1]]
}

#[test]
fn steady_state_hot_paths_allocate_nothing() {
    tm_par::serial_scope(|| {
        // --- Scoring: one window's exact scores on a warm scratch. ---
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 12, 0.0),
            track(2, 10, 30, 12, 160.0),
            track(3, 11, 0, 12, 400.0),
            track(4, 12, 5, 12, 800.0),
        ]);
        let mut pairs = Vec::new();
        for a in 1..=4u64 {
            for b in (a + 1)..=4 {
                pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
            }
        }
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        // The session persists across windows (its feature cache is the
        // cross-window reuse of §IV-B), the scratch and output are reused.
        let mut session = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        let mut scratch = ScoreScratch::new();
        let mut out = Vec::new();
        assert_zero_alloc("exact_scores_with", || {
            exact_scores_with(&input, &mut session, &mut scratch, &mut out).expect("score");
            assert_eq!(out.len(), pairs.len());
        });

        // --- Assignment: per-frame box matching, both paths. ---
        let cols: Vec<BBox> = (0..96)
            .map(|i| BBox::new((i % 12) as f64 * 130.0, (i / 12) as f64 * 130.0, 50.0, 90.0))
            .collect();
        let rows: Vec<BBox> = cols
            .iter()
            .step_by(3)
            .map(|b| BBox::new(b.x + 7.0, b.y + 5.0, b.w, b.h))
            .collect();
        let mut bm = BoxMatchScratch::new();
        assert_zero_alloc("iou_threshold_matches (gated)", || {
            let n = iou_threshold_matches(&rows, &cols, 0.5, &mut bm).len();
            assert_eq!(n, rows.len());
        });
        assert_zero_alloc("iou_threshold_matches (dense)", || {
            let n = iou_threshold_matches(&rows, &cols, 1.0, &mut bm).len();
            assert_eq!(n, rows.len());
        });

        // --- Dense assignment into a reused output buffer. ---
        let n = 24usize;
        let cost: Vec<f64> = (0..n * n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0)
            .collect();
        let mut asg = AssignmentScratch::default();
        let mut assign_out = Vec::new();
        assert_zero_alloc("min_cost_assignment_into", || {
            min_cost_assignment_into(&cost, n, n, &mut asg, &mut assign_out);
            assert_eq!(assign_out.len(), n);
        });

        // --- Live queries: cost follows the retained feed. ---
        // The merge history triples between the two samples; the bytes a
        // query pair allocates must stay within 1.25x.
        let [(early, early_pairs), (late, late_pairs)] = live_query_bytes(&model);
        eprintln!("live query pair: {early} bytes at {early_pairs} pairs, {late} at {late_pairs}");
        assert!(
            late_pairs >= 2 * early_pairs,
            "history must grow: {early_pairs} -> {late_pairs} accepted pairs"
        );
        assert!(
            late * 4 <= early * 5,
            "a live query pair allocated {early} bytes at {early_pairs} accepted pairs \
             and {late} at {late_pairs}"
        );
    });
}
