//! Fleet-vs-solo differential harness.
//!
//! The contract under test: a `FleetIngester` driving N streams over a
//! shared cross-stream `BatchScheduler` must leave every stream's output
//! **byte-identical** to running that stream alone through its own
//! `StreamingMerger` with its own fault backend — decisions, accepted
//! merges, mapping, robustness counters and the simulated clock down to
//! the f64 bits — for any fault plan, any `TMERGE_THREADS`, any shard
//! interleaving. Batching may only change *which wall-clock moment* a
//! feature is computed at, never what any stream observes.

use std::sync::Mutex;
use tm_chaos::{FaultPlan, FaultyModel};
use tm_core::{
    merge_mapping, run_pipeline_with_backend, FleetIngester, PipelineConfig, PipelineReport,
    RobustnessConfig, RobustnessReport, SelectorKind, StreamConfig, StreamingMerger, TMerge,
    TMergeConfig, WindowDecision,
};
use tm_reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, BatchStats, BatchingBackend,
    CostModel, Device, GateConfig, GatePolicy, InferenceBackend, RetryPolicy,
};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

/// Total length of every synthetic feed, frames.
const N_FRAMES: u64 = 700;
/// Window length `L`; windows advance every `L/2 = 100` frames.
const WINDOW_LEN: u64 = 200;
/// Irregular watermark schedule shared by every run.
const SCHEDULE: [u64; 3] = [250, 480, N_FRAMES];

/// Serializes `TMERGE_THREADS` mutation across tests: concurrent
/// `set_var`/`var` from different test threads races in libc.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under each thread-count setting.
fn with_thread_counts(mut f: impl FnMut(&str)) {
    let _guard = ENV_LOCK.lock().unwrap();
    for n in ["1", "4"] {
        std::env::set_var("TMERGE_THREADS", n);
        f(n);
    }
    std::env::remove_var("TMERGE_THREADS");
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

/// The chaos suite's fragmented feed: admissible pairs in every window.
fn base_tracks() -> Vec<Track> {
    vec![
        track(1, 10, 0, 30, 0.0),
        track(2, 10, 80, 30, 160.0),
        track(3, 11, 0, 300, 400.0),
        track(4, 12, 100, 300, 800.0),
        track(5, 13, 250, 60, 1200.0),
        track(6, 13, 330, 40, 1360.0),
        track(7, 14, 420, 60, 0.0),
        track(8, 14, 500, 50, 160.0),
        track(9, 15, 350, 300, 400.0),
    ]
}

/// Stream `i`'s feed: the shared base scene (identical box content across
/// streams, so the batching layer can reuse features) plus one
/// stream-unique track so siblings are similar but not identical.
fn stream_tracks(i: usize) -> TrackSet {
    let mut tracks = base_tracks();
    tracks.push(track(
        100 + i as u64,
        50 + i as u64,
        120,
        40,
        2000.0 + i as f64 * 37.0,
    ));
    TrackSet::from_tracks(tracks)
}

fn selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 1_500,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_len: WINDOW_LEN,
        k: 0.2,
        gate: tm_reid::GatePolicy::Off,
        voi: tm_core::VoiMode::Off,
    }
}

/// Everything a stream's run produces, in comparable form.
#[derive(Debug, PartialEq)]
struct StreamOutcome {
    decisions: Vec<WindowDecision>,
    accepted: Vec<TrackPair>,
    robustness: RobustnessReport,
    /// `elapsed_ms` bits: the clock must agree exactly, not approximately.
    elapsed_bits: u64,
    mapping: std::collections::HashMap<TrackId, TrackId>,
}

fn outcome(m: &mut StreamingMerger<'_, TMerge>) -> StreamOutcome {
    StreamOutcome {
        decisions: m.decisions().to_vec(),
        accepted: m.accepted().to_vec(),
        robustness: m.robustness(),
        elapsed_bits: m.elapsed_ms().to_bits(),
        mapping: m.mapping(),
    }
}

/// Reference: stream `i` alone, its fault backend installed directly.
fn solo(
    config: StreamConfig,
    model: &AppearanceModel,
    tracks: &TrackSet,
    plan: FaultPlan,
) -> StreamOutcome {
    let faulty = FaultyModel::new(model, plan);
    let mut m = StreamingMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        config,
    )
    .unwrap()
    .with_backend(&faulty);
    for f in SCHEDULE {
        m.advance(tracks, f).unwrap();
    }
    m.finish(tracks, N_FRAMES).unwrap();
    outcome(&mut m)
}

/// The fleet run: every stream's fault backend wrapped in a lane of one
/// shared batching scheduler. Returns per-stream outcomes, the
/// scheduler's counters and the shards' summed session inferences.
fn fleet(
    config: StreamConfig,
    model: &AppearanceModel,
    feeds: &[TrackSet],
    plans: &[FaultPlan],
) -> (Vec<StreamOutcome>, BatchStats, u64) {
    let faulty: Vec<FaultyModel<'_>> = plans
        .iter()
        .map(|p| FaultyModel::new(model, p.clone()))
        .collect();
    let scheduler = BatchScheduler::new(model, BatchConfig::default());
    let lanes: Vec<BatchingBackend<'_>> = faulty.iter().map(|f| scheduler.backend(f)).collect();
    let backends: Vec<&dyn InferenceBackend> =
        lanes.iter().map(|l| l as &dyn InferenceBackend).collect();
    let mut fleet = FleetIngester::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        config,
        |_| selector(),
        &backends,
    )
    .unwrap();
    for f in SCHEDULE {
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, f)).collect();
        fleet.advance(&refs).unwrap();
    }
    let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, N_FRAMES)).collect();
    fleet.finish(&refs).unwrap();
    let outs = (0..feeds.len())
        .map(|i| outcome(fleet.shard_mut(i)))
        .collect();
    let inferences = (0..feeds.len())
        .map(|i| fleet.shard(i).reid_stats().inferences)
        .sum();
    (outs, scheduler.stats(), inferences)
}

/// Asserts that every stream of an `n_streams` fleet under `config` is
/// byte-identical to its solo run at each thread count, and returns the
/// scheduler's counters and the shards' summed inferences for each.
fn assert_fleet_matches_solo(
    config: StreamConfig,
    n_streams: usize,
    plan_for: impl Fn(usize) -> FaultPlan,
) -> Vec<(BatchStats, u64)> {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let feeds: Vec<TrackSet> = (0..n_streams).map(stream_tracks).collect();
    let solos: Vec<StreamOutcome> = feeds
        .iter()
        .enumerate()
        .map(|(i, t)| solo(config, &model, t, plan_for(i)))
        .collect();

    let mut runs = Vec::new();
    with_thread_counts(|threads| {
        let plans: Vec<FaultPlan> = (0..n_streams).map(&plan_for).collect();
        let (outs, stats, inferences) = fleet(config, &model, &feeds, &plans);
        for (i, (got, want)) in outs.iter().zip(&solos).enumerate() {
            assert_eq!(
                got, want,
                "stream {i} of {n_streams} diverged from its solo run at TMERGE_THREADS={threads}"
            );
        }
        runs.push((stats, inferences));
    });
    runs
}

/// Fault-free fleets of 1, 2 and 8 streams: every stream byte-identical to
/// solo at both thread counts, and with 8 similar streams the shared
/// scheduler must actually reuse features across streams.
#[test]
fn clean_fleet_matches_solo_runs() {
    assert_fleet_matches_solo(stream_config(), 1, |_| FaultPlan::none());
    assert_fleet_matches_solo(stream_config(), 2, |_| FaultPlan::none());
    for (stats, _) in assert_fleet_matches_solo(stream_config(), 8, |_| FaultPlan::none()) {
        assert!(
            stats.saved() > 0,
            "8 streams sharing a scene must reuse features across streams"
        );
    }
}

/// Gated fleets of 2 and 8 streams on the clean plan: every stream
/// byte-identical to its gated solo run at both thread counts, and the
/// shared scheduler computes only what the shards demanded — `requests` is
/// the shards' summed inferences, `computed ≤ requests`, and `computed` is
/// the same at every thread count.
#[test]
fn gated_fleet_matches_solo_and_computes_only_demands() {
    let config = StreamConfig {
        gate: GatePolicy::On(GateConfig::default()),
        ..stream_config()
    };
    for n_streams in [2, 8] {
        let runs = assert_fleet_matches_solo(config, n_streams, |_| FaultPlan::none());
        for (stats, inferences) in &runs {
            assert_eq!(
                stats.requests, *inferences,
                "{n_streams} streams: {stats:?}"
            );
            assert!(stats.computed <= stats.requests, "{stats:?}");
        }
        assert_eq!(
            runs[0].0.computed, runs[1].0.computed,
            "{n_streams} streams"
        );
    }
}

/// Flaky backends (per-stream seeds): faults, retries and latency spikes
/// replay identically through the batching lanes.
#[test]
fn flaky_fleet_matches_solo_runs() {
    assert_fleet_matches_solo(stream_config(), 2, |i| FaultPlan::flaky(100 + i as u64));
    assert_fleet_matches_solo(stream_config(), 8, |i| FaultPlan::flaky(100 + i as u64));
    // Sanity: the flaky plans actually fired.
    let model = AppearanceModel::new(AppearanceConfig::default());
    let out = solo(
        stream_config(),
        &model,
        &stream_tracks(0),
        FaultPlan::flaky(100),
    );
    assert!(out.robustness.backend_faults > 0, "{:?}", out.robustness);
}

/// One stream hard-down for two windows: it degrades and recovers exactly
/// as it would alone, and the outage never leaks into sibling streams.
#[test]
fn hard_down_stream_matches_solo_and_spares_siblings() {
    let plan_for = |i: usize| {
        if i == 1 {
            FaultPlan::none().with_hard_down(2, 4)
        } else {
            FaultPlan::none()
        }
    };
    assert_fleet_matches_solo(stream_config(), 3, plan_for);
    // The solo reference itself degraded and re-verified, so the fleet
    // equality above covered the interesting path.
    let model = AppearanceModel::new(AppearanceConfig::default());
    let out = solo(stream_config(), &model, &stream_tracks(1), plan_for(1));
    assert_eq!(out.robustness.degraded_windows, 2, "{:?}", out.robustness);
    assert_eq!(out.robustness.reverified_windows, 2, "{:?}", out.robustness);
}

/// The offline pipeline over stream `0`'s feed: the harness's selector
/// and stream config, with `plan` injected and `robustness` in force.
fn offline_report(
    model: &AppearanceModel,
    tracks: &TrackSet,
    plan: &FaultPlan,
    robustness: &RobustnessConfig,
) -> PipelineReport {
    let faulty = FaultyModel::new(model, plan.clone());
    run_pipeline_with_backend(
        tracks,
        N_FRAMES,
        model,
        &PipelineConfig {
            window_len: WINDOW_LEN,
            k: 0.2,
            selector: SelectorKind::TMerge(TMergeConfig {
                tau_max: 1_500,
                seed: 4,
                ..TMergeConfig::default()
            }),
            device: Device::Cpu,
            cost: CostModel::calibrated(),
            gate: tm_reid::GatePolicy::Off,
        },
        None,
        &faulty,
        robustness,
    )
    .unwrap()
}

/// Cross-check against the offline pipeline, clean and under the flaky
/// and hard-down plans: the pipeline drives the same window walk as a
/// fleet shard, so with the same fault backend it must commit the same
/// pairs in the same order, count the same faults and charge the same
/// clock, bit for bit.
#[test]
fn fleet_stream_matches_offline_pipeline() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let tracks = stream_tracks(0);
    for plan in [
        FaultPlan::none(),
        FaultPlan::flaky(100),
        FaultPlan::none().with_hard_down(2, 4),
    ] {
        let (outs, ..) = fleet(
            stream_config(),
            &model,
            std::slice::from_ref(&tracks),
            std::slice::from_ref(&plan),
        );
        let offline = offline_report(&model, &tracks, &plan, &RobustnessConfig::default());
        assert_eq!(outs[0].accepted, offline.accepted, "{plan:?}");
        assert_eq!(outs[0].robustness, offline.robustness, "{plan:?}");
        assert_eq!(
            outs[0].elapsed_bits,
            offline.elapsed_ms.to_bits(),
            "{plan:?}"
        );
    }
}

/// A non-default robustness config reaches the offline pipeline's merger:
/// with one attempt per extraction and a breaker that trips on the first
/// failed window, the pipeline matches a solo merger configured the same
/// way, and differs from a run under the default config.
#[test]
fn offline_pipeline_forwards_the_robustness_config() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let tracks = stream_tracks(0);
    let plan = FaultPlan::flaky(100);
    let robustness = RobustnessConfig {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        breaker_threshold: 1,
        ..RobustnessConfig::default()
    };

    let faulty = FaultyModel::new(&model, plan.clone());
    let mut solo = StreamingMerger::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        stream_config(),
    )
    .unwrap()
    .with_backend(&faulty)
    .with_robustness(robustness);
    for f in SCHEDULE {
        solo.advance(&tracks, f).unwrap();
    }
    solo.finish(&tracks, N_FRAMES).unwrap();

    let custom = offline_report(&model, &tracks, &plan, &robustness);
    assert_eq!(solo.robustness(), custom.robustness);
    assert_eq!(solo.elapsed_ms().to_bits(), custom.elapsed_ms.to_bits());
    assert_eq!(solo.mapping(), merge_mapping(&custom.accepted));
    assert_eq!(custom.robustness.retries, 0, "{:?}", custom.robustness);

    let default = offline_report(&model, &tracks, &plan, &RobustnessConfig::default());
    assert!(default.robustness.retries > 0, "{:?}", default.robustness);
}
