//! Chaos-hardened ingestion: the acceptance suite for deterministic fault
//! injection, retry/backoff, degraded-mode merging, and checkpoint/resume.
//!
//! Everything here runs against `tm-chaos` fault plans, which are pure
//! hashes of `(seed, epoch, box, attempt)` — the same plan produces the
//! identical fault sequence on every run, so each test is reproducible
//! bit for bit.

use tmerge::chaos::stream::regressing_watermarks;
use tmerge::chaos::{FaultPlan, FaultyModel, StreamFaults};
use tmerge::core::{
    run_pipeline, run_pipeline_with_backend, DecisionMode, FleetIngester, GlobalConfig,
    GlobalMerger, PipelineConfig, RobustnessConfig, RobustnessReport, SelectorKind, StreamConfig,
    StreamingMerger, TMerge, TMergeConfig,
};
use tmerge::reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, BatchingBackend, CostModel,
    Device, InferenceBackend,
};
use tmerge::synth::{MultiCameraWorld, WorldConfig};
use tmerge::types::{
    ids::classes, BBox, FrameIdx, GtObjectId, TmError, Track, TrackBox, TrackId, TrackSet,
};

/// Total length of the synthetic feed, frames.
const N_FRAMES: u64 = 700;
/// Window length `L`; windows advance every `L/2 = 100` frames.
const WINDOW_LEN: u64 = 200;

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

/// Fragmented tracker output spanning seven windows of `L = 200`, with
/// admissible pairs in every full window: three long "background" tracks
/// bridge the windows while three actors fragment mid-feed.
fn fixture() -> (AppearanceModel, TrackSet) {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let tracks = TrackSet::from_tracks(vec![
        track(1, 10, 0, 30, 0.0),
        track(2, 10, 80, 30, 160.0), // fragment of actor 10
        track(3, 11, 0, 300, 400.0),
        track(4, 12, 100, 300, 800.0),
        track(5, 13, 250, 60, 1200.0),
        track(6, 13, 330, 40, 1360.0), // fragment of actor 13
        track(7, 14, 420, 60, 0.0),
        track(8, 14, 500, 50, 160.0), // fragment of actor 14
        track(9, 15, 350, 300, 400.0),
    ]);
    (model, tracks)
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
        voi: tmerge::core::VoiMode::Off,
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
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
    }
}

fn merger(model: &AppearanceModel) -> StreamingMerger<'_, TMerge> {
    StreamingMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        stream_config(),
    )
    .unwrap()
}

fn gated_merger(model: &AppearanceModel) -> StreamingMerger<'_, TMerge> {
    StreamingMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        StreamConfig {
            gate: tm_reid::GatePolicy::On(tm_reid::GateConfig::default()),
            ..stream_config()
        },
    )
    .unwrap()
}

fn sorted_ids(tracks: &TrackSet) -> Vec<u64> {
    let mut ids: Vec<u64> = tracks.iter().map(|t| t.id.get()).collect();
    ids.sort_unstable();
    ids
}

/// Acceptance: an all-zero fault plan must be bit-for-bit transparent in
/// the offline pipeline — same candidates, same merges, same simulated
/// clock reading to the bit, and all robustness counters zero.
#[test]
fn zero_fault_plan_is_byte_identical_offline() {
    let (model, tracks) = fixture();
    let config = pipeline_config();

    let plain = run_pipeline(&tracks, N_FRAMES, &model, &config, None).unwrap();
    let wrapper = FaultyModel::new(&model, FaultPlan::none());
    let wrapped = run_pipeline_with_backend(
        &tracks,
        N_FRAMES,
        &model,
        &config,
        None,
        &wrapper,
        &RobustnessConfig::default(),
    )
    .unwrap();

    assert_eq!(plain.candidates, wrapped.candidates);
    assert_eq!(plain.accepted, wrapped.accepted);
    assert_eq!(plain.n_pairs, wrapped.n_pairs);
    assert_eq!(plain.distance_evals, wrapped.distance_evals);
    assert_eq!(plain.stats, wrapped.stats);
    assert_eq!(
        plain.elapsed_ms.to_bits(),
        wrapped.elapsed_ms.to_bits(),
        "simulated clock must agree to the bit"
    );
    assert_eq!(sorted_ids(&plain.merged), sorted_ids(&wrapped.merged));
    assert_eq!(wrapped.robustness, RobustnessReport::default());
    assert!(
        !plain.accepted.is_empty(),
        "the fixture should contain mergeable fragments"
    );
}

/// Acceptance: the same transparency holds for the streaming merger.
#[test]
fn zero_fault_plan_is_byte_identical_streaming() {
    let (model, tracks) = fixture();
    let wrapper = FaultyModel::new(&model, FaultPlan::none());

    let mut plain = merger(&model);
    let mut wrapped = merger(&model).with_backend(&wrapper);
    for frames in [250, 480, N_FRAMES] {
        plain.advance(&tracks, frames).unwrap();
        wrapped.advance(&tracks, frames).unwrap();
    }
    plain.finish(&tracks, N_FRAMES).unwrap();
    wrapped.finish(&tracks, N_FRAMES).unwrap();

    assert_eq!(plain.decisions(), wrapped.decisions());
    assert_eq!(plain.accepted(), wrapped.accepted());
    assert_eq!(plain.elapsed_ms().to_bits(), wrapped.elapsed_ms().to_bits());
    assert_eq!(plain.mapping(), wrapped.mapping());
    assert_eq!(wrapped.robustness(), RobustnessReport::default());
}

/// A flaky backend (transient failures, latency spikes, corrupt features)
/// is absorbed by retry/backoff without a panic, and two runs of the same
/// plan are identical down to the simulated clock bits.
#[test]
fn flaky_backend_is_survivable_and_deterministic() {
    let (model, tracks) = fixture();
    let config = pipeline_config();
    let robustness = RobustnessConfig::new();

    let run = || {
        let wrapper = FaultyModel::new(&model, FaultPlan::flaky(7));
        run_pipeline_with_backend(
            &tracks,
            N_FRAMES,
            &model,
            &config,
            None,
            &wrapper,
            &robustness,
        )
        .unwrap()
    };
    let a = run();
    let b = run();

    assert_eq!(a.candidates, b.candidates);
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.elapsed_ms.to_bits(), b.elapsed_ms.to_bits());
    assert_eq!(a.robustness, b.robustness);
    assert!(
        a.robustness.backend_faults > 0,
        "a 5% transient failure rate must surface faults: {:?}",
        a.robustness
    );
    assert!(
        a.robustness.retries > 0,
        "faults are absorbed by retrying: {:?}",
        a.robustness
    );
}

/// Acceptance: with the ReID backend hard-down for two consecutive windows
/// the stream completes without panicking, tags exactly those windows
/// `Degraded`, re-verifies their stashed pairs once the backend recovers,
/// and converges to the same final mapping as a fault-free run.
#[test]
fn hard_down_windows_degrade_then_recover() {
    let (model, tracks) = fixture();
    // Windows 2 and 3 (frames 200..500) cannot reach the backend at all.
    let wrapper = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4));

    let mut faulty = merger(&model).with_backend(&wrapper);
    for frames in [250, 480, N_FRAMES] {
        faulty.advance(&tracks, frames).unwrap();
    }
    faulty.finish(&tracks, N_FRAMES).unwrap();

    let modes: Vec<(usize, DecisionMode)> = faulty
        .decisions()
        .iter()
        .map(|d| (d.window.index, d.mode))
        .collect();
    for (index, mode) in &modes {
        let expected = if *index == 2 || *index == 3 {
            DecisionMode::Degraded
        } else {
            DecisionMode::Normal
        };
        assert_eq!(mode, &expected, "window {index} mode mismatch: {modes:?}");
    }

    let report = faulty.robustness();
    assert_eq!(report.degraded_windows, 2, "{report:?}");
    assert_eq!(report.reverified_windows, 2, "{report:?}");
    assert!(report.breaker_trips >= 1, "{report:?}");
    assert!(report.backend_faults > 0, "{report:?}");

    // Degraded windows were re-scored with the real model after recovery,
    // so the committed merges match a run that never saw a fault.
    let mut clean = merger(&model);
    clean.advance(&tracks, N_FRAMES).unwrap();
    clean.finish(&tracks, N_FRAMES).unwrap();
    assert_eq!(faulty.accepted(), clean.accepted());
    assert_eq!(faulty.mapping(), clean.mapping());
}

/// Acceptance: the extraction gate composes with chaos. A gated merger
/// driven through a hard backend outage — degraded windows, breaker trip,
/// recovery, re-verification — must converge to the same final merges and
/// mapping as an ungated run that never saw a fault, while still saving
/// extraction charges.
#[test]
fn gated_runs_degrade_and_recover_to_the_ungated_answer() {
    let (model, tracks) = fixture();
    let wrapper = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4));

    let mut faulty = gated_merger(&model).with_backend(&wrapper);
    for frames in [250, 480, N_FRAMES] {
        faulty.advance(&tracks, frames).unwrap();
    }
    faulty.finish(&tracks, N_FRAMES).unwrap();

    let report = faulty.robustness();
    assert_eq!(report.degraded_windows, 2, "{report:?}");
    assert_eq!(report.reverified_windows, 2, "{report:?}");
    assert!(report.breaker_trips >= 1, "{report:?}");

    // An ungated, fault-free run is the reference answer.
    let mut clean = merger(&model);
    clean.advance(&tracks, N_FRAMES).unwrap();
    clean.finish(&tracks, N_FRAMES).unwrap();
    assert_eq!(faulty.accepted(), clean.accepted());
    assert_eq!(faulty.mapping(), clean.mapping());
    assert!(
        faulty.gate_stats().saved_charges() > 0,
        "the gate must have saved extractions through the outage"
    );
}

/// Acceptance: killing the ingester mid-outage and resuming from its
/// checkpoint — degraded stash, breaker state, dedup set, simulated clock
/// and all — reproduces the uninterrupted run byte for byte.
#[test]
fn kill_and_resume_is_byte_identical() {
    let (model, tracks) = fixture();
    let plan = FaultPlan::none().with_hard_down(2, 4);
    let wrapper = FaultyModel::new(&model, plan);

    // Reference: one uninterrupted run over the whole feed.
    let mut full = merger(&model).with_backend(&wrapper);
    for frames in [250, 420, N_FRAMES] {
        full.advance(&tracks, frames).unwrap();
    }
    full.finish(&tracks, N_FRAMES).unwrap();

    // Crash at frame 420: window 2 has already failed over to degraded
    // mode, so the checkpoint carries a non-empty stash and a half-open
    // breaker count.
    let bytes = {
        let mut first = merger(&model).with_backend(&wrapper);
        first.advance(&tracks, 250).unwrap();
        first.advance(&tracks, 420).unwrap();
        assert!(
            first
                .decisions()
                .iter()
                .any(|d| d.mode == DecisionMode::Degraded),
            "the crash point should be mid-outage"
        );
        first.checkpoint()
        // `first` is dropped here: the process is "killed".
    };

    let mut resumed = StreamingMerger::resume(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        &bytes,
    )
    .unwrap()
    .with_backend(&wrapper);
    resumed.advance(&tracks, N_FRAMES).unwrap();
    resumed.finish(&tracks, N_FRAMES).unwrap();

    assert_eq!(full.decisions(), resumed.decisions());
    assert_eq!(full.accepted(), resumed.accepted());
    assert_eq!(full.robustness(), resumed.robustness());
    assert_eq!(full.elapsed_ms().to_bits(), resumed.elapsed_ms().to_bits());
    assert_eq!(full.mapping(), resumed.mapping());
}

/// A fleet (one batching scheduler, one lane per stream) whose middle
/// stream is hard-down for two windows: the outage degrades and recovers
/// exactly as it would solo, and the siblings stay byte-identical to
/// no-fault runs — a sibling's outage must be completely invisible.
#[test]
fn fleet_sibling_isolation_through_an_outage() {
    let (model, tracks) = fixture();
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().with_hard_down(2, 4),
        FaultPlan::none(),
    ];
    let faulty: Vec<FaultyModel<'_>> = plans
        .iter()
        .map(|p| FaultyModel::new(&model, p.clone()))
        .collect();
    let scheduler = BatchScheduler::new(&model, BatchConfig::default());
    let lanes: Vec<BatchingBackend<'_>> = faulty.iter().map(|f| scheduler.backend(f)).collect();
    let backends: Vec<&dyn InferenceBackend> =
        lanes.iter().map(|l| l as &dyn InferenceBackend).collect();

    let mut fleet = FleetIngester::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config(),
        |_| selector(),
        &backends,
    )
    .unwrap();
    for frames in [250, 480, N_FRAMES] {
        fleet
            .advance(&[(&tracks, frames), (&tracks, frames), (&tracks, frames)])
            .unwrap();
    }
    fleet
        .finish(&[
            (&tracks, N_FRAMES),
            (&tracks, N_FRAMES),
            (&tracks, N_FRAMES),
        ])
        .unwrap();

    // Per-stream solo references, each over its own fault surface.
    for i in [0usize, 1, 2] {
        let solo_backend = FaultyModel::new(&model, plans[i].clone());
        let mut solo = merger(&model).with_backend(&solo_backend);
        for frames in [250, 480, N_FRAMES] {
            solo.advance(&tracks, frames).unwrap();
        }
        solo.finish(&tracks, N_FRAMES).unwrap();
        let shard = fleet.shard_mut(i);
        assert_eq!(shard.decisions(), solo.decisions(), "stream {i}");
        assert_eq!(shard.accepted(), solo.accepted(), "stream {i}");
        assert_eq!(shard.robustness(), solo.robustness(), "stream {i}");
        assert_eq!(
            shard.elapsed_ms().to_bits(),
            solo.elapsed_ms().to_bits(),
            "stream {i} clock"
        );
        assert_eq!(shard.mapping(), solo.mapping(), "stream {i}");
    }

    // The siblings never saw a fault; the outage stream degraded, then
    // recovered to the clean mapping.
    for i in [0usize, 2] {
        assert_eq!(fleet.shard(i).robustness(), RobustnessReport::default());
    }
    let outage = fleet.shard(1).robustness();
    assert_eq!(outage.degraded_windows, 2, "{outage:?}");
    assert_eq!(outage.reverified_windows, 2, "{outage:?}");
    let mut clean = merger(&model);
    clean.advance(&tracks, N_FRAMES).unwrap();
    clean.finish(&tracks, N_FRAMES).unwrap();
    assert_eq!(fleet.shard_mut(1).mapping(), clean.mapping());
}

/// Killing the whole fleet mid-outage and resuming from its envelope
/// checkpoint — with a *fresh* scheduler and lanes, since the shared
/// feature cache is derived data — reproduces the uninterrupted fleet run
/// byte for byte on every stream.
#[test]
fn fleet_kill_and_resume_is_byte_identical() {
    let (model, tracks) = fixture();
    let plans = [FaultPlan::none(), FaultPlan::none().with_hard_down(2, 4)];
    let run = |bytes: Option<&[u8]>, to_end: bool| {
        let faulty: Vec<FaultyModel<'_>> = plans
            .iter()
            .map(|p| FaultyModel::new(&model, p.clone()))
            .collect();
        let scheduler = BatchScheduler::new(&model, BatchConfig::default());
        let lanes: Vec<BatchingBackend<'_>> = faulty.iter().map(|f| scheduler.backend(f)).collect();
        let backends: Vec<&dyn InferenceBackend> =
            lanes.iter().map(|l| l as &dyn InferenceBackend).collect();
        let mut fleet = match bytes {
            None => FleetIngester::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                stream_config(),
                |_| selector(),
                &backends,
            )
            .unwrap(),
            Some(b) => FleetIngester::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                |_| selector(),
                &backends,
                b,
            )
            .unwrap(),
        };
        let schedule: &[u64] = if bytes.is_some() {
            &[N_FRAMES]
        } else {
            &[250, 420, N_FRAMES]
        };
        for &frames in schedule {
            if !to_end && frames > 420 {
                break;
            }
            fleet
                .advance(&[(&tracks, frames), (&tracks, frames)])
                .unwrap();
        }
        if !to_end {
            // Crash mid-outage: the checkpoint carries a degraded stash.
            assert!(fleet
                .shard(1)
                .decisions()
                .iter()
                .any(|d| d.mode == DecisionMode::Degraded));
            return (fleet.checkpoint(), Vec::new());
        }
        fleet
            .finish(&[(&tracks, N_FRAMES), (&tracks, N_FRAMES)])
            .unwrap();
        let summaries = (0..2)
            .map(|i| {
                let s = fleet.shard_mut(i);
                (
                    s.decisions().to_vec(),
                    s.accepted().to_vec(),
                    s.robustness(),
                    s.elapsed_ms().to_bits(),
                    s.mapping(),
                )
            })
            .collect();
        (Vec::new(), summaries)
    };

    // Reference: one uninterrupted fleet run.
    let (_, full) = run(None, true);
    // Killed at frame 420, resumed with fresh scheduler/lanes, run to end.
    let (bytes, _) = run(None, false);
    let (_, resumed) = run(Some(&bytes), true);
    assert_eq!(full, resumed, "resumed fleet must reproduce the full run");
}

/// Corrupt tracker output (non-finite coordinates) is rejected by
/// validation as a clean typed error, not a downstream panic or NaN
/// propagation.
#[test]
fn corrupt_stream_input_is_a_clean_error() {
    let (model, tracks) = fixture();
    let mutated = StreamFaults {
        corrupt_rate: 0.25,
        ..StreamFaults::none(3)
    }
    .apply(&tracks);

    let mut m = merger(&model);
    let err = m.advance(&mutated, 250);
    assert!(
        matches!(err, Err(TmError::InvalidTrack { .. })),
        "expected InvalidTrack, got {err:?}"
    );
    // The merger itself is still usable with sane input.
    m.advance(&tracks, 250).unwrap();
}

/// A six-camera world with shared actors, for the cross-camera chaos
/// tests below: small enough to resolve quickly, busy enough that the
/// outage rounds contain in-flight transits.
fn global_world() -> MultiCameraWorld {
    MultiCameraWorld::new(WorldConfig {
        cameras: 6,
        actors: 5,
        hops: 3,
        ..WorldConfig::default()
    })
}

/// The cross-camera pair space is larger than a single stream's, so the
/// global selector gets a budget to match (an unsampled arm keeps its
/// prior score and is rejected by the acceptance threshold).
fn global_merger(model: &AppearanceModel) -> GlobalMerger<'_, TMerge> {
    GlobalMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        TMerge::new(TMergeConfig {
            tau_max: 10_000,
            seed: 4,
            ..TMergeConfig::default()
        }),
        GlobalConfig::default(),
    )
    .unwrap()
}

/// Acceptance: a backend outage spanning global rounds 2–3 — while actors
/// are mid-transit between cameras — degrades exactly those rounds,
/// accepts *nothing* provisionally (cross-camera evidence is
/// appearance-only), and after breaker recovery plus stash
/// re-verification converges to the identical cross-camera links,
/// mapping and learned topology of a run that never saw a fault.
#[test]
fn camera_outage_mid_transit_recovers_to_the_fault_free_global_mapping() {
    let w = global_world();
    let horizon = w.horizon();
    let feeds = w.all_camera_tracks(horizon);
    let model = AppearanceModel::new(AppearanceConfig::default());
    let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, horizon)).collect();

    let mut clean = global_merger(&model);
    clean.finish(&refs).unwrap();
    assert!(
        !clean.accepted().is_empty(),
        "the world must produce cross-camera links for this test to mean anything"
    );

    let wrapper = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4));
    let mut faulty = global_merger(&model).with_backend(&wrapper);
    for frames in [horizon / 3, 2 * horizon / 3] {
        let step: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, frames)).collect();
        faulty.advance(&step).unwrap();
    }
    faulty.finish(&refs).unwrap();

    let degraded: Vec<u64> = faulty
        .decisions()
        .iter()
        .filter(|d| d.mode == DecisionMode::Degraded)
        .map(|d| d.round)
        .collect();
    assert!(
        !degraded.is_empty(),
        "the outage must degrade at least one round: {:?}",
        faulty.decisions()
    );
    assert!(
        degraded.iter().all(|r| *r == 2 || *r == 3),
        "only the hard-down rounds may degrade: {degraded:?}"
    );
    let report = faulty.robustness();
    assert_eq!(
        report.degraded_windows as usize,
        degraded.len(),
        "{report:?}"
    );
    assert_eq!(
        report.reverified_windows, report.degraded_windows,
        "{report:?}"
    );
    assert!(report.breaker_trips >= 1, "{report:?}");
    assert!(report.backend_faults > 0, "{report:?}");
    assert_eq!(faulty.stash_len(), 0, "no round may stay stashed at finish");

    assert_eq!(faulty.accepted(), clean.accepted());
    assert_eq!(faulty.mapping(), clean.mapping());
    assert_eq!(faulty.topology(), clean.topology());
}

/// Acceptance: killing the global merger mid-outage — degraded stash,
/// open breaker, half-learned topology and all — and resuming from its
/// global checkpoint reproduces the uninterrupted faulty run byte for
/// byte: decisions, links, counters, simulated clock bits, and the final
/// checkpoint itself.
#[test]
fn global_kill_and_resume_mid_outage_is_byte_identical() {
    let w = global_world();
    let horizon = w.horizon();
    let feeds = w.all_camera_tracks(horizon);
    let model = AppearanceModel::new(AppearanceConfig::default());
    let plan = FaultPlan::none().with_hard_down(2, 4);
    let at = |frames: u64| -> Vec<(&TrackSet, u64)> { feeds.iter().map(|t| (t, frames)).collect() };

    // Reference: one uninterrupted faulty run.
    let wrapper = FaultyModel::new(&model, plan.clone());
    let mut full = global_merger(&model).with_backend(&wrapper);
    for frames in [horizon / 3, 2 * horizon / 3, horizon] {
        full.advance(&at(frames)).unwrap();
    }
    full.finish(&at(horizon)).unwrap();

    // Crash at 2/3 horizon: inside the outage, so the checkpoint carries
    // a degraded stash and breaker state.
    let bytes = {
        let wrapper = FaultyModel::new(&model, plan.clone());
        let mut first = global_merger(&model).with_backend(&wrapper);
        first.advance(&at(horizon / 3)).unwrap();
        first.advance(&at(2 * horizon / 3)).unwrap();
        assert!(
            first.stash_len() > 0,
            "the crash point should be mid-outage with stashed rounds"
        );
        first.checkpoint()
        // `first` is dropped here: the process is "killed".
    };

    let wrapper = FaultyModel::new(&model, plan);
    let mut resumed = GlobalMerger::resume(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        TMerge::new(TMergeConfig {
            tau_max: 10_000,
            seed: 4,
            ..TMergeConfig::default()
        }),
        &bytes,
    )
    .unwrap()
    .with_backend(&wrapper);
    resumed.advance(&at(horizon)).unwrap();
    resumed.finish(&at(horizon)).unwrap();

    assert_eq!(full.decisions(), resumed.decisions());
    assert_eq!(full.accepted(), resumed.accepted());
    assert_eq!(full.robustness(), resumed.robustness());
    assert_eq!(full.elapsed_ms().to_bits(), resumed.elapsed_ms().to_bits());
    assert_eq!(full.mapping(), resumed.mapping());
    assert_eq!(
        full.checkpoint(),
        resumed.checkpoint(),
        "the final checkpoints must agree byte for byte"
    );
}

/// A feed whose watermarks occasionally regress (out-of-order delivery)
/// produces clean `FrameRegression` errors on the bad ticks and the same
/// final result as an orderly feed on the good ones.
#[test]
fn regressing_watermarks_are_rejected_without_corrupting_state() {
    let (model, tracks) = fixture();
    let ticks = regressing_watermarks(5, N_FRAMES, 50, 0.4);
    assert_eq!(*ticks.last().unwrap(), N_FRAMES);

    let mut m = merger(&model);
    let mut high = 0u64;
    let mut regressions = 0u32;
    for t in ticks {
        match m.advance(&tracks, t) {
            Ok(_) => {
                assert!(t >= high, "advance accepted a regressing watermark");
                high = t;
            }
            Err(TmError::FrameRegression { frame, watermark }) => {
                assert!(frame.get() < watermark.get());
                assert_eq!(watermark.get(), high);
                regressions += 1;
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    assert!(
        regressions > 0,
        "the fault schedule should regress at least once"
    );
    m.finish(&tracks, N_FRAMES).unwrap();

    let mut clean = merger(&model);
    clean.advance(&tracks, N_FRAMES).unwrap();
    clean.finish(&tracks, N_FRAMES).unwrap();
    assert_eq!(m.accepted(), clean.accepted());
    assert_eq!(m.decisions(), clean.decisions());
    assert_eq!(m.mapping(), clean.mapping());
}

/// Acceptance: an anytime query over a stream whose ReID backend goes hard
/// down for two windows keeps its interval sound throughout — it never
/// excludes the fault-free answer — stops committing (and therefore stops
/// tightening from the `lo` side) while degraded, and after breaker
/// recovery re-verifies the stash and converges to the fault-free answer
/// *exactly* (`lo == hi == estimate`).
#[test]
fn anytime_query_interval_survives_hard_down_and_recovers_exactly() {
    use tmerge::query::{AnytimeConfig, AnytimeStream, Query};

    let (model, tracks) = fixture();
    let query = Query::Count { min_frames: 100 };

    // Fault-free reference: same config, same schedule.
    let mut clean = AnytimeStream::new(merger(&model), query, AnytimeConfig::default());
    for frames in [300, 500, N_FRAMES] {
        clean.advance(&tracks, frames).unwrap();
    }
    let clean_answer = clean.finish(&tracks, N_FRAMES).unwrap();
    assert!(clean_answer.converged, "fault-free stream must converge");
    let exact = clean_answer.estimate as f64;

    // Windows 2 and 3 (frames 200..500) cannot reach the backend at all.
    let wrapper = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4));
    let mut faulty = AnytimeStream::new(
        merger(&model).with_backend(&wrapper),
        query,
        AnytimeConfig::default(),
    );

    // Watermark 300 closes the two healthy windows 0 and 1; watermark 500
    // closes exactly the two hard-down windows 2 and 3.
    let p_pre = faulty.advance(&tracks, 300).unwrap();
    let committed_pre = faulty.merger().accepted().len();
    let p_outage = faulty.advance(&tracks, 500).unwrap();
    // Degraded windows commit nothing: the lo side has no new merges to
    // stand on, and the stashed pairs keep the interval open.
    assert_eq!(
        faulty.merger().accepted().len(),
        committed_pre,
        "a degraded window must not commit merges"
    );
    assert!(
        faulty.merger().stash_len() > 0,
        "the outage must stash at least one window"
    );
    assert!(
        p_outage.lo < p_outage.hi,
        "the interval must stay open while windows are stashed"
    );
    faulty.advance(&tracks, N_FRAMES).unwrap();
    let answer = faulty.finish(&tracks, N_FRAMES).unwrap();

    // The interval never lied: the fault-free answer sits inside every
    // point of the degraded trajectory, including the pre-outage one.
    for (i, p) in answer.trajectory.iter().enumerate() {
        assert!(
            p.lo <= exact && exact <= p.hi,
            "point {i} [{}, {}] excludes the fault-free answer {exact} \
             (trajectory: {:?})",
            p.lo,
            p.hi,
            answer.trajectory
        );
    }
    let _ = p_pre;

    // Recovery re-verified the stash with the real model: exact
    // convergence to the fault-free answer, not just containment.
    assert!(answer.converged, "recovered stream must converge");
    assert_eq!(answer.estimate, clean_answer.estimate);
    assert_eq!(answer.lo.to_bits(), (exact).to_bits());
    assert_eq!(answer.hi.to_bits(), (exact).to_bits());
    assert_eq!(answer.answer, clean_answer.answer);
    assert_eq!(answer.accepted, clean_answer.accepted);
}
