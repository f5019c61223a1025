//! Pins the execution paths — the offline pipeline, a streaming merger
//! fed as frames arrive and a fleet of one — to the same answer on the
//! same video. The offline pipeline drives one `StreamingMerger` and the
//! fleet runs one per stream, so they share a single window walk; this
//! test is the tripwire that keeps the three callers from drifting apart.

use tm_core::{
    FleetIngester, PipelineConfig, PipelineReport, SelectorKind, StreamConfig, StreamingMerger,
    TMerge, TMergeConfig,
};
use tm_reid::{
    AppearanceConfig, AppearanceModel, CostModel, Device, GateConfig, GatePolicy, InferenceBackend,
};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

const N_FRAMES: u64 = 400;
/// Length of the tail feed: not a multiple of `L/2`, so its last window
/// [400, 450) is clipped to the feed and only `finish` decides it.
const TAIL_FRAMES: u64 = 450;
const WINDOW_LEN: u64 = 200;
const K: f64 = 0.1;

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

fn base_tracks() -> Vec<Track> {
    vec![
        track(1, 10, 0, 30, 0.0),
        track(2, 10, 80, 30, 160.0),
        track(3, 11, 0, 40, 400.0),
        track(4, 12, 60, 40, 800.0),
        track(5, 13, 200, 40, 1200.0),
        track(6, 13, 280, 30, 1400.0),
    ]
}

fn fixture() -> (AppearanceModel, TrackSet) {
    let model = AppearanceModel::new(AppearanceConfig::default());
    (model, TrackSet::from_tracks(base_tracks()))
}

/// The fixture plus two fragments of one actor that start at frames 405
/// and 425 — inside the last window of a [`TAIL_FRAMES`]-frame feed only.
fn tail_tracks() -> TrackSet {
    let mut tracks = base_tracks();
    tracks.push(track(7, 14, 405, 15, 1600.0));
    tracks.push(track(8, 14, 425, 20, 1700.0));
    TrackSet::from_tracks(tracks)
}

fn selector_config() -> TMergeConfig {
    TMergeConfig {
        tau_max: 1_500,
        seed: 4,
        ..TMergeConfig::default()
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        window_len: WINDOW_LEN,
        k: K,
        selector: SelectorKind::TMerge(selector_config()),
        device: Device::Cpu,
        cost: CostModel::calibrated(),
        gate: GatePolicy::Off,
    }
}

fn sorted(pairs: &[TrackPair]) -> Vec<TrackPair> {
    let mut v = pairs.to_vec();
    v.sort();
    v
}

/// Runs `tracks` through the offline pipeline, a streaming merger fed in
/// irregular increments and a fleet of one, asserts that all three agree,
/// and returns the offline report.
fn assert_paths_agree(tracks: &TrackSet, n_frames: u64, gate: GatePolicy) -> PipelineReport {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let config = PipelineConfig {
        gate,
        ..pipeline_config()
    };
    let offline = tm_core::run_pipeline(tracks, n_frames, &model, &config, None).unwrap();

    let stream_config = StreamConfig {
        window_len: WINDOW_LEN,
        k: K,
        gate,
        voi: tm_core::VoiMode::Off,
    };
    let schedule = [150, 250, n_frames];
    let mut streaming = StreamingMerger::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        TMerge::new(selector_config()),
        stream_config,
    )
    .unwrap()
    .with_backend(&model);
    for frames in schedule {
        streaming.advance(tracks, frames).unwrap();
    }
    streaming.finish(tracks, n_frames).unwrap();

    let backends: Vec<&dyn InferenceBackend> = vec![&model];
    let mut fleet = FleetIngester::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config,
        |_| TMerge::new(selector_config()),
        &backends,
    )
    .unwrap();
    for frames in schedule {
        fleet.advance(&[(tracks, frames)]).unwrap();
    }
    fleet.finish(&[(tracks, n_frames)]).unwrap();

    // Every window that starts before the end of the feed is decided,
    // including clipped ones.
    let n_windows = tm_core::windows(n_frames, WINDOW_LEN).unwrap().len();
    assert_eq!(streaming.decisions().len(), n_windows);

    // Streaming vs offline: same merges, pairs and clock.
    assert_eq!(streaming.accepted(), &offline.accepted[..]);
    let n_pairs: usize = streaming.decisions().iter().map(|d| d.n_pairs).sum();
    assert_eq!(n_pairs, offline.n_pairs);
    assert_eq!(streaming.robustness(), offline.robustness);
    assert_eq!(
        streaming.elapsed_ms().to_bits(),
        offline.elapsed_ms.to_bits()
    );

    // Fleet-of-one vs streaming: byte-identical everything.
    let shard = fleet.shard_mut(0);
    assert_eq!(shard.decisions(), streaming.decisions());
    assert_eq!(shard.accepted(), streaming.accepted());
    assert_eq!(shard.robustness(), streaming.robustness());
    assert_eq!(
        shard.elapsed_ms().to_bits(),
        streaming.elapsed_ms().to_bits()
    );
    assert_eq!(shard.mapping(), streaming.mapping());
    offline
}

#[test]
fn all_paths_agree() {
    let (_, tracks) = fixture();
    assert_paths_agree(&tracks, N_FRAMES, GatePolicy::Off);

    // A feed whose length is not a multiple of L/2: the fragment pair is
    // first seen in its last, clipped window [400, 450).
    let report = assert_paths_agree(&tail_tracks(), TAIL_FRAMES, GatePolicy::Off);
    let pair = TrackPair::new(TrackId(7), TrackId(8)).unwrap();
    assert!(report.accepted.contains(&pair), "{:?}", report.accepted);
}

/// The same agreement with the extraction gate on: every path builds its
/// session through one `GatePolicy` (exec::window_session), so a gated
/// fleet shard stays byte-identical to a gated solo streamer and to the
/// gated offline pipeline.
#[test]
fn all_paths_agree_gated() {
    let (model, tracks) = fixture();
    let gate = GatePolicy::On(GateConfig::default());
    let gated = assert_paths_agree(&tracks, N_FRAMES, gate);
    assert_paths_agree(&tail_tracks(), TAIL_FRAMES, gate);

    // The gate must actually have saved work on this fixture, and saving
    // work must show in the clock.
    assert!(
        gated.elapsed_ms
            < tm_core::run_pipeline(&tracks, N_FRAMES, &model, &pipeline_config(), None)
                .unwrap()
                .elapsed_ms
    );
}

/// `GatePolicy::Off` must be bit-identical to the pre-gating pipeline,
/// and a gate configured to extract everything must be bit-identical to
/// `Off` — decisions, accepted merges, mapping, and clock bits.
#[test]
fn gate_off_and_always_extract_match_ungated_exactly() {
    let (model, tracks) = fixture();

    let run_stream = |gate: GatePolicy| {
        let mut m = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            TMerge::new(selector_config()),
            StreamConfig {
                window_len: WINDOW_LEN,
                k: K,
                gate,
                voi: tm_core::VoiMode::Off,
            },
        )
        .unwrap()
        .with_backend(&model);
        for frames in [150, 250, 400] {
            m.advance(&tracks, frames).unwrap();
        }
        m.finish(&tracks, N_FRAMES).unwrap();
        (
            m.decisions().to_vec(),
            m.accepted().to_vec(),
            m.mapping(),
            m.elapsed_ms().to_bits(),
        )
    };

    let off = run_stream(GatePolicy::Off);
    let always = run_stream(GatePolicy::On(GateConfig::always_extract()));
    assert_eq!(off.0, always.0, "decisions must match");
    assert_eq!(off.1, always.1, "accepted merges must match");
    assert_eq!(off.2, always.2, "mapping must match");
    assert_eq!(off.3, always.3, "clock must match bit-for-bit");

    let serial =
        tm_core::run_pipeline(&tracks, N_FRAMES, &model, &pipeline_config(), None).unwrap();
    let gated_serial = tm_core::run_pipeline(
        &tracks,
        N_FRAMES,
        &model,
        &PipelineConfig {
            gate: GatePolicy::On(GateConfig::always_extract()),
            ..pipeline_config()
        },
        None,
    )
    .unwrap();
    assert_eq!(serial.accepted, gated_serial.accepted);
    assert_eq!(serial.candidates, gated_serial.candidates);
    assert_eq!(
        serial.elapsed_ms.to_bits(),
        gated_serial.elapsed_ms.to_bits(),
        "always-extract gate must charge the identical clock"
    );
}

/// Property pins for the gate: for any small random track population,
/// `GatePolicy::Off` and `GateConfig::always_extract()` are the same
/// pipeline (candidates, accepted merges, charges and clock bits), and
/// for any gate tuning the offline and streaming paths agree.
mod gate_properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_tracks() -> impl Strategy<Value = TrackSet> {
        proptest::collection::vec(
            (0u64..5, 0u64..300, 5usize..50, 0u64..6, any::<bool>()),
            2..7,
        )
        .prop_map(|specs| {
            TrackSet::from_tracks(
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (actor, start, n, lane, near))| {
                        // `near` packs lanes close together so the
                        // crowding/ambiguity signal fires sometimes.
                        let x0 = lane as f64 * if near { 60.0 } else { 400.0 };
                        track(i as u64 + 1, actor, start, n, x0)
                    })
                    .collect(),
            )
        })
    }

    fn arb_gate() -> impl Strategy<Value = GateConfig> {
        (
            (0u64..4, 1u64..8, 1u64..16, 4u64..32),
            (2.0f64..16.0, 0.0f64..0.9, 0.05f64..0.9),
        )
            .prop_map(
                |((fresh, gap, refresh, max_age), (half_life, defer, iou))| GateConfig {
                    fresh_frames: fresh,
                    occlusion_gap: gap,
                    refresh_interval: refresh,
                    max_reuse_age: max_age,
                    decay_half_life: half_life,
                    defer_below: defer,
                    ambiguity_iou: iou,
                },
            )
    }

    fn run_serial(
        tracks: &TrackSet,
        model: &AppearanceModel,
        gate: GatePolicy,
    ) -> tm_core::PipelineReport {
        let config = PipelineConfig {
            gate,
            ..pipeline_config()
        };
        tm_core::run_pipeline(tracks, N_FRAMES, model, &config, None).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn gate_off_matches_always_extract_for_any_population(tracks in arb_tracks()) {
            let model = AppearanceModel::new(AppearanceConfig::default());
            let off = run_serial(&tracks, &model, GatePolicy::Off);
            let on = run_serial(
                &tracks,
                &model,
                GatePolicy::On(GateConfig::always_extract()),
            );
            prop_assert_eq!(sorted(&off.candidates), sorted(&on.candidates));
            prop_assert_eq!(&off.accepted, &on.accepted);
            prop_assert_eq!(off.stats.inferences, on.stats.inferences);
            prop_assert_eq!(off.stats.cache_hits, on.stats.cache_hits);
            prop_assert_eq!(off.elapsed_ms.to_bits(), on.elapsed_ms.to_bits());
        }

        #[test]
        fn gated_paths_agree_for_any_tuning(
            tracks in arb_tracks(),
            cfg in arb_gate(),
        ) {
            let model = AppearanceModel::new(AppearanceConfig::default());
            let gate = GatePolicy::On(cfg);
            let serial = run_serial(&tracks, &model, gate);

            let mut streaming = StreamingMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                TMerge::new(selector_config()),
                StreamConfig { window_len: WINDOW_LEN, k: K, gate, voi: tm_core::VoiMode::Off },
            )
            .unwrap()
            .with_backend(&model);
            for frames in [150, 250, 400] {
                streaming.advance(&tracks, frames).unwrap();
            }
            streaming.finish(&tracks, N_FRAMES).unwrap();
            prop_assert_eq!(sorted(streaming.accepted()), sorted(&serial.accepted));
            prop_assert!((streaming.elapsed_ms() - serial.elapsed_ms).abs() < 1e-6);
        }
    }
}
