//! Failure-injection and degenerate-input tests for the selection
//! algorithms: single-box tracks, provenance-free (false-positive) tracks,
//! exhausted pools, zero budgets, and windows larger than the video.

use tm_core::{
    build_window_pairs, run_pipeline, windows, Baseline, CandidateSelector, LcbConfig,
    LowerConfidenceBound, PipelineConfig, ProportionalSampling, PsConfig, SelectionInput,
    SelectorKind, TMerge, TMergeConfig,
};
use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device, ReidSession};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

fn single_box_track(id: u64, actor: Option<u64>, frame: u64) -> Track {
    let mut tb = TrackBox::new(
        FrameIdx(frame),
        BBox::new(10.0 * id as f64, 0.0, 20.0, 40.0),
    );
    if let Some(a) = actor {
        tb = tb.with_provenance(GtObjectId(a));
    }
    Track::with_boxes(TrackId(id), classes::PEDESTRIAN, vec![tb])
}

fn selectors() -> Vec<Box<dyn CandidateSelector>> {
    vec![
        Box::new(Baseline),
        Box::new(ProportionalSampling::new(PsConfig { eta: 0.5, seed: 1 })),
        Box::new(LowerConfidenceBound::new(LcbConfig {
            tau_max: 50,
            seed: 1,
            record_history: false,
        })),
        Box::new(TMerge::new(TMergeConfig {
            tau_max: 50,
            seed: 1,
            ..TMergeConfig::default()
        })),
    ]
}

#[test]
fn single_box_tracks_are_handled_by_every_selector() {
    // Pools of exactly one BBox pair each.
    let tracks = TrackSet::from_tracks(vec![
        single_box_track(1, Some(7), 0),
        single_box_track(2, Some(7), 10),
        single_box_track(3, Some(8), 0),
    ]);
    let pairs: Vec<TrackPair> = vec![
        TrackPair::new(TrackId(1), TrackId(2)).unwrap(),
        TrackPair::new(TrackId(1), TrackId(3)).unwrap(),
        TrackPair::new(TrackId(2), TrackId(3)).unwrap(),
    ];
    let model = AppearanceModel::new(AppearanceConfig::default());
    for selector in selectors() {
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 1.0 / 3.0,
            voi: None,
        };
        let r = selector.select(&input, &mut session).unwrap();
        assert_eq!(r.candidates.len(), 1, "{}", selector.name());
        // All pools together hold 3 bbox pairs; no algorithm may exceed it.
        assert!(r.distance_evals <= 3, "{}", selector.name());
    }
}

#[test]
fn false_positive_tracks_do_not_poison_selection() {
    // Two real fragments of one actor plus two provenance-free FP tracks.
    let tracks = TrackSet::from_tracks(vec![
        single_box_track(1, Some(7), 0),
        single_box_track(2, Some(7), 10),
        single_box_track(3, None, 0),
        single_box_track(4, None, 5),
    ]);
    let ids = [1u64, 2, 3, 4];
    let mut pairs = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
        }
    }
    let model = AppearanceModel::new(AppearanceConfig::default());
    let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let input = SelectionInput {
        pairs: &pairs,
        tracks: &tracks,
        k: 1.0 / 6.0,
        voi: None,
    };
    let r = Baseline.select(&input, &mut session).unwrap();
    assert_eq!(
        r.candidates,
        vec![TrackPair::new(TrackId(1), TrackId(2)).unwrap()],
        "the real fragment pair must outrank FP combinations"
    );
}

#[test]
fn zero_and_full_k_are_consistent_for_all_selectors() {
    let tracks = TrackSet::from_tracks(vec![
        single_box_track(1, Some(1), 0),
        single_box_track(2, Some(2), 0),
    ]);
    let pairs = vec![TrackPair::new(TrackId(1), TrackId(2)).unwrap()];
    let model = AppearanceModel::new(AppearanceConfig::default());
    for selector in selectors() {
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let none = selector
            .select(
                &SelectionInput {
                    pairs: &pairs,
                    tracks: &tracks,
                    k: 0.0,
                    voi: None,
                },
                &mut session,
            )
            .unwrap();
        assert!(none.candidates.is_empty(), "{} with k=0", selector.name());
        let all = selector
            .select(
                &SelectionInput {
                    pairs: &pairs,
                    tracks: &tracks,
                    k: 1.0,
                    voi: None,
                },
                &mut session,
            )
            .unwrap();
        assert_eq!(all.candidates.len(), 1, "{} with k=1", selector.name());
    }
}

#[test]
fn window_longer_than_video_is_one_window() {
    let ws = windows(500, 10_000).unwrap();
    assert_eq!(ws.len(), 1);
    let tracks = TrackSet::from_tracks(vec![
        single_box_track(1, Some(1), 0),
        single_box_track(2, Some(1), 400),
    ]);
    let wps = build_window_pairs(&tracks, 500, 10_000).unwrap();
    assert_eq!(wps[0].pairs.len(), 1);
}

#[test]
fn pipeline_survives_track_set_of_one() {
    let tracks = TrackSet::from_tracks(vec![single_box_track(1, Some(1), 0)]);
    let model = AppearanceModel::new(AppearanceConfig::default());
    let report = run_pipeline(
        &tracks,
        100,
        &model,
        &PipelineConfig {
            window_len: 100,
            k: 0.5,
            selector: SelectorKind::TMerge(TMergeConfig::default()),
            device: Device::Cpu,
            cost: CostModel::calibrated(),
            gate: tm_reid::GatePolicy::Off,
        },
        None,
    )
    .unwrap();
    assert!(report.candidates.is_empty());
    assert_eq!(report.merged.len(), 1);
}

#[test]
fn odd_window_length_is_rejected_end_to_end() {
    let tracks = TrackSet::new();
    let model = AppearanceModel::new(AppearanceConfig::default());
    let err = run_pipeline(
        &tracks,
        100,
        &model,
        &PipelineConfig {
            window_len: 101,
            ..PipelineConfig::default()
        },
        None,
    );
    assert!(err.is_err());
}

#[test]
fn tmerge_with_budget_one_still_returns_m_candidates() {
    let tracks = TrackSet::from_tracks(vec![
        single_box_track(1, Some(1), 0),
        single_box_track(2, Some(1), 5),
        single_box_track(3, Some(2), 0),
    ]);
    let pairs: Vec<TrackPair> = vec![
        TrackPair::new(TrackId(1), TrackId(2)).unwrap(),
        TrackPair::new(TrackId(1), TrackId(3)).unwrap(),
        TrackPair::new(TrackId(2), TrackId(3)).unwrap(),
    ];
    let model = AppearanceModel::new(AppearanceConfig::default());
    let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let tm = TMerge::new(TMergeConfig {
        tau_max: 1,
        ..TMergeConfig::default()
    });
    let r = tm
        .select(
            &SelectionInput {
                pairs: &pairs,
                tracks: &tracks,
                k: 2.0 / 3.0,
                voi: None,
            },
            &mut session,
        )
        .unwrap();
    assert_eq!(r.candidates.len(), 2);
    assert_eq!(r.distance_evals, 1);
}
