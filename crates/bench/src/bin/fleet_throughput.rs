//! Fleet throughput — cross-stream batching efficiency on a multi-camera
//! workload.
//!
//! Eight streams watch the same scene (identical box content, so their
//! ReID misses overlap almost entirely) plus one stream-unique clutter
//! track each. The measurement: backend inference calls under per-stream
//! serial ingestion (each stream runs its own `StreamingMerger` against a
//! counting backend) versus one `FleetIngester` whose streams share a
//! `BatchScheduler` — same decisions on every stream, fewer inferences.

use std::sync::atomic::{AtomicU64, Ordering};
use tm_bench::report::{header, observed, table};
use tm_core::{FleetIngester, StreamConfig, StreamingMerger, TMerge, TMergeConfig};
use tm_reid::{
    AppearanceConfig, AppearanceModel, Attempt, BackendReply, BatchConfig, BatchScheduler,
    BatchingBackend, CostModel, Device, InferenceBackend,
};
use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackSet};

const N_STREAMS: usize = 8;
const N_FRAMES: u64 = 700;
const WINDOW_LEN: u64 = 200;
const SCHEDULE: [u64; 3] = [250, 480, N_FRAMES];

/// The bare model plus a call counter: what "backend inference calls"
/// means for the per-stream serial reference.
#[derive(Debug)]
struct CountingModel<'a> {
    model: &'a AppearanceModel,
    calls: AtomicU64,
}

impl InferenceBackend for CountingModel<'_> {
    fn try_observe(&self, tb: &TrackBox, _at: &Attempt) -> BackendReply {
        self.calls.fetch_add(1, Ordering::Relaxed);
        BackendReply::ok(self.model.observe_track_box(tb))
    }
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

/// Camera `i`'s view: the shared scene plus one stream-unique clutter
/// track (distinct geometry, so it cannot be batched across streams).
fn stream_tracks(i: usize) -> TrackSet {
    let mut tracks = vec![
        track(1, 10, 0, 30, 0.0),
        track(2, 10, 80, 30, 160.0),
        track(3, 11, 0, 300, 400.0),
        track(4, 12, 100, 300, 800.0),
        track(5, 13, 250, 60, 1200.0),
        track(6, 13, 330, 40, 1360.0),
        track(7, 14, 420, 60, 0.0),
        track(8, 14, 500, 50, 160.0),
        track(9, 15, 350, 300, 400.0),
    ];
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

struct FleetThroughput {
    n_streams: usize,
    solo_inferences: u64,
    fleet_inferences: u64,
    saved: u64,
    saving_pct: f64,
    per_stream_solo: Vec<u64>,
}

fn run() -> FleetThroughput {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let feeds: Vec<TrackSet> = (0..N_STREAMS).map(stream_tracks).collect();

    // Per-stream serial reference: each stream alone, counting calls.
    let mut per_stream_solo = Vec::with_capacity(N_STREAMS);
    for tracks in &feeds {
        let counting = CountingModel {
            model: &model,
            calls: AtomicU64::new(0),
        };
        let mut m = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            stream_config(),
        )
        .expect("valid stream config")
        .with_backend(&counting);
        for frames in SCHEDULE {
            m.advance(tracks, frames).expect("solo advance");
        }
        m.finish(tracks, N_FRAMES).expect("solo finish");
        per_stream_solo.push(counting.calls.load(Ordering::Relaxed));
    }
    let solo_inferences: u64 = per_stream_solo.iter().sum();

    // The fleet: one scheduler, one lane per stream over the same model.
    let scheduler = BatchScheduler::new(&model, BatchConfig::default());
    let lanes: Vec<BatchingBackend<'_>> =
        (0..N_STREAMS).map(|_| scheduler.backend(&model)).collect();
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
    .expect("valid fleet");
    for frames in SCHEDULE {
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, frames)).collect();
        fleet.advance(&refs).expect("fleet advance");
    }
    let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, N_FRAMES)).collect();
    fleet.finish(&refs).expect("fleet finish");

    let stats = scheduler.stats();
    assert_eq!(
        stats.requests, solo_inferences,
        "a lane request is exactly a solo backend call; the workloads diverged"
    );
    let saved = solo_inferences - stats.computed;
    let saving_pct = 100.0 * saved as f64 / solo_inferences.max(1) as f64;

    // Deterministic saving counters for results/fleet_throughput.metrics.txt.
    let obs = tm_obs::current();
    obs.counter("fleet.batch.saved", saved);
    obs.counter("fleet.batch.saved_pct", saving_pct as u64);

    FleetThroughput {
        n_streams: N_STREAMS,
        solo_inferences,
        fleet_inferences: stats.computed,
        saved,
        saving_pct,
        per_stream_solo,
    }
}

fn main() {
    let r = observed("fleet_throughput", run);
    header(&format!(
        "Fleet throughput — {} streams, cross-stream batched ReID",
        r.n_streams
    ));
    table(
        &["metric", "value"],
        &[
            vec!["solo inference calls".into(), r.solo_inferences.to_string()],
            vec![
                "fleet inference calls".into(),
                r.fleet_inferences.to_string(),
            ],
            vec!["saved".into(), r.saved.to_string()],
            vec!["saving %".into(), format!("{:.1}", r.saving_pct)],
            vec![
                "per-stream solo calls".into(),
                r.per_stream_solo
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" "),
            ],
        ],
    );
    assert!(
        r.saving_pct >= 30.0,
        "cross-stream batching must save ≥ 30% of inference calls on the \
         shared-scene workload, got {:.1}%",
        r.saving_pct
    );
}
