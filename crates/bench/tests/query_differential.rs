//! Anytime-vs-pipeline differential and golden pins (DESIGN.md §17).
//!
//! Two contracts:
//!
//! * **Differential** — a full-budget anytime run with arm reweighting
//!   disabled is *exactly* the query-agnostic pipeline: same accepted
//!   pairs, same merge mapping, at any `TMERGE_THREADS`. The anytime layer
//!   may reorder windows and interleave query evaluation, but with no
//!   budget and no hints it must not change a single decision.
//! * **Golden** — the anytime answer (estimate, interval endpoints as raw
//!   `f64` bits, inferences spent) is bit-identical across thread counts,
//!   and an [`tm_query::AnytimeStream`] killed mid-feed and resumed from
//!   its anytime checkpoint envelope finishes bit-identical to an
//!   uninterrupted one — the interval trajectory rides the envelope.

use std::sync::Mutex;
use tm_core::{
    merge_mapping, PipelineConfig, SelectorKind, StreamConfig, StreamingMerger, TMerge,
    TMergeConfig, VoiMode,
};
use tm_query::{AnytimeConfig, AnytimeQuery, AnytimeStream, Query};
use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device, GatePolicy};
use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackSet};

/// Total length of the synthetic feed, frames.
const N_FRAMES: u64 = 700;
/// Window length `L`; windows advance every `L/2 = 100` frames.
const WINDOW_LEN: u64 = 200;
/// Irregular watermark schedule for the streaming golden.
const SCHEDULE: [u64; 3] = [250, 480, N_FRAMES];

/// Serializes `TMERGE_THREADS` mutation across tests: concurrent
/// `set_var`/`var` from different test threads races in libc.
static ENV_LOCK: Mutex<()> = Mutex::new(());

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

/// The chaos suite's fragmented feed: three split actors, admissible
/// pairs in every window.
fn tracks() -> TrackSet {
    TrackSet::from_tracks(vec![
        track(1, 10, 0, 30, 0.0),
        track(2, 10, 80, 30, 160.0),
        track(3, 11, 0, 300, 400.0),
        track(4, 12, 100, 300, 800.0),
        track(5, 13, 250, 60, 1200.0),
        track(6, 13, 330, 40, 1360.0),
        track(7, 14, 420, 60, 0.0),
        track(8, 14, 500, 50, 160.0),
        track(9, 15, 350, 300, 400.0),
    ])
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        window_len: WINDOW_LEN,
        k: 0.3,
        selector: SelectorKind::TMerge(TMergeConfig {
            tau_max: 400,
            seed: 7,
            ..TMergeConfig::default()
        }),
        ..PipelineConfig::default()
    }
}

fn queries() -> [Query; 3] {
    [
        Query::Count { min_frames: 200 },
        Query::CoOccurrence {
            group_size: 3,
            min_frames: 50,
        },
        Query::RegionTransit {
            region: BBox::new(0.0, 0.0, 600.0, 400.0),
            min_frames: 40,
        },
    ]
}

/// Full-budget, un-hinted anytime == query-agnostic pipeline, decision for
/// decision, at 1 and 4 threads.
#[test]
fn full_budget_anytime_matches_pipeline() {
    let ts = tracks();
    let config = pipeline_config();
    with_thread_counts(|threads| {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let report = tm_core::run_pipeline(&ts, N_FRAMES, &model, &config, None).unwrap();
        let mut pipeline_accepted = report.accepted.clone();
        pipeline_accepted.sort();
        for query in queries() {
            let driver = AnytimeQuery::new(
                config,
                AnytimeConfig {
                    budget: None,
                    stop_on_convergence: false,
                    reweight_arms: false,
                },
            );
            let ans = driver.run(&ts, N_FRAMES, &model, query).unwrap();
            let mut anytime_accepted = ans.accepted.clone();
            anytime_accepted.sort();
            assert_eq!(
                anytime_accepted, pipeline_accepted,
                "accepted sets diverged for {query:?} at {threads} threads"
            );
            assert_eq!(
                merge_mapping(&anytime_accepted),
                merge_mapping(&pipeline_accepted),
                "merge mappings diverged for {query:?} at {threads} threads"
            );
        }
    });
}

/// Answer bits (estimate, interval endpoints, spend) are identical across
/// thread counts, hinted and un-hinted.
#[test]
fn anytime_answer_bits_stable_across_thread_counts() {
    let ts = tracks();
    let config = pipeline_config();
    for reweight in [false, true] {
        for query in queries() {
            let mut pins: Vec<(u64, u64, u64, u64, bool)> = Vec::new();
            with_thread_counts(|_| {
                let model = AppearanceModel::new(AppearanceConfig::default());
                let driver = AnytimeQuery::new(
                    config,
                    AnytimeConfig {
                        budget: Some(900),
                        stop_on_convergence: true,
                        reweight_arms: reweight,
                    },
                );
                let ans = driver.run(&ts, N_FRAMES, &model, query).unwrap();
                pins.push((
                    ans.estimate,
                    ans.lo.to_bits(),
                    ans.hi.to_bits(),
                    ans.inferences_spent,
                    ans.converged,
                ));
            });
            assert_eq!(
                pins[0], pins[1],
                "anytime answer bits diverged across thread counts for {query:?} (reweight={reweight})"
            );
        }
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_len: WINDOW_LEN,
        k: 0.3,
        gate: GatePolicy::Off,
        voi: VoiMode::Reweight,
    }
}

fn selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 400,
        seed: 7,
        ..TMergeConfig::default()
    })
}

/// Kill/resume golden: an anytime stream checkpointed after any prefix of
/// the schedule and resumed from its anytime envelope finishes with the
/// same answer bits and the same interval trajectory as an uninterrupted
/// run — and the envelope round-trips byte-identically.
#[test]
fn anytime_stream_kill_resume_is_bit_identical() {
    let ts = tracks();
    let model = AppearanceModel::new(AppearanceConfig::default());
    let query = Query::Count { min_frames: 200 };
    let cfg = AnytimeConfig::default();

    // Uninterrupted reference.
    let merger = StreamingMerger::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        stream_config(),
    )
    .unwrap();
    let mut reference = AnytimeStream::new(merger, query, cfg);
    for wm in SCHEDULE {
        reference.advance(&ts, wm).unwrap();
    }
    let ref_answer = reference.finish(&ts, N_FRAMES).unwrap();
    assert!(
        ref_answer.converged,
        "fault-free stream must converge exactly at finish"
    );
    assert_eq!(
        ref_answer.lo.to_bits(),
        (ref_answer.estimate as f64).to_bits()
    );
    assert_eq!(
        ref_answer.hi.to_bits(),
        (ref_answer.estimate as f64).to_bits()
    );

    for kill_after in 0..SCHEDULE.len() {
        let merger = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            stream_config(),
        )
        .unwrap();
        let mut stream = AnytimeStream::new(merger, query, cfg);
        for &wm in &SCHEDULE[..kill_after] {
            stream.advance(&ts, wm).unwrap();
        }
        let envelope = stream.checkpoint();
        drop(stream);

        let mut resumed = AnytimeStream::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            &envelope,
        )
        .unwrap();
        // The envelope itself must round-trip byte-identically.
        assert_eq!(
            resumed.checkpoint(),
            envelope,
            "TMAQ envelope did not round-trip (kill after {kill_after} advances)"
        );
        for &wm in &SCHEDULE[kill_after..] {
            resumed.advance(&ts, wm).unwrap();
        }
        let answer = resumed.finish(&ts, N_FRAMES).unwrap();

        assert_eq!(
            answer.estimate, ref_answer.estimate,
            "estimate diverged after kill/resume at {kill_after}"
        );
        assert_eq!(answer.lo.to_bits(), ref_answer.lo.to_bits());
        assert_eq!(answer.hi.to_bits(), ref_answer.hi.to_bits());
        assert_eq!(answer.inferences_spent, ref_answer.inferences_spent);
        assert_eq!(answer.accepted, ref_answer.accepted);
        assert_eq!(
            answer.trajectory.len(),
            ref_answer.trajectory.len(),
            "trajectory length diverged after kill/resume at {kill_after}"
        );
        for (a, b) in answer.trajectory.iter().zip(&ref_answer.trajectory) {
            assert_eq!(a.spent, b.spent);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        }
    }
}

/// Corrupt or truncated envelopes are clean errors, never panics.
#[test]
fn corrupt_envelope_is_a_clean_error() {
    let ts = tracks();
    let model = AppearanceModel::new(AppearanceConfig::default());
    let merger = StreamingMerger::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        stream_config(),
    )
    .unwrap();
    let mut stream = AnytimeStream::new(
        merger,
        Query::Count { min_frames: 200 },
        AnytimeConfig::default(),
    );
    stream.advance(&ts, 250).unwrap();
    let envelope = stream.checkpoint();

    for cut in [0, 1, 7, envelope.len() / 2, envelope.len() - 1] {
        let truncated = &envelope[..cut];
        assert!(
            AnytimeStream::<TMerge>::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                truncated,
            )
            .is_err(),
            "truncation at {cut} must be an error"
        );
    }
    let mut flipped = envelope.clone();
    flipped[0] ^= 0xff;
    assert!(AnytimeStream::<TMerge>::resume(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        &flipped,
    )
    .is_err());
}
