//! End-to-end quality experiments: Fig. 11 (polyonymous rate per tracker
//! ± TMerge), Fig. 12 (identity metrics ± TMerge) and Fig. 13 (query
//! recall ± TMerge), all on the MOT-17-like suite.
//!
//! Candidate merges are verified before application (the paper's "further
//! human inspection", §I/§III) by the exact correspondence oracle — the
//! simulator-world equivalent of a human confirming that two fragments show
//! the same object.

use crate::experiments::{sweep::K, ExpConfig};
use crate::harness::VideoRun;
use serde::Serialize;
use tm_core::{run_pipeline, PipelineConfig, SelectorKind, TMergeConfig};
use tm_datasets::{mot17, prepare, DatasetSpec};
use tm_metrics::{
    clear_mot, hota, identity_metrics, polyonymous_rate, ClearMotConfig, Correspondence,
};
use tm_query::{co_occurrence_recall, count_recall};
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;
use tm_types::TrackSet;

fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        window_len: 2000,
        k: K,
        selector: SelectorKind::TMerge(TMergeConfig {
            tau_max: 10_000,
            seed,
            ..TMergeConfig::default()
        }),
        device: Device::Gpu { batch: 10 },
        cost: CostModel::calibrated(),
        gate: tm_reid::GatePolicy::Off,
    }
}

/// Runs the verified TMerge pipeline on a prepared video, returning the
/// merged track set.
fn merged_tracks(run: &VideoRun, seed: u64) -> TrackSet {
    let model = run.video.model();
    let corr = &run.video.correspondence;
    let verifier = |p: &tm_types::TrackPair| corr.is_polyonymous(p);
    run_pipeline(
        &run.video.tracks,
        run.video.n_frames,
        &model,
        &pipeline_config(seed),
        Some(&verifier),
    )
    .expect("valid pipeline config")
    .merged
}

/// Fig. 11 — polyonymous rate of a tracker's output, before and after
/// TMerge.
#[derive(Debug, Clone, Serialize)]
pub struct PolyRateRow {
    /// Tracker name.
    pub tracker: String,
    /// `|P*| / |P|` without TMerge.
    pub rate_without: f64,
    /// `|P* \ P̂*| / |P|` with TMerge (Eq. in §V-G).
    pub rate_with: f64,
}

/// Computes Fig. 11 for the trackers the paper compares (Tracktor,
/// DeepSORT, UMA).
pub fn fig11(cfg: &ExpConfig) -> Vec<PolyRateRow> {
    let spec = cfg.limit(mot17(), 7);
    let trackers = [
        TrackerKind::Tracktor,
        TrackerKind::DeepSort,
        TrackerKind::Uma,
    ];
    tm_par::par_map(&trackers, |&kind| {
        let per_video = tm_par::par_map(&spec.videos, |video| {
            let run = VideoRun::new(prepare(video, kind), spec.window_len);
            let model = run.video.model();
            let report = run_pipeline(
                &run.video.tracks,
                run.video.n_frames,
                &model,
                &pipeline_config(cfg.seed),
                None,
            )
            .expect("valid pipeline config");
            let found: std::collections::BTreeSet<_> = report.candidates.iter().copied().collect();
            (
                run.n_pairs(),
                run.truth.len(),
                run.truth.difference(&found).count(),
            )
        });
        let mut n_pairs = 0usize;
        let mut n_poly = 0usize;
        let mut n_poly_left = 0usize;
        for (pairs, poly, left) in per_video {
            n_pairs += pairs;
            n_poly += poly;
            n_poly_left += left;
        }
        PolyRateRow {
            tracker: kind.name().to_string(),
            rate_without: polyonymous_rate(n_poly, n_pairs),
            rate_with: polyonymous_rate(n_poly_left, n_pairs),
        }
    })
}

/// Fig. 12 — identity metrics of Tracktor on MOT-17 with and without
/// TMerge (plus MOTA/IDS from CLEAR-MOT as supporting numbers).
#[derive(Debug, Clone, Serialize)]
pub struct IdMetricsResult {
    /// IDF1/IDP/IDR without TMerge.
    pub without: IdTriple,
    /// IDF1/IDP/IDR with TMerge.
    pub with: IdTriple,
    /// ID switches without / with TMerge (CLEAR-MOT).
    pub id_switches: (u64, u64),
    /// MOTA without / with TMerge.
    pub mota: (f64, f64),
    /// HOTA without / with TMerge (extension metric; fragmentation moves
    /// its association component only).
    pub hota: (f64, f64),
    /// HOTA's association accuracy AssA without / with TMerge.
    pub ass_a: (f64, f64),
}

/// A compact IDF1/IDP/IDR triple.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IdTriple {
    /// Identity F1.
    pub idf1: f64,
    /// Identity precision.
    pub idp: f64,
    /// Identity recall.
    pub idr: f64,
}

/// Computes Fig. 12.
pub fn fig12(cfg: &ExpConfig) -> IdMetricsResult {
    let spec = cfg.limit(mot17(), 7);
    let n = spec.videos.len() as f64;
    // Per-video metric pairs (without, with), computed concurrently and
    // folded in video order.
    let per_video = tm_par::par_map(&spec.videos, |video| {
        let run = VideoRun::new(prepare(video, TrackerKind::Tracktor), spec.window_len);
        let merged = merged_tracks(&run, cfg.seed);
        [&run.video.tracks, &merged].map(|tracks| {
            let id = identity_metrics(&run.video.gt_tracks, tracks, 0.5);
            let cm = clear_mot(&run.video.gt_tracks, tracks, ClearMotConfig::default());
            let h = hota(&run.video.gt_tracks, tracks);
            (id, cm, h)
        })
    });
    let mut acc = [(0.0, 0.0, 0.0); 2];
    let mut idsw = [0u64; 2];
    let mut mota = [0.0f64; 2];
    let mut hota_acc = [0.0f64; 2];
    let mut ass_acc = [0.0f64; 2];
    for both in per_video {
        for (i, (id, cm, h)) in both.into_iter().enumerate() {
            acc[i].0 += id.idf1;
            acc[i].1 += id.idp;
            acc[i].2 += id.idr;
            idsw[i] += cm.id_switches;
            mota[i] += cm.mota;
            hota_acc[i] += h.hota;
            ass_acc[i] += h.ass_a;
        }
    }
    let triple = |(a, b, c): (f64, f64, f64)| IdTriple {
        idf1: a / n,
        idp: b / n,
        idr: c / n,
    };
    IdMetricsResult {
        without: triple(acc[0]),
        with: triple(acc[1]),
        id_switches: (idsw[0], idsw[1]),
        mota: (mota[0] / n, mota[1] / n),
        hota: (hota_acc[0] / n, hota_acc[1] / n),
        ass_a: (ass_acc[0] / n, ass_acc[1] / n),
    }
}

/// Fig. 13 — recall of the two §V-H queries with and without TMerge.
#[derive(Debug, Clone, Serialize)]
pub struct QueryRecallResult {
    /// *Count* query (objects visible > 200 frames): recall without /
    /// with TMerge.
    pub count: (f64, f64),
    /// *Co-occurring Objects* (3 objects jointly > 50 frames): recall
    /// without / with TMerge.
    pub co_occurrence: (f64, f64),
}

/// Count-query duration threshold (frames), as in the paper's example.
pub const COUNT_MIN_FRAMES: u64 = 200;
/// Co-occurrence group size, as in the paper's example.
pub const CO_OCCUR_GROUP: usize = 3;
/// Co-occurrence minimum joint duration (frames).
pub const CO_OCCUR_MIN_FRAMES: u64 = 50;

/// Computes Fig. 13.
pub fn fig13(cfg: &ExpConfig) -> QueryRecallResult {
    let spec: DatasetSpec = cfg.limit(mot17(), 7);
    let n = spec.videos.len() as f64;
    let per_video = tm_par::par_map(&spec.videos, |video| {
        let run = VideoRun::new(prepare(video, TrackerKind::Tracktor), spec.window_len);
        let merged = merged_tracks(&run, cfg.seed);
        // The merged set changes ids; recompute its attribution.
        let merged_corr = Correspondence::from_tracks(&merged, 0.5);
        let gt = &run.video.gt_tracks;
        let count = (
            count_recall(
                &run.video.tracks,
                gt,
                COUNT_MIN_FRAMES,
                run.video.correspondence.as_map(),
            ),
            count_recall(&merged, gt, COUNT_MIN_FRAMES, merged_corr.as_map()),
        );
        let co = (
            co_occurrence_recall(
                &run.video.tracks,
                gt,
                CO_OCCUR_GROUP,
                CO_OCCUR_MIN_FRAMES,
                run.video.correspondence.as_map(),
            ),
            co_occurrence_recall(
                &merged,
                gt,
                CO_OCCUR_GROUP,
                CO_OCCUR_MIN_FRAMES,
                merged_corr.as_map(),
            ),
        );
        (count, co)
    });
    let mut count = (0.0, 0.0);
    let mut co = (0.0, 0.0);
    for ((c0, c1), (o0, o1)) in per_video {
        count.0 += c0;
        count.1 += c1;
        co.0 += o0;
        co.1 += o1;
    }
    QueryRecallResult {
        count: (count.0 / n, count.1 / n),
        co_occurrence: (co.0 / n, co.1 / n),
    }
}
