//! §IV-C correlation analysis (footnote 4): the Pearson correlation of the
//! exact track-pair score with the *spatial* distance `DisS` (≥ 0.3 in the
//! paper, motivating BetaInit) and with the *temporal* distance `DisT`
//! (< 0.1, which is why BetaInit ignores it).

use crate::experiments::ExpConfig;
use crate::harness::DatasetRun;
use crate::perf::impl_to_json;
use tm_core::{score::exact_scores, score::PairBoxes, SelectionInput};
use tm_datasets::{kitti, mot17, pathtrack};
use tm_metrics::pearson;
use tm_reid::{CostModel, Device, ReidSession};
use tm_track::TrackerKind;

/// One dataset's correlations.
#[derive(Debug, Clone)]
pub struct CorrRow {
    /// Dataset name.
    pub dataset: String,
    /// Pearson correlation of score with spatial distance `DisS`.
    pub corr_spatial: f64,
    /// Pearson correlation of score with temporal distance `DisT`.
    pub corr_temporal: f64,
    /// Fraction of *polyonymous* pairs with `DisS < thr_S` (= 200) — the
    /// statistic BetaInit's warm start actually relies on.
    pub poly_within_thr: f64,
    /// Fraction of *distinct* pairs with `DisS < thr_S`.
    pub distinct_within_thr: f64,
    /// Sample size (pairs pooled over videos).
    pub n_pairs: usize,
}

impl_to_json! {
    CorrRow {
        dataset,
        corr_spatial,
        corr_temporal,
        poly_within_thr,
        distinct_within_thr,
        n_pairs,
    }
}

/// Computes score–DisS and score–DisT correlations on the three datasets.
pub fn corr_analysis(cfg: &ExpConfig) -> Vec<CorrRow> {
    let datasets = [
        cfg.limit(mot17(), 7),
        cfg.limit(kitti(), 8),
        cfg.limit(pathtrack(), if cfg.quick { 1 } else { 3 }),
    ];
    tm_par::par_map(&datasets, |spec| {
        let ds = DatasetRun::prepare(spec, TrackerKind::Tracktor, None);
        const THR_S: f64 = 200.0;
        // Per-video samples, computed concurrently and concatenated in
        // video order (the serial pooling order, so Pearson is identical).
        struct VideoSamples {
            scores: Vec<f64>,
            dis_s: Vec<f64>,
            dis_t: Vec<f64>,
            poly_hit: (usize, usize), // (within thr, total)
            distinct_hit: (usize, usize),
        }
        let per_video = tm_par::par_map(&ds.runs, |run| {
            let model = run.video.model();
            let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
            let mut v = VideoSamples {
                scores: Vec::new(),
                dis_s: Vec::new(),
                dis_t: Vec::new(),
                poly_hit: (0, 0),
                distinct_hit: (0, 0),
            };
            for wp in &run.windows {
                if wp.pairs.is_empty() {
                    continue;
                }
                let input = SelectionInput {
                    pairs: &wp.pairs,
                    tracks: &run.video.tracks,
                    k: 1.0,
                    voi: None,
                };
                for (pair, score) in exact_scores(&input, &mut session).expect("valid") {
                    let pb = PairBoxes::resolve(pair, &run.video.tracks).expect("valid");
                    let (Some(s), Some(t)) = (pb.spatial_distance(), pb.temporal_distance()) else {
                        continue;
                    };
                    v.scores.push(score);
                    v.dis_s.push(s);
                    v.dis_t.push(t as f64);
                    let bucket = if run.truth.contains(&pair) {
                        &mut v.poly_hit
                    } else {
                        &mut v.distinct_hit
                    };
                    bucket.1 += 1;
                    if s < THR_S {
                        bucket.0 += 1;
                    }
                }
            }
            v
        });
        let mut scores = Vec::new();
        let mut dis_s = Vec::new();
        let mut dis_t = Vec::new();
        let mut poly_hit = (0usize, 0usize);
        let mut distinct_hit = (0usize, 0usize);
        for v in per_video {
            scores.extend(v.scores);
            dis_s.extend(v.dis_s);
            dis_t.extend(v.dis_t);
            poly_hit.0 += v.poly_hit.0;
            poly_hit.1 += v.poly_hit.1;
            distinct_hit.0 += v.distinct_hit.0;
            distinct_hit.1 += v.distinct_hit.1;
        }
        CorrRow {
            dataset: ds.name.to_string(),
            corr_spatial: pearson(&scores, &dis_s).unwrap_or(0.0),
            corr_temporal: pearson(&scores, &dis_t).unwrap_or(0.0),
            poly_within_thr: poly_hit.0 as f64 / poly_hit.1.max(1) as f64,
            distinct_within_thr: distinct_hit.0 as f64 / distinct_hit.1.max(1) as f64,
            n_pairs: scores.len(),
        }
    })
}
