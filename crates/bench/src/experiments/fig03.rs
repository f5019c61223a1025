//! Fig. 3 — the REC–K curves of the exact baseline on the three datasets.
//!
//! For each video the exact ranking (Eq. 6) is computed once; REC at every
//! K is then read off the ranking prefix, exactly as the paper derives the
//! trade-off curve.

use crate::experiments::ExpConfig;
use crate::harness::{DatasetRun, VideoRun};
use crate::perf::impl_to_json;
use tm_core::{score::exact_scores, selector::top_m_by_score, SelectionInput};
use tm_datasets::{kitti, mot17, pathtrack};
use tm_metrics::recall;
use tm_reid::{CostModel, Device, ReidSession};

/// One dataset's REC–K series.
#[derive(Debug, Clone)]
pub struct RecKCurve {
    /// Dataset name.
    pub dataset: String,
    /// `(K, REC)` points.
    pub points: Vec<(f64, f64)>,
}

impl_to_json! { RecKCurve { dataset, points } }

/// The K grid of the figure.
pub fn k_grid() -> Vec<f64> {
    vec![0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2]
}

fn rec_k_for_video(run: &VideoRun, ks: &[f64]) -> Vec<f64> {
    let model = run.video.model();
    // Accuracy-only pass: the cost model is irrelevant to REC–K.
    let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    // Exact ranking per window, then per-K candidate prefixes.
    let mut per_window: Vec<Vec<(tm_types::TrackPair, f64)>> = Vec::new();
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
        per_window.push(exact_scores(&input, &mut session).expect("valid pairs"));
    }
    ks.iter()
        .map(|&k| {
            let mut candidates = Vec::new();
            for scores in &per_window {
                let m = ((k * scores.len() as f64).ceil() as usize).min(scores.len());
                candidates.extend(top_m_by_score(scores, m));
            }
            recall(candidates.iter(), &run.truth)
        })
        .collect()
}

/// Computes the REC–K curves.
pub fn fig03(cfg: &ExpConfig) -> Vec<RecKCurve> {
    let ks = k_grid();
    let datasets = [
        cfg.limit(mot17(), 7),
        cfg.limit(kitti(), 8),
        cfg.limit(pathtrack(), if cfg.quick { 2 } else { 5 }),
    ];
    tm_par::par_map(&datasets, |spec| {
        let ds = DatasetRun::prepare(spec, tm_track::TrackerKind::Tracktor, None);
        // Average per-video REC at each K (videos without polyonymous
        // pairs contribute nothing to the average). Videos fan out over
        // threads; the fold runs in video order for determinism.
        let per_video = tm_par::par_map(&ds.runs, |run| {
            if run.truth.is_empty() {
                None
            } else {
                Some(rec_k_for_video(run, &ks))
            }
        });
        let mut sums = vec![0.0f64; ks.len()];
        let mut n = 0usize;
        for recs in per_video.into_iter().flatten() {
            for (s, r) in sums.iter_mut().zip(recs) {
                *s += r;
            }
            n += 1;
        }
        RecKCurve {
            dataset: ds.name.to_string(),
            points: ks
                .iter()
                .zip(&sums)
                .map(|(&k, &s)| (k, if n == 0 { 1.0 } else { s / n as f64 }))
                .collect(),
        }
    })
}
