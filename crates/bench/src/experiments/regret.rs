//! §IV-E — the average-regret analysis (an extension exhibit: the paper
//! states the `O(√(|P_c|·ln τ / τ))` bound; this experiment measures the
//! empirical average regret and prints it against the bound's shape).

use crate::experiments::ExpConfig;
use crate::harness::DatasetRun;
use crate::perf::impl_to_json;
use tm_core::selector::CandidateSelector;
use tm_core::{score::exact_scores, SelectionInput, TMerge, TMergeConfig};
use tm_datasets::mot17;
use tm_reid::{CostModel, Device, ReidSession};
use tm_track::TrackerKind;

/// One τ point of the regret curve.
#[derive(Debug, Clone)]
pub struct RegretPoint {
    /// Iterations executed.
    pub tau: u64,
    /// Empirical average regret `R(τ)` (Eq. in §IV-E).
    pub avg_regret: f64,
    /// The `√(|P_c|·ln τ / τ)` bound shape (unit constant).
    pub bound_shape: f64,
}

/// The regret series of one window.
#[derive(Debug, Clone)]
pub struct RegretCurve {
    /// Number of pairs in the window.
    pub n_pairs: usize,
    /// The minimum normalized exact score `s̃_min`.
    pub s_min: f64,
    /// Sampled points of `R(τ)`.
    pub points: Vec<RegretPoint>,
}

impl_to_json! {
    RegretPoint { tau, avg_regret, bound_shape }
    RegretCurve { n_pairs, s_min, points }
}

/// Measures the empirical average regret of TMerge on the first MOT-17
/// window.
pub fn regret_curve(cfg: &ExpConfig) -> RegretCurve {
    let spec = cfg.limit(mot17(), 1);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let run = &ds.runs[0];
    let wp = run
        .windows
        .iter()
        .find(|w| !w.pairs.is_empty())
        .expect("MOT-17 video has pairs");
    let input = SelectionInput {
        pairs: &wp.pairs,
        tracks: &run.video.tracks,
        k: 0.05,
        voi: None,
    };
    let model = run.video.model();

    // Ground-truth s̃_min from exact scores (free session — this is the
    // analysis harness, not the algorithm).
    let mut oracle = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let scores = exact_scores(&input, &mut oracle).expect("valid pairs");
    let s_min = scores.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min);

    // A single long TMerge run with history recording.
    let tau_max = if cfg.quick { 5_000 } else { 50_000 };
    let tm = TMerge::new(TMergeConfig {
        tau_max,
        seed: cfg.seed,
        use_ulb: false, // keep sampling alive for the whole horizon
        record_history: true,
        ..TMergeConfig::default()
    });
    let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let result = tm
        .select(&input, &mut session)
        .expect("clean backend: selection cannot fail");

    // Prefix means of (d̃_τ − s̃_min), sampled at log-spaced τ.
    let mut points = Vec::new();
    let mut cum = 0.0;
    let mut next_sample = 10u64;
    for (i, d) in result.history.iter().enumerate() {
        cum += d - s_min;
        let tau = (i + 1) as u64;
        if tau == next_sample || i + 1 == result.history.len() {
            points.push(RegretPoint {
                tau,
                avg_regret: cum / tau as f64,
                bound_shape: (wp.pairs.len() as f64 * (tau.max(2) as f64).ln() / tau as f64).sqrt(),
            });
            next_sample = (next_sample as f64 * 1.6).ceil() as u64;
        }
    }
    RegretCurve {
        n_pairs: wp.pairs.len(),
        s_min,
        points,
    }
}
