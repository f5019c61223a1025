//! One module per paper exhibit. Every function takes an [`ExpConfig`] and
//! returns a result that encodes as JSON ([`ToJson`]), so `run_all` can
//! persist it to `results/` and the integration tests can assert on its
//! shape. [`EXHIBITS`] lists them all under their results-file names.

pub mod corr;
pub mod fig03;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod quality;
pub mod regret;
pub mod sweep;

use crate::perf::{Json, ToJson};
use tm_datasets::DatasetSpec;

/// An exhibit's experiment, returning its result as a JSON document.
pub type Experiment = fn(&ExpConfig) -> Json;

/// Every exhibit `run_all` regenerates, in paper order, keyed by its
/// results file `results/<name>.json`.
pub const EXHIBITS: [(&str, Experiment); 15] = [
    ("fig03_rec_k", |c| fig03::fig03(c).to_json()),
    ("fig04_bl_scaling", |c| fig04::fig04(c).to_json()),
    ("fig05_rec_fps", |c| sweep::fig05(c).to_json()),
    ("fig06_rec_fps_batched", |c| sweep::fig06(c).to_json()),
    ("table2_fps", |c| sweep::table2(c).to_json()),
    ("fig07_tau_sweep", |c| fig07::fig07(c).to_json()),
    ("fig08_ablation", |c| fig08::fig08(c).to_json()),
    ("fig09_window_len", |c| fig09::fig09(c).to_json()),
    ("fig10_thr_s", |c| fig10::fig10(c).to_json()),
    ("fig11_poly_rate", |c| quality::fig11(c).to_json()),
    ("fig12_id_metrics", |c| quality::fig12(c).to_json()),
    ("fig13_query_recall", |c| quality::fig13(c).to_json()),
    ("regret_curve", |c| regret::regret_curve(c).to_json()),
    ("corr_analysis", |c| corr::corr_analysis(c).to_json()),
    ("ablation_ranking", |c| fig08::ranking_ablation(c).to_json()),
];

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// Quick mode: fewer videos and coarser parameter grids. Used by the
    /// integration tests; the result *shapes* are the same.
    pub quick: bool,
    /// Base seed for algorithm randomness (trials average over seeds
    /// derived from it).
    pub seed: u64,
    /// Number of independent trials averaged per stochastic algorithm
    /// (the paper averages 10; quick mode uses 1).
    pub trials: u64,
}

impl ExpConfig {
    /// Full scale (`run_all` without `--quick`).
    pub fn full() -> Self {
        Self {
            quick: false,
            seed: 7,
            trials: 2,
        }
    }

    /// Quick scale for tests.
    pub fn quick() -> Self {
        Self {
            quick: true,
            seed: 7,
            trials: 1,
        }
    }

    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::full()
        }
    }

    /// Limits a dataset to the number of videos this scale uses.
    pub fn limit(&self, mut spec: DatasetSpec, full: usize) -> DatasetSpec {
        let n = if self.quick { 2.min(full) } else { full };
        spec.videos.truncate(n);
        spec
    }

    /// The τ_max grid for bandit sweeps.
    pub fn tau_grid(&self) -> Vec<u64> {
        if self.quick {
            vec![1_000, 5_000, 20_000]
        } else {
            vec![500, 1_000, 2_000, 5_000, 10_000, 20_000, 35_000, 50_000]
        }
    }

    /// The η grid for PS sweeps.
    pub fn eta_grid(&self) -> Vec<f64> {
        if self.quick {
            vec![0.0005, 0.01, 0.1]
        } else {
            vec![0.00005, 0.0002, 0.0005, 0.002, 0.01, 0.05, 0.25]
        }
    }
}
