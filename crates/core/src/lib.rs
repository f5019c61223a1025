//! # tm-core
//!
//! The paper's primary contribution: identifying and merging **polyonymous
//! tracks** — fragments of one physical object's trajectory that a tracker
//! reported under several tracking IDs — with a bounded number of ReID
//! invocations.
//!
//! ## Layout
//!
//! | Paper section | Module |
//! |---|---|
//! | §II windows & pair sets (Eq. 1) | [`window`], [`pairs`] |
//! | §III scores (Def. 3.1) & baseline (Alg. 1) | [`score`], [`baseline`] |
//! | §IV-A/B TMerge (Alg. 2) | [`tmerge`] |
//! | §IV-C BetaInit (Alg. 3) | [`tmerge`] (`thr_s`) |
//! | §IV-D ULB pruning (Alg. 4) | [`tmerge`] (`use_ulb`) |
//! | §IV-F batched `-B` variants | every selector via a GPU [`tm_reid::Device`] |
//! | §V-B compared algorithms PS, LCB | [`ps`], [`lcb`] |
//! | merge application | [`union`], [`pipeline`] |
//! | §II streaming deployment | [`stream`] |
//! | fault tolerance, degraded mode, restart | [`resilience`], [`checkpoint`] |
//!
//! ## Quick start
//!
//! ```
//! use tm_core::{run_pipeline, PipelineConfig};
//! use tm_reid::{AppearanceConfig, AppearanceModel};
//! use tm_types::TrackSet;
//!
//! let model = AppearanceModel::new(AppearanceConfig::default());
//! let tracks = TrackSet::new(); // tracker output goes here
//! let report = run_pipeline(&tracks, 2000, &model, &PipelineConfig::default(), None).unwrap();
//! assert!(report.merged.is_empty());
//! ```

// `unsafe` is confined to the kernels that need `std::arch` intrinsics:
// `simd` and `sampling` opt back in below.
#![deny(unsafe_code)]

pub mod baseline;
pub mod checkpoint;
mod exec;
pub mod fleet;
pub mod global;
pub mod lcb;
pub mod pairs;
pub mod pipeline;
pub mod ps;
pub mod resilience;
#[allow(unsafe_code)]
pub mod sampling;
pub mod score;
pub mod selector;
#[allow(unsafe_code)]
pub mod simd;
pub mod stream;
pub mod tmerge;
pub mod union;
pub mod voi;
pub mod window;

pub use baseline::Baseline;
pub use fleet::FleetIngester;
pub use global::{
    compose_global_mapping, CameraTopology, GlobalConfig, GlobalDecision, GlobalMerger,
    TravelProfile,
};
pub use lcb::{LcbConfig, LowerConfidenceBound};
pub use pairs::{build_window_pairs, WindowPairs};
pub use pipeline::{
    run_pipeline, run_pipeline_with_backend, PipelineConfig, PipelineReport, SelectorKind,
};
pub use ps::{ProportionalSampling, PsConfig};
pub use resilience::{
    degraded_candidates, DecisionMode, DegradedConfig, RobustnessConfig, RobustnessReport,
};
pub use score::{exact_scores, exact_scores_with, sum_pairwise_unit_distances, ScoreScratch};
pub use selector::{CandidateSelector, SelectionInput, SelectionResult};
pub use stream::{RetentionSummary, StreamConfig, StreamingMerger, WindowDecision};
pub use tmerge::{TMerge, TMergeConfig};
pub use union::{merge_mapping, MergedIds};
pub use voi::{VoiHints, VoiMode};
pub use window::{windows, Window};
