//! The offline ingestion pipeline: window → select candidates → merge.
//!
//! This is TMerge as deployed (§I, §V-H): a pre-processing step between the
//! tracker and downstream query processing. The whole video is known up
//! front, so the pipeline is a thin wrapper around the one window walk,
//! [`StreamingMerger`]: a single [`StreamingMerger::finish`] call decides
//! the video's half-overlapping windows in order of succession (one ReID
//! session shared across windows, so features are reused), the candidates
//! are optionally verified (the paper's "further human inspection" —
//! supplied as a callback), and the accepted merges are applied via
//! union-find.
//!
//! [`run_pipeline_with_backend`] reaches the ReID model through an
//! [`InferenceBackend`]: failed windows fall back to degraded
//! spatio-temporal selection behind a circuit breaker and are re-scored
//! with real ReID once the backend recovers, exactly as on a live stream.
//! [`run_pipeline`] does the same with the model itself as the
//! (never-failing) backend.

use crate::baseline::Baseline;
use crate::lcb::{LcbConfig, LowerConfidenceBound};
use crate::ps::{ProportionalSampling, PsConfig};
use crate::resilience::{RobustnessConfig, RobustnessReport};
use crate::selector::{CandidateSelector, SelectionInput, SelectionResult};
use crate::stream::{StreamConfig, StreamingMerger};
use crate::tmerge::{TMerge, TMergeConfig};
use crate::union::merge_mapping;
use std::sync::atomic::{AtomicU64, Ordering};
use tm_reid::{
    AppearanceModel, CostModel, Device, GatePolicy, InferenceBackend, ReidSession, ReidStats,
};
use tm_types::{Result, TrackPair, TrackSet};

/// Which candidate-selection algorithm the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectorKind {
    /// The exact baseline (Algorithm 1).
    Baseline,
    /// Proportional stratified sampling.
    Ps(PsConfig),
    /// Lower-confidence-bound bandit.
    Lcb(LcbConfig),
    /// Thompson sampling (the paper's contribution).
    TMerge(TMergeConfig),
}

impl SelectorKind {
    /// Instantiates the selector.
    pub fn build(&self) -> Box<dyn CandidateSelector> {
        match self {
            SelectorKind::Baseline => Box::new(Baseline),
            SelectorKind::Ps(c) => Box::new(ProportionalSampling::new(*c)),
            SelectorKind::Lcb(c) => Box::new(LowerConfidenceBound::new(*c)),
            SelectorKind::TMerge(c) => Box::new(TMerge::new(*c)),
        }
    }

    /// The per-window evaluation budget `τ_max`, for the bandit selectors
    /// that have one (`None` for Baseline/PS, which are budgeted by `K`).
    pub fn tau_max(&self) -> Option<u64> {
        match self {
            SelectorKind::Lcb(c) => Some(c.tau_max),
            SelectorKind::TMerge(c) => Some(c.tau_max),
            _ => None,
        }
    }

    /// A copy with the per-window budget clamped to at most `tau` (no-op
    /// for selectors without a `τ_max`). The anytime query driver uses this
    /// to stop a window's selection exactly at the remaining global budget.
    pub fn with_tau_at_most(&self, tau: u64) -> SelectorKind {
        match *self {
            SelectorKind::Lcb(mut c) => {
                c.tau_max = c.tau_max.min(tau);
                SelectorKind::Lcb(c)
            }
            SelectorKind::TMerge(mut c) => {
                c.tau_max = c.tau_max.min(tau);
                SelectorKind::TMerge(c)
            }
            other => other,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Window length `L` (frames, even).
    pub window_len: u64,
    /// Candidate budget `K`.
    pub k: f64,
    /// The selection algorithm.
    pub selector: SelectorKind,
    /// Device the ReID session runs on (CPU, or GPU for `-B` variants).
    pub device: Device,
    /// Simulated cost constants.
    pub cost: CostModel,
    /// Selective feature extraction (DESIGN.md §14). `Off` (the default)
    /// is bit-identical to the pre-gating pipeline.
    pub gate: GatePolicy,
}

impl Default for PipelineConfig {
    /// The paper's defaults: `L = 2000`, `K = 5%`, TMerge on CPU.
    fn default() -> Self {
        Self {
            window_len: 2000,
            k: 0.05,
            selector: SelectorKind::TMerge(TMergeConfig::default()),
            device: Device::Cpu,
            cost: CostModel::calibrated(),
            gate: GatePolicy::Off,
        }
    }
}

/// What one pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The corrected track set (candidates merged).
    pub merged: TrackSet,
    /// Every candidate pair the selector proposed: the committed pairs in
    /// commit order, then the pairs of windows still provisional (degraded
    /// and never re-verified). On a fault-free run that is window order.
    pub candidates: Vec<TrackPair>,
    /// Candidates that survived verification and were merged.
    pub accepted: Vec<TrackPair>,
    /// Total pairs examined (`Σ_c |P_c|`).
    pub n_pairs: usize,
    /// Total distance evaluations across windows.
    pub distance_evals: u64,
    /// Simulated processing time, milliseconds.
    pub elapsed_ms: f64,
    /// ReID work counters.
    pub stats: ReidStats,
    /// Fault-handling counters (all zero on a clean run).
    pub robustness: RobustnessReport,
}

impl PipelineReport {
    /// Frames processed per simulated second (the paper's *FPS* metric).
    pub fn fps(&self, n_frames: u64) -> f64 {
        if self.elapsed_ms <= 0.0 {
            f64::INFINITY
        } else {
            n_frames as f64 / (self.elapsed_ms / 1000.0)
        }
    }
}

/// Runs the full merging pipeline over a video's tracker output.
///
/// `verifier`, when provided, plays the role of the paper's optional human
/// inspection: only candidates it accepts are merged. Pass `None` to merge
/// every candidate.
pub fn run_pipeline(
    tracks: &TrackSet,
    n_frames: u64,
    model: &AppearanceModel,
    config: &PipelineConfig,
    verifier: Option<&dyn Fn(&TrackPair) -> bool>,
) -> Result<PipelineReport> {
    // The model itself is an always-available backend, so this is the
    // fault-tolerant walk with the fault path never taken.
    run_pipeline_with_backend(
        tracks,
        n_frames,
        model,
        config,
        verifier,
        model,
        &RobustnessConfig::default(),
    )
}

/// Counts the distance evaluations of successful selections — the
/// report's `distance_evals`, which the merger itself does not keep.
struct CountingSelector {
    inner: Box<dyn CandidateSelector>,
    distance_evals: AtomicU64,
}

impl CandidateSelector for CountingSelector {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn obs_slug(&self) -> &'static str {
        self.inner.obs_slug()
    }

    fn select(
        &self,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
    ) -> Result<SelectionResult> {
        let result = self.inner.select(input, session)?;
        self.distance_evals
            .fetch_add(result.distance_evals, Ordering::Relaxed);
        Ok(result)
    }
}

/// Runs the merging pipeline against a fallible [`InferenceBackend`].
///
/// The whole video goes through one [`StreamingMerger`], so faults are
/// handled exactly as on a live stream: the window index is the session's
/// fault epoch (a deterministic `tm-chaos` fault plan addresses faults to
/// specific windows); a window whose selection fails even after the
/// session's retry budget falls back to spatio-temporal candidates and is
/// stashed; after `robustness.breaker_threshold` consecutive failures the
/// circuit breaker opens and later windows skip straight to the degraded
/// path; once the backend answers again the stashed windows are re-scored
/// with real ReID — selectors are stateless and seeded per window, so
/// re-scoring reproduces what a healthy run would have chosen. Windows
/// still degraded at the end of the video get one final recovery attempt;
/// whatever remains provisional is merged on degraded evidence (counted in
/// [`RobustnessReport::degraded_windows`] minus `reverified_windows`).
pub fn run_pipeline_with_backend<'m>(
    tracks: &TrackSet,
    n_frames: u64,
    model: &'m AppearanceModel,
    config: &PipelineConfig,
    verifier: Option<&dyn Fn(&TrackPair) -> bool>,
    backend: &'m dyn InferenceBackend,
    robustness: &RobustnessConfig,
) -> Result<PipelineReport> {
    let run_span = tm_obs::current().span("pipeline.run", 0.0);
    let selector = CountingSelector {
        inner: config.selector.build(),
        distance_evals: AtomicU64::new(0),
    };
    let stream_config = StreamConfig {
        window_len: config.window_len,
        k: config.k,
        gate: config.gate,
        ..StreamConfig::default()
    };
    let mut merger =
        StreamingMerger::new(model, config.cost, config.device, selector, stream_config)?
            .with_backend(backend)
            .with_robustness(*robustness);
    merger.finish(tracks, n_frames)?;

    let candidates: Vec<TrackPair> = merger
        .accepted()
        .iter()
        .chain(merger.provisional())
        .copied()
        .collect();
    let accepted: Vec<TrackPair> = match verifier {
        Some(v) => candidates.iter().filter(|p| v(p)).copied().collect(),
        None => candidates.clone(),
    };
    let merged = tracks.relabeled(&merge_mapping(&accepted));
    run_span.finish(merger.elapsed_ms());
    Ok(PipelineReport {
        merged,
        candidates,
        accepted,
        n_pairs: merger.decisions().iter().map(|d| d.n_pairs).sum(),
        distance_evals: merger.selector.distance_evals.load(Ordering::Relaxed),
        elapsed_ms: merger.elapsed_ms(),
        stats: merger.reid_stats(),
        robustness: merger.robustness(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId};

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

    fn fixture() -> (AppearanceModel, TrackSet) {
        let model = AppearanceModel::new(tm_reid::AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 20, 0.0),
            track(2, 10, 60, 20, 110.0), // fragment of actor 10
            track(3, 11, 0, 20, 400.0),
            track(4, 12, 0, 20, 800.0),
            track(5, 13, 50, 20, 1200.0),
        ]);
        (model, tracks)
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            window_len: 200,
            k: 0.1, // m = 1 for the single 10-pair window
            selector: SelectorKind::TMerge(TMergeConfig {
                tau_max: 800,
                seed: 2,
                ..Default::default()
            }),
            device: Device::Cpu,
            cost: CostModel::calibrated(),
            gate: GatePolicy::Off,
        }
    }

    #[test]
    fn pipeline_merges_the_fragmented_actor() {
        let (model, tracks) = fixture();
        let report = run_pipeline(&tracks, 200, &model, &config(), None).unwrap();
        let poly = TrackPair::new(TrackId(1), TrackId(2)).unwrap();
        assert!(report.candidates.contains(&poly), "{:?}", report.candidates);
        // Tracks 1 and 2 are now one track.
        assert!(report.merged.get(TrackId(1)).is_some());
        assert!(report.merged.get(TrackId(2)).is_none());
        assert_eq!(report.merged.get(TrackId(1)).unwrap().len(), 40);
    }

    #[test]
    fn verifier_filters_candidates() {
        let (model, tracks) = fixture();
        let reject_all = |_: &TrackPair| false;
        let report = run_pipeline(&tracks, 200, &model, &config(), Some(&reject_all)).unwrap();
        assert!(report.accepted.is_empty());
        // Nothing merged.
        assert_eq!(report.merged.len(), tracks.len());
    }

    #[test]
    fn report_accounting_is_consistent() {
        let (model, tracks) = fixture();
        let report = run_pipeline(&tracks, 200, &model, &config(), None).unwrap();
        assert!(report.n_pairs > 0);
        assert!(report.distance_evals > 0);
        assert!(report.elapsed_ms > 0.0);
        assert_eq!(report.stats.distances, report.distance_evals);
        assert!(report.fps(200) > 0.0);
        // Clean backend: the fault path never fires.
        assert_eq!(report.robustness, RobustnessReport::default());
    }

    #[test]
    fn baseline_selector_works_through_pipeline() {
        let (model, tracks) = fixture();
        let mut cfg = config();
        cfg.selector = SelectorKind::Baseline;
        let report = run_pipeline(&tracks, 200, &model, &cfg, None).unwrap();
        let poly = TrackPair::new(TrackId(1), TrackId(2)).unwrap();
        assert!(report.candidates.contains(&poly));
    }

    #[test]
    fn gpu_pipeline_is_faster_than_cpu() {
        let (model, tracks) = fixture();
        let cpu = run_pipeline(&tracks, 200, &model, &config(), None).unwrap();
        let mut gpu_cfg = config();
        gpu_cfg.device = Device::Gpu { batch: 10 };
        let gpu = run_pipeline(&tracks, 200, &model, &gpu_cfg, None).unwrap();
        assert!(gpu.elapsed_ms < cpu.elapsed_ms);
    }

    #[test]
    fn gated_pipeline_keeps_candidates_and_cuts_inferences() {
        let (model, tracks) = fixture();
        let ungated = run_pipeline(&tracks, 200, &model, &config(), None).unwrap();
        let mut cfg = config();
        cfg.gate = GatePolicy::On(tm_reid::GateConfig::default());
        let gated = run_pipeline(&tracks, 200, &model, &cfg, None).unwrap();
        assert!(
            gated.stats.inferences < ungated.stats.inferences,
            "gated {} vs ungated {}",
            gated.stats.inferences,
            ungated.stats.inferences
        );
        assert!(gated.elapsed_ms < ungated.elapsed_ms);
        // The fixture's fragmented actor is still found.
        let poly = TrackPair::new(TrackId(1), TrackId(2)).unwrap();
        assert!(gated.candidates.contains(&poly), "{:?}", gated.candidates);
    }

    #[test]
    fn empty_track_set_is_fine() {
        let (model, _) = fixture();
        let report = run_pipeline(&TrackSet::new(), 200, &model, &config(), None).unwrap();
        assert!(report.merged.is_empty());
        assert_eq!(report.n_pairs, 0);
    }

    #[test]
    fn invalid_tracks_are_rejected_up_front() {
        let (model, _) = fixture();
        let bad = TrackSet::from_tracks(vec![Track::with_boxes(
            TrackId(1),
            classes::PEDESTRIAN,
            vec![TrackBox::new(FrameIdx(0), BBox::new(0.0, 0.0, -5.0, 10.0))],
        )]);
        let err = run_pipeline(&bad, 200, &model, &config(), None);
        assert!(matches!(err, Err(tm_types::TmError::InvalidTrack { .. })));
    }
}
