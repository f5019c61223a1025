//! Shared experiment machinery: prepared videos with pair sets and truth,
//! selector execution with REC/FPS aggregation, and parameter sweeps.

use crate::perf::{impl_to_json, Json, ToJson};
use std::collections::BTreeSet;
use tm_core::{build_window_pairs, CandidateSelector, SelectionInput, WindowPairs};
use tm_datasets::{prepare, DatasetSpec, PreparedVideo};
use tm_metrics::recall;
use tm_reid::{AppearanceModel, CostModel, Device, GatePolicy, ReidSession};
use tm_track::TrackerKind;
use tm_types::TrackPair;

/// A prepared video together with its window pair sets and the global
/// polyonymous truth `P*` (all pairs of tracks attributed to one actor).
#[derive(Debug, Clone)]
pub struct VideoRun {
    /// The prepared video.
    pub video: PreparedVideo,
    /// `P_c` per window for the configured `L`.
    pub windows: Vec<WindowPairs>,
    /// Global truth `P*`.
    pub truth: BTreeSet<TrackPair>,
}

impl VideoRun {
    /// Prepares a video and builds its pair sets for window length `L`.
    pub fn new(video: PreparedVideo, window_len: u64) -> Self {
        let windows = build_window_pairs(&video.tracks, video.n_frames, window_len)
            .expect("window length is validated by the caller");
        let tracks: Vec<&tm_types::Track> = video.tracks.iter().collect();
        let truth = video.correspondence.all_polyonymous(&tracks);
        Self {
            video,
            windows,
            truth,
        }
    }

    /// Total pairs across windows.
    pub fn n_pairs(&self) -> usize {
        self.windows.iter().map(|w| w.pairs.len()).sum()
    }
}

/// Aggregate outcome of running one selector over a set of videos.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Recall against the global polyonymous truth, averaged over videos
    /// that have any polyonymous pairs.
    pub rec: f64,
    /// Frames processed per simulated second.
    pub fps: f64,
    /// Total simulated runtime in seconds.
    pub runtime_s: f64,
    /// Total BBox-pair distance evaluations.
    pub distance_evals: u64,
    /// Total candidates returned.
    pub n_candidates: usize,
    /// ReID feature inferences executed.
    pub inferences: u64,
    /// Feature requests served from the cache (the paper's reuse effect).
    pub cache_hits: u64,
}

impl_to_json! {
    RunOutcome {
        rec,
        fps,
        runtime_s,
        distance_evals,
        n_candidates,
        inferences,
        cache_hits,
    }
}

impl RunOutcome {
    /// Feature-cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.inferences + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// What one video's worker produced; folded in video order so the
/// aggregate is bit-identical to the serial loop for any thread count.
struct VideoOutcome {
    elapsed_ms: f64,
    frames: u64,
    evals: u64,
    n_candidates: usize,
    inferences: u64,
    cache_hits: u64,
    rec: Option<f64>,
}

/// Runs a selector over every window of every video, one ReID session per
/// video (features are reused across that video's windows), and aggregates
/// REC and FPS.
///
/// Videos fan out over worker threads (`TMERGE_THREADS`, see `tm_par`);
/// per-video results are collected into index-ordered buffers and folded in
/// video order, so the outcome is bit-identical to a serial run. Each video
/// keeps its own simulated clock, and the clocks are summed — parallelism
/// changes wall-clock only, never the reported FPS/REC.
pub fn run_selector(
    runs: &[VideoRun],
    selector: &dyn CandidateSelector,
    k: f64,
    cost: CostModel,
    device: Device,
) -> RunOutcome {
    run_selector_gated(runs, selector, k, cost, device, GatePolicy::Off)
}

/// [`run_selector`] with an extraction gate installed on every per-video
/// session (`GatePolicy::Off` is exactly `run_selector`). Gate decision
/// counters flush once per decided window — the `AssignStats` cadence —
/// and the saved charges are attributed to the selector as
/// `reid.gate.saved_charges.<slug>`.
pub fn run_selector_gated(
    runs: &[VideoRun],
    selector: &dyn CandidateSelector,
    k: f64,
    cost: CostModel,
    device: Device,
    gate: GatePolicy,
) -> RunOutcome {
    let outcomes = tm_par::par_map(runs, |run| {
        let model = run.video.model();
        let mut session = ReidSession::new(&model, cost, device).with_gate(gate);
        session.gate_update_plan(&run.video.tracks);
        let obs = tm_obs::current();
        let mut candidates: Vec<TrackPair> = Vec::new();
        let mut evals = 0u64;
        for wp in &run.windows {
            if wp.pairs.is_empty() {
                continue;
            }
            let input = SelectionInput {
                pairs: &wp.pairs,
                tracks: &run.video.tracks,
                k,
                voi: None,
            };
            let result = selector
                .select(&input, &mut session)
                .expect("clean backend: selection cannot fail");
            let delta = session.flush_gate_obs();
            if obs.enabled() && delta.saved_charges() > 0 {
                obs.counter(
                    &format!("reid.gate.saved_charges.{}", selector.obs_slug()),
                    delta.saved_charges(),
                );
            }
            evals += result.distance_evals;
            candidates.extend(result.candidates);
        }
        VideoOutcome {
            elapsed_ms: session.elapsed_ms(),
            frames: run.video.n_frames,
            evals,
            n_candidates: candidates.len(),
            inferences: session.stats().inferences,
            cache_hits: session.stats().cache_hits,
            rec: if run.truth.is_empty() {
                None
            } else {
                Some(recall(candidates.iter(), &run.truth))
            },
        }
    });
    let mut total_ms = 0.0;
    let mut total_frames = 0u64;
    let mut total_evals = 0u64;
    let mut n_candidates = 0usize;
    let mut inferences = 0u64;
    let mut cache_hits = 0u64;
    let mut recs: Vec<f64> = Vec::new();
    for o in outcomes {
        total_ms += o.elapsed_ms;
        total_frames += o.frames;
        total_evals += o.evals;
        n_candidates += o.n_candidates;
        inferences += o.inferences;
        cache_hits += o.cache_hits;
        recs.extend(o.rec);
    }
    let rec = if recs.is_empty() {
        1.0
    } else {
        recs.iter().sum::<f64>() / recs.len() as f64
    };
    let runtime_s = total_ms / 1000.0;
    let fps = if runtime_s > 0.0 {
        total_frames as f64 / runtime_s
    } else {
        f64::INFINITY
    };
    RunOutcome {
        rec,
        fps,
        runtime_s,
        distance_evals: total_evals,
        n_candidates,
        inferences,
        cache_hits,
    }
}

/// One point of a parameter sweep (a REC–FPS curve).
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Human-readable parameter value (e.g. `η=0.05` or `τ=10000`).
    pub param: String,
    /// The outcome at this parameter.
    pub outcome: RunOutcome,
}

/// `param` and the outcome's fields side by side in one object, the
/// layout `render_experiments` reads.
impl ToJson for CurvePoint {
    fn to_json(&self) -> Json {
        let mut fields = vec![("param".to_string(), self.param.to_json())];
        if let Json::Obj(outcome) = self.outcome.to_json() {
            fields.extend(outcome);
        }
        Json::Obj(fields)
    }
}

/// Interpolated FPS at a target REC from a sweep (assumes the sweep spans
/// the target; returns `None` when no point reaches it).
///
/// Points are sorted by REC; the FPS is linearly interpolated between the
/// two bracketing points, which mirrors how the paper reads Table II's
/// "FPS at REC = x" off its curves.
pub fn fps_at_rec(points: &[CurvePoint], target: f64) -> Option<f64> {
    let mut sorted: Vec<&CurvePoint> = points.iter().collect();
    sorted.sort_by(|a, b| {
        a.outcome
            .rec
            .partial_cmp(&b.outcome.rec)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if sorted.is_empty() || sorted.last().unwrap().outcome.rec < target {
        return None;
    }
    // First point at or above the target.
    let hi_idx = sorted
        .iter()
        .position(|p| p.outcome.rec >= target)
        .expect("checked above");
    if hi_idx == 0 {
        return Some(sorted[0].outcome.fps);
    }
    let lo = &sorted[hi_idx - 1].outcome;
    let hi = &sorted[hi_idx].outcome;
    if (hi.rec - lo.rec).abs() < 1e-12 {
        return Some(hi.fps);
    }
    let t = (target - lo.rec) / (hi.rec - lo.rec);
    Some(lo.fps + t * (hi.fps - lo.fps))
}

/// A whole dataset prepared with one tracker.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    /// Dataset name.
    pub name: &'static str,
    /// Prepared videos with pair sets and truth.
    pub runs: Vec<VideoRun>,
    /// Window length used.
    pub window_len: u64,
}

impl DatasetRun {
    /// Prepares every video of a dataset with the given tracker and window
    /// length (`None` = the dataset's default).
    pub fn prepare(spec: &DatasetSpec, tracker: TrackerKind, window_len: Option<u64>) -> Self {
        let window_len = window_len.unwrap_or(spec.window_len);
        let runs = spec
            .videos
            .iter()
            .map(|v| VideoRun::new(prepare(v, tracker), window_len))
            .collect();
        Self {
            name: spec.name,
            runs,
            window_len,
        }
    }

    /// Total frames across videos.
    pub fn total_frames(&self) -> u64 {
        self.runs.iter().map(|r| r.video.n_frames).sum()
    }
}

/// Builds a fresh appearance model handle for the first video (used by
/// kernels that need *a* model).
pub fn any_model(ds: &DatasetRun) -> AppearanceModel {
    ds.runs[0].video.model()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rec: f64, fps: f64) -> CurvePoint {
        CurvePoint {
            param: format!("rec={rec}"),
            outcome: RunOutcome {
                rec,
                fps,
                runtime_s: 1.0,
                distance_evals: 0,
                n_candidates: 0,
                inferences: 0,
                cache_hits: 0,
            },
        }
    }

    #[test]
    fn fps_at_rec_interpolates() {
        let pts = vec![point(0.5, 100.0), point(0.9, 20.0), point(0.7, 60.0)];
        // Exact hit.
        assert!((fps_at_rec(&pts, 0.7).unwrap() - 60.0).abs() < 1e-9);
        // Midpoint between 0.7 and 0.9 → midpoint FPS.
        assert!((fps_at_rec(&pts, 0.8).unwrap() - 40.0).abs() < 1e-9);
        // Below the lowest point → the fastest point's FPS.
        assert!((fps_at_rec(&pts, 0.3).unwrap() - 100.0).abs() < 1e-9);
        // Unreachable target.
        assert!(fps_at_rec(&pts, 0.95).is_none());
    }

    #[test]
    fn curve_point_fields_sit_beside_the_outcome() {
        let mut p = point(0.75, 12.5);
        p.outcome.distance_evals = 3;
        assert_eq!(
            crate::perf::encode_json(&p.to_json()),
            "{\n  \"param\": \"rec=0.75\",\n  \"rec\": 0.75,\n  \"fps\": 12.5,\n  \
             \"runtime_s\": 1,\n  \"distance_evals\": 3,\n  \"n_candidates\": 0,\n  \
             \"inferences\": 0,\n  \"cache_hits\": 0\n}\n"
        );
    }

    #[test]
    fn fps_at_rec_empty() {
        assert!(fps_at_rec(&[], 0.5).is_none());
    }
}
