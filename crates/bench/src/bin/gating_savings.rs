//! Gating savings — selective feature extraction vs. extract-everything.
//!
//! Walks the same PathTrack Tracktor windows twice with the TMerge selector:
//! once with `GatePolicy::Off` (the historical extract-on-demand path) and
//! once with `GatePolicy::On(GateConfig::default())` (novelty-gated
//! extraction with age-decayed feature propagation). Both walks verify
//! candidates against the oracle and merge the accepted pairs, so the
//! comparison is end-to-end: total ReID inferences, IDF1/recall of the
//! merged output, and the simulated per-window latency distribution.
//!
//! The binary asserts the tentpole claim from DESIGN.md §14 — the gate
//! must cut total inferences by ≥ 30% while holding IDF1 and candidate
//! recall within 0.5 points and keeping p50/p99 window latency no worse —
//! prints the comparison and writes two artifacts:
//!
//! * `BENCH_gating.json` at the repo root (schema-validated trajectory
//!   point, like `BENCH_kernels.json` and friends),
//! * `results/gating_savings.metrics.txt` (deterministic recorder
//!   snapshot: `reid.gate.*` counters and simulated spans).
//!
//! `--quick` clips the dataset for CI smoke use.

use tm_bench::experiments::ExpConfig;
use tm_bench::harness::{DatasetRun, VideoRun};
use tm_bench::perf::{collect_meta, percentile, time_iters, BenchCase, BenchReport, CountingAlloc};
use tm_bench::report::{header, observed, table};
use tm_core::{merge_mapping, CandidateSelector, SelectionInput, TMerge, TMergeConfig};
use tm_datasets::pathtrack;
use tm_metrics::{identity_metrics, recall};
use tm_reid::{CostModel, Device, GateConfig, GatePolicy, ReidSession};
use tm_track::TrackerKind;
use tm_types::TrackPair;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tentpole gate: minimum accepted inference saving.
const MIN_SAVING_PCT: f64 = 30.0;
/// Maximum accepted IDF1/recall drop, in points (×100 of the fraction).
const MAX_QUALITY_DROP_PTS: f64 = 0.5;

fn selector(seed: u64) -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 10_000,
        seed,
        ..TMergeConfig::default()
    })
}

/// What one full dataset walk under one gate policy produced.
struct Walk {
    inferences: u64,
    cache_hits: u64,
    saved_charges: u64,
    elapsed_ms: f64,
    /// Simulated latency of every decided window, microsecond-quantized
    /// and ascending-sorted (for nearest-rank percentiles).
    window_us: Vec<u64>,
    /// IDF1 of the merged output vs. ground truth, averaged over videos.
    idf1: f64,
    /// Candidate recall vs. the polyonymous truth, averaged over videos
    /// that have any truth pairs.
    rec: f64,
}

/// Runs every window of every video under `gate`, oracle-verifies the
/// candidates, merges the accepted pairs and scores the merged output.
fn walk(runs: &[VideoRun], gate: GatePolicy, seed: u64) -> Walk {
    let per_video = tm_par::par_map(runs, |run| {
        let model = run.video.model();
        let corr = &run.video.correspondence;
        let sel = selector(seed);
        let mut session =
            ReidSession::new(&model, CostModel::calibrated(), Device::Gpu { batch: 10 })
                .with_gate(gate);
        session.gate_update_plan(&run.video.tracks);
        let mut candidates: Vec<TrackPair> = Vec::new();
        let mut accepted: Vec<TrackPair> = Vec::new();
        let mut window_us: Vec<u64> = Vec::new();
        for wp in &run.windows {
            if wp.pairs.is_empty() {
                continue;
            }
            let input = SelectionInput {
                pairs: &wp.pairs,
                tracks: &run.video.tracks,
                k: tm_bench::experiments::sweep::K,
                voi: None,
            };
            let before = session.elapsed_ms();
            let result = sel
                .select(&input, &mut session)
                .expect("clean backend: selection cannot fail");
            window_us.push(((session.elapsed_ms() - before) * 1_000.0).round() as u64);
            session.flush_gate_obs();
            for p in result.candidates {
                if corr.is_polyonymous(&p) {
                    accepted.push(p);
                }
                candidates.push(p);
            }
        }
        let merged = run.video.tracks.relabeled(&merge_mapping(&accepted));
        let idf1 = identity_metrics(&run.video.gt_tracks, &merged, 0.5).idf1;
        let rec = if run.truth.is_empty() {
            None
        } else {
            Some(recall(candidates.iter(), &run.truth))
        };
        (
            session.stats(),
            session.gate_stats(),
            session.elapsed_ms(),
            window_us,
            idf1,
            rec,
        )
    });
    let mut out = Walk {
        inferences: 0,
        cache_hits: 0,
        saved_charges: 0,
        elapsed_ms: 0.0,
        window_us: Vec::new(),
        idf1: 0.0,
        rec: 0.0,
    };
    let mut recs: Vec<f64> = Vec::new();
    for (stats, gate_stats, elapsed, us, idf1, rec) in per_video {
        out.inferences += stats.inferences;
        out.cache_hits += stats.cache_hits;
        out.saved_charges += gate_stats.saved_charges();
        out.elapsed_ms += elapsed;
        out.window_us.extend(us);
        out.idf1 += idf1;
        recs.extend(rec);
    }
    out.idf1 /= runs.len().max(1) as f64;
    out.rec = if recs.is_empty() {
        1.0
    } else {
        recs.iter().sum::<f64>() / recs.len() as f64
    };
    out.window_us.sort_unstable();
    out
}

/// The side-by-side comparison the binary prints and gates on.
struct GatingSavings {
    n_videos: usize,
    n_windows: usize,
    ungated_inferences: u64,
    gated_inferences: u64,
    saved: u64,
    saving_pct: f64,
    gate_saved_charges: u64,
    idf1_ungated: f64,
    idf1_gated: f64,
    recall_ungated: f64,
    recall_gated: f64,
    window_p50_us_ungated: u64,
    window_p50_us_gated: u64,
    window_p99_us_ungated: u64,
    window_p99_us_gated: u64,
    elapsed_s_ungated: f64,
    elapsed_s_gated: f64,
}

fn run(cfg: &ExpConfig) -> (GatingSavings, Walk, Walk) {
    let spec = cfg.limit(pathtrack(), 4);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let off = walk(&ds.runs, GatePolicy::Off, cfg.seed);
    let on = walk(&ds.runs, GatePolicy::On(GateConfig::default()), cfg.seed);
    assert_eq!(
        off.window_us.len(),
        on.window_us.len(),
        "both walks decide the same windows"
    );
    let saved = off.inferences.saturating_sub(on.inferences);
    let r = GatingSavings {
        n_videos: ds.runs.len(),
        n_windows: off.window_us.len(),
        ungated_inferences: off.inferences,
        gated_inferences: on.inferences,
        saved,
        saving_pct: 100.0 * saved as f64 / off.inferences.max(1) as f64,
        gate_saved_charges: on.saved_charges,
        idf1_ungated: off.idf1,
        idf1_gated: on.idf1,
        recall_ungated: off.rec,
        recall_gated: on.rec,
        window_p50_us_ungated: percentile(&off.window_us, 50.0),
        window_p50_us_gated: percentile(&on.window_us, 50.0),
        window_p99_us_ungated: percentile(&off.window_us, 99.0),
        window_p99_us_gated: percentile(&on.window_us, 99.0),
        elapsed_s_ungated: off.elapsed_ms / 1000.0,
        elapsed_s_gated: on.elapsed_ms / 1000.0,
    };
    // Deterministic headline counters for results/gating_savings.metrics.txt.
    let obs = tm_obs::current();
    obs.counter("gating.inferences_saved", saved);
    obs.counter("gating.saving_pct", r.saving_pct as u64);
    (r, off, on)
}

fn main() {
    let cfg = ExpConfig::from_args();
    let (r, _off, _on) = observed("gating_savings", || run(&cfg));

    header(&format!(
        "Gating savings — novelty-gated extraction on PathTrack ({} videos, {} windows)",
        r.n_videos, r.n_windows
    ));
    let pts = |a: f64, b: f64| format!("{:.2} → {:.2}", 100.0 * a, 100.0 * b);
    table(
        &["metric", "value"],
        &[
            vec![
                "inferences (off → on)".into(),
                format!("{} → {}", r.ungated_inferences, r.gated_inferences),
            ],
            vec!["saved".into(), r.saved.to_string()],
            vec![
                "gate saved charges".into(),
                r.gate_saved_charges.to_string(),
            ],
            vec!["saving %".into(), format!("{:.1}", r.saving_pct)],
            vec![
                "IDF1 pts (off → on)".into(),
                pts(r.idf1_ungated, r.idf1_gated),
            ],
            vec![
                "recall pts (off → on)".into(),
                pts(r.recall_ungated, r.recall_gated),
            ],
            vec![
                "window p50 µs (off → on)".into(),
                format!("{} → {}", r.window_p50_us_ungated, r.window_p50_us_gated),
            ],
            vec![
                "window p99 µs (off → on)".into(),
                format!("{} → {}", r.window_p99_us_ungated, r.window_p99_us_gated),
            ],
            vec![
                "sim elapsed s (off → on)".into(),
                format!("{:.2} → {:.2}", r.elapsed_s_ungated, r.elapsed_s_gated),
            ],
        ],
    );

    // The tentpole acceptance gates.
    assert!(
        r.saving_pct >= MIN_SAVING_PCT,
        "the gate must save ≥ {MIN_SAVING_PCT}% of ReID inferences, got {:.1}%",
        r.saving_pct
    );
    let idf1_drop_pts = 100.0 * (r.idf1_ungated - r.idf1_gated);
    assert!(
        idf1_drop_pts <= MAX_QUALITY_DROP_PTS,
        "gated IDF1 dropped {idf1_drop_pts:.3} pts (> {MAX_QUALITY_DROP_PTS})"
    );
    let rec_drop_pts = 100.0 * (r.recall_ungated - r.recall_gated);
    assert!(
        rec_drop_pts <= MAX_QUALITY_DROP_PTS,
        "gated recall dropped {rec_drop_pts:.3} pts (> {MAX_QUALITY_DROP_PTS})"
    );
    assert!(
        r.window_p50_us_gated <= r.window_p50_us_ungated
            && r.window_p99_us_gated <= r.window_p99_us_ungated,
        "gated window latency regressed: p50 {} → {} µs, p99 {} → {} µs",
        r.window_p50_us_ungated,
        r.window_p50_us_gated,
        r.window_p99_us_ungated,
        r.window_p99_us_gated,
    );

    // The trajectory point: wall-time both walks on the prepared dataset
    // (preparation itself is excluded) and write BENCH_gating.json next to
    // the other BENCH_*.json files.
    let spec = cfg.limit(pathtrack(), 4);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let frames = ds.total_frames();
    let iters = if cfg.quick { 1 } else { 3 };
    let cases = [
        ("pipeline_ungated", GatePolicy::Off, r.ungated_inferences),
        (
            "pipeline_gated",
            GatePolicy::On(GateConfig::default()),
            r.gated_inferences,
        ),
    ]
    .map(|(name, gate, inferences)| {
        let alloc = CountingAlloc::snapshot();
        let t = time_iters(iters, || {
            walk(&ds.runs, gate, cfg.seed);
        });
        BenchCase::from_timing(name, t, frames, inferences, alloc.delta().bytes)
    });
    let report = BenchReport {
        meta: collect_meta(cfg.quick),
        cases: cases.to_vec(),
    };
    println!("wrote {}", report.write("BENCH_gating.json").display());
}
