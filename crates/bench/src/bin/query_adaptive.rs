//! Query-adaptive anytime merging vs. the query-agnostic pipeline.
//!
//! Walks the PathTrack Tracktor videos with [`tm_query::AnytimeQuery`]
//! under the two §V-H queries (Count > 200 frames, 3-way co-occurrence
//! > 50 frames), twice per inference budget:
//!
//! * **VoI** — value-of-information hints reweight the bandit arms,
//!   windows are visited in descending VoI order, and the run stops as
//!   soon as the `[lo, hi]` interval converges,
//! * **agnostic** — no hints, no early stop: the classic pipeline with a
//!   budget clamp.
//!
//! The per-video full-budget spend `T` defines the budget grid
//! (25/50/75/100 % of `T`); query recall of the merged output is scored
//! against ground truth with a freshly recomputed attribution, exactly as
//! Fig. 13 does. The binary asserts the tentpole claim from DESIGN.md §17
//! — at a 50 % budget the VoI run must hold ≥ 95 % of the full-budget
//! recall on both queries, and early termination must fire on at least
//! one video — and writes three artifacts:
//!
//! * `BENCH_query.json` at the repo root (schema-validated trajectory
//!   point, like `BENCH_gating.json` and friends),
//! * `results/query_adaptive.json` (the full budget curves),
//! * `results/query_adaptive.metrics.txt` (deterministic recorder
//!   snapshot: `query.voi.*` counters).
//!
//! `--quick` clips the dataset for CI smoke use.

use serde::Serialize;
use tm_bench::experiments::quality::{COUNT_MIN_FRAMES, CO_OCCUR_GROUP, CO_OCCUR_MIN_FRAMES};
use tm_bench::experiments::ExpConfig;
use tm_bench::harness::{DatasetRun, VideoRun};
use tm_bench::perf::{collect_meta, repo_root, time_iters, BenchCase, BenchReport};
use tm_bench::report::{header, observed, save_json, table};
use tm_core::{merge_mapping, PipelineConfig, SelectorKind, TMergeConfig};
use tm_datasets::pathtrack;
use tm_metrics::Correspondence;
use tm_query::{
    co_occurrence_recall, count_recall, AnytimeConfig, AnytimeQuery, Query, QueryAnswer,
};
use tm_reid::{CostModel, Device, GatePolicy};
use tm_track::TrackerKind;
use tm_types::{BBox, TrackPair};

/// Budget grid, percent of the measured full-budget spend.
const BUDGET_PCTS: [u64; 4] = [25, 50, 75, 100];
/// Tentpole gate: minimum fraction of full-budget recall the VoI run must
/// hold at the 50 % budget point.
const MIN_RECALL_FRAC_AT_HALF: f64 = 0.95;

/// The two §V-H queries, in report order.
fn queries() -> [Query; 2] {
    [
        Query::Count {
            min_frames: COUNT_MIN_FRAMES,
        },
        Query::CoOccurrence {
            group_size: CO_OCCUR_GROUP,
            min_frames: CO_OCCUR_MIN_FRAMES,
        },
    ]
}

fn query_name(qi: usize) -> &'static str {
    ["count", "co_occurrence"][qi]
}

fn pipeline_config(window_len: u64, seed: u64) -> PipelineConfig {
    PipelineConfig {
        window_len,
        k: tm_bench::experiments::sweep::K,
        selector: SelectorKind::TMerge(TMergeConfig {
            tau_max: 10_000,
            seed,
            ..TMergeConfig::default()
        }),
        device: Device::Gpu { batch: 10 },
        cost: CostModel::calibrated(),
        gate: GatePolicy::Off,
    }
}

/// Ground-truth recall of `query` on the tracks merged under the
/// oracle-verified subset of `accepted` (candidates the anytime layer
/// proposed that are truly polyonymous — the same verified-merge scoring
/// Fig. 13 uses). The merged set changes ids, so the attribution is
/// recomputed.
fn recall_of(run: &VideoRun, query: Query, accepted: &[TrackPair]) -> f64 {
    let verified: Vec<TrackPair> = accepted
        .iter()
        .filter(|p| run.video.correspondence.is_polyonymous(p))
        .copied()
        .collect();
    let merged = run.video.tracks.relabeled(&merge_mapping(&verified));
    let corr = Correspondence::from_tracks(&merged, 0.5);
    let gt = &run.video.gt_tracks;
    match query {
        Query::Count { min_frames } => count_recall(&merged, gt, min_frames, corr.as_map()),
        Query::CoOccurrence {
            group_size,
            min_frames,
        } => co_occurrence_recall(&merged, gt, group_size, min_frames, corr.as_map()),
        Query::RegionTransit { .. } => unreachable!("not part of this bench"),
    }
}

/// One (variant, budget) outcome for one video and one query.
struct Outcome {
    spent: u64,
    recall: f64,
    terminated_early: bool,
}

/// Region-transit duration threshold (frames): long enough that passers-by
/// grazing the region stay sub-threshold.
const REGION_MIN_FRAMES: u64 = 150;

/// The region query probed per video: the spot of the most stationary
/// long track (smallest bbox hull among tracks of ≥ `REGION_MIN_FRAMES`
/// boxes) — "who loiters here?". Highly selective, so the answer interval
/// can pinch long before every window is scored: that is where anytime
/// early termination has real bite.
fn region_for(run: &VideoRun) -> BBox {
    let hull = |t: &tm_types::Track| {
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for b in &t.boxes {
            x0 = x0.min(b.bbox.x);
            y0 = y0.min(b.bbox.y);
            x1 = x1.max(b.bbox.x + b.bbox.w);
            y1 = y1.max(b.bbox.y + b.bbox.h);
        }
        BBox::new(x0, y0, (x1 - x0).max(1.0), (y1 - y0).max(1.0))
    };
    run.video
        .tracks
        .iter()
        .filter(|t| t.len() as u64 >= REGION_MIN_FRAMES)
        .map(|t| (hull(t), t.id))
        .min_by(|(a, ta), (b, tb)| (a.w * a.h).total_cmp(&(b.w * b.h)).then(ta.cmp(tb)))
        .map(|(h, _)| h)
        .unwrap_or_else(|| BBox::new(0.0, 0.0, 1.0, 1.0))
}

/// Run-to-convergence region-transit outcomes for one video:
/// `(voi_spent, agnostic_spent, terminated_early, deferred)`.
fn region_outcomes(run: &VideoRun, pipeline: PipelineConfig) -> (u64, u64, bool, u64) {
    let query = Query::RegionTransit {
        region: region_for(run),
        min_frames: REGION_MIN_FRAMES,
    };
    let model = run.video.model();
    let run_one = |voi: bool| {
        AnytimeQuery::new(
            pipeline,
            AnytimeConfig {
                budget: None,
                stop_on_convergence: voi,
                reweight_arms: voi,
            },
        )
        .run(&run.video.tracks, run.video.n_frames, &model, query)
        .expect("clean backend: anytime run cannot fail")
    };
    let voi = run_one(true);
    let agn = run_one(false);
    (
        voi.inferences_spent,
        agn.inferences_spent,
        voi.terminated_early,
        voi.deferred,
    )
}

fn anytime(
    run: &VideoRun,
    pipeline: PipelineConfig,
    query: Query,
    budget: Option<u64>,
    voi: bool,
) -> (Outcome, QueryAnswer) {
    let driver = AnytimeQuery::new(
        pipeline,
        AnytimeConfig {
            budget,
            stop_on_convergence: voi,
            reweight_arms: voi,
        },
    );
    let model = run.video.model();
    let ans = driver
        .run(&run.video.tracks, run.video.n_frames, &model, query)
        .expect("clean backend: anytime run cannot fail");
    (
        Outcome {
            spent: ans.inferences_spent,
            recall: recall_of(run, query, &ans.accepted),
            terminated_early: ans.terminated_early,
        },
        ans.answer,
    )
}

/// One point of the budget curve, aggregated over videos: recall is
/// averaged, spend is summed.
#[derive(Serialize)]
struct BudgetPoint {
    budget_pct: u64,
    query: &'static str,
    voi_spent: u64,
    voi_recall: f64,
    voi_early_terminations: u64,
    agnostic_spent: u64,
    agnostic_recall: f64,
}

/// The full comparison written to `results/query_adaptive.json`.
#[derive(Serialize)]
struct QueryAdaptive {
    n_videos: usize,
    /// Full-budget spend summed over videos (per query).
    full_spent: [u64; 2],
    /// Full-budget recall averaged over videos (per query).
    full_recall: [f64; 2],
    /// Unbudgeted VoI spend (run until the interval converges), summed
    /// over videos (per query).
    voi_full_spent: [u64; 2],
    /// Unbudgeted VoI recall averaged over videos (per query).
    voi_full_recall: [f64; 2],
    points: Vec<BudgetPoint>,
    /// Region-transit run-to-convergence: VoI vs agnostic spend, summed
    /// over videos.
    region_voi_spent: u64,
    region_agnostic_spent: u64,
    /// Videos whose region query terminated early on interval convergence.
    region_early_terminations: u64,
    /// Region-query pairs deferred as provably irrelevant, over videos.
    region_deferred: u64,
    early_terminations: u64,
}

fn run(cfg: &ExpConfig) -> QueryAdaptive {
    let spec = cfg.limit(pathtrack(), 4);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let pipeline = pipeline_config(ds.window_len, cfg.seed);

    // Per video × query: the full-budget walk (defines T), then both
    // variants at every budget fraction.
    let per_video = tm_par::par_map(&ds.runs, |run| {
        queries().map(|query| {
            let (full, _) = anytime(run, pipeline, query, None, false);
            let (voi_full, _) = anytime(run, pipeline, query, None, true);
            let grid = BUDGET_PCTS.map(|pct| {
                let budget = (full.spent * pct / 100).max(1);
                let (voi, _) = anytime(run, pipeline, query, Some(budget), true);
                let (agn, _) = anytime(run, pipeline, query, Some(budget), false);
                (voi, agn)
            });
            (full, voi_full, grid)
        })
    });
    let region = tm_par::par_map(&ds.runs, |run| region_outcomes(run, pipeline));

    let n = ds.runs.len() as f64;
    let mut full_spent = [0u64; 2];
    let mut full_recall = [0.0f64; 2];
    let mut voi_full_spent = [0u64; 2];
    let mut voi_full_recall = [0.0f64; 2];
    let mut voi_full_early = 0u64;
    let mut points: Vec<BudgetPoint> = queries()
        .iter()
        .enumerate()
        .flat_map(|(qi, _)| {
            BUDGET_PCTS.map(|pct| BudgetPoint {
                budget_pct: pct,
                query: query_name(qi),
                voi_spent: 0,
                voi_recall: 0.0,
                voi_early_terminations: 0,
                agnostic_spent: 0,
                agnostic_recall: 0.0,
            })
        })
        .collect();
    for video in &per_video {
        for (qi, (full, voi_full, grid)) in video.iter().enumerate() {
            full_spent[qi] += full.spent;
            full_recall[qi] += full.recall / n;
            voi_full_spent[qi] += voi_full.spent;
            voi_full_recall[qi] += voi_full.recall / n;
            voi_full_early += voi_full.terminated_early as u64;
            for (bi, (voi, agn)) in grid.iter().enumerate() {
                let p = &mut points[qi * BUDGET_PCTS.len() + bi];
                p.voi_spent += voi.spent;
                p.voi_recall += voi.recall / n;
                p.voi_early_terminations += voi.terminated_early as u64;
                p.agnostic_spent += agn.spent;
                p.agnostic_recall += agn.recall / n;
            }
        }
    }
    let mut region_voi_spent = 0u64;
    let mut region_agnostic_spent = 0u64;
    let mut region_early_terminations = 0u64;
    let mut region_deferred = 0u64;
    for &(voi_spent, agn_spent, early, deferred) in &region {
        region_voi_spent += voi_spent;
        region_agnostic_spent += agn_spent;
        region_early_terminations += early as u64;
        region_deferred += deferred;
    }
    let early: u64 = voi_full_early
        + region_early_terminations
        + points.iter().map(|p| p.voi_early_terminations).sum::<u64>();
    QueryAdaptive {
        n_videos: ds.runs.len(),
        full_spent,
        full_recall,
        voi_full_spent,
        voi_full_recall,
        points,
        region_voi_spent,
        region_agnostic_spent,
        region_early_terminations,
        region_deferred,
        early_terminations: early,
    }
}

fn main() {
    let cfg = ExpConfig::from_args();
    let r = observed("query_adaptive", || run(&cfg));

    header(&format!(
        "Query-adaptive anytime merging on PathTrack ({} videos)",
        r.n_videos
    ));
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            let per_k = |rec: f64, spent: u64| 1_000.0 * rec / spent.max(1) as f64;
            vec![
                p.query.into(),
                format!("{}%", p.budget_pct),
                format!("{:.3} @ {}", p.voi_recall, p.voi_spent),
                format!("{:.3} @ {}", p.agnostic_recall, p.agnostic_spent),
                format!(
                    "{:.4} vs {:.4}",
                    per_k(p.voi_recall, p.voi_spent),
                    per_k(p.agnostic_recall, p.agnostic_spent)
                ),
                p.voi_early_terminations.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "query",
            "budget",
            "VoI recall @ spend",
            "agnostic recall @ spend",
            "recall/1k inf (VoI vs agn)",
            "early stops",
        ],
        &rows,
    );
    let conv_rows: Vec<Vec<String>> = (0..2)
        .map(|qi| {
            vec![
                query_name(qi).into(),
                format!("{:.3} @ {}", r.voi_full_recall[qi], r.voi_full_spent[qi]),
                format!("{:.3} @ {}", r.full_recall[qi], r.full_spent[qi]),
            ]
        })
        .collect();
    table(
        &[
            "query",
            "VoI run-to-convergence recall @ spend",
            "agnostic full recall @ spend",
        ],
        &conv_rows,
    );
    table(
        &["region transit (run to convergence)", "value"],
        &[
            vec![
                "VoI spend vs agnostic".into(),
                format!("{} vs {}", r.region_voi_spent, r.region_agnostic_spent),
            ],
            vec![
                "early terminations".into(),
                format!("{} / {}", r.region_early_terminations, r.n_videos),
            ],
            vec!["pairs deferred".into(), r.region_deferred.to_string()],
        ],
    );
    save_json("query_adaptive", &r);

    // The tentpole acceptance gates (DESIGN.md §17).
    for (qi, _) in queries().iter().enumerate() {
        let half = &r.points[qi * BUDGET_PCTS.len() + 1];
        assert_eq!(half.budget_pct, 50);
        assert!(
            half.voi_recall >= MIN_RECALL_FRAC_AT_HALF * r.full_recall[qi],
            "{}: VoI recall at 50% budget is {:.4}, below {MIN_RECALL_FRAC_AT_HALF} x \
             full-budget recall {:.4}",
            query_name(qi),
            half.voi_recall,
            r.full_recall[qi],
        );
    }
    assert!(
        r.early_terminations >= 1,
        "interval convergence must terminate at least one VoI run early"
    );

    // The trajectory point: wall-time the VoI half-budget walk against the
    // agnostic full-budget walk (preparation excluded) and write
    // BENCH_query.json next to the other BENCH_*.json files.
    let spec = cfg.limit(pathtrack(), 4);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let pipeline = pipeline_config(ds.window_len, cfg.seed);
    let frames = ds.total_frames();
    let iters = if cfg.quick { 1 } else { 3 };
    let half_budgets: Vec<u64> = (0..2)
        .map(|qi| (r.full_spent[qi] / r.n_videos.max(1) as u64 / 2).max(1))
        .collect();
    let voi_spent: u64 = r
        .points
        .iter()
        .filter(|p| p.budget_pct == 50)
        .map(|p| p.voi_spent)
        .sum();
    let agn_spent: u64 = r.full_spent.iter().sum();
    let cases = [
        ("anytime_voi_half_budget", true, voi_spent),
        ("pipeline_agnostic_full", false, agn_spent),
    ]
    .map(|(name, voi, inferences)| {
        let t = time_iters(iters, || {
            for run in &ds.runs {
                for (qi, query) in queries().into_iter().enumerate() {
                    let budget = voi.then_some(half_budgets[qi]);
                    anytime(run, pipeline, query, budget, voi);
                }
            }
        });
        BenchCase::from_timing(name, t, frames, inferences, 0)
    });
    let report = BenchReport {
        meta: collect_meta(cfg.quick),
        cases: cases.to_vec(),
    };
    report
        .validate()
        .unwrap_or_else(|e| panic!("BENCH_query.json: invalid report: {e}"));
    let text = report.encode();
    let back = BenchReport::decode(&text)
        .unwrap_or_else(|e| panic!("BENCH_query.json: self round-trip failed: {e}"));
    assert_eq!(back, report, "BENCH_query.json: decode(encode) drifted");
    let path = repo_root().join("BENCH_query.json");
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
