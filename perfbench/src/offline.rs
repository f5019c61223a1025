//! `offline_pathtrack`: the paper's own closed-loop batch setting.
//!
//! PathTrack-like crowd videos; per video the timed path is detections →
//! Tracktor → `run_pipeline_with_backend` (`PipelineConfig::default()`:
//! L=2000, K=5%, TMerge τ_max=10000 on CPU, gate off; candidates verified
//! by the ground-truth oracle) → Count and Co-occurrence queries on the
//! merged tracks.

use crate::trace::{self, timed, Marks, TimedBackend, TraceSink, Tracer};
use crate::{interpolated, measure, median, mix, secs, with_threads, Args, Digest, Outcome, Speed};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use tm_core::resilience::RobustnessConfig;
use tm_core::{merge_mapping, run_pipeline_with_backend, PipelineConfig, PipelineReport};
use tm_datasets::{crowd_scenario, pathtrack, VideoSpec};
use tm_detect::Detector;
use tm_metrics::{identity_metrics, recall, Correspondence};
use tm_query::QueryAnswer;
use tm_reid::AppearanceModel;
use tm_track::{track_video, TrackerKind};
use tm_types::{Detection, TrackPair, TrackSet};

/// Videos per iteration.
const VIDEOS: usize = 3;
/// Frames per video (PathTrack's own videos run 3600).
const FRAMES: u64 = 2000;
/// Actors per video (PathTrack's own cast is 40).
const ACTORS: usize = 10;
/// Setup repetitions (the reported `setup_s` is their median).
const SETUP_REPS: usize = 15;

/// One generated video: the tracker's input and the ground truth.
struct Video {
    n_frames: u64,
    detections: Vec<Vec<Detection>>,
    gt_tracks: TrackSet,
    model: AppearanceModel,
}

fn video_specs(seed: u64) -> Vec<VideoSpec> {
    let suite = pathtrack();
    (0..VIDEOS)
        .map(|i| {
            let mut spec = suite.videos[i % suite.videos.len()].clone();
            let s = mix(seed, i as u64);
            spec.scene.n_frames = FRAMES;
            spec.scene.n_actors = ACTORS;
            spec.det_seed = s ^ 0xDE7EC7;
            spec.appearance.seed = s ^ 0xA11CE;
            spec
        })
        .collect()
}

fn generate(seed: u64) -> Vec<Video> {
    video_specs(seed)
        .iter()
        .map(|spec| {
            let gt = crowd_scenario(&spec.scene).simulate();
            Video {
                n_frames: gt.n_frames(),
                detections: Detector::new(spec.detector).detect(&gt, spec.det_seed),
                gt_tracks: gt.gt_tracks(0.1),
                model: AppearanceModel::new(spec.appearance),
            }
        })
        .collect()
}

/// What one video's timed path produced.
struct VideoOut {
    tracks: TrackSet,
    report: PipelineReport,
    answers: (QueryAnswer, QueryAnswer),
    /// Track + pipeline, at reference-host speed.
    latency_ms: f64,
}

/// One pass over every video.
struct Pass {
    /// The videos' wall seconds, raw and at reference-host speed.
    wall_s: f64,
    scaled_s: f64,
    videos: Vec<VideoOut>,
    /// Answering Count + Co-occurrence on one video, mean over the videos,
    /// at reference-host speed.
    query_ms: f64,
    digest: u64,
    alloc_bytes: u64,
}

/// The oracle verifier's attribution for each video's tracker output.
fn oracles(pass: &Pass) -> Vec<Correspondence> {
    pass.videos
        .iter()
        .map(|v| Correspondence::from_tracks(&v.tracks, 0.5))
        .collect()
}

/// One pass over every video. With `speed`, each video is timed between
/// host-speed samples.
fn one_pass(
    videos: &[Video],
    oracle: Option<&[Correspondence]>,
    tracer: Option<&Tracer>,
    mut speed: Option<&mut Speed>,
) -> Pass {
    let alloc0 = crate::alloc_bytes();
    let iter_start = tracer.map(|t| t.now());
    let mut outs = Vec::with_capacity(videos.len());
    let mut queries = Vec::with_capacity(videos.len());
    let (mut wall_s, mut scaled_s) = (0.0, 0.0);
    for (i, v) in videos.iter().enumerate() {
        if let Some(t) = tracer {
            t.set_request(i as u64);
        }
        let ((tracks, report), unit_s, factor) =
            measure(speed.as_deref_mut(), || video(v, i, oracle, tracer));
        // Answering the queries on the video — merge mapping, relabel of
        // the tracker output, evaluation, as `TmServe::query` does on a
        // live feed — is a unit with host-speed samples of its own. It
        // takes tens of microseconds, which the host's slow phases stretch
        // more than they stretch the kernel; timing it after every video
        // spreads its samples over the run, as serve's live queries are.
        let ((answers, query_ms), query_s, query_f) = measure(speed.as_deref_mut(), || {
            timed(tracer, "query", || {
                crate::timed_queries(|| {
                    crate::answer(&tracks.relabeled(&merge_mapping(&report.accepted)))
                })
            })
        });
        wall_s += unit_s + query_s;
        scaled_s += unit_s * factor + query_s * query_f;
        queries.push(query_ms * query_f);
        outs.push(VideoOut {
            tracks,
            report,
            answers,
            latency_ms: unit_s * factor * 1e3,
        });
    }
    if let (Some(t), Some(s)) = (tracer, iter_start) {
        t.record(trace::ITER, s, t.now());
    }
    let alloc_bytes = crate::alloc_bytes() - alloc0;
    let mut d = Digest::default();
    for o in &outs {
        d.word(o.tracks.len() as u64);
        d.pairs(&o.report.accepted);
        d.word(o.answers.0.len() as u64);
        d.word(o.answers.1.len() as u64);
    }
    Pass {
        wall_s,
        scaled_s,
        videos: outs,
        query_ms: queries.iter().sum::<f64>() / queries.len() as f64,
        digest: d.0,
        alloc_bytes,
    }
}

/// Video `i`'s timed path up to the queries: track, pipeline.
fn video(
    v: &Video,
    i: usize,
    oracle: Option<&[Correspondence]>,
    tracer: Option<&Tracer>,
) -> (TrackSet, PipelineReport) {
    let tracks = timed(tracer, "track", || {
        let mut tracker = TrackerKind::Tracktor.build(&v.model);
        track_video(tracker.as_mut(), &v.detections)
    });
    // The oracle is evaluation, not program work: when no attribution from
    // an earlier pass is supplied it is derived here, untimed by any layer
    // (it then lands in unattributed time).
    let own;
    let corr = match oracle {
        Some(o) => &o[i],
        None => {
            own = Correspondence::from_tracks(&tracks, 0.5);
            &own
        }
    };
    let verifier = |p: &TrackPair| corr.is_polyonymous(p);
    let backend = TimedBackend {
        inner: &v.model,
        tracer,
    };
    let report = timed(tracer, "pipeline", || {
        run_pipeline_with_backend(
            &tracks,
            v.n_frames,
            &v.model,
            &PipelineConfig::default(),
            Some(&verifier),
            &backend,
            &RobustnessConfig::default(),
        )
    })
    .expect("the model backend never fails");
    (tracks, report)
}

/// The deterministic quality metrics of a pass: IDF1, the paper's REC on
/// polyonymous pairs, and Count/Co-occurrence query recall.
fn quality(videos: &[Video], pass: &Pass, oracle: &[Correspondence]) -> (f64, f64, f64) {
    let n = videos.len() as f64;
    let mut idf1 = 0.0;
    let mut recs = Vec::new();
    let mut qrec = 0.0;
    for ((v, o), corr) in videos.iter().zip(&pass.videos).zip(oracle) {
        let merged = &o.report.merged;
        idf1 += identity_metrics(&v.gt_tracks, merged, 0.5).idf1;
        let tracks: Vec<_> = o.tracks.iter().collect();
        let truth: BTreeSet<TrackPair> = corr.all_polyonymous(&tracks);
        if !truth.is_empty() {
            recs.push(recall(o.report.candidates.iter(), &truth));
        }
        qrec += crate::query_recall(merged, &v.gt_tracks);
    }
    let rec = if recs.is_empty() {
        1.0
    } else {
        recs.iter().sum::<f64>() / recs.len() as f64
    };
    (idf1 / n, rec, qrec / n)
}

pub fn run(args: &Args) -> (Outcome, u64) {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut videos = Vec::new();
    for _ in 0..SETUP_REPS {
        let unit_s;
        let factor;
        (videos, unit_s, factor) = measure(Some(&mut out.speed), || {
            let videos = generate(args.seed);
            // Warm-up: run the tracker over every video once.
            for v in &videos {
                let mut tracker = TrackerKind::Tracktor.build(&v.model);
                track_video(tracker.as_mut(), &v.detections);
            }
            videos
        });
        setups.push(unit_s * factor);
        raw_setups.push(unit_s);
    }
    out.e2e.setup_s = median(&setups);
    out.raw.setup_s = median(&raw_setups);
    let frames: u64 = videos.iter().map(|v| v.n_frames).sum();

    // Reference pass (also the warm-up). A traced run also repeats it at
    // two threads: outputs must match bit for bit.
    let reference = one_pass(&videos, None, None, None);
    let oracle = oracles(&reference);
    let (idf1, pair_recall, query_recall) = quality(&videos, &reference, &oracle);
    let sim_ms: f64 = reference.videos.iter().map(|v| v.report.elapsed_ms).sum();
    if args.trace {
        let two = with_threads(2, || one_pass(&videos, Some(&oracle), None, None));
        let sim_two: f64 = two.videos.iter().map(|v| v.report.elapsed_ms).sum();
        out.check(
            two.digest == reference.digest && sim_ms.to_bits() == sim_two.to_bits(),
            "outputs differ between TMERGE_THREADS=1 and 2",
        );
    }

    // Measured passes. A traced run alternates untraced and traced passes
    // so the trace overhead is measured on the same inputs.
    let tracer = Arc::new(Tracer::new());
    let sink = Arc::new(TraceSink::new(Arc::clone(&tracer), Marks::Offline));
    let obs = tm_obs::Obs::new(sink.clone());
    let mut walls = Vec::new();
    let mut scaled_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut latencies = Vec::new();
    let mut queries = Vec::new();
    let mut traced_alloc = Vec::new();
    let clock = Instant::now();
    let mut k = 0usize;
    while crate::another_pass(secs(clock), k, args) {
        let traced = args.trace && k % 2 == 1;
        let pass = if traced {
            tm_obs::scoped(obs.clone(), || {
                one_pass(&videos, Some(&oracle), Some(&tracer), None)
            })
        } else {
            one_pass(&videos, Some(&oracle), None, Some(&mut out.speed))
        };
        out.check(
            pass.digest == reference.digest,
            format!("pass {k}: outputs differ from the reference pass"),
        );
        let sims: f64 = pass.videos.iter().map(|v| v.report.elapsed_ms).sum();
        out.check(
            sims.to_bits() == sim_ms.to_bits(),
            format!("pass {k}: simulated time differs from the reference pass"),
        );
        for v in &pass.videos {
            out.attempted += 2;
            out.failed += v.report.robustness.degraded_windows;
        }
        if traced {
            traced_walls.push(pass.wall_s);
            traced_alloc.push(pass.alloc_bytes as f64);
        } else {
            walls.push(pass.wall_s);
            scaled_walls.push(pass.scaled_s);
            latencies.push(pass.videos.iter().map(|v| v.latency_ms).collect());
            queries.push(pass.query_ms);
        }
        k += 1;
    }

    let rate = |walls: &[f64]| median(&walls.iter().map(|w| frames as f64 / w).collect::<Vec<_>>());
    out.e2e.fps = rate(&scaled_walls);
    out.raw.fps = rate(&walls);
    out.e2e.sim_fps = frames as f64 / (sim_ms / 1e3);
    out.e2e.idf1 = idf1;
    out.e2e.pair_recall = pair_recall;
    out.e2e.query_recall = query_recall;
    // Each video's median over passes: the videos differ in size, so a
    // percentile pooled over passes would jump between two videos.
    let per_video: Vec<f64> = crate::index_medians(&latencies);
    out.e2e.window_p50_ms = interpolated(&per_video, 50.0);
    out.e2e.window_p95_ms = interpolated(&per_video, 95.0);
    out.e2e.query_p50_ms = median(&queries);
    out.notes.push(format!(
        "{} videos, {frames} frames, {} pairs; {} untraced + {} traced passes; pass wall p50 {:.3} s at reference speed",
        videos.len(),
        reference.videos.iter().map(|v| v.report.n_pairs).sum::<usize>(),
        walls.len(),
        traced_walls.len(),
        median(&scaled_walls)
    ));

    if args.trace {
        let n = traced_walls.len() as f64;
        let mut spans = tracer.take();
        let a = trace::attribute(&mut spans);
        crate::layer_times(&mut out, &a, n);
        let l = &mut out.layers;
        let stats = reference
            .videos
            .iter()
            .fold(tm_reid::ReidStats::default(), |mut s, v| {
                s.inferences += v.report.stats.inferences;
                s.cache_hits += v.report.stats.cache_hits;
                s.distances += v.report.stats.distances;
                s
            });
        l.insert("track.frames", frames as f64);
        l.insert(
            "track.tracks",
            reference
                .videos
                .iter()
                .map(|v| v.tracks.len())
                .sum::<usize>() as f64,
        );
        l.insert(
            "pairs.count",
            reference
                .videos
                .iter()
                .map(|v| v.report.n_pairs)
                .sum::<usize>() as f64,
        );
        l.insert("reid.inferences", stats.inferences as f64);
        l.insert("reid.cache_hits", stats.cache_hits as f64);
        l.insert("reid.hit_ratio", stats.hit_rate());
        l.insert("reid.distances", stats.distances as f64);
        l.insert("reid.sim_ms", sim_ms);
        for (metric, counter) in [
            ("select.rounds", "selector.tmerge.rounds"),
            ("select.pulls", "selector.tmerge.pulls"),
            ("select.pruned_out", "selector.tmerge.pruned_out"),
            ("select.accepted", "selector.tmerge.accepted"),
            ("pipeline.windows", "pipeline.windows"),
        ] {
            l.insert(metric, sink.counter_sum(counter) as f64 / n);
        }
        l.insert(
            "query.calls",
            (2 * crate::QUERY_BATCHES * videos.len()) as f64,
        );
        l.insert(
            "trace_overhead_pct",
            100.0 * (median(&traced_walls) / median(&walls) - 1.0),
        );
        l.insert("alloc_mb", median(&traced_alloc) / (1024.0 * 1024.0));
        if let Err(e) = trace::write_spans(
            &crate::out_dir().join("trace-offline_pathtrack.jsonl"),
            &spans,
        ) {
            out.notes.push(format!("could not write the trace: {e}"));
        }
    }
    (out, reference.digest)
}
