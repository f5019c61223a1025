//! `city_cameras`: cross-camera resolution, closed loop.
//!
//! A `MultiCameraWorld` ring is fed round by round (`ROUND` frames per
//! round) to a `FleetIngester` — one shard per camera at the per-camera
//! default budget, τ_max=10000 — and to a `GlobalMerger` overlay whose
//! budget grows with the camera count, both batching their ReID through
//! lanes of one `BatchScheduler`. After the last round the per-camera
//! merges and the cross-camera links are composed into one global mapping,
//! and Count and Co-occurrence queries run on the globally merged city.

use crate::trace::{self, timed, Marks, TimedBackend, TimedSelector, TraceSink, Tracer};
use crate::{interpolated, measure, median, mix, secs, with_threads, Args, Digest, Outcome, Speed};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use tm_core::global::{compose_global_mapping, GlobalConfig, GlobalMerger};
use tm_core::{FleetIngester, StreamConfig, TMerge, TMergeConfig, VoiMode};
use tm_metrics::{global_identity_metrics, union_streams, Correspondence};
use tm_reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, BatchingBackend, CostModel,
    Device, GatePolicy, InferenceBackend,
};
use tm_synth::{MultiCameraWorld, WorldConfig};
use tm_types::{TrackPair, TrackSet};

const CAMERAS: u64 = 4;
/// Frames per feeding round (the global merger's own round length).
const ROUND: u64 = 200;
/// Per-camera shard budget: the default, not scaled with the city.
const SHARD_TAU: u64 = 10_000;
const SETUP_REPS: usize = 7;
/// The seed of the city every setup warms up on.
const WARMUP_SEED: u64 = 0;

fn selector(tau_max: u64, seed: u64, tracer: Option<&Tracer>) -> TimedSelector<'_, TMerge> {
    TimedSelector {
        inner: TMerge::new(TMergeConfig {
            tau_max,
            seed,
            ..TMergeConfig::default()
        }),
        tracer,
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_len: 200,
        k: 0.2,
        gate: GatePolicy::Off,
        voi: VoiMode::Off,
    }
}

fn global_config() -> GlobalConfig {
    GlobalConfig {
        round_len: ROUND,
        prior_max_dt: 150,
        ..GlobalConfig::default()
    }
}

/// The generated city: every round's camera feeds plus the truth.
struct City {
    /// `rounds[r][camera]`: the camera's feed after round `r`.
    rounds: Vec<Vec<TrackSet>>,
    frames: Vec<u64>,
    horizon: u64,
    /// Each round's feeds, namespaced and concatenated.
    unioned: Vec<TrackSet>,
    gt: TrackSet,
}

/// The city's appearances and the selectors' seed. Seed `s`, draw `k`:
/// the reference pass and the quality metrics use draw 0.
struct Draw {
    model: AppearanceModel,
    selector_seed: u64,
}

impl Draw {
    fn new(seed: u64, k: u64) -> Draw {
        Draw {
            model: AppearanceModel::new(AppearanceConfig {
                seed: mix(seed, 0xA11CE + k),
                ..AppearanceConfig::default()
            }),
            selector_seed: mix(seed, 0x5E1EC7 + k),
        }
    }
}

fn generate() -> City {
    let w = MultiCameraWorld::new(WorldConfig {
        cameras: CAMERAS,
        actors: (CAMERAS * 3 / 5).max(2),
        hops: 4.min(CAMERAS - 1),
        ..WorldConfig::default()
    });
    let horizon = w.horizon();
    let frames: Vec<u64> = (1..=horizon.div_ceil(ROUND))
        .map(|r| (r * ROUND).min(horizon))
        .collect();
    let rounds: Vec<Vec<TrackSet>> = frames.iter().map(|&f| w.all_camera_tracks(f)).collect();
    let unioned = rounds.iter().map(|feeds| union_streams(feeds)).collect();
    City {
        rounds,
        frames,
        horizon,
        unioned,
        gt: w.global_gt(horizon),
    }
}

struct Pass {
    /// Wall seconds of the rounds, their live queries and the final
    /// compose, raw and at reference-host speed.
    wall_s: f64,
    scaled_s: f64,
    /// Per round, at reference-host speed.
    round_ms: Vec<f64>,
    global_ms: Vec<f64>,
    /// A live query after a round, mean over the rounds, at reference-host
    /// speed.
    query_ms: f64,
    shard_accepted: Vec<Vec<TrackPair>>,
    global_accepted: Vec<TrackPair>,
    merged: TrackSet,
    sim_ms: f64,
    degraded: u64,
    pairs: (u64, u64),
    batch: tm_reid::BatchStats,
    /// ReID work of the per-camera shards.
    reid: tm_reid::ReidStats,
    windows: u64,
    alloc_bytes: u64,
    digest: u64,
}

/// Resolves the first `rounds` rounds of the city under `draw` (all of
/// them for a measured pass), querying the city after each, then composes
/// the global mapping. With `speed`, each round, each query and the final
/// compose are timed between host-speed samples.
fn one_pass(
    city: &City,
    draw: &Draw,
    rounds: usize,
    tracer: Option<&Tracer>,
    mut speed: Option<&mut Speed>,
) -> Pass {
    let alloc0 = crate::alloc_bytes();
    let iter_start = tracer.map(|t| t.now());
    let n = CAMERAS as usize;
    let model = &draw.model;
    let scheduler = BatchScheduler::new(model, BatchConfig::default());
    let raw: Vec<BatchingBackend<'_>> = (0..=n).map(|_| scheduler.backend(model)).collect();
    let lanes: Vec<TimedBackend<'_, BatchingBackend<'_>>> = raw
        .iter()
        .map(|l| TimedBackend { inner: l, tracer })
        .collect();
    let backends: Vec<&dyn InferenceBackend> = lanes[..n]
        .iter()
        .map(|l| l as &dyn InferenceBackend)
        .collect();
    let mut fleet = FleetIngester::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config(),
        |_| selector(SHARD_TAU, draw.selector_seed, tracer),
        &backends,
    )
    .expect("valid fleet");
    let mut global = GlobalMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(10_000 + 400 * CAMERAS, draw.selector_seed, tracer),
        global_config(),
    )
    .expect("valid global config")
    .with_backend(&lanes[n]);

    let mut round_ms = Vec::new();
    let mut global_ms = Vec::new();
    let mut windows = 0u64;
    let mut queries = Vec::new();
    let mut answers = None;
    let (mut wall_s, mut scaled_s) = (0.0, 0.0);
    let last = city.rounds.len() - 1;
    for (r, feeds) in city.rounds.iter().enumerate().take(rounds) {
        if let Some(t) = tracer {
            t.set_request(r as u64);
        }
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|f| (f, city.frames[r])).collect();
        let ((decided, g_ms), unit_s, factor) = measure(speed.as_deref_mut(), || {
            let decisions = timed(tracer, "fleet", || {
                if r == last {
                    fleet.finish(&refs)
                } else {
                    fleet.advance(&refs)
                }
            })
            .expect("fleet advance");
            let g0 = Instant::now();
            timed(tracer, "global", || {
                if r == last {
                    global.finish(&refs)
                } else {
                    global.advance(&refs)
                }
            })
            .expect("global advance");
            (
                decisions.iter().map(|d| d.len() as u64).sum::<u64>(),
                secs(g0) * 1e3,
            )
        });
        windows += decided;
        global_ms.push(g_ms);
        round_ms.push(unit_s * factor * 1e3);
        wall_s += unit_s;
        scaled_s += unit_s * factor;
        // A live query on the city so far — global mapping, relabel of the
        // unioned feeds, evaluation — with host-speed samples of its own,
        // as on offline.
        let ((answered, query_ms), unit_s, factor) = measure(speed.as_deref_mut(), || {
            timed(tracer, "query", || {
                crate::timed_queries(|| {
                    let shards: Vec<&[TrackPair]> =
                        (0..n).map(|i| fleet.shard(i).accepted()).collect();
                    let mapping = compose_global_mapping(&shards, global.accepted());
                    crate::answer(&city.unioned[r].relabeled(&mapping))
                })
            })
        });
        answers = Some(answered);
        queries.push(query_ms * factor);
        wall_s += unit_s;
        scaled_s += unit_s * factor;
    }
    let answers = answers.expect("at least one round");
    let shard_accepted: Vec<Vec<TrackPair>> =
        (0..n).map(|i| fleet.shard(i).accepted().to_vec()).collect();
    let (merged, unit_s, factor) = measure(speed, || {
        timed(tracer, "union", || {
            let shards: Vec<&[TrackPair]> = shard_accepted.iter().map(Vec::as_slice).collect();
            city.unioned[rounds - 1].relabeled(&compose_global_mapping(&shards, global.accepted()))
        })
    });
    wall_s += unit_s;
    scaled_s += unit_s * factor;
    if let (Some(t), Some(s)) = (tracer, iter_start) {
        t.record(trace::ITER, s, t.now());
    }
    let alloc_bytes = crate::alloc_bytes() - alloc0;

    let sim_ms = (0..n).map(|i| fleet.shard(i).elapsed_ms()).sum::<f64>() + global.elapsed_ms();
    let degraded = (0..n)
        .map(|i| fleet.shard(i).robustness().degraded_windows)
        .sum::<u64>()
        + global.robustness().degraded_windows;
    let reid = (0..n).fold(tm_reid::ReidStats::default(), |mut s, i| {
        let r = fleet.shard(i).reid_stats();
        s.inferences += r.inferences;
        s.cache_hits += r.cache_hits;
        s.distances += r.distances;
        s
    });
    let mut d = Digest::default();
    for a in &shard_accepted {
        d.pairs(a);
    }
    d.pairs(global.accepted());
    d.word(answers.0.len() as u64);
    d.word(answers.1.len() as u64);
    Pass {
        wall_s,
        scaled_s,
        round_ms,
        global_ms,
        query_ms: queries.iter().sum::<f64>() / queries.len() as f64,
        global_accepted: global.accepted().to_vec(),
        shard_accepted,
        merged,
        sim_ms,
        degraded,
        pairs: global.pair_counts(),
        batch: scheduler.stats(),
        reid,
        windows,
        alloc_bytes,
        digest: d.0,
    }
}

/// Per-camera and global IDF1 of a pass's final mappings.
fn global_vs_per_camera(city: &City, pass: &Pass) -> (f64, f64) {
    let final_feeds = city.rounds.last().expect("a non-empty world");
    let shards: Vec<&[TrackPair]> = pass.shard_accepted.iter().map(Vec::as_slice).collect();
    let idf1 = |links: &[TrackPair]| {
        global_identity_metrics(
            &city.gt,
            final_feeds,
            &compose_global_mapping(&shards, links),
            0.5,
        )
        .idf1
    };
    (idf1(&[]), idf1(&pass.global_accepted))
}

pub fn run(args: &Args) -> (Outcome, u64) {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut city = None;
    for _ in 0..SETUP_REPS {
        let (generated, raw, factor) = measure(Some(&mut out.speed), || {
            let generated = generate();
            // Warm-up: build the fleet and the overlay and resolve one
            // round under a fixed-seed draw, so the warm-up's work is the
            // same at any seed.
            one_pass(&generated, &Draw::new(WARMUP_SEED, 0), 1, None, None);
            generated
        });
        setups.push(raw * factor);
        raw_setups.push(raw);
        city = Some(generated);
    }
    let city = city.expect("at least one setup");
    out.e2e.setup_s = median(&setups);
    out.raw.setup_s = median(&raw_setups);
    let frames = (city.horizon * CAMERAS) as f64;

    // Reference pass (also the warm-up). A traced run also repeats it at
    // two threads: outputs must match bit for bit.
    let draw0 = Draw::new(args.seed, 0);
    let reference = one_pass(&city, &draw0, city.rounds.len(), None, None);
    if args.trace {
        let two = with_threads(2, || one_pass(&city, &draw0, city.rounds.len(), None, None));
        out.check(
            two.digest == reference.digest && two.sim_ms.to_bits() == reference.sim_ms.to_bits(),
            "outputs differ between TMERGE_THREADS=1 and 2",
        );
    }

    // Quality of the global mapping, and the gate that it never loses
    // identity quality against per-camera resolution alone.
    let (per_camera, global) = global_vs_per_camera(&city, &reference);
    out.check(
        global >= per_camera,
        format!("global IDF1 {global:.4} is below per-camera IDF1 {per_camera:.4}"),
    );
    let shards: Vec<&[TrackPair]> = reference.shard_accepted.iter().map(Vec::as_slice).collect();
    let truth: BTreeSet<TrackPair> = {
        let unioned = city.unioned.last().expect("a non-empty world");
        let tracks: Vec<_> = unioned.iter().collect();
        Correspondence::from_tracks(unioned, 0.5).all_polyonymous(&tracks)
    };
    let joined = {
        let mapping = compose_global_mapping(&shards, &reference.global_accepted);
        let root = |t: tm_types::TrackId| mapping.get(&t).copied().unwrap_or(t);
        truth
            .iter()
            .filter(|p| root(p.lo()) == root(p.hi()))
            .count()
    };

    let tracer = Arc::new(Tracer::new());
    let sink = Arc::new(TraceSink::new(Arc::clone(&tracer), Marks::Calls));
    let obs = tm_obs::Obs::new(sink.clone());
    let mut walls = Vec::new();
    let mut scaled_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_alloc = Vec::new();
    let mut rounds = Vec::new();
    let mut global_rounds = Vec::new();
    let mut queries = Vec::new();
    let clock = Instant::now();
    let mut k = 0usize;
    while crate::another_pass(secs(clock), k, args) {
        let traced = args.trace && k % 2 == 1;
        // Untraced runs resolve the city under a new draw each pass: a
        // round's work moves by ±15% from one draw to another, so timings
        // of one draw would spread across seeds by that much. A traced run
        // keeps draw 0, so its traced and untraced passes do the same work.
        let draw = if args.trace { 0 } else { k as u64 };
        let pass = if traced {
            tm_obs::scoped(obs.clone(), || {
                one_pass(&city, &draw0, city.rounds.len(), Some(&tracer), None)
            })
        } else if draw == 0 {
            one_pass(&city, &draw0, city.rounds.len(), None, Some(&mut out.speed))
        } else {
            let d = Draw::new(args.seed, draw);
            one_pass(&city, &d, city.rounds.len(), None, Some(&mut out.speed))
        };
        if draw == 0 {
            out.check(
                pass.digest == reference.digest,
                format!("pass {k}: outputs differ from the reference pass"),
            );
            out.check(
                pass.sim_ms.to_bits() == reference.sim_ms.to_bits(),
                format!("pass {k}: simulated time differs from the reference pass"),
            );
        } else {
            let (per_camera, global) = global_vs_per_camera(&city, &pass);
            out.check(
                global >= per_camera,
                format!(
                    "draw {draw}: global IDF1 {global:.4} is below per-camera IDF1 {per_camera:.4}"
                ),
            );
        }
        out.attempted += 2 * pass.round_ms.len() as u64 + 2;
        out.failed += pass.degraded;
        if traced {
            traced_walls.push(pass.wall_s);
            traced_alloc.push(pass.alloc_bytes as f64);
            global_rounds.extend(pass.global_ms.iter().copied());
        } else {
            walls.push(pass.wall_s);
            scaled_walls.push(pass.scaled_s);
            rounds.push(pass.round_ms);
            queries.push(pass.query_ms);
        }
        k += 1;
    }

    let rate = |walls: &[f64]| median(&walls.iter().map(|w| frames / w).collect::<Vec<_>>());
    out.e2e.fps = rate(&scaled_walls);
    out.raw.fps = rate(&walls);
    out.e2e.sim_fps = frames / (reference.sim_ms / 1e3);
    out.e2e.idf1 = global;
    out.e2e.pair_recall = if truth.is_empty() {
        1.0
    } else {
        joined as f64 / truth.len() as f64
    };
    out.e2e.query_recall = crate::query_recall(&reference.merged, &city.gt);
    // Each round's median over passes: the rounds differ in size, so a
    // percentile pooled over passes would jump between two rounds.
    let per_round = crate::index_medians(&rounds);
    out.e2e.window_p50_ms = interpolated(&per_round, 50.0);
    out.e2e.window_p95_ms = interpolated(&per_round, 95.0);
    out.e2e.query_p50_ms = median(&queries);
    out.notes.push(format!(
        "{CAMERAS} cameras, {} frames, {} rounds; IDF1 per-camera {per_camera:.4} -> global {global:.4}; {} untraced + {} traced passes; pass wall p50 {:.3} s at reference speed",
        city.horizon,
        city.rounds.len(),
        walls.len(),
        traced_walls.len(),
        median(&scaled_walls)
    ));
    out.notes.push(format!(
        "per-round p50 ms at reference speed: {:.1?}",
        per_round
    ));

    if args.trace {
        let n = traced_walls.len() as f64;
        let mut spans = tracer.take();
        let a = trace::attribute(&mut spans);
        crate::layer_times(&mut out, &a, n);
        let l = &mut out.layers;
        let r = &reference;
        l.insert("reid.sim_ms", r.sim_ms);
        l.insert("reid.inferences", r.reid.inferences as f64);
        l.insert("reid.cache_hits", r.reid.cache_hits as f64);
        l.insert("reid.hit_ratio", r.reid.hit_rate());
        l.insert("reid.distances", r.reid.distances as f64);
        l.insert("reid.batch_requests", r.batch.requests as f64);
        l.insert("reid.batch_computed", r.batch.computed as f64);
        l.insert("reid.batch_dispatches", r.batch.dispatches as f64);
        for (metric, counter) in [
            ("pairs.count", "pipeline.pairs"),
            ("select.rounds", "selector.tmerge.rounds"),
            ("select.pulls", "selector.tmerge.pulls"),
            ("select.pruned_out", "selector.tmerge.pruned_out"),
            ("select.accepted", "selector.tmerge.accepted"),
            ("fleet.advances", "fleet.advances"),
        ] {
            l.insert(metric, sink.counter_sum(counter) as f64 / n);
        }
        l.insert("fleet.windows", r.windows as f64);
        l.insert("global.round_ms", median(&global_rounds));
        l.insert("global.pairs_total", r.pairs.0 as f64);
        l.insert("global.pairs_admitted", r.pairs.1 as f64);
        l.insert(
            "global.admit_ratio",
            r.pairs.1 as f64 / r.pairs.0.max(1) as f64,
        );
        l.insert("global.links", r.global_accepted.len() as f64);
        l.insert(
            "query.calls",
            (2 * crate::QUERY_BATCHES * city.rounds.len()) as f64,
        );
        l.insert(
            "trace_overhead_pct",
            100.0 * (median(&traced_walls) / median(&walls) - 1.0),
        );
        l.insert("alloc_mb", median(&traced_alloc) / (1024.0 * 1024.0));
        if let Err(e) =
            trace::write_spans(&crate::out_dir().join("trace-city_cameras.jsonl"), &spans)
        {
            out.notes.push(format!("could not write the trace: {e}"));
        }
    }
    (out, reference.digest)
}
