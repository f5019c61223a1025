//! `serve_live`: the multi-tenant daemon in open loop.
//!
//! `TENANTS` × `STREAMS` cameras feed a `TmServe` (gate on, per-tenant
//! `BatchScheduler` lanes, a retention horizon). Every cycle each stream's
//! rolling `TenantWorkload` snapshot grows by `STRIDE` frames — one new
//! window — and is due on a fixed wall-clock schedule at `SPEEDUP` × 30 fps
//! real time, whether or not the daemon has kept up. A cycle submits every
//! due snapshot, runs `run_once`, then runs a live Count and Co-occurrence
//! query on each stream; every `CHECKPOINT_EVERY` cycles the whole daemon
//! is checkpointed and resumed from its `TMSV` envelope.

use crate::trace::{self, timed, Marks, TimedBackend, TimedSelector, TraceSink, Tracer};
use crate::{
    measure, median, mix, percentile, secs, with_threads, Args, Digest, Outcome, Speed, COUNT,
    CO_OCCURRENCE,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_core::{StreamConfig, TMerge, TMergeConfig, VoiMode};
use tm_metrics::{identity_metrics, Correspondence};
use tm_reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, BatchingBackend, CostModel,
    Device, GateConfig, GatePolicy, InferenceBackend,
};
use tm_serve::{Admission, AdmissionConfig, ServeConfig, TenantSpec, TmServe};
use tm_synth::{TenantWorkload, TenantWorkloadConfig};
use tm_types::{ids::classes, Track, TrackId, TrackSet};

const TENANTS: usize = 3;
const STREAMS: usize = 2;
const WINDOW: u64 = 200;
/// Frames each stream grows by per cycle: one new window (stride L/2).
const STRIDE: u64 = WINDOW / 2;
/// Retention horizon, in windows.
const HORIZON: u64 = 6;
/// Frames of history in each submitted snapshot.
const SNAPSHOT_SPAN: u64 = 600;
/// Cycles between checkpoints. The cycle after a checkpoint starts late, so
/// these cycles stay well under the 5% that `window_p95_ms` looks past.
const CHECKPOINT_EVERY: u64 = 50;
/// Feed rate as a multiple of 30 fps real time.
const SPEEDUP: f64 = 15.0;
const TAU: u64 = 1_500;
const SETUP_REPS: usize = 9;
/// Closed-loop cycles each setup runs to warm up.
const WARMUP_CYCLES: u64 = 3;
/// Cycles between quality samples in a back-to-back run. A stream's
/// retained feed spans about `HORIZON` windows, so samples this far apart
/// see mostly different fragments.
const QUALITY_EVERY: u64 = 10;

/// Wall-clock seconds between cycles.
fn period_s() -> f64 {
    STRIDE as f64 / (30.0 * SPEEDUP)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            window_len: WINDOW,
            k: 0.1,
            gate: GatePolicy::On(GateConfig::default()),
            voi: VoiMode::Off,
        },
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: Some(HORIZON),
    }
}

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        max_queue: 4 * STREAMS,
        bytes_per_window: u64::MAX / 4,
        quota_window_ms: 1_000.0,
        rate_capacity: 1_000.0,
        rate_per_ms: 100.0,
        retry_hint_ms: 10,
    }
}

fn selector(tracer: Option<&Tracer>) -> TimedSelector<'_, TMerge> {
    TimedSelector {
        inner: TMerge::new(TMergeConfig {
            tau_max: TAU,
            seed: 4,
            ..TMergeConfig::default()
        }),
        tracer,
    }
}

/// Every stream's whole feed, generated up front; a cycle's snapshot is a
/// slice of it.
struct Inputs {
    tenant_ids: Vec<u64>,
    /// Indexed `tenant * STREAMS + stream`.
    feeds: Vec<Vec<Track>>,
}

fn generate(seed: u64, cycles: u64) -> Inputs {
    let base = 10 + mix(seed, 0x5e77e) % 900;
    let tenant_ids: Vec<u64> = (0..TENANTS as u64).map(|t| base + t).collect();
    let w = TenantWorkload::new(TenantWorkloadConfig::default());
    let feeds = tenant_ids
        .iter()
        .flat_map(|&id| (0..STREAMS as u64).map(move |s| (id, s)))
        .map(|(id, s)| w.tracks(id, s, cycles * STRIDE).into_tracks())
        .collect();
    Inputs { tenant_ids, feeds }
}

/// Frames available to every stream after cycle `c`.
fn frames_at(c: u64) -> u64 {
    (c + 1) * STRIDE
}

/// The rolling snapshot of a stream at `frames`: every fragment with a box
/// in `[frames - SNAPSHOT_SPAN, frames)`, truncated at `frames` — exactly
/// `TenantWorkload::tracks_range`.
fn snapshot(feed: &[Track], frames: u64) -> TrackSet {
    let lo = frames.saturating_sub(SNAPSHOT_SPAN);
    TrackSet::from_tracks(
        feed.iter()
            .filter_map(|t| {
                let boxes: Vec<_> = t
                    .boxes
                    .iter()
                    .filter(|b| b.frame.get() < frames)
                    .copied()
                    .collect();
                boxes
                    .last()
                    .is_some_and(|b| b.frame.get() >= lo)
                    .then(|| Track::with_boxes(t.id, t.class, boxes))
            })
            .collect(),
    )
}

/// What a run of the daemon observed.
#[derive(Default)]
struct Run {
    /// TMSV digests at each checkpoint point.
    checkpoints: Vec<u64>,
    checkpoint_bytes: Vec<f64>,
    /// Busy wall time per cycle, ms, raw and at reference-host speed.
    busy_ms: Vec<f64>,
    scaled_busy_ms: Vec<f64>,
    /// Window latency samples (due → `run_once` return), ms, at
    /// reference-host speed.
    window_ms: Vec<f64>,
    /// Live query pair latencies, ms, at reference-host speed.
    query_ms: Vec<f64>,
    /// Cycle start minus due time, ms.
    late_ms: Vec<f64>,
    admitted: u64,
    rejected: u64,
    queue_peak: u64,
    errors: u64,
    queries: u64,
    digest: u64,
    /// Per stream and quality sample: IDF1, the paper's REC on polyonymous
    /// pairs, and Count/Co-occurrence query recall.
    idf1: Vec<f64>,
    pair_recall: Vec<f64>,
    query_recall: Vec<f64>,
    sim_ms: f64,
    gate: tm_reid::GateStats,
    reid: tm_reid::ReidStats,
    degraded: u64,
    shed_entries: u64,
    compacted: u64,
    batch: tm_reid::BatchStats,
}

/// Drives `cycles` cycles. With `period` the cycles are due on a wall
/// schedule (open loop) and the daemon is checkpointed and resumed at each
/// checkpoint point; without it they run back to back and checkpoints are
/// only taken (the uninterrupted twin). With `speed`, the host speed is
/// sampled once before the first cycle and once after each cycle's busy
/// interval, in the idle time before the next one is due, and each cycle's
/// timings are scaled by the samples on either side of it.
fn drive(
    inputs: &Inputs,
    cycles: u64,
    period: Option<Duration>,
    tracer: Option<&Tracer>,
    mut speed: Option<&mut Speed>,
) -> Run {
    let owned_model = AppearanceModel::new(AppearanceConfig::default());
    let model = &owned_model;
    let schedulers: Vec<BatchScheduler<'_>> = (0..TENANTS)
        .map(|_| BatchScheduler::for_tenant(model, BatchConfig::default(), STREAMS))
        .collect();
    let raw: Vec<BatchingBackend<'_>> = schedulers
        .iter()
        .flat_map(|s| (0..STREAMS).map(move |_| s.backend(model)))
        .collect();
    let timed_lanes: Vec<TimedBackend<'_, BatchingBackend<'_>>> = raw
        .iter()
        .map(|l| TimedBackend { inner: l, tracer })
        .collect();
    let backends_of = |ti: usize| -> Vec<&dyn InferenceBackend> {
        timed_lanes[ti * STREAMS..(ti + 1) * STREAMS]
            .iter()
            .map(|b| b as &dyn InferenceBackend)
            .collect()
    };
    let mut serve = TmServe::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        serve_config(),
        move |_, _| selector(tracer),
    );
    for (ti, &id) in inputs.tenant_ids.iter().enumerate() {
        serve
            .register(
                TenantSpec {
                    id,
                    streams: STREAMS,
                    admission: admission(),
                },
                &backends_of(ti),
            )
            .expect("valid tenant");
    }

    let mut run = Run::default();
    let mut before = speed.as_deref_mut().map(Speed::sample);
    let t0 = Instant::now();
    for c in 0..cycles {
        let frames = frames_at(c);
        // The generator: assemble this cycle's snapshots, then wait for
        // their due time.
        let snaps: Vec<TrackSet> = inputs.feeds.iter().map(|f| snapshot(f, frames)).collect();
        let due = period.map(|p| t0 + p * c as u32);
        if let Some(due) = due {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let start = Instant::now();
        if let Some(due) = due {
            run.late_ms
                .push(start.duration_since(due).as_secs_f64() * 1e3);
        }
        let span_start = tracer.map(|t| t.now());
        if let Some(t) = tracer {
            t.set_request(c);
        }
        let sim_now = c as f64 * 10.0;
        let mut per_tenant = vec![0u64; TENANTS];
        for (i, snap) in snaps.into_iter().enumerate() {
            let (ti, s) = (i / STREAMS, i % STREAMS);
            let id = inputs.tenant_ids[ti];
            match timed(tracer, "serve.submit", || {
                serve.submit(sim_now, id, s, snap, frames)
            }) {
                Admission::Admitted => per_tenant[ti] += 1,
                Admission::Rejected(_) => run.rejected += 1,
            }
        }
        run.admitted += per_tenant.iter().sum::<u64>();
        run.queue_peak = run
            .queue_peak
            .max(per_tenant.into_iter().max().unwrap_or(0));
        let ran = timed(tracer, "serve.run_once", || {
            // Marks start the first tenant's fleet span inside this call.
            if let Some(t) = tracer {
                t.set_mark();
            }
            serve.run_once(sim_now + 9.0)
        });
        if ran.is_err() {
            run.errors += 1;
        }
        let decided = Instant::now();
        let mut query_ms = Vec::with_capacity(TENANTS * STREAMS);
        for &id in &inputs.tenant_ids {
            for s in 0..STREAMS {
                let q0 = Instant::now();
                let answers = timed(tracer, "query", || {
                    (serve.query(id, s, COUNT), serve.query(id, s, CO_OCCURRENCE))
                });
                query_ms.push(secs(q0) * 1e3);
                run.queries += 2;
                run.errors += answers.0.is_err() as u64 + answers.1.is_err() as u64;
            }
        }
        if (c + 1) % CHECKPOINT_EVERY == 0 {
            let bytes = timed(tracer, "checkpoint.encode", || serve.checkpoint());
            let mut d = Digest::default();
            d.bytes(&bytes);
            run.checkpoints.push(d.0);
            run.checkpoint_bytes.push(bytes.len() as f64);
            if period.is_some() {
                let ids = &inputs.tenant_ids;
                let resumed = timed(tracer, "checkpoint.decode", || {
                    TmServe::resume(
                        model,
                        CostModel::calibrated(),
                        Device::Cpu,
                        serve_config(),
                        move |_, _| selector(tracer),
                        |id, _| ids.iter().position(|&x| x == id).map(backends_of),
                        &bytes,
                    )
                });
                match resumed {
                    Ok((s, dropped)) if dropped.is_empty() => serve = s,
                    _ => run.errors += 1,
                }
            }
        }
        let end = Instant::now();
        if let (Some(t), Some(s)) = (tracer, span_start) {
            t.record(trace::ITER, s, t.now());
        }
        let factor = match (speed.as_deref_mut(), before) {
            (Some(speed), Some(b)) => {
                let after = speed.sample();
                before = Some(after);
                Speed::factor(b, after)
            }
            _ => 1.0,
        };
        let busy = end.duration_since(start).as_secs_f64() * 1e3;
        run.busy_ms.push(busy);
        run.scaled_busy_ms.push(busy * factor);
        run.query_ms.extend(query_ms.iter().map(|q| q * factor));
        // Every window this cycle decided waited from its snapshot's due
        // time (or, back to back, the cycle's start) to `run_once`'s return.
        let windows_before: u64 = run.window_ms.len() as u64;
        let windows_total: u64 = inputs
            .tenant_ids
            .iter()
            .filter_map(|&id| serve.stats(id))
            .map(|s| s.windows)
            .sum();
        let waited = decided.duration_since(due.unwrap_or(start)).as_secs_f64() * 1e3 * factor;
        for _ in windows_before..windows_total {
            run.window_ms.push(waited);
        }
        if period.is_none() && (c + 1) % QUALITY_EVERY == 0 {
            sample_quality(&mut serve, inputs, &mut run);
        }
    }
    finish(&mut serve, inputs, &schedulers, &mut run);
    run
}

/// Scores every stream's retained feed against its ground truth.
fn sample_quality<S: tm_core::CandidateSelector + Send>(
    serve: &mut TmServe<'_, S>,
    inputs: &Inputs,
    run: &mut Run,
) {
    for &id in &inputs.tenant_ids {
        for s in 0..STREAMS {
            let Some((feed, _)) = serve.feed(id, s) else {
                run.errors += 1;
                continue;
            };
            let feed = feed.clone();
            let Some(fleet) = serve.fleet_mut(id) else {
                continue;
            };
            let mapping = fleet.shard_mut(s).mapping();
            let merged = feed.relabeled(&mapping);
            let gt = ground_truth(&feed);
            run.idf1.push(identity_metrics(&gt, &merged, 0.5).idf1);
            let root = |t: &TrackId| mapping.get(t).copied().unwrap_or(*t);
            let tracks: Vec<_> = feed.iter().collect();
            let truth = Correspondence::from_tracks(&feed, 0.5).all_polyonymous(&tracks);
            if !truth.is_empty() {
                let joined = truth
                    .iter()
                    .filter(|p| root(&p.lo()) == root(&p.hi()))
                    .count();
                run.pair_recall.push(joined as f64 / truth.len() as f64);
            }
            run.query_recall.push(crate::query_recall(&merged, &gt));
        }
    }
}

/// Reads the final state: output digest and counters.
fn finish<S: tm_core::CandidateSelector + Send>(
    serve: &mut TmServe<'_, S>,
    inputs: &Inputs,
    schedulers: &[BatchScheduler<'_>],
    run: &mut Run,
) {
    let mut d = Digest::default();
    for &id in &inputs.tenant_ids {
        let stats = serve.stats(id).unwrap_or_default();
        run.shed_entries += stats.shed_entries;
        run.compacted += serve.retention(id).map_or(0, |r| r.compacted_windows);
        for s in 0..STREAMS {
            if serve.feed(id, s).is_none() {
                run.errors += 1;
                continue;
            }
            let Some(fleet) = serve.fleet_mut(id) else {
                continue;
            };
            let shard = fleet.shard_mut(s);
            d.pairs(shard.accepted());
            run.sim_ms += shard.elapsed_ms();
            run.degraded += shard.robustness().degraded_windows;
            let g = shard.gate_stats();
            run.gate.extracts += g.extracts;
            run.gate.reuses += g.reuses;
            run.gate.defers += g.defers;
            let r = shard.reid_stats();
            run.reid.inferences += r.inferences;
            run.reid.cache_hits += r.cache_hits;
            run.reid.distances += r.distances;
        }
    }
    for s in schedulers {
        let b = s.stats();
        run.batch.requests += b.requests;
        run.batch.computed += b.computed;
        run.batch.dispatches += b.dispatches;
    }
    run.digest = d.0;
}

/// Ground-truth tracks of a feed: boxes grouped by their true identity.
fn ground_truth(feed: &TrackSet) -> TrackSet {
    let mut by_actor: BTreeMap<u64, Vec<tm_types::TrackBox>> = BTreeMap::new();
    for t in feed.iter() {
        for b in &t.boxes {
            if let Some(p) = b.provenance {
                by_actor.entry(p.get()).or_default().push(*b);
            }
        }
    }
    TrackSet::from_tracks(
        by_actor
            .into_iter()
            .map(|(id, boxes)| Track::with_boxes(TrackId(id), classes::PEDESTRIAN, boxes))
            .collect(),
    )
}

pub fn run(args: &Args) -> (Outcome, u64) {
    let mut out = Outcome::default();
    let period = Duration::from_secs_f64(period_s());
    let cycles = ((args.seconds / period_s()) as u64).max(2 * CHECKPOINT_EVERY);

    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (generated, unit_s, factor) = measure(Some(&mut out.speed), || {
            let generated = generate(args.seed, cycles);
            // Warm-up: build the daemon with its lanes and run a few cycles.
            drive(&generated, WARMUP_CYCLES, None, None, None);
            generated
        });
        setups.push(unit_s * factor);
        raw_setups.push(unit_s);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one setup");
    out.e2e.setup_s = median(&setups);
    out.raw.setup_s = median(&raw_setups);

    // Snapshot assembly must reproduce the generator's own rolling view.
    let w = TenantWorkload::new(TenantWorkloadConfig::default());
    for c in [0, 1, cycles / 2, cycles - 1] {
        let frames = frames_at(c);
        let lo = frames.saturating_sub(SNAPSHOT_SPAN);
        let want = w.tracks_range(inputs.tenant_ids[0], 1, lo, frames);
        out.check(
            snapshot(&inputs.feeds[1], frames) == want,
            format!("cycle {c}: snapshot assembly differs from TenantWorkload::tracks_range"),
        );
    }

    // The live run: open loop, traced when asked.
    let tracer = Arc::new(Tracer::new());
    let sink = Arc::new(TraceSink::new(Arc::clone(&tracer), Marks::Serve));
    let alloc0 = crate::alloc_bytes();
    let live = if args.trace {
        tm_obs::scoped(tm_obs::Obs::new(sink.clone()), || {
            drive(&inputs, cycles, Some(period), Some(&tracer), None)
        })
    } else {
        drive(&inputs, cycles, Some(period), None, Some(&mut out.speed))
    };
    let alloc_mb = (crate::alloc_bytes() - alloc0) as f64 / (1024.0 * 1024.0);

    // The uninterrupted twin over the first two checkpoint points: at two
    // threads in an untraced run (determinism), serially and untraced in
    // a traced run (the trace-overhead baseline).
    let twin_cycles = 2 * CHECKPOINT_EVERY;
    let twin = if args.trace {
        drive(&inputs, twin_cycles, None, None, None)
    } else {
        with_threads(2, || drive(&inputs, twin_cycles, None, None, None))
    };
    out.check(
        live.checkpoints.len() >= 2 && twin.checkpoints[..2] == live.checkpoints[..2],
        "the resumed daemon's TMSV bytes differ from the uninterrupted twin's",
    );

    out.attempted = live.admitted + live.rejected + cycles + live.queries;
    out.failed = live.rejected + live.errors + live.degraded;
    out.check(
        live.errors == 0,
        format!("{} daemon calls failed", live.errors),
    );

    // Open-loop validity: the backlog must not grow over the run.
    let p_ms = period_s() * 1e3;
    let backlog = |late: f64| (late / p_ms).floor();
    let half = live.late_ms.len() / 2;
    let first_half_max = live.late_ms[..half].iter().copied().fold(0.0, f64::max);
    let last = live.late_ms.last().copied().unwrap_or(0.0);
    let growing = backlog(last) >= 3.0 && backlog(last) > backlog(first_half_max);
    out.check(
        !growing,
        format!(
            "backlog grew over the run: {} cycles behind at the end, at most {} in the first half",
            backlog(last),
            backlog(first_half_max)
        ),
    );

    let frames = (cycles * STRIDE * (TENANTS * STREAMS) as u64) as f64;
    let busy_s: f64 = live.busy_ms.iter().sum::<f64>() / 1e3;
    out.e2e.fps = frames / (live.scaled_busy_ms.iter().sum::<f64>() / 1e3);
    out.raw.fps = frames / busy_s;
    out.e2e.sim_fps = frames / (live.sim_ms / 1e3);
    // Quality is sampled every `QUALITY_EVERY` cycles of the twin, whose
    // decisions are the live run's (the checkpoint bytes above match).
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.e2e.idf1 = mean(&twin.idf1);
    out.e2e.pair_recall = mean(&twin.pair_recall);
    out.e2e.query_recall = mean(&twin.query_recall);
    out.e2e.window_p50_ms = percentile(&live.window_ms, 50.0);
    out.e2e.window_p95_ms = percentile(&live.window_ms, 95.0);
    out.e2e.query_p50_ms = median(&live.query_ms);
    out.notes.push(format!(
        "{TENANTS} tenants x {STREAMS} streams, {cycles} cycles every {p_ms:.2} ms ({SPEEDUP}x 30 fps real time); busy {:.1}% of the run",
        100.0 * busy_s / (cycles as f64 * period_s())
    ));
    out.notes.push(format!(
        "generator lateness: p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms (backlog at end {} cycles)",
        percentile(&live.late_ms, 50.0),
        percentile(&live.late_ms, 95.0),
        percentile(&live.late_ms, 100.0),
        backlog(last)
    ));

    if args.trace {
        let n = cycles as f64;
        let mut spans = tracer.take();
        let a = trace::attribute(&mut spans);
        crate::layer_times(&mut out, &a, n);
        let l = &mut out.layers;
        let per = |v: u64| v as f64 / n;
        l.insert("gate.extract", per(live.gate.extracts));
        l.insert("gate.reuse", per(live.gate.reuses));
        l.insert("gate.defer", per(live.gate.defers));
        l.insert("reid.inferences", per(live.reid.inferences));
        l.insert("reid.cache_hits", per(live.reid.cache_hits));
        l.insert("reid.hit_ratio", live.reid.hit_rate());
        l.insert("reid.distances", per(live.reid.distances));
        l.insert("reid.sim_ms", live.sim_ms / n);
        l.insert("reid.batch_requests", per(live.batch.requests));
        l.insert("reid.batch_computed", per(live.batch.computed));
        l.insert("reid.batch_dispatches", per(live.batch.dispatches));
        for (metric, counter) in [
            ("pairs.count", "pipeline.pairs"),
            ("select.rounds", "selector.tmerge.rounds"),
            ("select.pulls", "selector.tmerge.pulls"),
            ("select.pruned_out", "selector.tmerge.pruned_out"),
            ("select.accepted", "selector.tmerge.accepted"),
            ("fleet.windows", "fleet.windows"),
            ("fleet.advances", "fleet.advances"),
        ] {
            l.insert(metric, sink.counter_sum(counter) as f64 / n);
        }
        l.insert("query.calls", per(live.queries));
        l.insert("serve.admitted", per(live.admitted));
        l.insert("serve.rejected", per(live.rejected));
        l.insert("serve.shed_entries", per(live.shed_entries));
        l.insert("serve.compacted_windows", per(live.compacted));
        l.insert("serve.queue_peak", live.queue_peak as f64);
        l.insert("serve.late_p95_ms", percentile(&live.late_ms, 95.0));
        l.insert("checkpoint.bytes", median(&live.checkpoint_bytes));
        l.insert("alloc_mb", alloc_mb / n);
        let twin_busy = median(&twin.busy_ms);
        let traced_busy = median(&live.busy_ms[..twin.busy_ms.len().min(live.busy_ms.len())]);
        l.insert(
            "trace_overhead_pct",
            100.0 * (traced_busy / twin_busy - 1.0),
        );
        if let Err(e) = trace::write_spans(&crate::out_dir().join("trace-serve_live.jsonl"), &spans)
        {
            out.notes.push(format!("could not write the trace: {e}"));
        }
    }
    (out, live.digest)
}
