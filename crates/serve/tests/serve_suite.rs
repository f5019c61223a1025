//! End-to-end robustness suite for the serve layer (ISSUE 8).
//!
//! Four pillars:
//!
//! 1. **Kill-and-resume is byte-identical** — a daemon checkpointed in the
//!    middle of a camera outage (breaker open, tenant shed, stash
//!    non-empty) and resumed from its serve envelope continues exactly
//!    like the daemon that never died: same decisions, same mappings, same
//!    counters, same simulated-clock bits. Mid-outage, queries answer
//!    through the stash's provisional merges.
//! 2. **Retention compaction is invisible inside the horizon** — a
//!    property test drives a compacting daemon and an unbounded twin over
//!    identical traffic and checks recent decisions, mappings, and query
//!    answers agree.
//! 3. **Resident state is bounded under a 10k-window soak** — with a
//!    retention horizon configured, stash/dedup/cache/decision/feed
//!    footprints stay flat no matter how long the stream runs; a shorter
//!    gated run pins the gate's state the same way, through the size of
//!    its checkpoint envelope.
//! 4. **Tenant churn + camera outages shed load only via typed rejections
//!    or degraded windows** — and once faults clear, the surviving
//!    always-on tenant's final mapping equals a fault-free solo run.

use proptest::prelude::*;
use tm_chaos::{FaultPlan, FaultyModel, TenantChurn, TenantChurnConfig};
use tm_core::{merge_mapping, DecisionMode, StreamConfig, StreamingMerger, TMerge, TMergeConfig};
use tm_query::Query;
use tm_reid::{
    AppearanceConfig, AppearanceModel, CostModel, Device, GateConfig, GatePolicy, InferenceBackend,
};
use tm_serve::{Admission, AdmissionConfig, RejectReason, ServeConfig, TenantSpec, TmServe};
use tm_synth::{TenantWorkload, TenantWorkloadConfig};

const WINDOW: u64 = 200; // stride 100

fn selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 1_500,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_len: WINDOW,
        k: 0.1,
        gate: tm_reid::GatePolicy::Off,
        voi: tm_core::VoiMode::Off,
    }
}

fn serve_config(retention: Option<u64>) -> ServeConfig {
    ServeConfig {
        stream: stream_config(),
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: retention,
    }
}

fn workload() -> TenantWorkload {
    TenantWorkload::new(TenantWorkloadConfig::default())
}

fn open_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_queue: 64,
        bytes_per_window: u64::MAX / 4,
        quota_window_ms: 1_000.0,
        rate_capacity: 1_000.0,
        rate_per_ms: 100.0,
        retry_hint_ms: 10,
    }
}

fn daemon<'m>(model: &'m AppearanceModel, config: ServeConfig) -> TmServe<'m, TMerge> {
    TmServe::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        config,
        |_, _| selector(),
    )
}

/// The CI-pinned crash-recovery test: kill mid-outage, resume from the
/// serve envelope, and the continuation is byte-identical to never having
/// died.
#[test]
fn serve_kill_and_resume_is_byte_identical() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let w = workload();
    // Stream 0's camera goes hard-down for windows 2..5; stream 1 stays
    // healthy. The outage trips the breaker, which flips the tenant to
    // shed-load; the checkpoint lands in the middle of all of it.
    let faulty = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 5));
    let healthy = FaultyModel::new(&model, FaultPlan::none());
    let backends: [&dyn InferenceBackend; 2] = [&faulty, &healthy];

    let drive = |serve: &mut TmServe<'_, TMerge>, cycles: std::ops::Range<u64>| {
        for c in cycles {
            let frames = (c + 1) * WINDOW;
            for s in 0..2u64 {
                assert!(
                    serve
                        .submit(
                            c as f64 * 10.0,
                            1,
                            s as usize,
                            w.tracks(1, s, frames),
                            frames
                        )
                        .is_admitted(),
                    "cycle {c} stream {s}"
                );
            }
            serve.run_once(c as f64 * 10.0 + 1.0).unwrap();
        }
    };

    let mut solo = daemon(&model, serve_config(None));
    solo.register(
        TenantSpec {
            id: 1,
            streams: 2,
            admission: open_admission(),
        },
        &backends,
    )
    .unwrap();
    drive(&mut solo, 0..3);

    // Mid-outage: the breaker has opened, the tenant is shedding, and
    // degraded windows sit in the stash awaiting re-verification.
    assert_eq!(solo.is_shed(1), Some(true), "outage must flip shed");
    assert!(solo.footprint(1).unwrap().stash_windows > 0);
    // Queries keep working through the outage: stream 0 answers through
    // its committed and provisional merges together, exactly as its feed
    // relabelled by both answers, and unlike the committed merges alone.
    let shard = solo.fleet(1).unwrap().shard(0);
    let provisional: Vec<_> = shard
        .decisions()
        .iter()
        .filter(|d| d.mode == DecisionMode::Degraded)
        .flat_map(|d| d.candidates.iter().copied())
        .collect();
    let both = merge_mapping(&[shard.accepted(), &provisional].concat());
    let committed = merge_mapping(shard.accepted());
    let feed = w.tracks(1, 0, 3 * WINDOW);
    for q in [
        Query::Count { min_frames: 50 },
        Query::CoOccurrence {
            group_size: 2,
            min_frames: 50,
        },
    ] {
        let answer = solo.query(1, 0, q).unwrap();
        let relabelled = |m| tm_query::evaluate(&feed.relabeled(m), q);
        assert_eq!(answer, relabelled(&both), "{q:?} mid-outage");
        assert_ne!(answer, relabelled(&committed), "{q:?} reads the stash");
    }
    let envelope = solo.checkpoint();

    let (mut revived, dropped) = TmServe::resume(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        serve_config(None),
        |_, _| selector(),
        |_, _| Some(backends.to_vec()),
        &envelope,
    )
    .unwrap();
    assert!(dropped.is_empty());
    assert_eq!(revived.checkpoint(), envelope, "resume is a fixpoint");

    // Both daemons live through recovery and well past it.
    drive(&mut solo, 3..8);
    drive(&mut revived, 3..8);

    assert_eq!(solo.is_shed(1), Some(false), "tenant must recover");
    assert_eq!(solo.stats(1), revived.stats(1));
    for s in 0..2 {
        let a = solo.fleet_mut(1).unwrap();
        let mapping = a.shard_mut(s).mapping();
        let decisions = a.shard(s).decisions().to_vec();
        let accepted = a.shard(s).accepted().to_vec();
        let clock = a.shard(s).elapsed_ms().to_bits();
        let b = revived.fleet_mut(1).unwrap();
        assert_eq!(b.shard_mut(s).mapping(), mapping, "stream {s} mapping");
        assert_eq!(b.shard(s).decisions(), decisions, "stream {s} decisions");
        assert_eq!(b.shard(s).accepted(), accepted, "stream {s} merges");
        assert_eq!(
            b.shard(s).elapsed_ms().to_bits(),
            clock,
            "stream {s} clock bits"
        );
    }
    assert_eq!(
        solo.footprint(1).unwrap().stash_windows,
        0,
        "recovery re-verified the stash"
    );
    assert!(solo.stats(1).unwrap().shed_entries >= 1);
    assert!(solo.stats(1).unwrap().shed_exits >= 1);
    // The strongest claim last: the complete data halves are identical.
    assert_eq!(solo.checkpoint(), revived.checkpoint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Compaction changes what is *retained*, never what was *decided*: a
    /// compacting daemon agrees with its unbounded twin on every decision
    /// still in its log, on the mapping of every surviving track, and on
    /// query answers over the surviving feed.
    #[test]
    fn retention_compaction_is_invisible_inside_the_horizon(
        horizon in 3u64..8,
        cycles in 6u64..13,
        min_frames in 40u64..200,
    ) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let w = workload();
        let spec = TenantSpec { id: 1, streams: 1, admission: open_admission() };
        let backends: [&dyn InferenceBackend; 1] = [&model];

        let mut compacting = daemon(&model, serve_config(Some(horizon)));
        let mut unbounded = daemon(&model, serve_config(None));
        compacting.register(spec, &backends).unwrap();
        unbounded.register(spec, &backends).unwrap();

        for c in 0..cycles {
            let frames = (c + 1) * WINDOW;
            let feed = w.tracks(1, 0, frames);
            for serve in [&mut compacting, &mut unbounded] {
                prop_assert!(serve.submit(c as f64, 1, 0, feed.clone(), frames).is_admitted());
                serve.run_once(c as f64 + 0.5).unwrap();
            }
        }

        // Recent decisions are untouched by compaction.
        let a = compacting.fleet(1).unwrap().shard(0).decisions().to_vec();
        let b = unbounded.fleet(1).unwrap().shard(0).decisions().to_vec();
        prop_assert!(!a.is_empty());
        prop_assert!(b.ends_with(&a), "compacted log must be a suffix of the full log");

        // Mappings agree on every surviving track.
        let surviving = compacting.feed(1, 0).unwrap().0.clone();
        let surviving_ids: Vec<_> = surviving.iter().map(|t| t.id).collect();
        let map_a = compacting.fleet_mut(1).unwrap().shard_mut(0).mapping();
        let map_b = unbounded.fleet_mut(1).unwrap().shard_mut(0).mapping();
        for id in &surviving_ids {
            prop_assert_eq!(
                map_a.get(id).copied().unwrap_or(*id),
                map_b.get(id).copied().unwrap_or(*id),
                "mapping diverged for {:?}", id
            );
        }

        // Query answers over the surviving feed agree: the unbounded twin,
        // restricted to the tracks the compacting daemon retained, answers
        // identically.
        let answer = compacting.query(1, 0, Query::Count { min_frames }).unwrap();
        let full = unbounded.feed(1, 0).unwrap().0.clone();
        let restricted = tm_types::TrackSet::from_tracks(
            full.iter().filter(|t| surviving.get(t.id).is_some()).cloned().collect(),
        );
        let reference = tm_query::evaluate(&restricted.relabeled(&map_b), Query::Count { min_frames });
        prop_assert_eq!(answer, reference);

        // And compaction genuinely happened (otherwise this test is vacuous).
        let summary = compacting.retention(1).unwrap();
        prop_assert!(summary.compacted_windows > 0, "horizon never compacted anything");
    }
}

/// Ten thousand windows through one tenant with a retention horizon: every
/// resident-state axis stays flat. Feeds arrive as rolling snapshots
/// (`tracks_range`), the shape a real tracker produces, which keeps the
/// soak linear in total length.
///
/// Ignored by default (several minutes unoptimized); the CI `serve` job
/// runs it explicitly in release mode.
#[test]
#[ignore = "long soak; run explicitly: cargo test --release -p tm-serve -- --ignored"]
fn soak_retention_bounds_resident_state() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let w = TenantWorkload::new(TenantWorkloadConfig {
        actors: 2,
        ..TenantWorkloadConfig::default()
    });
    const HORIZON: u64 = 6;
    const WINDOWS_PER_CYCLE: u64 = 10;
    const CYCLES: u64 = 1_000; // 10_000 windows total
    let mut serve = daemon(&model, serve_config(Some(HORIZON)));
    let backends: [&dyn InferenceBackend; 1] = [&model];
    serve
        .register(
            TenantSpec {
                id: 1,
                streams: 1,
                admission: open_admission(),
            },
            &backends,
        )
        .unwrap();

    let stride = WINDOW / 2;
    let mut max = tm_serve::TenantFootprint::default();
    for c in 0..CYCLES {
        let frames = (c + 1) * WINDOWS_PER_CYCLE * stride;
        // Rolling snapshot: well more slack than the daemon's own feed
        // retention (horizon + 2 windows), so pruning decisions stay the
        // daemon's, not the driver's.
        let lo = frames.saturating_sub((HORIZON + WINDOWS_PER_CYCLE + 8) * stride + 2 * WINDOW);
        let feed = w.tracks_range(1, 0, lo, frames);
        assert!(
            serve.submit(c as f64, 1, 0, feed, frames).is_admitted(),
            "cycle {c}"
        );
        serve.run_once(c as f64 + 0.5).unwrap();
        let fp = serve.footprint(1).unwrap();
        max.queue_len = max.queue_len.max(fp.queue_len);
        max.feed_tracks = max.feed_tracks.max(fp.feed_tracks);
        max.feed_boxes = max.feed_boxes.max(fp.feed_boxes);
        max.stash_windows = max.stash_windows.max(fp.stash_windows);
        max.seen_pairs = max.seen_pairs.max(fp.seen_pairs);
        max.cached_features = max.cached_features.max(fp.cached_features);
        max.decision_entries = max.decision_entries.max(fp.decision_entries);
    }
    // The last whole window ends at the final watermark, so the cursor
    // (the *next* undecided window) sits one short of windows-submitted.
    let shard = serve.fleet(1).unwrap().shard(0);
    assert_eq!(
        shard.next_window_index() as u64,
        CYCLES * WINDOWS_PER_CYCLE - 1
    );

    // The bounds: generous constants, but *constants* — they hold at
    // window 10_000 exactly as at window 100, which is the claim.
    assert_eq!(max.queue_len, 0, "queue drains every cycle");
    assert!(max.stash_windows <= HORIZON as usize + 2, "stash {:?}", max);
    assert!(
        max.decision_entries <= (HORIZON + WINDOWS_PER_CYCLE) as usize + 4,
        "decision log {:?}",
        max
    );
    let feed_box_bound = ((HORIZON + WINDOWS_PER_CYCLE + 8) * stride + 4 * WINDOW) as usize * 2;
    assert!(max.feed_boxes <= feed_box_bound, "feed {:?}", max);
    assert!(max.seen_pairs <= 4_000, "dedup pairs {:?}", max);
    assert!(max.cached_features <= 4_000, "feature cache {:?}", max);

    let summary = serve.retention(1).unwrap();
    assert!(summary.compacted_windows >= CYCLES * WINDOWS_PER_CYCLE - 64);
    // Live queries still answer at window 10k: each actor's recent
    // fragments merge into one long-lived object.
    let answer = serve.query(1, 0, Query::Count { min_frames: 300 }).unwrap();
    assert_eq!(answer.len(), 2, "one merged object per actor: {answer:?}");
}

/// The gated twin of the soak above, short enough to run by default: a
/// gated session's state — feature cache, gate plans, counters — stays as
/// flat as the rest, so the checkpoint envelope at cycle 150 is within
/// 1.25× of the one at cycle 50. Same traffic: one tenant, one stream, two
/// actors, horizon 6, ten windows a cycle, rolling snapshots.
#[test]
fn gated_retention_keeps_the_envelope_flat() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let w = TenantWorkload::new(TenantWorkloadConfig {
        actors: 2,
        ..TenantWorkloadConfig::default()
    });
    const HORIZON: u64 = 6;
    const WINDOWS_PER_CYCLE: u64 = 10;
    let config = ServeConfig {
        stream: StreamConfig {
            gate: GatePolicy::On(GateConfig::default()),
            ..stream_config()
        },
        ..serve_config(Some(HORIZON))
    };
    let mut serve = daemon(&model, config);
    let backends: [&dyn InferenceBackend; 1] = [&model];
    serve
        .register(
            TenantSpec {
                id: 1,
                streams: 1,
                admission: open_admission(),
            },
            &backends,
        )
        .unwrap();

    let stride = WINDOW / 2;
    let mut envelopes = Vec::new();
    for c in 0..150 {
        let frames = (c + 1) * WINDOWS_PER_CYCLE * stride;
        let lo = frames.saturating_sub((HORIZON + WINDOWS_PER_CYCLE + 8) * stride + 2 * WINDOW);
        let feed = w.tracks_range(1, 0, lo, frames);
        assert!(
            serve.submit(c as f64, 1, 0, feed, frames).is_admitted(),
            "cycle {c}"
        );
        serve.run_once(c as f64 + 0.5).unwrap();
        if c + 1 == 50 || c + 1 == 150 {
            envelopes.push(serve.checkpoint().len());
        }
    }
    assert!(
        serve
            .fleet(1)
            .unwrap()
            .shard(0)
            .gate_stats()
            .saved_charges()
            > 0
    );
    let (early, late) = (envelopes[0], envelopes[1]);
    assert!(
        late * 4 <= early * 5,
        "envelope grew from {early} bytes at cycle 50 to {late} at cycle 150"
    );
}

/// The flagship chaos soak: tenants join, leave and burst on a seeded
/// schedule while cameras go hard-down and recover. The daemon must (a)
/// hold its configured bounds, (b) refuse work only via typed rejections
/// or degraded windows, and (c) leave the surviving always-on tenant with
/// exactly the mapping a fault-free solo run produces.
#[test]
fn churn_soak_sheds_typed_and_survivors_match_solo() {
    const TENANTS: u64 = 3;
    const STREAMS: usize = 2;
    const CHURN_CYCLES: u64 = 18;
    const SETTLE_CYCLES: u64 = 8;
    const OUTAGE_MAX_WINDOW: u64 = 24;

    let model = AppearanceModel::new(AppearanceConfig::default());
    let w = workload();
    let churn = TenantChurn::new(TenantChurnConfig {
        seed: 5,
        tenants: TENANTS,
        always_on: 1,
        epoch_cycles: 3,
        burst_rate: 0.3,
        burst_multiplier: 4,
        outage_rate: 0.5,
        outage_windows: 2,
        ..TenantChurnConfig::default()
    });

    // One faulty backend per (tenant, stream), outages confined to the
    // first OUTAGE_MAX_WINDOW windows so every camera recovers in time.
    let backends: Vec<Vec<FaultyModel<'_>>> = (0..TENANTS)
        .map(|t| {
            (0..STREAMS as u64)
                .map(|s| FaultyModel::new(&model, churn.fault_plan(t, s, OUTAGE_MAX_WINDOW)))
                .collect()
        })
        .collect();
    let outages_on_survivor: usize = backends[0].iter().map(|b| b.plan().hard_down.len()).sum();
    assert!(
        outages_on_survivor > 0,
        "seed must schedule outages for the always-on tenant"
    );

    let admission = AdmissionConfig {
        max_queue: 2 * STREAMS, // bursts overflow this by design
        ..open_admission()
    };
    let mut serve = daemon(&model, serve_config(None));
    let mut rejected = 0u64;
    let mut admitted = 0u64;
    // Applied watermark per cycle for the always-on tenant's streams,
    // recorded for the solo replay.
    let mut survivor_watermarks: Vec<u64> = Vec::new();

    for c in 0..CHURN_CYCLES + SETTLE_CYCLES {
        let churning = c < CHURN_CYCLES;
        for t in 0..TENANTS {
            if churning && churn.leaves(t, c) && serve.tenant_ids().contains(&t) {
                serve.deregister(t).unwrap();
            }
            let active = if churning { churn.active(t, c) } else { true };
            if active && !serve.tenant_ids().contains(&t) {
                let refs: Vec<&dyn InferenceBackend> = backends[t as usize]
                    .iter()
                    .map(|b| b as &dyn InferenceBackend)
                    .collect();
                serve
                    .register(
                        TenantSpec {
                            id: t,
                            streams: STREAMS,
                            admission,
                        },
                        &refs,
                    )
                    .unwrap();
            }
        }
        let frames = (c + 1) * WINDOW;
        for t in serve.tenant_ids() {
            if churning && !churn.active(t, c) {
                continue;
            }
            let burst = if churning {
                churn.burst_multiplier(t, c)
            } else {
                1
            };
            for rep in 0..burst {
                for s in 0..STREAMS {
                    let a = serve.submit(
                        c as f64 * 10.0 + rep as f64,
                        t,
                        s,
                        w.tracks(t, s as u64, frames),
                        frames,
                    );
                    match a {
                        Admission::Admitted => admitted += 1,
                        Admission::Rejected(r) => {
                            rejected += 1;
                            // (b): every refusal is typed; bursts may only
                            // overflow the queue or trip the rate limiter.
                            assert!(
                                matches!(
                                    r.reason,
                                    RejectReason::QueueFull | RejectReason::RateLimited
                                ),
                                "unexpected rejection {:?}",
                                r.reason
                            );
                        }
                    }
                }
            }
            // (a): the queue bound holds no matter how hard the burst hit.
            let fp = serve.footprint(t).unwrap();
            assert!(
                fp.queue_len <= admission.max_queue,
                "tenant {t} queue {} over bound",
                fp.queue_len
            );
        }
        serve.run_once(c as f64 * 10.0 + 9.0).unwrap();
        survivor_watermarks.push(serve.feed(0, 0).unwrap().1);
    }

    assert!(admitted > 0);
    assert!(rejected > 0, "bursts must overflow the queue somewhere");
    let stats = serve.stats(0).unwrap();
    assert!(
        stats.shed_entries >= 1,
        "the survivor's outages must have shed load: {stats:?}"
    );
    assert_eq!(
        serve.is_shed(0),
        Some(false),
        "faults cleared, tenant must recover"
    );
    assert_eq!(serve.footprint(0).unwrap().stash_windows, 0);

    // (c): the survivor's final mapping equals a fault-free solo run fed
    // the identical watermark sequence.
    for s in 0..STREAMS {
        let mut solo = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            stream_config(),
        )
        .unwrap()
        .with_backend(&model);
        for &frames in &survivor_watermarks {
            solo.advance(&w.tracks(0, s as u64, frames), frames)
                .unwrap();
        }
        let served = serve.fleet_mut(0).unwrap().shard_mut(s).mapping();
        assert_eq!(
            served,
            solo.mapping(),
            "stream {s}: survivor mapping diverged from the fault-free run"
        );
    }
}
