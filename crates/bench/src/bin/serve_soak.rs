//! Serve soak — the multi-tenant daemon under churn, camera outages,
//! bursty admission, and a retention horizon, with per-tenant batched
//! ReID lanes.
//!
//! A `TenantChurn` schedule joins/leaves/bursts a small tenant universe
//! while each (tenant, stream) camera follows a seeded outage plan. Every
//! tenant gets its own `BatchScheduler::for_tenant` so ReID misses batch
//! across that tenant's streams (and only that tenant's — no cross-tenant
//! feature sharing). The measurement: decided windows per second plus the
//! admission/shed/retention/batching counter surface, with the daemon's
//! hard robustness claims re-asserted on the way out — typed rejections
//! only, queue bounds held, the always-on tenant recovered, and resident
//! state compacted down to the horizon.

use std::time::Instant;
use tm_bench::report::{header, observed, table};
use tm_chaos::{FaultyModel, TenantChurn, TenantChurnConfig};
use tm_core::{StreamConfig, TMerge, TMergeConfig};
use tm_reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, BatchingBackend, CostModel,
    Device, InferenceBackend, SplitBackend,
};
use tm_serve::{Admission, AdmissionConfig, RejectReason, ServeConfig, TenantSpec, TmServe};
use tm_synth::{TenantWorkload, TenantWorkloadConfig};

const TENANTS: u64 = 4;
const STREAMS: usize = 2;
const WINDOW: u64 = 200; // stride 100 → 2 new windows per cycle
const HORIZON: u64 = 6;
const SETTLE_CYCLES: u64 = 8;

fn churn_cycles() -> u64 {
    std::env::var("TMERGE_SOAK_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
        .max(8)
}

fn selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 1_500,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            window_len: WINDOW,
            k: 0.1,
            gate: tm_reid::GatePolicy::Off,
            voi: tm_core::VoiMode::Off,
        },
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: Some(HORIZON),
    }
}

struct ServeSoak {
    cycles: u64,
    tenants: u64,
    streams: usize,
    windows_decided: u64,
    windows_per_sec: f64,
    admitted: u64,
    rejected_queue_full: u64,
    rejected_rate_limited: u64,
    survivor_shed_entries: u64,
    survivor_shed_exits: u64,
    compacted_windows: u64,
    peak_queue: usize,
    peak_stash: usize,
    final_decision_entries: usize,
    batch_requests: u64,
    batch_computed: u64,
    batch_saved: u64,
    batch_saving_pct: f64,
    wall_ms: f64,
}

fn run() -> ServeSoak {
    let churn_cycles = churn_cycles();
    let total_cycles = churn_cycles + SETTLE_CYCLES;
    // Confine outages so every camera recovers during the settle phase.
    let outage_max_window = (2 * churn_cycles).saturating_sub(8).max(4);

    let model = AppearanceModel::new(AppearanceConfig::default());
    let w = TenantWorkload::new(TenantWorkloadConfig::default());
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

    // Per-tenant batching: one scheduler per tenant (sized for its stream
    // count), one lane per stream wrapping that camera's faulty backend.
    let faulty: Vec<Vec<FaultyModel<'_>>> = (0..TENANTS)
        .map(|t| {
            (0..STREAMS as u64)
                .map(|s| FaultyModel::new(&model, churn.fault_plan(t, s, outage_max_window)))
                .collect()
        })
        .collect();
    let schedulers: Vec<BatchScheduler<'_>> = (0..TENANTS)
        .map(|_| BatchScheduler::for_tenant(&model, BatchConfig::default(), STREAMS))
        .collect();
    let lanes: Vec<Vec<BatchingBackend<'_>>> = (0..TENANTS as usize)
        .map(|t| {
            (0..STREAMS)
                .map(|s| schedulers[t].backend(&faulty[t][s] as &dyn SplitBackend))
                .collect()
        })
        .collect();

    let admission = AdmissionConfig {
        max_queue: 2 * STREAMS, // bursts overflow this by design
        bytes_per_window: u64::MAX / 4,
        quota_window_ms: 1_000.0,
        rate_capacity: 1_000.0,
        rate_per_ms: 100.0,
        retry_hint_ms: 10,
    };

    let mut serve = TmServe::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        serve_config(),
        |_, _| selector(),
    );

    let mut admitted = 0u64;
    let mut rejected_queue_full = 0u64;
    let mut rejected_rate_limited = 0u64;
    let mut peak_queue = 0usize;
    let mut peak_stash = 0usize;

    let start = Instant::now();
    for c in 0..total_cycles {
        let churning = c < churn_cycles;
        for t in 0..TENANTS {
            if churning && churn.leaves(t, c) && serve.tenant_ids().contains(&t) {
                serve.deregister(t).expect("deregister");
            }
            let active = if churning { churn.active(t, c) } else { true };
            if active && !serve.tenant_ids().contains(&t) {
                let refs: Vec<&dyn InferenceBackend> = lanes[t as usize]
                    .iter()
                    .map(|l| l as &dyn InferenceBackend)
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
                    .expect("register");
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
                        Admission::Rejected(r) => match r.reason {
                            RejectReason::QueueFull => rejected_queue_full += 1,
                            RejectReason::RateLimited => rejected_rate_limited += 1,
                            other => panic!("untyped shed path: {other:?}"),
                        },
                    }
                }
            }
            let fp = serve.footprint(t).expect("footprint");
            assert!(
                fp.queue_len <= admission.max_queue,
                "tenant {t} queue {} over bound",
                fp.queue_len
            );
            peak_queue = peak_queue.max(fp.queue_len);
        }
        serve.run_once(c as f64 * 10.0 + 9.0).expect("run_once");
        for t in serve.tenant_ids() {
            peak_stash = peak_stash.max(serve.footprint(t).expect("footprint").stash_windows);
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;

    // The always-on tenant must have shed during its outages and fully
    // recovered once they cleared.
    let stats = serve.stats(0).expect("survivor stats");
    assert!(
        stats.shed_entries >= 1,
        "no outage ever shed load: {stats:?}"
    );
    assert_eq!(serve.is_shed(0), Some(false), "survivor still shedding");
    let survivor = serve.footprint(0).expect("survivor footprint");
    assert_eq!(survivor.stash_windows, 0, "stash not re-verified");
    assert!(
        survivor.decision_entries as u64 <= HORIZON + 8,
        "retention failed to bound the decision log: {survivor:?}"
    );

    let windows_decided: u64 = serve
        .tenant_ids()
        .iter()
        .filter_map(|&t| serve.stats(t))
        .map(|s| s.windows)
        .sum();
    let compacted_windows = serve
        .tenant_ids()
        .iter()
        .filter_map(|&t| serve.retention(t))
        .map(|r| r.compacted_windows)
        .sum();
    let batch_requests: u64 = schedulers.iter().map(|s| s.stats().requests).sum();
    let batch_computed: u64 = schedulers.iter().map(|s| s.stats().computed).sum();
    let batch_saved = batch_requests - batch_computed;
    let batch_saving_pct = 100.0 * batch_saved as f64 / batch_requests.max(1) as f64;

    let obs = tm_obs::current();
    obs.counter("serve.soak.windows", windows_decided);
    obs.counter("serve.soak.batch.saved", batch_saved);

    ServeSoak {
        cycles: total_cycles,
        tenants: TENANTS,
        streams: STREAMS,
        windows_decided,
        windows_per_sec: windows_decided as f64 / (wall_ms / 1_000.0).max(1e-9),
        admitted,
        rejected_queue_full,
        rejected_rate_limited,
        survivor_shed_entries: stats.shed_entries,
        survivor_shed_exits: stats.shed_exits,
        compacted_windows,
        peak_queue,
        peak_stash,
        final_decision_entries: survivor.decision_entries,
        batch_requests,
        batch_computed,
        batch_saved,
        batch_saving_pct,
        wall_ms,
    }
}

fn main() {
    let r = observed("serve_soak", run);
    header(&format!(
        "Serve soak — {} tenants × {} streams, {} cycles of churn + outages",
        r.tenants, r.streams, r.cycles
    ));
    table(
        &["metric", "value"],
        &[
            vec!["windows decided".into(), r.windows_decided.to_string()],
            vec!["windows / sec".into(), format!("{:.0}", r.windows_per_sec)],
            vec!["admitted".into(), r.admitted.to_string()],
            vec![
                "rejected (queue full)".into(),
                r.rejected_queue_full.to_string(),
            ],
            vec![
                "rejected (rate limited)".into(),
                r.rejected_rate_limited.to_string(),
            ],
            vec![
                "survivor shed entries/exits".into(),
                format!("{}/{}", r.survivor_shed_entries, r.survivor_shed_exits),
            ],
            vec!["compacted windows".into(), r.compacted_windows.to_string()],
            vec!["peak queue".into(), r.peak_queue.to_string()],
            vec!["peak stash".into(), r.peak_stash.to_string()],
            vec![
                "final decision entries".into(),
                r.final_decision_entries.to_string(),
            ],
            vec![
                "batch requests/computed".into(),
                format!("{}/{}", r.batch_requests, r.batch_computed),
            ],
            vec!["batch saved".into(), r.batch_saved.to_string()],
            vec![
                "batch saving %".into(),
                format!("{:.1}", r.batch_saving_pct),
            ],
            vec!["wall ms".into(), format!("{:.0}", r.wall_ms)],
        ],
    );
    assert!(r.admitted > 0, "soak admitted nothing");
    assert!(
        r.rejected_queue_full + r.rejected_rate_limited > 0,
        "bursts never overflowed admission — the soak is not stressing it"
    );
    assert!(r.compacted_windows > 0, "retention never compacted");
}
