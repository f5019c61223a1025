//! Golden observability snapshot: the deterministic [`tm_obs::Recorder`]
//! aggregate of a dataset-suite selector run must be byte-identical for
//! `TMERGE_THREADS=1` and the default (all cores) fan-out.
//!
//! The snapshot only holds commutative integer aggregates — u64 counters
//! and simulated-clock histograms quantized to integer ticks — so the fold
//! order imposed by the scheduler cannot move a single bit. Wall-clock
//! histograms and log lines are order- and machine-dependent and are
//! deliberately excluded from `snapshot()` (DESIGN.md §11).
//!
//! `run_selector` is the pinned entry point: its workers run one ReID
//! session per video, so every counter — cache hits included — depends on
//! the video alone, never on which worker ran it.
//!
//! The workload is real but quick-scale (two clipped videos), small
//! enough to run in debug builds too — unlike determinism.rs.

use std::sync::{Arc, Mutex};
use tm_bench::experiments::{sweep, ExpConfig};
use tm_bench::harness::{run_selector, run_selector_gated, DatasetRun};
use tm_core::{Baseline, TMerge, TMergeConfig};
use tm_datasets::mot17;
use tm_reid::{CostModel, Device, GateConfig, GatePolicy};
use tm_track::TrackerKind;

/// Serializes `TMERGE_THREADS` mutation across tests: concurrent
/// `set_var`/`var` from different test threads races in libc.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under a fresh recorder once per thread-count setting
/// (`None` = default, i.e. all cores) and returns each snapshot.
fn snapshot_per_thread_count(f: impl Fn()) -> Vec<String> {
    let _guard = ENV_LOCK.lock().unwrap();
    let snaps = [Some("1"), None]
        .iter()
        .map(|n| {
            match n {
                Some(n) => std::env::set_var(tm_par::THREADS_ENV, n),
                None => std::env::remove_var(tm_par::THREADS_ENV),
            }
            let rec = Arc::new(tm_obs::Recorder::new());
            tm_obs::scoped(tm_obs::Obs::new(rec.clone()), &f);
            rec.snapshot()
        })
        .collect();
    std::env::remove_var(tm_par::THREADS_ENV);
    snaps
}

#[test]
fn recorder_snapshot_is_byte_identical_across_thread_counts() {
    let cfg = ExpConfig::quick();
    let spec = cfg.limit(mot17(), 2);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let cost = CostModel::calibrated();
    let snaps = snapshot_per_thread_count(|| {
        let tm = TMerge::new(TMergeConfig {
            tau_max: 2_000,
            seed: cfg.seed,
            ..TMergeConfig::default()
        });
        run_selector(&ds.runs, &Baseline, sweep::K, cost, Device::Cpu);
        run_selector(&ds.runs, &tm, sweep::K, cost, Device::Gpu { batch: 10 });
    });

    // The pin is only meaningful if the instrumented layers actually fired.
    for key in [
        "counter selector.baseline.selections",
        "counter selector.tmerge.selections",
        "counter reid.distances",
    ] {
        assert!(
            snaps[0].lines().any(|l| l.starts_with(key)),
            "snapshot lost {key:?}; keys present:\n{}",
            snaps[0]
        );
    }
    assert_eq!(
        snaps[0], snaps[1],
        "recorder snapshot must not depend on the worker fan-out"
    );
}

/// The same pin with the extraction gate on: gate decisions are a pure
/// function of per-video tracker state, so the `reid.gate.*` counters —
/// including the per-selector charge attribution — must be byte-identical
/// at any `TMERGE_THREADS`.
#[test]
fn gated_recorder_snapshot_is_byte_identical_across_thread_counts() {
    let cfg = ExpConfig::quick();
    let spec = cfg.limit(mot17(), 2);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let cost = CostModel::calibrated();
    let gate = GatePolicy::On(GateConfig::default());
    let snaps = snapshot_per_thread_count(|| {
        let tm = TMerge::new(TMergeConfig {
            tau_max: 2_000,
            seed: cfg.seed,
            ..TMergeConfig::default()
        });
        run_selector_gated(&ds.runs, &Baseline, sweep::K, cost, Device::Cpu, gate);
        run_selector_gated(
            &ds.runs,
            &tm,
            sweep::K,
            cost,
            Device::Gpu { batch: 10 },
            gate,
        );
    });

    for key in [
        "counter reid.gate.extract",
        "counter reid.gate.reuse",
        "counter reid.gate.saved_charges ",
        "counter reid.gate.saved_charges.baseline",
        "counter reid.gate.saved_charges.tmerge",
    ] {
        assert!(
            snaps[0].lines().any(|l| l.starts_with(key)),
            "snapshot lost {key:?}; keys present:\n{}",
            snaps[0]
        );
    }
    assert_eq!(
        snaps[0], snaps[1],
        "gated recorder snapshot must not depend on the worker fan-out"
    );
}
