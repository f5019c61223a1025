//! Parallel-vs-serial determinism: the experiment engine must produce
//! bit-identical outcomes for any `TMERGE_THREADS` value. Every fan-out in
//! the harness collects into index-ordered buffers and folds in the serial
//! order, and the simulated clocks are per-video — so one worker thread and
//! many must render to the same bytes. Outcomes are compared through their
//! `Debug` rendering: `f64`'s `Debug` round-trips, so equal strings mean
//! equal bits.
//!
//! The tests run real (quick-scale) experiments, so they are release-only,
//! matching the other heavy integration tests in this crate.

use std::sync::Mutex;
use tm_bench::experiments::{sweep, ExpConfig};
use tm_bench::harness::{run_selector, DatasetRun};
use tm_core::{Baseline, CandidateSelector, TMerge, TMergeConfig};
use tm_datasets::mot17;
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

/// Serializes `TMERGE_THREADS` mutation across tests: concurrent
/// `set_var`/`var` from different test threads races in libc.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per thread-count setting and returns the `Debug`
/// rendering of each result.
fn debug_per_thread_count<T: std::fmt::Debug>(f: impl Fn() -> T) -> Vec<String> {
    let _guard = ENV_LOCK.lock().unwrap();
    let renders = ["1", "4"]
        .iter()
        .map(|n| {
            std::env::set_var("TMERGE_THREADS", n);
            format!("{:?}", f())
        })
        .collect();
    std::env::remove_var("TMERGE_THREADS");
    renders
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn run_selector_is_bit_identical_across_thread_counts() {
    let cfg = ExpConfig::quick();
    let spec = cfg.limit(mot17(), 2);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let cost = CostModel::calibrated();
    let renders = debug_per_thread_count(|| {
        let tm = TMerge::new(TMergeConfig {
            tau_max: 2_000,
            seed: cfg.seed,
            ..TMergeConfig::default()
        });
        [
            run_selector(&ds.runs, &Baseline, sweep::K, cost, Device::Cpu),
            run_selector(&ds.runs, &tm, sweep::K, cost, Device::Gpu { batch: 10 }),
        ]
    });
    assert_eq!(
        renders[0], renders[1],
        "per-video fan-out must not change the aggregate outcome"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn sweep_is_bit_identical_across_thread_counts() {
    let cfg = ExpConfig {
        trials: 2, // exercise the trial fan-out inside averaged_outcome
        ..ExpConfig::quick()
    };
    let spec = cfg.limit(mot17(), 2);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let cost = CostModel::calibrated();
    let renders = debug_per_thread_count(|| {
        sweep::averaged_outcome(&ds, cost, Device::Cpu, cfg.trials, cfg.seed, &|seed| {
            Box::new(TMerge::new(TMergeConfig {
                tau_max: 2_000,
                seed,
                ..TMergeConfig::default()
            })) as Box<dyn CandidateSelector>
        })
    });
    assert_eq!(
        renders[0], renders[1],
        "trial fan-out must not change the averaged outcome"
    );
}
