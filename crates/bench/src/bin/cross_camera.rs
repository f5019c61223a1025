//! Cross-camera resolution — global vs. per-camera identity at city scale.
//!
//! Builds deterministic multi-camera worlds (`tm_synth::MultiCameraWorld`)
//! in which shared actors dwell in a camera, exit, transit, and re-enter
//! another camera under fresh local track ids. Each world is resolved two
//! ways over identical feeds:
//!
//! * **per-camera** — a [`FleetIngester`] merges fragments within every
//!   camera (one shard per camera, lanes sharing one `BatchScheduler`),
//!   but identities stop at the viewport edge;
//! * **global** — the same fleet plus a [`GlobalMerger`] overlay that
//!   links exits to re-entries across cameras, gated by the learned
//!   [`CameraTopology`] travel-time envelopes and batching its ReID
//!   through a lane of the *same* scheduler.
//!
//! Both resolutions are scored with fleet-wide IDF1
//! (`tm_metrics::global_identity_metrics`) against a ground truth whose
//! trajectories span cameras. The binary asserts the DESIGN.md §16
//! acceptance gates on the 10-camera world — global IDF1 must exceed
//! per-camera IDF1 by ≥ 10 points, and the topology gate must admit
//! ≤ 20% of the unpruned cross-camera exit×entry pair space — prints the
//! comparison and writes:
//!
//! * `BENCH_global.json` at the repo root (schema-validated trajectory
//!   point: 10- and 100-camera cases),
//! * `results/cross_camera.metrics.txt` (deterministic recorder snapshot).
//!
//! `--quick` shrinks the large world for CI smoke use.

use tm_bench::experiments::ExpConfig;
use tm_bench::perf::{collect_meta, time_iters, BenchCase, BenchReport, CountingAlloc};
use tm_bench::report::{header, observed, table};
use tm_core::global::{compose_global_mapping, GlobalConfig, GlobalMerger};
use tm_core::{FleetIngester, StreamConfig, TMerge, TMergeConfig};
use tm_metrics::global_identity_metrics;
use tm_reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, BatchingBackend, CostModel,
    Device, InferenceBackend,
};
use tm_synth::{MultiCameraWorld, WorldConfig};
use tm_types::{TrackPair, TrackSet};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Acceptance gate: minimum global-over-per-camera IDF1 gain, in points.
const IDF1_MIN_GAIN_PTS: f64 = 10.0;
/// Acceptance gate: maximum admitted fraction of the unpruned cross-camera
/// exit×entry pair space.
const MAX_PRUNING_RATIO: f64 = 0.20;

/// The Thompson budget scales with the city: admissible cross-camera
/// pairs grow roughly linearly in cameras (topology pruning keeps the
/// quadratic blow-up out), and an unsampled arm keeps its prior score
/// and is rejected by the acceptance threshold — so the budget must
/// grow with the pair space for true links to be sampled at all.
fn selector(seed: u64, cameras: u64) -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 10_000 + 400 * cameras,
        seed,
        ..TMergeConfig::default()
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_len: 200,
        k: 0.2,
        gate: tm_reid::GatePolicy::Off,
        voi: tm_core::VoiMode::Off,
    }
}

/// Calibrated against the world's travel times (base 60 ± 30 frames): a
/// generous 150-frame prior ceiling admits every true transit while
/// pruning the long-Δt bulk of the pair space even before any envelope
/// is learned.
fn global_config() -> GlobalConfig {
    GlobalConfig {
        prior_max_dt: 150,
        ..GlobalConfig::default()
    }
}

fn world(cameras: u64) -> MultiCameraWorld {
    MultiCameraWorld::new(WorldConfig {
        cameras,
        // Actor density scales with the city: ~6 shared actors per 10
        // cameras, each visiting 5 cameras along the ring.
        actors: (cameras * 3 / 5).max(2),
        hops: 4.min(cameras.saturating_sub(1)),
        ..WorldConfig::default()
    })
}

/// One resolved city: the side-by-side scores for a camera count.
#[derive(Clone)]
struct CityRun {
    cameras: u64,
    actors: u64,
    horizon: u64,
    tracks: usize,
    transits: usize,
    idf1_per_camera: f64,
    idf1_global: f64,
    gain_pts: f64,
    pairs_total: u64,
    pairs_admitted: u64,
    pruning_ratio: f64,
    cross_links: usize,
    learned_pairs: usize,
    reid_inferences: u64,
}

fn run_city(cameras: u64, seed: u64) -> CityRun {
    let w = world(cameras);
    let horizon = w.horizon();
    let feeds = w.all_camera_tracks(horizon);
    let n_cams = feeds.len();
    let model = AppearanceModel::new(AppearanceConfig::default());

    // One scheduler; one lane per camera shard plus one for the global
    // overlay, so cross-camera inferences batch with intra-camera ones.
    let scheduler = BatchScheduler::new(&model, BatchConfig::default());
    let lanes: Vec<BatchingBackend<'_>> = (0..=n_cams).map(|_| scheduler.backend(&model)).collect();
    let backends: Vec<&dyn InferenceBackend> = lanes[..n_cams]
        .iter()
        .map(|l| l as &dyn InferenceBackend)
        .collect();

    let mut fleet = FleetIngester::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config(),
        |_| selector(seed, cameras),
        &backends,
    )
    .expect("valid fleet");
    let mut global = GlobalMerger::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(seed, cameras),
        global_config(),
    )
    .expect("valid global config")
    .with_backend(&lanes[n_cams]);

    let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, horizon)).collect();
    fleet.finish(&refs).expect("fleet finish");
    global.finish(&refs).expect("global finish");

    let shards: Vec<&[TrackPair]> = (0..n_cams).map(|i| fleet.shard(i).accepted()).collect();
    let per_mapping = compose_global_mapping(&shards, &[]);
    let full_mapping = compose_global_mapping(&shards, global.accepted());

    let gt = w.global_gt(horizon);
    let per = global_identity_metrics(&gt, &feeds, &per_mapping, 0.5);
    let glob = global_identity_metrics(&gt, &feeds, &full_mapping, 0.5);
    let (pairs_total, pairs_admitted) = global.pair_counts();
    let stats = scheduler.stats();

    CityRun {
        cameras,
        actors: w.config().actors,
        horizon,
        tracks: feeds.iter().map(|f| f.len()).sum(),
        transits: w.transits(horizon).len(),
        idf1_per_camera: per.idf1,
        idf1_global: glob.idf1,
        gain_pts: 100.0 * (glob.idf1 - per.idf1),
        pairs_total,
        pairs_admitted,
        pruning_ratio: pairs_admitted as f64 / pairs_total.max(1) as f64,
        cross_links: global.accepted().len(),
        learned_pairs: global.topology().len(),
        reid_inferences: stats.computed,
    }
}

struct CrossCamera {
    small: CityRun,
    large: CityRun,
}

fn run(cfg: &ExpConfig) -> CrossCamera {
    let small = run_city(10, cfg.seed);
    // The 100-camera city is the scaling point; --quick clips it for CI.
    let large = run_city(if cfg.quick { 24 } else { 100 }, cfg.seed);
    let obs = tm_obs::current();
    obs.counter("cross_camera.gain_pts", small.gain_pts.max(0.0) as u64);
    obs.counter(
        "cross_camera.pruning_pct",
        (100.0 * small.pruning_ratio) as u64,
    );
    CrossCamera { small, large }
}

fn main() {
    let cfg = ExpConfig::from_args();
    let r = observed("cross_camera", || run(&cfg));

    header(&format!(
        "Cross-camera resolution — {} and {} cameras, shared actors on a ring",
        r.small.cameras, r.large.cameras
    ));
    let row = |c: &CityRun| {
        vec![
            c.cameras.to_string(),
            c.actors.to_string(),
            c.tracks.to_string(),
            c.transits.to_string(),
            format!("{:.1}", 100.0 * c.idf1_per_camera),
            format!("{:.1}", 100.0 * c.idf1_global),
            format!("{:+.1}", c.gain_pts),
            format!("{}/{}", c.pairs_admitted, c.pairs_total),
            format!("{:.1}%", 100.0 * c.pruning_ratio),
            c.cross_links.to_string(),
            c.reid_inferences.to_string(),
        ]
    };
    table(
        &[
            "cams",
            "actors",
            "tracks",
            "transits",
            "IDF1/cam",
            "IDF1 glob",
            "gain",
            "admitted",
            "ratio",
            "links",
            "reid",
        ],
        &[row(&r.small), row(&r.large)],
    );
    println!(
        "learned travel profiles: {} / {}",
        r.small.learned_pairs, r.large.learned_pairs
    );

    // The §16 acceptance gates, on the 10-camera world.
    assert!(
        r.small.gain_pts >= IDF1_MIN_GAIN_PTS,
        "global IDF1 must exceed per-camera IDF1 by ≥ {IDF1_MIN_GAIN_PTS} pts, got {:+.2}",
        r.small.gain_pts
    );
    assert!(
        r.small.pruning_ratio <= MAX_PRUNING_RATIO,
        "topology gate must admit ≤ {:.0}% of the pair space, admitted {:.1}%",
        100.0 * MAX_PRUNING_RATIO,
        100.0 * r.small.pruning_ratio
    );
    // The overlay must never lose identity quality at any scale.
    assert!(
        r.large.idf1_global >= r.large.idf1_per_camera,
        "global resolution regressed IDF1 at {} cameras",
        r.large.cameras
    );

    // The trajectory point: wall-time each full city resolution. The
    // 100-camera city runs minutes per resolution, so it gets a single
    // timed iteration; the 10-camera case keeps the usual three.
    let cases = [
        (
            "city_10cams",
            10u64,
            if cfg.quick { 1 } else { 3 },
            &r.small,
        ),
        (
            "city_100cams",
            if cfg.quick { 24 } else { 100 },
            1,
            &r.large,
        ),
    ]
    .map(|(name, cams, iters, city)| {
        let alloc = CountingAlloc::snapshot();
        let t = time_iters(iters, || {
            run_city(cams, cfg.seed);
        });
        BenchCase::from_timing(
            name,
            t,
            city.horizon * city.cameras,
            city.reid_inferences,
            alloc.delta().bytes,
        )
    });
    let report = BenchReport {
        meta: collect_meta(cfg.quick),
        cases: cases.to_vec(),
    };
    println!("wrote {}", report.write("BENCH_global.json").display());
}
