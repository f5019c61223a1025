//! `tmerge-cli` — drive the full pipeline from the command line.
//!
//! ```sh
//! cargo run --release --bin tmerge-cli -- pipeline --dataset mot17 --video 0 \
//!     --tracker sort --algorithm tmerge --tau 10000 --k 0.05 --batch 10
//! cargo run --release --bin tmerge-cli -- trackers --dataset kitti
//! cargo run --release --bin tmerge-cli -- query --dataset mot17 --video 2
//! ```

use std::collections::HashMap;
use tmerge::core::build_window_pairs;
use tmerge::prelude::*;
use tmerge::query::count_query;

fn usage() -> ! {
    eprintln!(
        "tmerge-cli — track merging for video query processing

USAGE:
  tmerge-cli pipeline [--dataset D] [--video N] [--tracker T] \\
                      [--algorithm A] [--tau N] [--k F] [--batch B] [--gate G]
  tmerge-cli trackers [--dataset D] [--video N]
  tmerge-cli query    [--dataset D] [--video N] [--min-frames N]

OPTIONS:
  --dataset     mot17 | kitti | pathtrack       (default mot17)
  --video       video index within the dataset  (default 0)
  --tracker     tracktor | deepsort | sort | uma | centertrack | bytetrack | iou
                                                (default tracktor)
  --algorithm   tmerge | bl | ps | lcb          (default tmerge)
  --tau         bandit budget τ_max             (default 10000)
  --k           candidate budget K              (default 0.05)
  --batch       GPU batch size B; 0 = CPU       (default 0)
  --gate        feature gating: off | on        (default off)
  --min-frames  Count-query duration threshold  (default 200)"
    );
    std::process::exit(2)
}

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("unexpected argument `{a}`");
                usage();
            };
            let Some(value) = it.next() else {
                eprintln!("flag --{key} needs a value");
                usage();
            };
            flags.insert(key.to_string(), value.clone());
        }
        Self { flags }
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.flags.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                usage()
            }),
        }
    }
}

fn dataset(name: &str) -> tmerge::datasets::DatasetSpec {
    match name {
        "mot17" => mot17(),
        "kitti" => kitti(),
        "pathtrack" => pathtrack(),
        other => {
            eprintln!("unknown dataset `{other}`");
            usage()
        }
    }
}

fn tracker(name: &str) -> TrackerKind {
    match name {
        "tracktor" => TrackerKind::Tracktor,
        "deepsort" => TrackerKind::DeepSort,
        "sort" => TrackerKind::Sort,
        "uma" => TrackerKind::Uma,
        "centertrack" => TrackerKind::CenterTrack,
        "bytetrack" => TrackerKind::ByteTrack,
        "iou" => TrackerKind::Iou,
        other => {
            eprintln!("unknown tracker `{other}`");
            usage()
        }
    }
}

fn load_video(args: &Args) -> (tmerge::datasets::PreparedVideo, u64) {
    let spec = dataset(&args.str("dataset", "mot17"));
    let idx: usize = args.num("video", 0);
    let Some(video_spec) = spec.videos.get(idx) else {
        eprintln!("dataset {} has {} videos", spec.name, spec.videos.len());
        usage()
    };
    let kind = tracker(&args.str("tracker", "tracktor"));
    eprintln!(
        "preparing {} with {} (simulate → detect → track)...",
        video_spec.name,
        kind.name()
    );
    (prepare(video_spec, kind), spec.window_len)
}

fn cmd_pipeline(args: &Args) {
    let (video, window_len) = load_video(args);
    let tau: u64 = args.num("tau", 10_000);
    let k: f64 = args.num("k", 0.05);
    let batch: usize = args.num("batch", 0);
    let selector = match args.str("algorithm", "tmerge").as_str() {
        "tmerge" => SelectorKind::TMerge(TMergeConfig {
            tau_max: tau,
            ..TMergeConfig::default()
        }),
        "bl" => SelectorKind::Baseline,
        "ps" => SelectorKind::Ps(PsConfig { eta: 0.05, seed: 0 }),
        "lcb" => SelectorKind::Lcb(LcbConfig {
            tau_max: tau,
            seed: 0,
            record_history: false,
        }),
        other => {
            eprintln!("unknown algorithm `{other}`");
            usage()
        }
    };
    let gate = match args.str("gate", "off").as_str() {
        "off" => GatePolicy::Off,
        "on" => GatePolicy::On(GateConfig::default()),
        other => {
            eprintln!("unknown gate mode `{other}`");
            usage()
        }
    };
    let config = PipelineConfig {
        window_len,
        k,
        selector,
        device: if batch == 0 {
            Device::Cpu
        } else {
            Device::Gpu { batch }
        },
        cost: CostModel::calibrated(),
        gate,
    };
    let model = video.model();
    let report = run_pipeline(&video.tracks, video.n_frames, &model, &config, None)
        .expect("valid configuration");
    let truth = {
        let all: Vec<&Track> = video.tracks.iter().collect();
        video.correspondence.all_polyonymous(&all)
    };
    println!(
        "video:            {} ({} frames)",
        video.name, video.n_frames
    );
    println!(
        "tracks:           {} -> {}",
        video.tracks.len(),
        report.merged.len()
    );
    println!("pairs examined:   {}", report.n_pairs);
    println!("distance evals:   {}", report.distance_evals);
    println!(
        "reid inferences:  {} ({} cache hits)",
        report.stats.inferences, report.stats.cache_hits
    );
    println!(
        "simulated time:   {:.2} s  ({:.2} FPS)",
        report.elapsed_ms / 1000.0,
        report.fps(video.n_frames)
    );
    println!("candidates:       {}", report.candidates.len());
    println!("true poly pairs:  {}", truth.len());
    println!(
        "recall:           {:.3}",
        recall(report.candidates.iter(), &truth)
    );
    let before = identity_metrics(&video.gt_tracks, &video.tracks, 0.5);
    let after = identity_metrics(&video.gt_tracks, &report.merged, 0.5);
    println!("IDF1:             {:.3} -> {:.3}", before.idf1, after.idf1);
}

fn cmd_trackers(args: &Args) {
    let spec = dataset(&args.str("dataset", "mot17"));
    let idx: usize = args.num("video", 0);
    let Some(video_spec) = spec.videos.get(idx) else {
        eprintln!("dataset {} has {} videos", spec.name, spec.videos.len());
        usage()
    };
    println!(
        "{:<12} {:>7} {:>7} {:>6} {:>8} {:>8}",
        "tracker", "tracks", "pairs", "poly", "rate", "IDF1"
    );
    for kind in TrackerKind::EXTENDED {
        let video = prepare(video_spec, kind);
        let pairs: Vec<TrackPair> =
            build_window_pairs(&video.tracks, video.n_frames, spec.window_len)
                .expect("even window length")
                .into_iter()
                .flat_map(|w| w.pairs)
                .collect();
        let truth = video.poly_truth(&pairs);
        let idf1 = identity_metrics(&video.gt_tracks, &video.tracks, 0.5).idf1;
        println!(
            "{:<12} {:>7} {:>7} {:>6} {:>7.2}% {:>8.3}",
            kind.name(),
            video.tracks.len(),
            pairs.len(),
            truth.len(),
            100.0 * polyonymous_rate(truth.len(), pairs.len()),
            idf1,
        );
    }
}

fn cmd_query(args: &Args) {
    let (video, window_len) = load_video(args);
    let min_frames: u64 = args.num("min-frames", 200);
    let model = video.model();
    let corr = &video.correspondence;
    let verifier = |p: &TrackPair| corr.is_polyonymous(p);
    let report = run_pipeline(
        &video.tracks,
        video.n_frames,
        &model,
        &PipelineConfig {
            window_len,
            ..PipelineConfig::default()
        },
        Some(&verifier),
    )
    .expect("valid configuration");
    let merged_corr = Correspondence::from_tracks(&report.merged, 0.5);
    let gt = &video.gt_tracks;
    println!("Count(> {min_frames} frames):");
    println!(
        "  ground truth: {} objects",
        count_query(gt, min_frames).len()
    );
    println!(
        "  raw tracks:   {} objects, recall {:.3}",
        count_query(&video.tracks, min_frames).len(),
        count_recall(&video.tracks, gt, min_frames, corr.as_map())
    );
    println!(
        "  with TMerge:  {} objects, recall {:.3}",
        count_query(&report.merged, min_frames).len(),
        count_recall(&report.merged, gt, min_frames, merged_corr.as_map())
    );
    println!("CoOccurrence(3 objects, > 50 frames):");
    println!(
        "  raw tracks recall:  {:.3}",
        co_occurrence_recall(&video.tracks, gt, 3, 50, corr.as_map())
    );
    println!(
        "  with TMerge recall: {:.3}",
        co_occurrence_recall(&report.merged, gt, 3, 50, merged_corr.as_map())
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage()
    };
    let args = Args::parse(rest);
    match cmd.as_str() {
        "pipeline" => cmd_pipeline(&args),
        "trackers" => cmd_trackers(&args),
        "query" => cmd_query(&args),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
