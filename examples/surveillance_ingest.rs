//! Surveillance-scale ingestion: a two-minute PathTrack-style feed is
//! processed with half-overlapping windows, comparing the exact baseline
//! with TMerge (CPU and batched) as the metadata pre-processing step —
//! the large-video-repository scenario that motivates the paper (§I).
//!
//! ```sh
//! cargo run --release --example surveillance_ingest
//! ```

use tmerge::prelude::*;

fn main() {
    // One PathTrack-like video: 3600 frames, a large cast, pillars, glare.
    let spec = &pathtrack().videos[0];
    let video = prepare(spec, TrackerKind::Tracktor);
    println!(
        "{}: {} frames, {} tracks, {} boxes from the tracker",
        video.name,
        video.n_frames,
        video.tracks.len(),
        video.tracks.total_boxes()
    );

    let truth = {
        let tracks: Vec<&Track> = video.tracks.iter().collect();
        video.correspondence.all_polyonymous(&tracks)
    };
    println!("ground truth: {} polyonymous pairs", truth.len());

    let model = video.model();
    let run = |name: &str, selector: SelectorKind, device: Device| {
        let config = PipelineConfig {
            window_len: 2000, // L = 2·L_max (PathTrack's L_max is 1000)
            k: 0.05,
            selector,
            device,
            cost: CostModel::calibrated(),
            gate: tm_reid::GatePolicy::Off,
        };
        let report = run_pipeline(&video.tracks, video.n_frames, &model, &config, None)
            .expect("valid pipeline configuration");
        let rec = recall(report.candidates.iter(), &truth);
        println!(
            "{name:<14} REC {rec:.3}  runtime {:>8.1}s (simulated)  FPS {:>8.2}  \
             ReID inferences {:>7}  distances {:>9}",
            report.elapsed_ms / 1000.0,
            report.fps(video.n_frames),
            report.stats.inferences,
            report.stats.distances,
        );
        report
    };

    println!("\nper-window pair selection (K = 5%):");
    run("BL", SelectorKind::Baseline, Device::Cpu);
    run(
        "TMerge",
        SelectorKind::TMerge(TMergeConfig::default()),
        Device::Cpu,
    );
    let report = run(
        "TMerge-B(100)",
        SelectorKind::TMerge(TMergeConfig::default()),
        Device::Gpu { batch: 100 },
    );

    // What the merge does to the metadata quality.
    let gt = &video.gt_tracks;
    let before = identity_metrics(gt, &video.tracks, 0.5);
    let after = identity_metrics(gt, &report.merged, 0.5);
    println!(
        "\nmetadata quality: IDF1 {:.3} -> {:.3}, tracks {} -> {}",
        before.idf1,
        after.idf1,
        video.tracks.len(),
        report.merged.len()
    );
}
