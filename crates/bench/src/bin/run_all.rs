//! Regenerates the paper's exhibits: `run_all [--quick] [NAME…]` runs every
//! exhibit of `tm_bench::experiments::EXHIBITS` (or only the named ones)
//! and writes `results/<name>.json` plus `results/<name>.metrics.txt` for
//! each. `render_experiments` then turns the JSON into EXPERIMENTS.md.
//!
//! Exhibits fan out over worker threads (`TMERGE_THREADS`, see `tm_par`),
//! so the `[name done in ...]` lines may interleave, but every results file
//! is byte-identical to a serial run (all aggregation inside the
//! experiments is index-ordered and the simulated clocks are
//! per-video/per-window, never wall-clock).

use std::time::Instant;
use tm_bench::experiments::{ExpConfig, Experiment, EXHIBITS};
use tm_bench::report::{header, observed, save_json};

fn main() {
    let cfg = ExpConfig::from_args();
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let exhibits: Vec<(&str, Experiment)> = if names.is_empty() {
        EXHIBITS.to_vec()
    } else {
        names
            .iter()
            .map(|name| {
                *EXHIBITS.iter().find(|(n, _)| n == name).unwrap_or_else(|| {
                    let valid: Vec<&str> = EXHIBITS.iter().map(|(n, _)| *n).collect();
                    eprintln!("unknown exhibit {name:?}; valid names: {}", valid.join(" "));
                    std::process::exit(2)
                })
            })
            .collect()
    };
    header(&format!(
        "Running {} exhibit(s) ({} scale)",
        exhibits.len(),
        if cfg.quick { "quick" } else { "full" }
    ));
    let t_all = Instant::now();
    tm_par::par_for_each(&exhibits, |&(name, experiment)| {
        let t0 = Instant::now();
        observed(name, || save_json(name, &experiment(&cfg)));
        println!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
    });
    println!(
        "\nAll exhibits complete in {:.1}s; JSON in results/.",
        t_all.elapsed().as_secs_f64()
    );
    println!(
        "Render EXPERIMENTS.md with: cargo run --release -p tm-bench --bin render_experiments"
    );
}
