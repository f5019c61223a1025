//! Result reporting: aligned stdout tables plus JSON files in `results/`.
//!
//! Progress and warning lines go through [`tm_obs`] log routing: without a
//! sink they fall through to stdout/stderr exactly as before; under
//! [`observed`] (or any recorder scope) they are captured and replayable,
//! so tests and batch drivers can silence or inspect them.

use crate::perf::{encode_json, Json};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tm_obs::{Level, Obs, Recorder};

/// Directory the experiment binaries write their JSON results to.
pub fn results_dir() -> PathBuf {
    // Walk up from the crate to the workspace root when run via cargo.
    let candidates = ["results", "../results", "../../results"];
    for c in candidates {
        if Path::new(c).is_dir() {
            return PathBuf::from(c);
        }
    }
    // Create ./results as a fallback.
    let p = PathBuf::from("results");
    let _ = fs::create_dir_all(&p);
    p
}

/// Writes an exhibit's result to `results/<name>.json` with
/// [`encode_json`].
///
/// # Panics
/// If the file cannot be written: a run that cannot save its exhibit has
/// failed.
pub fn save_json(name: &str, doc: &Json) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, encode_json(doc))
        .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    tm_obs::current().log(Level::Info, &format!("(saved {})", path.display()));
}

/// Prints a header box for an experiment.
pub fn header(title: &str) {
    tm_obs::current().log(Level::Info, &format!("\n=== {title} ==="));
}

/// Runs an experiment under a fresh per-run [`Recorder`] scope and writes
/// the deterministic metrics snapshot (plus the advisory wall-clock
/// report) to `results/<name>.metrics.txt`, next to the experiment's
/// `results/<name>.json`. Log lines captured during the run are replayed
/// to the process streams afterwards so CLI output is unchanged.
pub fn observed<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let rec = Arc::new(Recorder::new());
    let out = tm_obs::scoped(Obs::new(rec.clone()), f);
    for (level, msg) in rec.logs() {
        match level {
            Level::Info => println!("{msg}"),
            Level::Warn => eprintln!("warning: {msg}"),
        }
    }
    let mut body = rec.snapshot();
    let wall = rec.wall_report();
    if !wall.is_empty() {
        body.push_str("# wall-clock below is advisory and run-dependent\n");
        body.push_str(&wall);
    }
    let path = results_dir().join(format!("{name}.metrics.txt"));
    if let Err(e) = fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(metrics {})", path.display());
    }
    out
}

/// Prints an aligned table: a header row and data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let n = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i.min(n - 1)]))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with 2 decimals (FPS, seconds).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals (REC, rates).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.94999), "0.950");
    }

    #[test]
    fn table_does_not_panic_on_ragged_rows() {
        table(
            &["a", "b"],
            &[vec!["1".into()], vec!["1".into(), "2".into(), "3".into()]],
        );
    }
}
