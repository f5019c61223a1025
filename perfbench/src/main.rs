//! `perfbench` — the repository's layer-attributed end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <offline_pathtrack|serve_live|city_cameras>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed` (setup), checks the program's outputs,
//! measures for `--seconds`, and prints one JSON object as the last line of
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A human-readable summary goes to stderr. See
//! `README.md` for the workloads, the metrics and the layer map.

mod city;
mod offline;
mod serve;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use tm_bench::perf::CountingAlloc;
use tm_metrics::Correspondence;
use tm_query::{co_occurrence_recall, count_recall, evaluate, Query, QueryAnswer};
use tm_types::TrackSet;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics every workload reports (see README.md for the
/// per-workload definitions).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub fps: f64,
    pub sim_fps: f64,
    pub idf1: f64,
    pub pair_recall: f64,
    pub query_recall: f64,
    pub window_p50_ms: f64,
    pub window_p95_ms: f64,
    pub query_p50_ms: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks (empty when every check passed).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, timings at reference-host speed.
    pub e2e: EndToEnd,
    /// `setup_s` and `fps` unscaled (stderr only).
    pub raw: EndToEnd,
    /// Per-layer metrics (traced runs only); absent names report 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines for the stderr summary.
    pub notes: Vec<String>,
    pub speed: Speed,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }
}

/// The paper's example queries (§V-H): objects visible for more than 200
/// frames, and three objects seen together for more than 50 frames.
pub const COUNT: Query = Query::Count { min_frames: 200 };
pub const CO_OCCURRENCE: Query = Query::CoOccurrence {
    group_size: 3,
    min_frames: 50,
};

/// Timed batches behind one `query_p50_ms` sample.
pub const QUERY_BATCHES: usize = 25;

/// Count and Co-occurrence on `tracks`.
pub fn answer(tracks: &TrackSet) -> (QueryAnswer, QueryAnswer) {
    (evaluate(tracks, COUNT), evaluate(tracks, CO_OCCURRENCE))
}

/// Runs `answer_all` in [`QUERY_BATCHES`] timed batches; returns its
/// answers and the median batch time, ms.
pub fn timed_queries<A>(mut answer_all: impl FnMut() -> A) -> (A, f64) {
    let mut batches = Vec::with_capacity(QUERY_BATCHES);
    let mut answers = None;
    for _ in 0..QUERY_BATCHES {
        let t = Instant::now();
        answers = Some(std::hint::black_box(answer_all()));
        batches.push(secs(t) * 1e3);
    }
    (answers.expect("at least one batch"), median(&batches))
}

/// Mean of the Count and Co-occurrence recall of `merged` against `gt`
/// (thresholds as in [`COUNT`] and [`CO_OCCURRENCE`]).
pub fn query_recall(merged: &TrackSet, gt: &TrackSet) -> f64 {
    let attribution = Correspondence::from_tracks(merged, 0.5);
    let count = count_recall(merged, gt, 200, attribution.as_map());
    let co = co_occurrence_recall(merged, gt, 3, 50, attribution.as_map());
    (count + co) / 2.0
}

/// Per-layer metric names and units, in report order. A layer that does
/// not run on a workload reports 0 there.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("track.ms", "ms"),
    ("track.frames", "count"),
    ("track.tracks", "count"),
    ("pairs.ms", "ms"),
    ("pairs.count", "count"),
    ("gate.extract", "count"),
    ("gate.reuse", "count"),
    ("gate.defer", "count"),
    ("reid.extract_ms", "ms"),
    ("reid.inferences", "count"),
    ("reid.cache_hits", "count"),
    ("reid.hit_ratio", "ratio"),
    ("reid.distances", "count"),
    ("reid.sim_ms", "ms"),
    ("reid.batch_requests", "count"),
    ("reid.batch_computed", "count"),
    ("reid.batch_dispatches", "count"),
    ("select.ms", "ms"),
    ("select.self_ms", "ms"),
    ("select.rounds", "count"),
    ("select.pulls", "count"),
    ("select.pruned_out", "count"),
    ("select.accepted", "count"),
    ("union.ms", "ms"),
    ("query.ms", "ms"),
    ("query.calls", "count"),
    ("pipeline.ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("pipeline.windows", "count"),
    ("fleet.ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("fleet.windows", "count"),
    ("fleet.advances", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.run_once_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.shed_entries", "count"),
    ("serve.compacted_windows", "count"),
    ("serve.queue_peak", "count"),
    ("serve.late_p95_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("global.ms", "ms"),
    ("global.self_ms", "ms"),
    ("global.round_ms", "ms"),
    ("global.pairs_total", "count"),
    ("global.pairs_admitted", "count"),
    ("global.admit_ratio", "ratio"),
    ("global.links", "count"),
    ("wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("alloc_mb", "MiB"),
];

/// Layer spans whose self times partition a traced unit's wall time.
pub const SELF_TIME_SPANS: &[&str] = &[
    "track",
    "pairs",
    "reid",
    "select",
    "union",
    "query",
    "pipeline",
    "fleet",
    "serve.submit",
    "serve.run_once",
    "checkpoint.encode",
    "checkpoint.decode",
    "global",
];

/// Fills the span-derived per-layer metrics, `per` units (iterations or
/// cycles) at a time, and checks that the named layers' self times plus
/// `unattributed_ms` add up to the wall time.
pub fn layer_times(out: &mut Outcome, a: &trace::Attribution, per: f64) {
    let per_unit = |v: f64| v / per;
    let l = &mut out.layers;
    for (metric, span) in [
        ("track.ms", "track"),
        ("pairs.ms", "pairs"),
        ("reid.extract_ms", "reid"),
        ("select.ms", "select"),
        ("union.ms", "union"),
        ("query.ms", "query"),
        ("pipeline.ms", "pipeline"),
        ("fleet.ms", "fleet"),
        ("serve.submit_ms", "serve.submit"),
        ("serve.run_once_ms", "serve.run_once"),
        ("checkpoint.encode_ms", "checkpoint.encode"),
        ("checkpoint.decode_ms", "checkpoint.decode"),
        ("global.ms", "global"),
    ] {
        l.insert(metric, per_unit(a.total_ms(span)));
    }
    l.insert("select.self_ms", per_unit(a.self_ms("select")));
    l.insert("pipeline.self_ms", per_unit(a.self_ms("pipeline")));
    l.insert("fleet.self_ms", per_unit(a.self_ms("fleet")));
    l.insert(
        "serve.self_ms",
        per_unit(a.self_ms("serve.submit") + a.self_ms("serve.run_once")),
    );
    l.insert("global.self_ms", per_unit(a.self_ms("global")));
    let wall = a.wall as f64 / 1e6;
    let unattributed = a.self_ms(trace::ITER);
    l.insert("wall_ms", per_unit(wall));
    l.insert("unattributed_ms", per_unit(unattributed));
    let named: f64 = SELF_TIME_SPANS.iter().map(|s| a.self_ms(s)).sum();
    out.notes.push(format!(
        "attribution: named layers {named:.3} ms + unattributed {unattributed:.3} ms = {:.3} ms of {wall:.3} ms wall",
        named + unattributed
    ));
    out.check(
        (named + unattributed - wall).abs() <= 1e-6 * wall.max(1.0),
        "layer self times plus unattributed_ms do not add up to the wall time",
    );
}

/// Whether a closed-loop run starts pass `k` once `elapsed` seconds have
/// gone: passes run while another one fits in `--seconds` (at least one,
/// and in a traced run at least one untraced and one traced).
pub fn another_pass(elapsed: f64, k: usize, args: &Args) -> bool {
    let min = if args.trace { 2 } else { 1 };
    k < min || elapsed * (k + 1) as f64 / k as f64 <= args.seconds
}

/// The median over units of each index: `per_unit[k][i]` is unit `k`'s
/// sample for index `i` (a video or a round of a pass).
pub fn index_medians(per_unit: &[Vec<f64>]) -> Vec<f64> {
    let n = per_unit.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let at: Vec<f64> = per_unit.iter().filter_map(|u| u.get(i).copied()).collect();
            median(&at)
        })
        .collect()
}

/// Percentile with linear interpolation between closest ranks (0 for an
/// empty sample): for the few per-index medians of [`index_medians`], where
/// a nearest rank would jump from one index to another.
pub fn interpolated(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let x = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds a fixed CPU kernel takes. It mixes what the selection loop does
/// per round — allocate, draw and sort, hash-map churn, and 256-wide dot
/// products scattered over a table larger than the caches — and shares no
/// code with the program.
pub fn calibrate() -> f64 {
    static TABLE: OnceLock<Vec<f32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..1u32 << 20).map(|i| (i % 251) as f32 / 251.0).collect());
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0.0f64;
    for step in 0..KERNEL_STEPS {
        let mut draws: Vec<f64> = (0..64)
            .map(|_| {
                let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                (u + 1e-9).ln() * (1.0 - u).sqrt()
            })
            .collect();
        draws.sort_by(|a, b| a.total_cmp(b));
        acc += draws[0];
        for _ in 0..16 {
            *map.entry(next() % 4096).or_insert(step) += 1;
            map.remove(&(next() % 4096));
        }
        for _ in 0..4 {
            let a = next() as usize % (table.len() - 256);
            let b = next() as usize % (table.len() - 256);
            let dot: f32 = table[a..a + 256]
                .iter()
                .zip(&table[b..b + 256])
                .map(|(p, q)| p * q)
                .sum();
            acc += dot as f64;
        }
    }
    std::hint::black_box((acc, map.len()));
    secs(t)
}

/// Steps of the calibration kernel (about 8 ms on the reference host).
const KERNEL_STEPS: u64 = 2_000;

/// The calibration kernel's time on the reference host, seconds.
const REFERENCE_KERNEL_S: f64 = 0.0075;

/// Host speed during a run. Co-tenants of a shared host slow every timing
/// alike, in phases that last seconds; each measured unit (a setup, a
/// video, a round, a serve cycle) is therefore timed between two kernel
/// samples, and its wall time scaled by reference kernel time over the
/// mean of the two, so units timed at different moments compare.
#[derive(Debug, Default)]
pub struct Speed {
    pub samples: Vec<f64>,
}

impl Speed {
    /// Times the kernel once; returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let s = calibrate();
        self.samples.push(s);
        s
    }

    /// Factor taking a wall time measured between kernel samples `before`
    /// and `after` to reference-host time.
    pub fn factor(before: f64, after: f64) -> f64 {
        REFERENCE_KERNEL_S / ((before + after) / 2.0)
    }
}

/// Runs `f`, between two kernel samples when `speed` is given; returns its
/// result, its raw wall seconds, and the factor taking them to
/// reference-host time (1 without `speed`).
pub fn measure<R>(speed: Option<&mut Speed>, f: impl FnOnce() -> R) -> (R, f64, f64) {
    match speed {
        Some(speed) => {
            let before = speed.sample();
            let t = Instant::now();
            let r = f();
            let raw = secs(t);
            let after = speed.sample();
            (r, raw, Speed::factor(before, after))
        }
        None => {
            let t = Instant::now();
            let r = f();
            (r, secs(t), 1.0)
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over 64-bit words: the output digests compared across passes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn pairs(&mut self, pairs: &[tm_types::TrackPair]) {
        self.word(pairs.len() as u64);
        for p in pairs {
            self.word(p.lo().get());
            self.word(p.hi().get());
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

/// Mixes a workload seed into a derived 64-bit seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine's thread-cap variable (see `tm_par`).
const THREADS_ENV: &str = "TMERGE_THREADS";

/// Runs `f` with the engine's fan-out capped at `threads`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var(THREADS_ENV, threads.to_string());
    let out = f();
    std::env::set_var(THREADS_ENV, "1");
    out
}

/// Peak resident memory of the process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Bytes allocated so far by the process.
pub fn alloc_bytes() -> u64 {
    CountingAlloc::snapshot().bytes
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces and output digests are written (ignored by git).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A digest of the program's and the benchmark's sources, so stored output
/// digests are only compared between runs of the same code.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = bench_dir().join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("stubs"), &mut files);
    walk(&bench_dir().join("src"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    d.0
}

/// Compares `digest` with the one an earlier run of the same code, workload,
/// seed and length stored, then stores it.
fn check_across_runs(out: &mut Outcome, args: &Args, digest: u64) {
    let key = format!(
        "digest-{}-{}-{}-{:016x}.txt",
        args.workload,
        args.seed,
        args.seconds,
        source_digest()
    );
    let path = out_dir().join(key);
    let text = format!("{digest:016x}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) => out.check(
            prev == text,
            format!(
                "output digest {digest:016x} differs from an earlier run's {}",
                prev.trim()
            ),
        ),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            let stored = std::fs::create_dir_all(out_dir())
                .and_then(|_| std::fs::write(&tmp, &text))
                .and_then(|_| std::fs::rename(&tmp, &path));
            if let Err(e) = stored {
                out.notes
                    .push(format!("could not store the output digest: {e}"));
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Measured passes run serially: layer spans then nest on one timeline
    // and add up to the wall time. Checks also run a pass at 2 threads.
    std::env::set_var(THREADS_ENV, "1");
    let run: fn(&Args) -> (Outcome, u64) = match args.workload.as_str() {
        "offline_pathtrack" => offline::run,
        "serve_live" => serve::run,
        "city_cameras" => city::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let (mut out, digest) = run(&args);
    check_across_runs(&mut out, &args, digest);
    out.check(out.attempted > 0, "no operation was attempted");

    let ok_ratio = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let rss = peak_rss_mb();
    out.check(rss.is_some(), "peak RSS is unavailable (/proc/self/status)");
    let (e, raw) = (out.e2e, out.raw);
    out.notes.push(format!(
        "host speed: kernel p50 {:.3} ms over {} samples (reference {:.3} ms); unscaled setup_s {:.4}, fps {:.4}",
        median(&out.speed.samples) * 1e3,
        out.speed.samples.len(),
        REFERENCE_KERNEL_S * 1e3,
        raw.setup_s,
        raw.fps,
    ));
    let e2e: [(&str, f64, &str); 11] = [
        ("setup_s", e.setup_s, "s"),
        ("fps", e.fps, "frames/s"),
        ("sim_fps", e.sim_fps, "frames/s"),
        ("idf1", e.idf1, "ratio"),
        ("pair_recall", e.pair_recall, "ratio"),
        ("query_recall", e.query_recall, "ratio"),
        ("window_p50_ms", e.window_p50_ms, "ms"),
        ("window_p95_ms", e.window_p95_ms, "ms"),
        ("query_p50_ms", e.query_p50_ms, "ms"),
        ("peak_rss_mb", rss.unwrap_or(0.0), "MiB"),
        ("ok_ratio", ok_ratio, "ratio"),
    ];

    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, v, unit) in e2e {
        eprintln!("  {name:<16} {v:>14.4} {unit}");
    }
    eprintln!(
        "  fail_ratio       {:>14.4} ({} failed of {} attempted)",
        1.0 - ok_ratio,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    if args.trace {
        for (name, unit) in LAYER_METRICS {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<24} {v:>14.4} {unit}");
        }
    }
    for p in &out.problems {
        eprintln!("  CHECK FAILED: {p}");
    }

    let metrics: Vec<String> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                let v = out.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        e2e.iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
