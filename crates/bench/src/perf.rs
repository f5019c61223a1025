//! The perf-trajectory harness: schema, measurement and validation for the
//! `BENCH_*.json` files the bench binaries write at the repo root, and the
//! crates' one JSON codec.
//!
//! Those files are the repo's persistent performance record: each run
//! appends a point to the trajectory (kernels / cache / ingest / gating /
//! global / query), tagged with the git SHA, thread count and SIMD dispatch
//! that produced it, so a regression shows up as a diff.
//!
//! The JSON codec is a value type ([`Json`]), a strict parser
//! ([`parse_json`]), a pretty encoder ([`encode_json`]) and [`ToJson`] for
//! the types written as JSON: the trajectory schema here and the paper
//! exhibits' results (`tm_bench::experiments`). A report is re-read before
//! the binary overwrites the previous trajectory point.
//!
//! Also here: the counting global allocator the allocation audit and the
//! bench binaries install ([`CountingAlloc`]) and the SIMD speedup gate
//! ([`speedup`], asserted ≥ 1.5× for the dot kernel on AVX2 hosts).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version stamp written into every report; bump on schema changes.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` shim over the system allocator that counts
/// every allocation (calls and bytes; `realloc` counts the new size).
/// Deallocation is uncounted — the audits care about allocation pressure,
/// not live bytes.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total bytes requested since process start.
    pub bytes: u64,
    /// Total allocation calls since process start.
    pub calls: u64,
}

impl CountingAlloc {
    /// Current counter values. Meaningful only in binaries that install
    /// `CountingAlloc` as the global allocator; elsewhere both stay 0.
    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            calls: ALLOC_CALLS.load(Ordering::Relaxed),
        }
    }
}

impl AllocSnapshot {
    /// Counter growth since `self` was taken.
    pub fn delta(&self) -> AllocSnapshot {
        let now = CountingAlloc::snapshot();
        AllocSnapshot {
            bytes: now.bytes - self.bytes,
            calls: now.calls - self.calls,
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Wall-clock percentiles over repeated runs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Measured iterations (after 2 warm-up runs).
    pub iters: u64,
    /// Median per-iteration wall time.
    pub p50_ns: u64,
    /// 99th-percentile per-iteration wall time (nearest-rank).
    pub p99_ns: u64,
}

/// Runs `f` twice to warm caches/pools, then `iters` timed iterations.
pub fn time_iters(iters: usize, mut f: impl FnMut()) -> Timing {
    assert!(iters >= 1, "need at least one timed iteration");
    f();
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Timing {
        iters: iters as u64,
        p50_ns: percentile(&samples, 50.0),
        p99_ns: percentile(&samples, 99.0),
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The speedup of `fast` over `base` by median wall time.
pub fn speedup(base: Timing, fast: Timing) -> f64 {
    base.p50_ns as f64 / fast.p50_ns.max(1) as f64
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

/// One benchmark case of a trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Unique case name within the file.
    pub name: String,
    /// Timed iterations behind the percentiles.
    pub iters: u64,
    /// Median per-iteration wall time.
    pub wall_ns_p50: u64,
    /// 99th-percentile per-iteration wall time.
    pub wall_ns_p99: u64,
    /// Workload items per second at the median (items are case-defined:
    /// dot products, cache lookups, ingested frames…).
    pub throughput_items_per_s: f64,
    /// Simulated ReID inferences the case performed (0 for pure kernels).
    pub inferences: u64,
    /// Heap bytes allocated during [`time_iters`], its two warm-up runs
    /// included (counted by [`CountingAlloc`]; 0 when the binary did not
    /// install it).
    pub bytes_allocated: u64,
}

impl BenchCase {
    /// Builds a case from a [`Timing`] plus workload-level counters.
    pub fn from_timing(
        name: &str,
        t: Timing,
        items_per_iter: u64,
        inferences: u64,
        bytes_allocated: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            iters: t.iters,
            wall_ns_p50: t.p50_ns,
            wall_ns_p99: t.p99_ns,
            throughput_items_per_s: items_per_iter as f64 * 1e9 / t.p50_ns.max(1) as f64,
            inferences,
            bytes_allocated,
        }
    }
}

/// Environment stamp of a trajectory point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeta {
    /// `git rev-parse --short HEAD`, with `-dirty` appended when the
    /// measured tree differed from it (see [`tree_is_dirty`]), or
    /// `"unknown"` outside a work tree.
    pub git_sha: String,
    /// `tm_par::max_threads()` at measurement time.
    pub threads: u64,
    /// Runtime-detected CPU features relevant to the kernels (`avx512f`
    /// and `avx512dq` say which build of the Thompson draws' products ran,
    /// unless `TMERGE_SIMD=0` forced the portable one).
    pub cpu: Vec<String>,
    /// Active kernel dispatch: `"avx2+fma"` or `"scalar-fallback"`.
    pub simd: String,
    /// Whether the run used `--quick` (reduced iteration counts).
    pub quick: bool,
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Environment stamp.
    pub meta: BenchMeta,
    /// The suite's cases.
    pub cases: Vec<BenchCase>,
}

/// Collects the environment stamp for this process.
pub fn collect_meta(quick: bool) -> BenchMeta {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let head = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let git_sha = match head {
        None => "unknown".to_string(),
        Some(sha) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(status) if tree_is_dirty(&status) => format!("{sha}-dirty"),
            _ => sha,
        },
    };
    let mut cpu = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (flag, present) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512dq", std::arch::is_x86_feature_detected!("avx512dq")),
        ] {
            if present {
                cpu.push(flag.to_string());
            }
        }
    }
    BenchMeta {
        git_sha,
        threads: tm_par::max_threads() as u64,
        cpu,
        simd: tm_types::simd::dispatch_name().to_string(),
        quick,
    }
}

/// Whether `git status --porcelain` output names a tracked file that
/// differs from HEAD, other than the files a measurement itself writes:
/// `BENCH_*.json` at the root and anything under `results/`. Untracked
/// (`??`) and ignored (`!!`) entries do not count; a rename counts unless
/// both of its paths are measurement outputs.
pub fn tree_is_dirty(porcelain: &str) -> bool {
    porcelain
        .lines()
        .filter(|l| l.len() > 3 && !l.starts_with("??") && !l.starts_with("!!"))
        .flat_map(|l| l[3..].split(" -> "))
        .any(|path| {
            let path = path.trim_matches('"');
            let bench_file =
                path.starts_with("BENCH_") && path.ends_with(".json") && !path.contains('/');
            !(bench_file || path.starts_with("results/"))
        })
}

/// The repository root (nearest ancestor of the current directory holding
/// `ROADMAP.md`), where the trajectory files live. Falls back to the
/// current directory so the binary still runs from exotic cwds.
pub fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ROADMAP.md").is_file() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Values written as JSON: the trajectory schema below and the paper
/// exhibits' results (`tm_bench::experiments`).
pub trait ToJson {
    /// The value as a JSON document.
    fn to_json(&self) -> Json;
}

macro_rules! number_to_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}
number_to_json!(f64, u64, usize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// A map is an object with its keys in order.
impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

/// Implements [`ToJson`] for structs as objects of their named fields, in
/// the order listed (declaration order). The pattern that binds the fields
/// names every one of them, so leaving a field out does not compile.
macro_rules! impl_to_json {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::perf::ToJson for $ty {
            fn to_json(&self) -> $crate::perf::Json {
                let $ty { $($field),+ } = self;
                $crate::perf::Json::Obj(vec![$(
                    (stringify!($field).to_string(), $crate::perf::ToJson::to_json($field)),
                )+])
            }
        }
    )+};
}
pub(crate) use impl_to_json;

impl_to_json! {
    BenchMeta { git_sha, threads, cpu, simd, quick }
    BenchCase {
        name,
        iters,
        wall_ns_p50,
        wall_ns_p99,
        throughput_items_per_s,
        inferences,
        bytes_allocated,
    }
}

impl BenchReport {
    /// Serializes the report with [`encode_json`]; floats keep their
    /// shortest round-trip form, so `decode(encode(r)) == r` exactly.
    pub fn encode(&self) -> String {
        encode_json(&Json::Obj(vec![
            ("schema_version".into(), SCHEMA_VERSION.to_json()),
            ("meta".into(), self.meta.to_json()),
            ("cases".into(), self.cases.to_json()),
        ]))
    }

    /// Validates the report, checks that it decodes back to itself, and
    /// only then writes it to `file` at the [`repo_root`], so a bad report
    /// never replaces the previous trajectory point. Returns the path.
    ///
    /// # Panics
    /// If the report is invalid, does not round-trip or cannot be written.
    pub fn write(&self, file: &str) -> PathBuf {
        self.validate()
            .unwrap_or_else(|e| panic!("{file}: invalid report: {e}"));
        let text = self.encode();
        let back = BenchReport::decode(&text)
            .unwrap_or_else(|e| panic!("{file}: self round-trip failed: {e}"));
        assert_eq!(&back, self, "{file}: decode(encode) drifted");
        let path = repo_root().join(file);
        std::fs::write(&path, &text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        path
    }

    /// Parses a document produced by [`BenchReport::encode`] (or an edited
    /// descendant — any field order, whitespace and escapes accepted).
    pub fn decode(text: &str) -> Result<Self, String> {
        let root = parse_json(text)?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!("unsupported schema_version {version}"));
        }
        let meta = root.get("meta").ok_or("missing meta")?;
        let meta = BenchMeta {
            git_sha: meta
                .get("git_sha")
                .and_then(Json::as_str)
                .ok_or("meta.git_sha missing")?
                .to_string(),
            threads: meta
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("meta.threads missing")?,
            cpu: meta
                .get("cpu")
                .and_then(Json::as_arr)
                .ok_or("meta.cpu missing")?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or("meta.cpu entry not a string")
                })
                .collect::<Result<_, _>>()?,
            simd: meta
                .get("simd")
                .and_then(Json::as_str)
                .ok_or("meta.simd missing")?
                .to_string(),
            quick: meta
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("meta.quick missing")?,
        };
        let cases = root
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("missing cases")?
            .iter()
            .map(|c| {
                let field = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("case field {k} missing"))
                };
                Ok(BenchCase {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("case name missing")?
                        .to_string(),
                    iters: field("iters")?,
                    wall_ns_p50: field("wall_ns_p50")?,
                    wall_ns_p99: field("wall_ns_p99")?,
                    throughput_items_per_s: c
                        .get("throughput_items_per_s")
                        .and_then(Json::as_f64)
                        .ok_or("case throughput missing")?,
                    inferences: field("inferences")?,
                    bytes_allocated: field("bytes_allocated")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport { meta, cases })
    }

    /// Structural checks run before every write (and by the CI smoke job
    /// after): non-empty unique case names, sane percentiles, finite
    /// positive throughputs, a recognized dispatch string.
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.git_sha.is_empty() {
            return Err("meta.git_sha empty".into());
        }
        if self.meta.threads == 0 {
            return Err("meta.threads must be >= 1".into());
        }
        if self.meta.simd != "avx2+fma" && self.meta.simd != "scalar-fallback" {
            return Err(format!("unknown meta.simd {:?}", self.meta.simd));
        }
        if self.cases.is_empty() {
            return Err("no cases".into());
        }
        let mut names = std::collections::HashSet::new();
        for c in &self.cases {
            if c.name.is_empty() {
                return Err("case with empty name".into());
            }
            if !names.insert(c.name.as_str()) {
                return Err(format!("duplicate case name {:?}", c.name));
            }
            if c.iters == 0 {
                return Err(format!("{}: iters must be >= 1", c.name));
            }
            if c.wall_ns_p50 > c.wall_ns_p99 {
                return Err(format!("{}: p50 > p99", c.name));
            }
            if !c.throughput_items_per_s.is_finite() || c.throughput_items_per_s <= 0.0 {
                return Err(format!("{}: throughput must be finite and > 0", c.name));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A JSON value. Numbers are `f64`: anything `f64::from_str` accepts
/// parses, and [`encode_json`] writes each one back to the same bits.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (the schema's integers stay exact below 2⁵³, far beyond
    /// any counter here).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered pairs; duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Encodes a document in the pretty layout of the seed's results files:
/// two-space indentation, one array element or object field per line,
/// fields in order, `[]` and `{}` when empty, and `null` for a non-finite
/// number. Ends with a newline. [`parse_json`] reads the text back to an
/// equal value.
pub fn encode_json(v: &Json) -> String {
    let mut out = String::new();
    write_json(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_json(out: &mut String, v: &Json, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Integers print without a fraction; every other float in the
        // shortest form that parses back to the same bits.
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => {
            write!(out, "{n}").expect("writing to a String")
        }
        Json::Num(n) => write!(out, "{n:?}").expect("writing to a String"),
        Json::Str(s) => push_json_str(out, s),
        Json::Arr(items) => write_seq(out, ['[', ']'], items, depth, |out, item| {
            write_json(out, item, depth + 1)
        }),
        Json::Obj(fields) => write_seq(out, ['{', '}'], fields, depth, |out, (k, v)| {
            push_json_str(out, k);
            out.push_str(": ");
            write_json(out, v, depth + 1);
        }),
    }
}

/// Writes `items` between `brackets`, one per line at `depth + 1`.
fn write_seq<T>(
    out: &mut String,
    brackets: [char; 2],
    items: &[T],
    depth: usize,
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(brackets[0]);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets[1]);
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.eat_lit("true", Json::Bool(true)),
            b'f' => self.eat_lit("false", Json::Bool(false)),
            b'n' => self.eat_lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if !pairs.iter().any(|(k, _)| *k == key) {
                pairs.push((key, val));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                            self.pos += 4;
                        }
                        b => return Err(format!("bad escape \\{}", b as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (tokens outside strings are
                    // ASCII, so `pos` is on a char boundary).
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            meta: BenchMeta {
                git_sha: "abc1234".into(),
                threads: 3,
                cpu: vec!["avx2".into(), "fma".into()],
                simd: "avx2+fma".into(),
                quick: true,
            },
            cases: vec![
                BenchCase {
                    name: "dot_simd_d256".into(),
                    iters: 30,
                    wall_ns_p50: 12_345,
                    wall_ns_p99: 45_678,
                    throughput_items_per_s: 8.25e7,
                    inferences: 0,
                    bytes_allocated: 0,
                },
                BenchCase {
                    name: "ingest_window".into(),
                    iters: 5,
                    wall_ns_p50: 1_000_000,
                    wall_ns_p99: 1_500_000,
                    throughput_items_per_s: 700.0000000001,
                    inferences: 1_234,
                    bytes_allocated: 987_654,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = sample_report();
        r.validate().unwrap();
        let text = r.encode();
        let back = BenchReport::decode(&text).unwrap();
        assert_eq!(back, r);
        // And a second generation is byte-stable.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn decode_accepts_reordered_fields_and_escapes() {
        let text = r#"{
            "cases": [{"bytes_allocated": 1, "inferences": 2, "iters": 3,
                       "wall_ns_p99": 9, "wall_ns_p50": 4,
                       "throughput_items_per_s": 1.5e3,
                       "name": "weird \"name\"A"}],
            "meta": {"quick": false, "simd": "scalar-fallback",
                     "cpu": [], "threads": 1, "git_sha": "deadbee"},
            "schema_version": 1
        }"#;
        let r = BenchReport::decode(text).unwrap();
        assert_eq!(r.cases[0].name, "weird \"name\"A");
        assert_eq!(r.cases[0].throughput_items_per_s, 1500.0);
        assert_eq!(r.meta.simd, "scalar-fallback");
        r.validate().unwrap();
    }

    #[test]
    fn validator_rejects_bad_documents() {
        let good = sample_report();
        let mut dup = good.clone();
        dup.cases.push(dup.cases[0].clone());
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut inverted = good.clone();
        inverted.cases[0].wall_ns_p50 = inverted.cases[0].wall_ns_p99 + 1;
        assert!(inverted.validate().unwrap_err().contains("p50"));

        let mut nan = good.clone();
        nan.cases[0].throughput_items_per_s = f64::NAN;
        assert!(nan.validate().unwrap_err().contains("finite"));

        let mut weird_simd = good.clone();
        weird_simd.meta.simd = "avx512".into();
        assert!(weird_simd.validate().unwrap_err().contains("simd"));

        let mut empty = good.clone();
        empty.cases.clear();
        assert!(empty.validate().is_err());
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(BenchReport::decode("").is_err());
        assert!(BenchReport::decode("{}").is_err());
        assert!(BenchReport::decode("{\"schema_version\": 99}").is_err());
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        let doc = Json::Arr(
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.5]
                .map(Json::Num)
                .to_vec(),
        );
        assert_eq!(
            encode_json(&doc),
            "[\n  null,\n  null,\n  null,\n  -2.5\n]\n"
        );
    }

    #[test]
    fn encoder_layout_matches_the_seed_files() {
        let doc = Json::Obj(vec![
            ("n".into(), Json::Num(595.0)),
            (
                "points".into(),
                Json::Arr(vec![Json::Arr(vec![Json::Num(0.005), Json::Num(1.0)])]),
            ),
            ("empty".into(), Json::Obj(vec![])),
            ("none".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            encode_json(&doc),
            "{\n  \"n\": 595,\n  \"points\": [\n    [\n      0.005,\n      1\n    ]\n  ],\n  \
             \"empty\": {},\n  \"none\": []\n}\n"
        );
    }

    #[test]
    fn tree_is_dirty_ignores_only_measurement_outputs() {
        assert!(!tree_is_dirty(""));
        assert!(!tree_is_dirty(
            " M BENCH_query.json\nM  results/fig03_rec_k.json\n?? notes.txt\n"
        ));
        assert!(!tree_is_dirty("R  results/a.json -> results/b.json\n"));
        assert!(tree_is_dirty(" M crates/bench/src/perf.rs\n"));
        assert!(tree_is_dirty(" M BENCH_gating.json\n D README.md\n"));
        assert!(tree_is_dirty("R  BENCH_x.json -> src/lib.rs\n"));
        // Only root-level BENCH files are measurement outputs.
        assert!(tree_is_dirty(" M perfbench/BENCH_x.json\n"));
        assert!(tree_is_dirty("MM \"results dir/odd name.rs\"\n"));
    }

    fn text() -> impl Strategy<Value = String> {
        let chars = vec![
            'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{1f}',
            '\u{7f}', 'é', 'ß', '日', '🎉',
        ];
        proptest::collection::vec(proptest::sample::select(chars), 0..10)
            .prop_map(|cs| cs.into_iter().collect())
    }

    /// Every finite `f64` (random bit patterns reach each sign, exponent
    /// and subnormal), or an integer.
    fn number() -> BoxedStrategy<f64> {
        proptest::sample::select(vec![false, true])
            .prop_flat_map(|integral| {
                if integral {
                    (-1_000_000_000_000i64..1_000_000_000_000)
                        .prop_map(|i| i as f64)
                        .boxed()
                } else {
                    any::<u64>()
                        .prop_map(f64::from_bits)
                        .prop_filter("finite", |x| x.is_finite())
                        .boxed()
                }
            })
            .boxed()
    }

    /// Documents up to `depth` levels of arrays and objects deep.
    fn json(depth: u32) -> BoxedStrategy<Json> {
        let kinds: Vec<u8> = (0..if depth == 0 { 4 } else { 6 }).collect();
        proptest::sample::select(kinds)
            .prop_flat_map(move |kind| match kind {
                0 => Just(Json::Null).boxed(),
                1 => any::<bool>().prop_map(Json::Bool).boxed(),
                2 => number().prop_map(Json::Num).boxed(),
                3 => text().prop_map(Json::Str).boxed(),
                4 => proptest::collection::vec(json(depth - 1), 0..4)
                    .prop_map(Json::Arr)
                    .boxed(),
                _ => proptest::collection::vec((text(), json(depth - 1)), 0..4)
                    .prop_map(|fields| {
                        // The parser keeps the first of duplicate keys.
                        let mut seen = std::collections::BTreeSet::new();
                        Json::Obj(
                            fields
                                .into_iter()
                                .filter(|(k, _)| seen.insert(k.clone()))
                                .collect(),
                        )
                    })
                    .boxed(),
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn encode_then_parse_is_the_identity(doc in json(3)) {
            prop_assert_eq!(parse_json(&encode_json(&doc)), Ok(doc));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn timing_and_case_shapes() {
        let t = time_iters(5, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(t.iters, 5);
        assert!(t.p50_ns <= t.p99_ns);
        let c = BenchCase::from_timing("x", t, 1_000, 2, 3);
        assert_eq!(c.inferences, 2);
        assert_eq!(c.bytes_allocated, 3);
        assert!(c.throughput_items_per_s > 0.0);
        assert!(speedup(t, t) > 0.99 && speedup(t, t) < 1.01 || t.p50_ns == 0);
    }
}
