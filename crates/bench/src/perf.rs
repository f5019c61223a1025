//! The perf-trajectory harness: schema, measurement and validation for the
//! `BENCH_*.json` files the `perf_trajectory` binary writes at the repo
//! root.
//!
//! Those files are the repo's persistent performance record: each run
//! appends a point to the trajectory (kernels / cache / ingest), tagged
//! with the git SHA, thread count and SIMD dispatch that produced it, so a
//! regression shows up as a diff. The offline `serde_json` stub cannot
//! serialize real values, so this module hand-rolls the tiny JSON dialect
//! the schema needs (objects, arrays, strings, finite numbers, bools) —
//! **both** directions, so the files round-trip and the validator can
//! re-read what the binary is about to write *before* it overwrites the
//! previous trajectory point.
//!
//! Also here: the counting global allocator the allocation audit and the
//! bench binary install ([`CountingAlloc`]) and the SIMD speedup gate
//! ([`speedup`], asserted ≥ 1.5× for the dot kernel on AVX2 hosts).

use std::alloc::{GlobalAlloc, Layout, System};
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
    /// Heap bytes allocated during the timed iterations (counted by
    /// [`CountingAlloc`]; 0 when the binary did not install it).
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
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
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
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
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

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl BenchReport {
    /// Serializes the report. Rust's `{}` float formatting is
    /// shortest-round-trip, so `decode(encode(r)) == r` exactly.
    ///
    /// # Panics
    /// If a throughput value is non-finite (the validator rejects those
    /// first on every write path).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(256 + self.cases.len() * 160);
        s.push_str("{\n  \"schema_version\": ");
        s.push_str(&SCHEMA_VERSION.to_string());
        s.push_str(",\n  \"meta\": {\n    \"git_sha\": ");
        push_json_str(&mut s, &self.meta.git_sha);
        s.push_str(",\n    \"threads\": ");
        s.push_str(&self.meta.threads.to_string());
        s.push_str(",\n    \"cpu\": [");
        for (i, f) in self.meta.cpu.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_json_str(&mut s, f);
        }
        s.push_str("],\n    \"simd\": ");
        push_json_str(&mut s, &self.meta.simd);
        s.push_str(",\n    \"quick\": ");
        s.push_str(if self.meta.quick { "true" } else { "false" });
        s.push_str("\n  },\n  \"cases\": [");
        for (i, c) in self.cases.iter().enumerate() {
            assert!(
                c.throughput_items_per_s.is_finite(),
                "case {} has non-finite throughput",
                c.name
            );
            s.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
            s.push_str("\"name\": ");
            push_json_str(&mut s, &c.name);
            s.push_str(&format!(
                ", \"iters\": {}, \"wall_ns_p50\": {}, \"wall_ns_p99\": {}, \
                 \"throughput_items_per_s\": {}, \"inferences\": {}, \
                 \"bytes_allocated\": {}}}",
                c.iters,
                c.wall_ns_p50,
                c.wall_ns_p99,
                c.throughput_items_per_s,
                c.inferences,
                c.bytes_allocated
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
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

/// A parsed JSON value (the subset the schema uses — no exponent-free
/// guarantee needed on numbers; anything `f64::from_str` accepts works).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; the schema's integers stay exact
    /// below 2⁵³, far beyond any counter here).
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

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
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
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
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
