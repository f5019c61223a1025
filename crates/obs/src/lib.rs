//! # tm-obs
//!
//! Std-only structured observability for the TMerge pipeline: counters,
//! two-clock span histograms and structured events behind a pluggable
//! [`Sink`] — a no-op (the default) or a deterministic in-memory
//! [`Recorder`].
//!
//! ## The two-clock rule
//!
//! Every span duration is recorded in **both** clocks: real wall time
//! (`Instant`) and the simulated `SimClock` cost model the caller reads
//! off its ReID session. Wall time is inherently nondeterministic, so the
//! [`Recorder`] keeps the two strictly apart: [`Recorder::snapshot`]
//! renders *only* the counters and sim-clock histograms and is the
//! deterministic artifact (golden-testable, checkpointable); wall-clock
//! data is available separately via [`Recorder::wall_report`].
//!
//! ## The determinism contract
//!
//! The same run must produce a byte-identical [`Recorder::snapshot`] at
//! any `TMERGE_THREADS` setting. Two rules make that hold without any
//! serial-order fold:
//!
//! 1. Every aggregate in the snapshot is built from **commutative,
//!    associative integer updates** — `u64` counter adds, and sim-clock
//!    durations quantized to integer ticks ([`TICKS_PER_MS`] per
//!    millisecond) *before* summation, so `f64` addition order can never
//!    leak into the result. Min/max are commutative too.
//! 2. Anything order-dependent (the wall clock, the captured log lines,
//!    per-event field payloads) is excluded from the snapshot.
//!
//! Instrumented code records the same tick values in any schedule (the
//! simulated clock is itself deterministic), so the folded state — and its
//! sorted-key rendering — is identical regardless of which thread applied
//! which update first.
//!
//! ## Zero-cost when disabled
//!
//! [`Obs`] is a cheap clonable handle wrapping `Option<Arc<dyn Sink>>`.
//! The disabled handle ([`Obs::noop`]) reduces every call to a single
//! predictable `None` branch and constructs no `Instant`; hot loops stay
//! instrumentation-free because call sites sit at batch boundaries (the
//! `obs_overhead` bench in `tm-bench` pins this at ≤ 2%).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sim-clock quantization: ticks per simulated millisecond. Durations are
/// rounded to integer ticks before aggregation so sums are associative.
pub const TICKS_PER_MS: f64 = 1_000_000.0;

/// Quantizes a simulated-millisecond duration to integer ticks.
#[inline]
pub fn ticks(sim_ms: f64) -> i128 {
    (sim_ms * TICKS_PER_MS).round() as i128
}

/// Renders ticks as a fixed-point millisecond string (6 decimals), using
/// integer arithmetic only so the rendering is exact and deterministic.
pub fn ticks_to_ms_string(t: i128) -> String {
    let (sign, t) = if t < 0 { ("-", -t) } else { ("", t) };
    format!("{sign}{}.{:06}", t / 1_000_000, t % 1_000_000)
}

/// Log severity for [`Sink::log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Progress / informational output (stdout by default).
    Info,
    /// Warnings (stderr by default).
    Warn,
}

impl Level {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A structured event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (never enters the deterministic snapshot).
    F64(f64),
    /// Static string (decision modes, algorithm names).
    Str(&'static str),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Where instrumentation goes. All methods take `&self`: sinks are shared
/// across threads behind an `Arc`.
pub trait Sink: Send + Sync {
    /// Adds `delta` to a named monotonic counter.
    fn counter(&self, name: &str, delta: u64);
    /// Records a simulated-clock duration into the named histogram.
    fn record_sim_ms(&self, name: &str, sim_ms: f64);
    /// Records a wall-clock duration into the named histogram.
    fn record_wall_ns(&self, name: &str, wall_ns: u64);
    /// Records a structured event. Sinks may aggregate (the [`Recorder`]
    /// keeps a per-name count) or keep the fields.
    fn event(&self, name: &str, fields: &[(&'static str, Value)]);
    /// Routes a log line (progress output, warnings).
    fn log(&self, level: Level, message: &str);
}

/// A sink that drops everything. [`Obs::noop`] avoids even the virtual
/// call; this type exists for callers that need an explicit `Arc<dyn
/// Sink>`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn counter(&self, _: &str, _: u64) {}
    fn record_sim_ms(&self, _: &str, _: f64) {}
    fn record_wall_ns(&self, _: &str, _: u64) {}
    fn event(&self, _: &str, _: &[(&'static str, Value)]) {}
    fn log(&self, _: Level, _: &str) {}
}

/// A sink decorator that namespaces every metric name under a fixed
/// prefix before forwarding to the inner sink. `tm-serve` scopes each
/// tenant's whole pipeline under `serve.tenant.<id>.` this way, so one
/// shared [`Recorder`] holds every tenant's counters side by side without
/// collisions — and without the pipeline code knowing tenants exist.
///
/// Only *names* are rewritten: deltas, durations, event fields and log
/// levels pass through untouched, so the deterministic-snapshot contract
/// (commutative integer aggregates, zero-delta dropping upstream in
/// [`Obs::counter`]) is unchanged. Log messages gain a `[prefix]` marker
/// for attribution; the inner recorder's `log.<level>` counters stay
/// unprefixed, which keeps them commutative across tenants.
pub struct PrefixSink {
    prefix: String,
    inner: Arc<dyn Sink>,
}

impl PrefixSink {
    /// Wraps `inner`, namespacing every metric name as `{prefix}{name}`.
    /// Pass the trailing separator explicitly (e.g. `"serve.tenant.3."`).
    pub fn new(prefix: impl Into<String>, inner: Arc<dyn Sink>) -> Self {
        Self {
            prefix: prefix.into(),
            inner,
        }
    }
}

impl Sink for PrefixSink {
    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(&format!("{}{name}", self.prefix), delta);
    }

    fn record_sim_ms(&self, name: &str, sim_ms: f64) {
        self.inner
            .record_sim_ms(&format!("{}{name}", self.prefix), sim_ms);
    }

    fn record_wall_ns(&self, name: &str, wall_ns: u64) {
        self.inner
            .record_wall_ns(&format!("{}{name}", self.prefix), wall_ns);
    }

    fn event(&self, name: &str, fields: &[(&'static str, Value)]) {
        self.inner.event(&format!("{}{name}", self.prefix), fields);
    }

    fn log(&self, level: Level, message: &str) {
        self.inner
            .log(level, &format!("[{}] {message}", self.prefix));
    }
}

// ---------------------------------------------------------------------------
// The handle.
// ---------------------------------------------------------------------------

/// Cheap clonable observability handle. The default ([`Obs::noop`]) is
/// disabled: every operation is a single `None` branch.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn Sink>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The disabled handle.
    pub fn noop() -> Self {
        Self { sink: None }
    }

    /// A handle writing to the given sink.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// True when a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A handle that namespaces every metric name under `prefix` (via
    /// [`PrefixSink`]) before reaching this handle's sink. A disabled
    /// handle stays disabled — no allocation, no sink, still one `None`
    /// branch per operation.
    pub fn with_prefix(&self, prefix: &str) -> Obs {
        match &self.sink {
            Some(inner) => Obs::new(Arc::new(PrefixSink::new(prefix, Arc::clone(inner)))),
            None => Obs::noop(),
        }
    }

    /// Adds `delta` to a counter. Zero deltas are dropped before reaching
    /// the sink, so conditional bulk increments (`counter(name, n)` with a
    /// data-dependent `n`) cannot create empty entries whose mere presence
    /// would differ between schedules.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(s) = &self.sink {
            s.counter(name, delta);
        }
    }

    /// Records a simulated-clock duration.
    #[inline]
    pub fn record_sim_ms(&self, name: &str, sim_ms: f64) {
        if let Some(s) = &self.sink {
            s.record_sim_ms(name, sim_ms);
        }
    }

    /// Records a wall-clock duration.
    #[inline]
    pub fn record_wall_ns(&self, name: &str, wall_ns: u64) {
        if let Some(s) = &self.sink {
            s.record_wall_ns(name, wall_ns);
        }
    }

    /// Records a structured event.
    #[inline]
    pub fn event(&self, name: &str, fields: &[(&'static str, Value)]) {
        if let Some(s) = &self.sink {
            s.event(name, fields);
        }
    }

    /// Routes a log line. With no sink attached the line falls through to
    /// the process default (stdout for info, stderr for warnings), so
    /// existing CLI output is unchanged until a sink captures it.
    pub fn log(&self, level: Level, message: &str) {
        match &self.sink {
            Some(s) => s.log(level, message),
            None => match level {
                Level::Info => println!("{message}"),
                Level::Warn => eprintln!("warning: {message}"),
            },
        }
    }

    /// Opens a two-clock span. `sim_now_ms` is the caller's simulated
    /// clock *now* (e.g. `session.elapsed_ms()`); pass the clock again to
    /// [`Span::finish`]. Disabled handles capture no `Instant`.
    #[inline]
    pub fn span(&self, name: &'static str, sim_now_ms: f64) -> Span {
        Span {
            obs: self.clone(),
            name,
            wall: if self.sink.is_some() {
                Some(Instant::now())
            } else {
                None
            },
            sim_start_ms: sim_now_ms,
        }
    }
}

/// An open two-clock span (see [`Obs::span`]).
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    name: &'static str,
    wall: Option<Instant>,
    sim_start_ms: f64,
}

impl Span {
    /// Closes the span, recording the wall-clock duration and the
    /// simulated-clock delta since [`Obs::span`] under the span's name.
    pub fn finish(self, sim_now_ms: f64) {
        if let Some(started) = self.wall {
            self.obs
                .record_wall_ns(self.name, started.elapsed().as_nanos() as u64);
            self.obs
                .record_sim_ms(self.name, sim_now_ms - self.sim_start_ms);
        }
    }
}

// ---------------------------------------------------------------------------
// Scope plumbing: a thread-local stack.
// ---------------------------------------------------------------------------

thread_local! {
    static SCOPE: RefCell<Vec<Obs>> = const { RefCell::new(Vec::new()) };
}

/// The innermost scoped handle on this thread, else a disabled handle.
/// `tm_par` re-installs the caller's scope inside its worker threads, so
/// fan-outs inherit the observer transparently.
pub fn current() -> Obs {
    SCOPE
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(Obs::noop)
}

/// Runs `f` with `obs` as this thread's current handle (unwind-safe: the
/// scope pops even if `f` panics).
pub fn scoped<R>(obs: Obs, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    SCOPE.with(|s| s.borrow_mut().push(obs));
    let _pop = Pop;
    f()
}

// ---------------------------------------------------------------------------
// Recorder: the deterministic in-memory sink.
// ---------------------------------------------------------------------------

/// One sim-clock histogram: integer-tick aggregates only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimHist {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of quantized ticks.
    pub sum_ticks: i128,
    /// Smallest recorded duration in ticks.
    pub min_ticks: i128,
    /// Largest recorded duration in ticks.
    pub max_ticks: i128,
}

impl SimHist {
    fn record(&mut self, t: i128) {
        if self.count == 0 {
            *self = SimHist {
                count: 1,
                sum_ticks: t,
                min_ticks: t,
                max_ticks: t,
            };
        } else {
            self.count += 1;
            self.sum_ticks += t;
            self.min_ticks = self.min_ticks.min(t);
            self.max_ticks = self.max_ticks.max(t);
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct WallHist {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct RecorderInner {
    counters: BTreeMap<String, u64>,
    sim: BTreeMap<String, SimHist>,
    wall: BTreeMap<String, WallHist>,
    logs: Vec<(Level, String)>,
}

/// The deterministic state of a [`Recorder`] — what a caller that owns
/// the recorder carries across a kill and [`Recorder::restore`]
/// reinstates before resuming. Entries are sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecorderState {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Sim-histogram name → aggregates.
    pub sim: Vec<(String, SimHist)>,
}

/// In-memory aggregating sink whose [`snapshot`](Recorder::snapshot) is
/// byte-identical for the same run at any thread count (see the crate
/// docs for the contract). Shared across threads behind one mutex; all
/// instrumented paths touch it at batch boundaries, not inner loops.
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().expect("recorder poisoned")
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current aggregates of a sim histogram.
    pub fn sim_hist(&self, name: &str) -> Option<SimHist> {
        self.lock().sim.get(name).copied()
    }

    /// Captured log lines, in arrival order (order is scheduling-dependent
    /// under threads; excluded from the snapshot).
    pub fn logs(&self) -> Vec<(Level, String)> {
        self.lock().logs.clone()
    }

    /// The deterministic snapshot: counters and sim histograms rendered
    /// with sorted keys, one line each. Wall-clock data and log lines are
    /// deliberately absent (see the two-clock rule).
    pub fn snapshot(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, v) in &inner.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, h) in &inner.sim {
            let _ = writeln!(
                out,
                "sim_ms {name} count={} sum={} min={} max={}",
                h.count,
                ticks_to_ms_string(h.sum_ticks),
                ticks_to_ms_string(h.min_ticks),
                ticks_to_ms_string(h.max_ticks),
            );
        }
        out
    }

    /// The wall-clock histograms (nondeterministic; kept out of
    /// [`snapshot`](Recorder::snapshot)).
    pub fn wall_report(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, h) in &inner.wall {
            let _ = writeln!(
                out,
                "wall_ns {name} count={} sum={} min={} max={}",
                h.count, h.sum_ns, h.min_ns, h.max_ns
            );
        }
        out
    }

    /// Extracts the deterministic state (to carry across a kill).
    pub fn state(&self) -> RecorderState {
        let inner = self.lock();
        RecorderState {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            sim: inner.sim.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }

    /// Replaces the deterministic state with a carried one (wall
    /// histograms and captured logs are left untouched — they never enter
    /// the snapshot).
    pub fn restore(&self, state: &RecorderState) {
        let mut inner = self.lock();
        inner.counters = state
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        inner.sim = state.sim.iter().map(|(k, v)| (k.clone(), *v)).collect();
    }

    /// Clears all state.
    pub fn reset(&self) {
        *self.lock() = RecorderInner::default();
    }
}

impl Sink for Recorder {
    fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_owned(), delta);
            }
        }
    }

    fn record_sim_ms(&self, name: &str, sim_ms: f64) {
        let t = ticks(sim_ms);
        let mut inner = self.lock();
        match inner.sim.get_mut(name) {
            Some(h) => h.record(t),
            None => {
                let mut h = SimHist {
                    count: 0,
                    sum_ticks: 0,
                    min_ticks: 0,
                    max_ticks: 0,
                };
                h.record(t);
                inner.sim.insert(name.to_owned(), h);
            }
        }
    }

    fn record_wall_ns(&self, name: &str, wall_ns: u64) {
        let mut inner = self.lock();
        let h = inner.wall.entry(name.to_owned()).or_default();
        if h.count == 0 {
            *h = WallHist {
                count: 1,
                sum_ns: wall_ns as u128,
                min_ns: wall_ns,
                max_ns: wall_ns,
            };
        } else {
            h.count += 1;
            h.sum_ns += wall_ns as u128;
            h.min_ns = h.min_ns.min(wall_ns);
            h.max_ns = h.max_ns.max(wall_ns);
        }
    }

    fn event(&self, name: &str, _fields: &[(&'static str, Value)]) {
        // Field payloads are order-dependent; the deterministic sink keeps
        // only the per-name occurrence count.
        self.counter(&format!("event.{name}"), 1);
    }

    fn log(&self, level: Level, message: &str) {
        let mut inner = self.lock();
        let key = format!("log.{}", level.as_str());
        match inner.counters.get_mut(&key) {
            Some(v) => *v += 1,
            None => {
                inner.counters.insert(key, 1);
            }
        }
        inner.logs.push((level, message.to_owned()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_silent_on_metrics() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.counter("x", 3);
        obs.record_sim_ms("x", 1.5);
        let sp = obs.span("x", 0.0);
        sp.finish(1.0);
    }

    #[test]
    fn recorder_counters_and_histograms_aggregate() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(rec.clone());
        obs.counter("a.hits", 2);
        obs.counter("a.hits", 3);
        obs.record_sim_ms("a.span", 1.25);
        obs.record_sim_ms("a.span", 0.75);
        assert_eq!(rec.counter_value("a.hits"), 5);
        let h = rec.sim_hist("a.span").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ticks, ticks(2.0));
        assert_eq!(h.min_ticks, ticks(0.75));
        assert_eq!(h.max_ticks, ticks(1.25));
    }

    #[test]
    fn prefix_sink_namespaces_metrics_and_forwards_recorder() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(rec.clone());
        let t3 = obs.with_prefix("serve.tenant.3.");
        let t7 = obs.with_prefix("serve.tenant.7.");
        assert!(t3.enabled());
        t3.counter("pipeline.windows", 2);
        t7.counter("pipeline.windows", 5);
        t3.counter("pipeline.windows", 0); // zero deltas still dropped
        t3.record_sim_ms("reid.extract", 1.5);
        t3.event("window", &[("id", Value::U64(0))]);
        t3.log(Level::Warn, "shedding");
        assert_eq!(rec.counter_value("serve.tenant.3.pipeline.windows"), 2);
        assert_eq!(rec.counter_value("serve.tenant.7.pipeline.windows"), 5);
        assert_eq!(rec.counter_value("pipeline.windows"), 0);
        assert!(rec.sim_hist("serve.tenant.3.reid.extract").is_some());
        assert_eq!(rec.counter_value("event.serve.tenant.3.window"), 1);
        // Log levels aggregate unprefixed; the message carries the marker.
        assert_eq!(rec.counter_value("log.warn"), 1);
        assert!(rec
            .logs()
            .iter()
            .any(|(_, m)| m.contains("[serve.tenant.3.] shedding")));
        // Prefixing a disabled handle stays disabled.
        assert!(!Obs::noop().with_prefix("serve.tenant.9.").enabled());
    }

    #[test]
    fn snapshot_renders_sorted_and_excludes_wall() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(rec.clone());
        obs.counter("z.last", 1);
        obs.counter("a.first", 1);
        obs.record_sim_ms("mid", 2.5);
        obs.record_wall_ns("mid", 12345);
        let snap = rec.snapshot();
        assert_eq!(
            snap,
            "counter a.first = 1\ncounter z.last = 1\nsim_ms mid count=1 sum=2.500000 min=2.500000 max=2.500000\n"
        );
        assert!(rec.wall_report().contains("wall_ns mid count=1 sum=12345"));
    }

    #[test]
    fn span_records_both_clocks() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(rec.clone());
        let sp = obs.span("work", 10.0);
        sp.finish(12.5);
        let h = rec.sim_hist("work").unwrap();
        assert_eq!(h.sum_ticks, ticks(2.5));
        assert!(rec.wall_report().contains("wall_ns work count=1"));
    }

    #[test]
    fn snapshot_is_interleaving_independent() {
        // Apply the same multiset of updates in two different orders; the
        // snapshot must be byte-identical (the threaded case reduces to
        // this because updates are commutative integer folds).
        let updates: Vec<(&str, f64)> = vec![("s", 0.1), ("s", 0.3), ("t", 7.0), ("s", 0.2)];
        let run = |order: &[usize]| {
            let rec = Recorder::new();
            for &i in order {
                let (name, ms) = updates[i];
                rec.record_sim_ms(name, ms);
                rec.counter("n", 1);
            }
            rec.snapshot()
        };
        assert_eq!(run(&[0, 1, 2, 3]), run(&[3, 2, 1, 0]));
    }

    #[test]
    fn state_roundtrips_through_restore() {
        let rec = Recorder::new();
        rec.counter("c", 9);
        rec.record_sim_ms("h", 4.25);
        let state = rec.state();
        let fresh = Recorder::new();
        fresh.counter("other", 1); // overwritten by restore
        fresh.restore(&state);
        assert_eq!(fresh.snapshot(), rec.snapshot());
    }

    #[test]
    fn events_count_per_name_and_logs_are_captured() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(rec.clone());
        obs.event("breaker_trip", &[("window", Value::U64(3))]);
        obs.event("breaker_trip", &[("window", Value::U64(4))]);
        obs.log(Level::Warn, "disk full");
        assert_eq!(rec.counter_value("event.breaker_trip"), 2);
        assert_eq!(rec.counter_value("log.warn"), 1);
        assert_eq!(rec.logs(), vec![(Level::Warn, "disk full".to_owned())]);
    }

    #[test]
    fn scoped_nests_and_pops_on_panic() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(rec.clone());
        assert!(!current().enabled());
        scoped(obs.clone(), || {
            assert!(current().enabled());
            scoped(Obs::noop(), || assert!(!current().enabled()));
            assert!(current().enabled());
        });
        assert!(!current().enabled());
        let obs2 = obs.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            scoped(obs2, || panic!("boom"))
        }));
        assert!(!current().enabled());
    }

    #[test]
    fn ticks_render_exactly() {
        assert_eq!(ticks_to_ms_string(0), "0.000000");
        assert_eq!(ticks_to_ms_string(1), "0.000001");
        assert_eq!(ticks_to_ms_string(2_500_000), "2.500000");
        assert_eq!(ticks_to_ms_string(-1_000_001), "-1.000001");
    }
}
