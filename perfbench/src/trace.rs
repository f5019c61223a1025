//! Span tracing from outside the program.
//!
//! Nothing here changes the program under test. Layer spans come from four
//! seams the program already offers:
//!
//! * per-call timers around public entry points ([`Tracer::span`]);
//! * [`TimedBackend`], an `InferenceBackend`/`SplitBackend` wrapper — ReID
//!   is reached only through the backend trait object a caller supplies;
//! * [`TimedSelector`], a `CandidateSelector` wrapper for the entry points
//!   that are generic over their selector (fleet, global, serve);
//! * [`TraceSink`], a `tm_obs::Sink` that forwards everything to a
//!   `tm_obs::Recorder` (the counters the layers already emit) and turns
//!   the program's existing wall-clock spans and counter events into
//!   layer spans where no call can be wrapped.
//!
//! Spans are kept in memory as `{name, start, end, parent, request}` and
//! attributed after the measured section: a span's parent is the innermost
//! span that contains it, and its self time is its length minus its
//! children's. The measured runs are single-threaded (`TMERGE_THREADS=1`),
//! so spans nest on one timeline.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tm_core::{CandidateSelector, SelectionInput, SelectionResult};
use tm_obs::{Level, Recorder, Sink, Value};
use tm_reid::{Attempt, AttemptClass, BackendReply, InferenceBackend, ReidSession, SplitBackend};
use tm_types::{Result, TrackBox};

/// The root span of one measured unit (an iteration, or a serve cycle's
/// busy interval). Its self time is what no named layer covers.
pub const ITER: &str = "iter";

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The video, window cycle or round the span worked for.
    pub request: u64,
    /// Index of the enclosing span (set by [`attribute`]).
    pub parent: Option<usize>,
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    request: AtomicU64,
    /// Start of the next marker-derived span (see [`TraceSink`]).
    mark: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            request: AtomicU64::new(0),
            mark: AtomicU64::new(0),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags every span recorded from now on with request `id`.
    pub fn set_request(&self, id: u64) {
        self.request.store(id, Ordering::Relaxed);
    }

    pub fn record(&self, name: &'static str, start: u64, end: u64) {
        let span = Span {
            name,
            start,
            end: end.max(start),
            request: self.request.load(Ordering::Relaxed),
            parent: None,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` as one `name` span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.record(name, start, self.now());
        out
    }

    /// Sets the start of the next marker-derived span to now.
    pub fn set_mark(&self) {
        self.mark.store(self.now(), Ordering::Relaxed);
    }

    /// Drains the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// Derives the offline pipeline's pre-window and post-window phases
    /// once its `pipeline.run` span closes: the gap from the run's start to
    /// its first window is the pair build (`pairs`), the gap from its last
    /// window to its end is the merge (`union`).
    fn close_pipeline_run(&self, start: u64, end: u64) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let request = self.request.load(Ordering::Relaxed);
        let windows = spans
            .iter()
            .rev()
            .take_while(|s| s.end >= start)
            .filter(|s| s.name == "select" && s.start >= start);
        let (first, last) =
            windows.fold((end, start), |(lo, hi), s| (lo.min(s.start), hi.max(s.end)));
        let (first, last) = if first > last {
            (end, end)
        } else {
            (first, last)
        };
        for (name, a, b) in [("pairs", start, first), ("union", last, end)] {
            spans.push(Span {
                name,
                start: a,
                end: b.max(a),
                request,
                parent: None,
            });
        }
    }
}

/// Runs `f` as a `name` span when tracing, else just runs it.
pub fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Times every call into the wrapped ReID backend as a `reid` span.
#[derive(Debug)]
pub struct TimedBackend<'a, B: ?Sized> {
    pub inner: &'a B,
    pub tracer: Option<&'a Tracer>,
}

impl<B: InferenceBackend + ?Sized> InferenceBackend for TimedBackend<'_, B> {
    fn try_observe(&self, tb: &TrackBox, at: &Attempt) -> BackendReply {
        timed(self.tracer, "reid", || self.inner.try_observe(tb, at))
    }

    fn available(&self, epoch: u64) -> bool {
        self.inner.available(epoch)
    }

    fn prefetch(&self, requests: &[(&TrackBox, Attempt)]) {
        timed(self.tracer, "reid", || self.inner.prefetch(requests))
    }
}

impl<B: SplitBackend + ?Sized> SplitBackend for TimedBackend<'_, B> {
    fn classify(&self, at: &Attempt) -> AttemptClass {
        timed(self.tracer, "reid", || self.inner.classify(at))
    }
}

/// Times every `select` call of the wrapped selector as a `select` span.
pub struct TimedSelector<'a, S> {
    pub inner: S,
    pub tracer: Option<&'a Tracer>,
}

impl<S: CandidateSelector> CandidateSelector for TimedSelector<'_, S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn obs_slug(&self) -> &'static str {
        self.inner.obs_slug()
    }

    fn select(
        &self,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
    ) -> Result<SelectionResult> {
        timed(self.tracer, "select", || self.inner.select(input, session))
    }
}

/// Which program events a [`TraceSink`] turns into layer spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marks {
    /// None: every layer of the workload is reached by a wrapped call.
    Calls,
    /// `run_pipeline_with_backend` takes no selector, so each of its
    /// `pipeline.window` spans is the window's selection (`select`), and
    /// `pipeline.run` yields the `pairs` and `union` phases around them.
    Offline,
    /// `TmServe::run_once` advances each tenant's fleet internally. A
    /// `fleet` span runs from the previous marker (the `run_once` call's
    /// start, or the previous tenant's last post-advance counter) to the
    /// tenant's `fleet.advances` counter, which the fleet emits on return.
    Serve,
}

/// A `tm_obs::Sink` feeding a `Recorder` and the span store.
///
/// It deliberately does not expose the recorder through
/// `Sink::as_recorder`: checkpoints then carry no recorder state, so
/// traced and untraced runs write byte-identical envelopes.
pub struct TraceSink {
    tracer: Arc<Tracer>,
    recorder: Recorder,
    marks: Marks,
}

impl TraceSink {
    pub fn new(tracer: Arc<Tracer>, marks: Marks) -> Self {
        Self {
            tracer,
            recorder: Recorder::new(),
            marks,
        }
    }

    /// Sum of every counter whose name ends with `suffix` (tenant-prefixed
    /// names included).
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        self.recorder
            .state()
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }
}

impl Sink for TraceSink {
    fn counter(&self, name: &str, delta: u64) {
        self.recorder.counter(name, delta);
        if self.marks != Marks::Serve {
            return;
        }
        if name.ends_with("fleet.advances") {
            let end = self.tracer.now();
            self.tracer
                .record("fleet", self.tracer.mark.load(Ordering::Relaxed), end);
        } else if ["fleet.windows", "fleet.stream.", "retention.", "slo."]
            .iter()
            .any(|m| name.contains(m))
        {
            self.tracer.set_mark();
        }
    }

    fn record_sim_ms(&self, name: &str, sim_ms: f64) {
        self.recorder.record_sim_ms(name, sim_ms);
    }

    fn record_wall_ns(&self, name: &str, wall_ns: u64) {
        self.recorder.record_wall_ns(name, wall_ns);
        if self.marks != Marks::Offline {
            return;
        }
        let end = self.tracer.now();
        let start = end.saturating_sub(wall_ns);
        match name {
            "pipeline.window" => self.tracer.record("select", start, end),
            "pipeline.run" => self.tracer.close_pipeline_run(start, end),
            _ => {}
        }
    }

    fn event(&self, name: &str, fields: &[(&'static str, Value)]) {
        self.recorder.event(name, fields);
    }

    fn log(&self, level: Level, message: &str) {
        self.recorder.log(level, message);
    }
}

/// Per-layer totals of an attributed trace, in nanoseconds.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Sum of the [`ITER`] root spans.
    pub wall: u64,
    /// Per span name: summed length.
    pub total: BTreeMap<&'static str, u64>,
    /// Per span name: summed self time (length minus children).
    pub self_time: BTreeMap<&'static str, u64>,
}

impl Attribution {
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_time.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// Assigns parents by containment, clips children to their parent, and
/// sums lengths and self times per span name. Spans are left sorted by
/// start time.
pub fn attribute(spans: &mut [Span]) -> Attribution {
    let mut out = Attribution::default();
    spans.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            if spans[top].end <= spans[i].start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            spans[i].parent = Some(top);
            spans[i].end = spans[i].end.min(spans[top].end);
        }
        stack.push(i);
    }
    let mut child_time = vec![0u64; spans.len()];
    for s in spans.iter() {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    for (s, children) in spans.iter().zip(&child_time) {
        let len = s.end - s.start;
        *out.total.entry(s.name).or_default() += len;
        *out.self_time.entry(s.name).or_default() += len - children.min(&len);
        if s.name == ITER && s.parent.is_none() {
            out.wall += len;
        }
    }
    out
}

/// Writes attributed spans as JSON lines (`parent` is a line index).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}",
            s.name, s.start, s.end, parent, s.request
        )?;
    }
    out.flush()
}
