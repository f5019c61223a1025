//! Cross-stream batched ReID scheduling.
//!
//! The fleet ingester (`tm_core::fleet`) runs one [`crate::ReidSession`]
//! per video stream. Left alone, each session would infer every distinct
//! box it misses — even when several cameras watch the same scene and miss
//! the *same* boxes. A [`BatchScheduler`] pools that work: every stream's
//! session talks to its own [`BatchingBackend`] lane, the lanes enqueue
//! clean feature requests into one shared size-bounded queue, and batches
//! are dispatched through the wrapped [`AppearanceModel`] into one
//! content-keyed feature map so each distinct box is inferred exactly once
//! fleet-wide — the cross-stream analogue of the paper's `-B` batched
//! variants.
//!
//! ## The per-stream invariance contract
//!
//! A lane must be behaviorally invisible to its stream: with the default
//! [`BatchConfig`], every reply a lane produces is **bit-identical** to
//! the reply the wrapped backend would have produced solo. Three design
//! decisions enforce this:
//!
//! 1. **Faults never touch the shared map.** The lane classifies each
//!    attempt through [`SplitBackend::classify`] first; `Fault` and
//!    `Corrupt` replies pass through verbatim, so one stream's outage or
//!    NaN storm can neither poison a sibling's features nor be papered
//!    over by them (no cross-stream fault leakage, in either direction).
//! 2. **Clean features come from a pure model.** [`AttemptClass::Clean`]
//!    contractually means "the wrapped model's `observe_track_box`" — so a
//!    map hit returns the very feature the solo run would have computed,
//!    keyed by full box content ([`FeatureKey`]) to rule out collisions
//!    between distinct boxes.
//! 3. **Demand is the deadline.** Accumulation happens on the session's
//!    *prefetch* hook (advisory, fire-and-forget); a full batch is flushed
//!    by whoever fills it, and a demand (`try_observe` miss) flushes
//!    everything pending, so no request waits for traffic that may never
//!    come and the fleet is deadlock-free at `TMERGE_THREADS=1`.
//!
//! ## One lock
//!
//! The feature map, the pending queue with its dedup set and the
//! [`BatchStats`] counters sit behind one `Mutex`, and a miss is computed
//! while it is held. Each distinct content is therefore computed once
//! fleet-wide by construction: whoever takes the lock next sees the
//! feature. A lane may wait on the lock while another lane's batch
//! computes; the lock is never held across a call into a lane (a lane
//! classifies its attempt before it asks the scheduler), so no lane can
//! block on itself.
//!
//! ## Cost semantics
//!
//! Clock charging stays where it always was — in each stream's session
//! (nominal per-item inference charges plus the reply's `extra_ms`), so a
//! shard pays for its own boxes only. The scheduler adds exactly one knob:
//! [`BatchConfig::amortized_overhead_ms`], a per-request surcharge on
//! clean replies modelling a stream's amortized share of batch dispatch
//! overhead (a GPU-style `gpu_call_overhead_ms / batch_size` stand-in).
//! The default is `0.0`, under which per-stream clocks are bit-identical
//! to solo runs; any positive value shifts clocks but never decisions,
//! because features are unchanged.
//!
//! ## What is (and is not) deterministic
//!
//! Per-stream replies, and therefore every per-stream output, are
//! deterministic for any thread count or interleaving. The scheduler's
//! own [`BatchStats`] split two ways: `requests` and (on fault-free,
//! ungated runs) `computed` are interleaving-independent, while
//! `dispatches`, `dispatched_items` and `largest_batch` describe how work
//! happened to clump and are operational telemetry only — never assert
//! exact values across thread counts. A gated run's deferred boxes are
//! offered as batch fill and never demanded, so whether the last of them
//! get computed depends on which flush happens to take them.

use crate::appearance::AppearanceModel;
use crate::backend::{Attempt, AttemptClass, BackendReply, InferenceBackend, SplitBackend};
use crate::feature::Feature;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use tm_obs::Obs;
use tm_types::TrackBox;

/// Content identity of a box: the bit patterns of every [`TrackBox`] field.
///
/// The fleet's feature map is shared across streams whose tracker-assigned
/// IDs are unrelated, so the per-session `BoxKey` (track, frame) cannot key
/// it. Hashing the full content is sound for any *pure* appearance model —
/// equal inputs give equal features — and including even the fields the
/// current model ignores (confidence) keeps the key safe if the model ever
/// starts reading them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureKey {
    frame: u64,
    x: u64,
    y: u64,
    w: u64,
    h: u64,
    confidence: u64,
    visibility: u64,
    provenance: Option<u64>,
}

impl FeatureKey {
    /// The content key of one box.
    pub fn of(tb: &TrackBox) -> Self {
        Self {
            frame: tb.frame.get(),
            x: tb.bbox.x.to_bits(),
            y: tb.bbox.y.to_bits(),
            w: tb.bbox.w.to_bits(),
            h: tb.bbox.h.to_bits(),
            confidence: tb.confidence.to_bits(),
            visibility: tb.visibility.to_bits(),
            provenance: tb.provenance.map(|p| p.get()),
        }
    }
}

/// Tuning for a [`BatchScheduler`]. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Upper bound on one dispatched batch; a prefetch that fills the
    /// queue to this size flushes it. Clamped to ≥ 1.
    pub max_batch: usize,
    /// Per-clean-request amortized batch overhead charged to the
    /// requesting stream's clock via the reply's `extra_ms`. `0.0`
    /// (default) keeps per-stream clocks bit-identical to solo runs.
    pub amortized_overhead_ms: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            amortized_overhead_ms: 0.0,
        }
    }
}

/// Counters describing one scheduler's life so far. See the module docs
/// for which fields are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Clean feature requests answered (map hits included).
    pub requests: u64,
    /// Features actually computed by the wrapped model — the fleet-wide
    /// inference count. `requests - computed` is the batching saving.
    pub computed: u64,
    /// Batches dispatched (operational).
    pub dispatches: u64,
    /// Total items across dispatched batches (operational).
    pub dispatched_items: u64,
    /// Largest single dispatched batch (operational; ≤ `max_batch`).
    pub largest_batch: u64,
}

impl BatchStats {
    /// Inferences avoided versus per-stream serial (which would have
    /// computed once per request).
    pub fn saved(&self) -> u64 {
        self.requests.saturating_sub(self.computed)
    }
}

/// Everything the scheduler's lock guards.
#[derive(Debug, Default)]
struct State {
    /// Every feature computed so far, by content.
    features: HashMap<FeatureKey, Arc<Feature>>,
    /// Requests awaiting dispatch, in arrival order.
    queue: Vec<(FeatureKey, TrackBox)>,
    /// Members of `queue`, for O(1) duplicate suppression.
    queued: HashSet<FeatureKey>,
    stats: BatchStats,
}

impl State {
    /// The feature for `key`, computed through `model` if absent.
    fn feature(&mut self, model: &AppearanceModel, key: FeatureKey, tb: &TrackBox) -> Arc<Feature> {
        let computed = &mut self.stats.computed;
        let f = self.features.entry(key).or_insert_with(|| {
            *computed += 1;
            Arc::new(model.observe_track_box(tb))
        });
        Arc::clone(f)
    }

    /// Dispatches the whole queue in chunks of at most `max_batch`,
    /// computing every member not in the map yet, and empties it.
    fn flush(&mut self, model: &AppearanceModel, max_batch: usize) {
        let mut queue = std::mem::take(&mut self.queue);
        for chunk in queue.chunks(max_batch) {
            let n = chunk.len() as u64;
            self.stats.dispatches += 1;
            self.stats.dispatched_items += n;
            self.stats.largest_batch = self.stats.largest_batch.max(n);
            for (key, tb) in chunk {
                self.feature(model, *key, tb);
            }
        }
        queue.clear();
        self.queue = queue;
        self.queued.clear();
    }
}

/// The shared cross-stream batching core. One per fleet; hand each stream
/// a lane via [`BatchScheduler::backend`]. See the module docs.
#[derive(Debug)]
pub struct BatchScheduler<'m> {
    model: &'m AppearanceModel,
    config: BatchConfig,
    state: Mutex<State>,
    obs: Obs,
}

impl<'m> BatchScheduler<'m> {
    /// A scheduler computing clean features through `model`. Captures the
    /// ambient observability scope at construction, so build it inside the
    /// recorder scope whose metrics should see `fleet.batch.*` counters.
    pub fn new(model: &'m AppearanceModel, config: BatchConfig) -> Self {
        Self {
            model,
            config: BatchConfig {
                max_batch: config.max_batch.max(1),
                ..config
            },
            state: Mutex::new(State::default()),
            obs: tm_obs::current(),
        }
    }

    /// [`BatchScheduler::new`] specialised for one serve-layer tenant of
    /// `streams` streams: the dispatch bound is capped at eight
    /// outstanding requests per stream, so a two-camera tenant does not
    /// inherit a fleet-wide `max_batch` of 32 and sit on a
    /// seven-eighths-empty queue waiting for traffic its streams will never
    /// produce. Batch sizing is purely operational — lane replies are
    /// contractually identical at any dispatch boundary — so tenants of
    /// different widths still produce byte-identical per-stream output.
    pub fn for_tenant(model: &'m AppearanceModel, config: BatchConfig, streams: usize) -> Self {
        let config = BatchConfig {
            max_batch: config.max_batch.min(streams.max(1) * 8),
            ..config
        };
        Self::new(model, config)
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// A per-stream lane over `inner` (the stream's own fault surface —
    /// e.g. a `tm_chaos::FaultyModel` — or the bare model). The lane
    /// borrows both, so lanes are cheap and copyable.
    pub fn backend<'a>(&'a self, inner: &'a dyn SplitBackend) -> BatchingBackend<'a> {
        BatchingBackend {
            inner,
            shared: self,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> BatchStats {
        self.lock().stats
    }

    /// Number of features computed (and kept) so far.
    pub fn cached_features(&self) -> usize {
        self.lock().features.len()
    }

    /// Requests currently queued and not yet dispatched (< `max_batch`).
    pub fn pending_len(&self) -> usize {
        self.lock().queue.len()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("batch scheduler poisoned")
    }

    /// Advisory enqueue from a lane's prefetch; flushes the queue if this
    /// fills it.
    fn offer(&self, key: FeatureKey, tb: &TrackBox) {
        let computed = {
            let mut s = self.lock();
            if s.features.contains_key(&key) || !s.queued.insert(key) {
                return;
            }
            s.queue.push((key, *tb));
            if s.queue.len() < self.config.max_batch {
                return;
            }
            let before = s.stats.computed;
            s.flush(self.model, self.config.max_batch);
            s.stats.computed - before
        };
        self.obs.counter("fleet.batch.computed", computed);
    }

    /// A lane needs `key` *now*: count the request, serve it from the map
    /// if possible, otherwise flush everything pending together with `key`
    /// (demand is the batch deadline).
    fn request(&self, key: FeatureKey, tb: &TrackBox) -> Arc<Feature> {
        self.obs.counter("fleet.batch.requests", 1);
        let (feature, computed) = {
            let mut s = self.lock();
            s.stats.requests += 1;
            if let Some(f) = s.features.get(&key) {
                return Arc::clone(f);
            }
            if s.queued.insert(key) {
                s.queue.push((key, *tb));
            }
            let before = s.stats.computed;
            s.flush(self.model, self.config.max_batch);
            // A hit: the flush computed `key`.
            let feature = s.feature(self.model, key, tb);
            (feature, s.stats.computed - before)
        };
        self.obs.counter("fleet.batch.computed", computed);
        feature
    }
}

/// One stream's lane into a [`BatchScheduler`]. An [`InferenceBackend`]
/// whose clean replies come from the fleet-shared feature map and whose
/// faults are the wrapped backend's, verbatim. See the module docs for the
/// invariance contract.
#[derive(Debug, Clone, Copy)]
pub struct BatchingBackend<'a> {
    inner: &'a dyn SplitBackend,
    shared: &'a BatchScheduler<'a>,
}

impl InferenceBackend for BatchingBackend<'_> {
    fn try_observe(&self, tb: &TrackBox, at: &Attempt) -> BackendReply {
        match self.inner.classify(at) {
            AttemptClass::Fault { fault, extra_ms } => BackendReply::fault(fault, extra_ms),
            AttemptClass::Corrupt { feature, extra_ms } => BackendReply {
                outcome: Ok(feature),
                extra_ms,
            },
            AttemptClass::Clean { extra_ms } => {
                let f = self.shared.request(FeatureKey::of(tb), tb);
                BackendReply {
                    outcome: Ok((*f).clone()),
                    extra_ms: extra_ms + self.shared.config.amortized_overhead_ms,
                }
            }
        }
    }

    fn available(&self, epoch: u64) -> bool {
        self.inner.available(epoch)
    }

    fn prefetch(&self, requests: &[(&TrackBox, Attempt)]) {
        for (tb, at) in requests {
            if let AttemptClass::Clean { .. } = self.inner.classify(at) {
                self.shared.offer(FeatureKey::of(tb), tb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appearance::AppearanceConfig;
    use crate::session::BoxKey;
    use tm_types::{BBox, FrameIdx, GtObjectId, TrackId};

    fn model() -> AppearanceModel {
        AppearanceModel::new(AppearanceConfig::default())
    }

    fn tb(frame: u64, x: f64, actor: u64) -> TrackBox {
        TrackBox::new(FrameIdx(frame), BBox::new(x, 5.0, 10.0, 20.0))
            .with_provenance(GtObjectId(actor))
    }

    fn at(epoch: u64, track: u64, frame: u64) -> Attempt {
        Attempt {
            epoch,
            attempt: 0,
            key: BoxKey::new(TrackId(track), FrameIdx(frame)),
        }
    }

    #[test]
    fn lane_replies_match_the_bare_model() {
        let m = model();
        let sched = BatchScheduler::new(&m, BatchConfig::default());
        let lane = sched.backend(&m);
        for i in 0..5 {
            let b = tb(i, i as f64, i);
            let got = lane.try_observe(&b, &at(0, 7, i));
            let want = m.try_observe(&b, &at(0, 7, i));
            assert_eq!(got.outcome.unwrap(), want.outcome.unwrap());
            assert_eq!(got.extra_ms, 0.0);
        }
        assert_eq!(sched.stats().requests, 5);
        assert_eq!(sched.stats().computed, 5);
    }

    #[test]
    fn second_stream_hits_the_shared_cache() {
        let m = model();
        let sched = BatchScheduler::new(&m, BatchConfig::default());
        let lane_a = sched.backend(&m);
        let lane_b = sched.backend(&m);
        let b = tb(3, 1.0, 9);
        // Different per-stream BoxKeys, same content → one computation.
        let fa = lane_a.try_observe(&b, &at(0, 1, 3)).outcome.unwrap();
        let fb = lane_b.try_observe(&b, &at(0, 900, 3)).outcome.unwrap();
        assert_eq!(fa, fb);
        let s = sched.stats();
        assert_eq!((s.requests, s.computed, s.saved()), (2, 1, 1));
    }

    #[test]
    fn tenant_sizing_caps_the_dispatch_bound_per_stream() {
        let m = model();
        // A narrow tenant gets a proportionally small dispatch bound…
        let narrow = BatchScheduler::for_tenant(&m, BatchConfig::default(), 2);
        assert_eq!(narrow.config().max_batch, 16);
        // …a wide tenant keeps the configured one…
        let wide = BatchScheduler::for_tenant(&m, BatchConfig::default(), 8);
        assert_eq!(wide.config().max_batch, 32);
        // …and degenerate widths still clamp to a working scheduler whose
        // replies match the bare model.
        let degenerate = BatchScheduler::for_tenant(
            &m,
            BatchConfig {
                max_batch: 0,
                ..BatchConfig::default()
            },
            0,
        );
        assert_eq!(degenerate.config().max_batch, 1);
        let lane = degenerate.backend(&m);
        let b = tb(1, 2.0, 4);
        assert_eq!(
            lane.try_observe(&b, &at(0, 1, 1)).outcome.unwrap(),
            m.try_observe(&b, &at(0, 1, 1)).outcome.unwrap()
        );
    }

    #[test]
    fn prefetch_fills_batches_and_demand_flushes_the_rest() {
        let m = model();
        let sched = BatchScheduler::new(
            &m,
            BatchConfig {
                max_batch: 3,
                ..BatchConfig::default()
            },
        );
        let lane = sched.backend(&m);
        let boxes: Vec<TrackBox> = (0..5).map(|i| tb(i, 2.0 * i as f64, i)).collect();
        let hints: Vec<(&TrackBox, Attempt)> = boxes
            .iter()
            .enumerate()
            .map(|(i, b)| (b, at(0, 1, i as u64)))
            .collect();
        lane.prefetch(&hints);
        // 5 offers at max_batch=3: one full batch flushed, 2 still queued.
        assert_eq!(sched.pending_len(), 2);
        assert_eq!(sched.cached_features(), 3);
        let s = sched.stats();
        assert_eq!(s.largest_batch, 3);
        assert_eq!(s.computed, 3);
        // Demanding any box (even an unqueued one) drains the queue.
        let extra = tb(99, 0.5, 42);
        lane.try_observe(&extra, &at(0, 1, 99));
        assert_eq!(sched.pending_len(), 0);
        assert_eq!(sched.stats().computed, 6);
        assert!(sched.stats().largest_batch <= 3);
    }

    #[test]
    fn duplicate_offers_are_suppressed() {
        let m = model();
        let sched = BatchScheduler::new(&m, BatchConfig::default());
        let lane = sched.backend(&m);
        let b = tb(1, 1.0, 1);
        lane.prefetch(&[(&b, at(0, 1, 1)), (&b, at(0, 2, 1))]);
        assert_eq!(sched.pending_len(), 1);
        // Already-cached content is not re-queued either.
        lane.try_observe(&b, &at(0, 1, 1));
        lane.prefetch(&[(&b, at(0, 3, 1))]);
        assert_eq!(sched.pending_len(), 0);
    }

    #[test]
    fn amortized_overhead_is_charged_per_clean_request() {
        let m = model();
        let sched = BatchScheduler::new(
            &m,
            BatchConfig {
                amortized_overhead_ms: 1.5,
                ..BatchConfig::default()
            },
        );
        let lane = sched.backend(&m);
        let b = tb(1, 1.0, 1);
        assert_eq!(lane.try_observe(&b, &at(0, 1, 1)).extra_ms, 1.5);
        // Cache hits pay it too: it models the stream's share of dispatch
        // overhead, not the compute.
        assert_eq!(lane.try_observe(&b, &at(0, 2, 1)).extra_ms, 1.5);
    }
}
