//! Cross-stream batched ReID scheduling.
//!
//! The fleet ingester (`tm_core::fleet`) runs one [`crate::ReidSession`]
//! per video stream. Left alone, each session would infer every distinct
//! box it misses — even when several cameras watch the same scene and miss
//! the *same* boxes. A [`BatchScheduler`] pools that work: every stream's
//! session talks to its own [`BatchingBackend`] lane, and a lane answers
//! each clean request from one content-keyed feature map, computing the
//! feature through the wrapped [`AppearanceModel`] only when no stream has
//! demanded that content before. Each distinct box is thus inferred
//! exactly once fleet-wide — the cross-stream analogue of the paper's `-B`
//! batched variants — and only when a session demands it, so every feature
//! computed is a feature demanded.
//!
//! ## The per-stream invariance contract
//!
//! A lane must be behaviorally invisible to its stream: every reply a lane
//! produces is **bit-identical** to the reply the wrapped backend would
//! have produced solo. Two design decisions enforce this:
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
//!    between distinct boxes. The reply shares the map's `Arc`, and its
//!    `extra_ms` is the wrapped backend's, so per-stream clocks are
//!    bit-identical to solo runs.
//!
//! ## One lock
//!
//! The feature map and the [`BatchStats`] counters sit behind one `Mutex`,
//! and a content is computed only while it is held, after a map check, so
//! each distinct content is computed once fleet-wide by construction. The
//! lock is never held across a call into a lane (a lane classifies its
//! attempt before it asks the scheduler), so no lane can block on itself.
//!
//! ## Determinism
//!
//! Per-stream replies, and therefore every per-stream output, are
//! deterministic for any thread count or interleaving. So are the
//! scheduler's [`BatchStats`]: `requests` counts the clean attempts the
//! sessions made and `computed` the distinct contents among them, whichever
//! lane happens to demand a content first.

use crate::appearance::AppearanceModel;
use crate::backend::{Attempt, AttemptClass, BackendReply, InferenceBackend, SplitBackend};
use crate::feature::Feature;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
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

/// Configuration of a [`BatchScheduler`]. It has no settings: a lane
/// computes a missing feature when its session demands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchConfig {}

/// Counters describing one scheduler's life so far. All are deterministic
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Clean feature requests answered (map hits included).
    pub requests: u64,
    /// Features actually computed by the wrapped model — the fleet-wide
    /// inference count. `requests - computed` is the batching saving.
    pub computed: u64,
    /// Model calls made. Each miss is computed alone when it is demanded,
    /// so this equals `computed`.
    pub dispatches: u64,
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
    stats: BatchStats,
}

/// The shared cross-stream batching core. One per fleet; hand each stream
/// a lane via [`BatchScheduler::backend`]. See the module docs.
#[derive(Debug)]
pub struct BatchScheduler<'m> {
    model: &'m AppearanceModel,
    state: Mutex<State>,
    obs: Obs,
}

impl<'m> BatchScheduler<'m> {
    /// A scheduler computing clean features through `model`. Captures the
    /// ambient observability scope at construction, so build it inside the
    /// recorder scope whose metrics should see `fleet.batch.*` counters.
    pub fn new(model: &'m AppearanceModel, _config: BatchConfig) -> Self {
        Self {
            model,
            state: Mutex::new(State::default()),
            obs: tm_obs::current(),
        }
    }

    /// A scheduler for one serve-layer tenant of `streams` streams. Lane
    /// replies do not depend on the tenant's width, so this is
    /// [`BatchScheduler::new`], and tenants of any width produce
    /// byte-identical per-stream output.
    pub fn for_tenant(model: &'m AppearanceModel, config: BatchConfig, _streams: usize) -> Self {
        Self::new(model, config)
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

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("batch scheduler poisoned")
    }

    /// A lane demands `key`: count the request and serve it from the map,
    /// computing it first if no stream demanded it before.
    fn request(&self, key: FeatureKey, tb: &TrackBox) -> Arc<Feature> {
        self.obs.counter("fleet.batch.requests", 1);
        let feature = {
            let mut guard = self.lock();
            let s = &mut *guard;
            s.stats.requests += 1;
            match s.features.entry(key) {
                Entry::Occupied(hit) => return Arc::clone(hit.get()),
                Entry::Vacant(slot) => {
                    s.stats.computed += 1;
                    s.stats.dispatches += 1;
                    Arc::clone(slot.insert(Arc::new(self.model.observe_track_box(tb))))
                }
            }
        };
        self.obs.counter("fleet.batch.computed", 1);
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
                outcome: Ok(Arc::new(feature)),
                extra_ms,
            },
            AttemptClass::Clean { extra_ms } => BackendReply {
                outcome: Ok(self.shared.request(FeatureKey::of(tb), tb)),
                extra_ms,
            },
        }
    }

    fn available(&self, epoch: u64) -> bool {
        self.inner.available(epoch)
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
        // Different per-stream BoxKeys, same content → one computation,
        // one shared allocation.
        let fa = lane_a.try_observe(&b, &at(0, 1, 3)).outcome.unwrap();
        let fb = lane_b.try_observe(&b, &at(0, 900, 3)).outcome.unwrap();
        assert!(Arc::ptr_eq(&fa, &fb));
        let s = sched.stats();
        assert_eq!((s.requests, s.computed, s.saved()), (2, 1, 1));
    }

    #[test]
    fn demands_compute_each_content_once() {
        let m = model();
        let sched = BatchScheduler::new(&m, BatchConfig::default());
        let lane = sched.backend(&m);
        // Five contents, the first demanded again under another key.
        let boxes: Vec<TrackBox> = (0..5).map(|i| tb(i, 2.0 * i as f64, i)).collect();
        for (i, b) in boxes.iter().chain(&boxes[..1]).enumerate() {
            lane.try_observe(b, &at(0, 1, i as u64));
        }
        let s = sched.stats();
        assert_eq!((s.requests, s.computed, s.dispatches), (6, 5, 5));
        assert_eq!(sched.cached_features(), 5);
    }
}
