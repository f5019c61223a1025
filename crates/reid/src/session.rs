//! A ReID *session*: model + feature cache + cost accounting.
//!
//! All merging algorithms in `tm-core` obtain BBox-pair distances through a
//! [`ReidSession`]. The session implements the paper's feature-reuse
//! optimization (§IV-B: "if either of the BBoxes' feature vectors has been
//! extracted in previous iterations it can be *reused*") and charges the
//! simulated clock for every inference, distance and GPU round, so the
//! experiment harness can report Runtime/FPS deterministically.
//!
//! ## Cache and cost semantics
//!
//! A session owns its feature cache: one `HashMap` per session, the
//! serial semantics the experiments are calibrated against. Each distinct
//! box is inferred — and its inference cost charged — once per session;
//! every later request for it is a free cache hit. Sharing features
//! *across* sessions is the batching layer's job ([`crate::batch`]), which
//! sits behind the [`InferenceBackend`]: a session still charges every
//! extraction it requests, and caches the `Arc` the backend replied with.
//! With a gate installed, a round's misses are only the boxes it extracts;
//! a reused box takes its donor's feature and asks the backend for nothing.
//!
//! ## Fallible extraction
//!
//! Every feature flows through an [`InferenceBackend`] (default: the
//! appearance model itself, which never fails), and every extraction path
//! is a `try_*` method: each extraction is retried under the session's
//! [`RetryPolicy`] with capped exponential backoff, all failure latency
//! (backend-reported extra milliseconds plus backoff) is charged to the
//! simulated clock, and exhaustion returns
//! [`tm_types::TmError::ReidBackend`]. With a clean backend no retry or
//! backoff is ever charged, so a fault-free run's clock counts exactly its
//! inferences and distances.

use crate::appearance::AppearanceModel;
use crate::backend::{Attempt, InferenceBackend, RetryPolicy};
use crate::cost::{CostModel, Device, ReidStats, SimClock};
use crate::feature::Feature;
use crate::gate::{GateConfig, GateDecision, GatePlan, GatePolicy, GateStats, TrackPlan};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tm_obs::Obs;
use tm_types::{FrameIdx, Result, TmError, TrackBox, TrackId, TrackSet};

/// Identifies one box observation: a (track, frame) pair. Each track has at
/// most one box per frame, so this key is unique. Ordered so checkpoint
/// cache dumps are canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoxKey {
    /// The track the box belongs to.
    pub track: TrackId,
    /// The frame of the observation.
    pub frame: FrameIdx,
}

impl BoxKey {
    /// Creates a key.
    pub fn new(track: TrackId, frame: FrameIdx) -> Self {
        Self { track, frame }
    }
}

/// A BBox pair as the selection algorithms hand it to the session: two
/// `(track, box)` references.
pub type BoxPairRef<'a> = ((TrackId, &'a TrackBox), (TrackId, &'a TrackBox));

/// Where a propagated feature came from: the anchor (donor) box whose
/// feature stands in for the target box, and how old it was. Lets cost
/// accounting prove that exactly the performed extractions were charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureProvenance {
    /// The anchor whose feature was propagated.
    pub donor: BoxKey,
    /// Frame distance from donor to target.
    pub age: u64,
}

/// The gating state a gated session carries (policy `On`): the per-track
/// plan, decision counters with their flush high-water mark, and the
/// provenance of every propagated feature. Boxed so ungated sessions pay
/// one pointer.
#[derive(Debug, Clone)]
struct GateRuntime {
    config: GateConfig,
    plan: GatePlan,
    stats: GateStats,
    flushed: GateStats,
    provenance: HashMap<BoxKey, FeatureProvenance>,
}

/// One propagation the gate scheduled: copy the donor's cached feature to
/// the target key instead of extracting.
#[derive(Debug, Clone, Copy)]
struct Propagation {
    target: BoxKey,
    donor: TrackBox,
    age: u64,
}

/// One extraction round, produced by collection and consumed by
/// inference.
#[derive(Debug, Default)]
struct Round {
    /// Boxes to actually extract, deduplicated, in request order: every
    /// uncached box when ungated; with a gate, the boxes it says Extract
    /// plus donors whose feature is not cached yet.
    misses: Vec<(BoxKey, TrackBox)>,
    /// Donor-to-target feature propagations (uncharged; gated only).
    propagations: Vec<Propagation>,
}

/// A stateful ReID session over one processing unit (typically one window).
#[derive(Debug, Clone)]
pub struct ReidSession<'m> {
    model: &'m AppearanceModel,
    backend: &'m dyn InferenceBackend,
    retry: RetryPolicy,
    epoch: u64,
    cost: CostModel,
    device: Device,
    clock: SimClock,
    /// Session-owned feature cache; `Arc` so cache hits are
    /// allocation-free.
    cache: HashMap<BoxKey, Arc<Feature>>,
    stats: ReidStats,
    obs: Obs,
    /// Reused dedup set for round collection, so steady-state
    /// (warm-cache) batches allocate nothing. Always left empty between
    /// calls; cloning a session clones an empty set.
    scratch_seen: HashSet<BoxKey>,
    /// Extraction gate; `None` (policy `Off`) makes every uncached box an
    /// extraction.
    gate: Option<Box<GateRuntime>>,
}

impl<'m> ReidSession<'m> {
    /// Opens a session with an empty feature cache. The backend defaults
    /// to the model itself (infallible); see [`ReidSession::with_backend`].
    pub fn new(model: &'m AppearanceModel, cost: CostModel, device: Device) -> Self {
        Self {
            model,
            backend: model,
            retry: RetryPolicy::default(),
            epoch: 0,
            cost,
            device,
            clock: SimClock::new(),
            cache: HashMap::new(),
            stats: ReidStats::default(),
            obs: tm_obs::current(),
            scratch_seen: HashSet::new(),
            gate: None,
        }
    }

    /// Routes feature extraction through `backend` instead of the model
    /// (e.g. a fault injector or a batching lane).
    pub fn with_backend(mut self, backend: &'m dyn InferenceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the retry policy (builder-style, like `with_backend`).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs an extraction gate (builder-style). [`GatePolicy::Off`]
    /// (the default) extracts every uncached box, which is what a gate that
    /// always says Extract does too.
    pub fn with_gate(mut self, policy: GatePolicy) -> Self {
        self.gate = match policy {
            GatePolicy::Off => None,
            GatePolicy::On(config) => Some(Box::new(GateRuntime {
                config,
                plan: GatePlan::default(),
                stats: GateStats::default(),
                flushed: GateStats::default(),
                provenance: HashMap::new(),
            })),
        };
        self
    }

    /// The gate policy in force.
    pub fn gate_policy(&self) -> GatePolicy {
        match &self.gate {
            None => GatePolicy::Off,
            Some(rt) => GatePolicy::On(rt.config),
        }
    }

    /// Extends the gate's extraction plan over boxes appended to `tracks`
    /// since the last call (no-op when the gate is off). Free: planning
    /// charges nothing and never touches features.
    pub fn gate_update_plan(&mut self, tracks: &TrackSet) {
        if let Some(rt) = &mut self.gate {
            rt.plan.update(tracks, &rt.config);
        }
    }

    /// Gate decision counters (all-zero when the gate is off).
    pub fn gate_stats(&self) -> GateStats {
        self.gate.as_ref().map(|rt| rt.stats).unwrap_or_default()
    }

    /// Provenance of a propagated feature: `Some` exactly when the box's
    /// cached feature was reused from a donor rather than extracted, so
    /// `inferences` + propagations accounts for every cached entry.
    pub fn feature_provenance(&self, track: TrackId, frame: FrameIdx) -> Option<FeatureProvenance> {
        self.gate
            .as_ref()?
            .provenance
            .get(&BoxKey::new(track, frame))
            .copied()
    }

    /// Flushes gate decision counters accumulated since the previous
    /// flush into the recorder (`reid.gate.{extract,reuse,defer}` and
    /// `reid.gate.saved_charges`), dropping zero deltas — the
    /// `AssignStats::flush` pattern, called once per window by the
    /// merging layer. Returns the flushed delta so callers can attach
    /// per-selector attribution. No-op (all-zero) when the gate is off.
    pub fn flush_gate_obs(&mut self) -> GateStats {
        let Some(rt) = &mut self.gate else {
            return GateStats::default();
        };
        let delta = rt.stats.delta(&rt.flushed);
        rt.flushed = rt.stats;
        if self.obs.enabled() {
            if delta.extracts > 0 {
                self.obs.counter("reid.gate.extract", delta.extracts);
            }
            if delta.reuses > 0 {
                self.obs.counter("reid.gate.reuse", delta.reuses);
            }
            if delta.defers > 0 {
                self.obs.counter("reid.gate.defer", delta.defers);
            }
            if delta.saved_charges() > 0 {
                self.obs
                    .counter("reid.gate.saved_charges", delta.saved_charges());
            }
        }
        delta
    }

    /// Overrides the observability handle (builder-style). Constructors
    /// default to `tm_obs::current()`, so explicit wiring is only needed
    /// when a session must report to a sink other than the ambient one.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The session's observability handle (selectors instrument their
    /// decisions through this, so they need no extra plumbing).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Sets the processing epoch handed to the backend with every attempt
    /// (the merging layer uses the window cursor), so fault plans can
    /// schedule outages per window.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The current processing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Probes whether the backend is accepting work in the current epoch
    /// (circuit-breaker input; free, charges nothing).
    pub fn backend_available(&self) -> bool {
        self.backend.available(self.epoch)
    }

    /// The device this session runs on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Simulated time consumed so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.clock.elapsed_ms()
    }

    /// Work counters.
    pub fn stats(&self) -> ReidStats {
        self.stats
    }

    /// Charges the bookkeeping cost of one Thompson-sampling scan over
    /// `n_pairs` live track pairs (called by TMerge once per iteration).
    pub fn charge_thompson_scan(&mut self, n_pairs: usize) {
        let ms = self.cost.thompson_scan_cost_ms(n_pairs, self.device);
        self.clock.charge(ms);
        if self.obs.enabled() {
            self.obs.counter("selector.thompson_scans", 1);
            self.obs.record_sim_ms("selector.thompson_scan", ms);
        }
    }

    /// Charges the bookkeeping cost of one LCB scan over `n_pairs` pairs.
    pub fn charge_lcb_scan(&mut self, n_pairs: usize) {
        let ms = self.cost.lcb_scan_cost_ms(n_pairs, self.device);
        self.clock.charge(ms);
        if self.obs.enabled() {
            self.obs.counter("selector.lcb_scans", 1);
            self.obs.record_sim_ms("selector.lcb_scan", ms);
        }
    }

    /// Charges one inference call of `n_new` items and counts it.
    fn charge_inference_round(&mut self, n_new: usize) {
        if n_new == 0 {
            return;
        }
        let ms = self.cost.infer_cost_ms(n_new, self.device);
        self.clock.charge(ms);
        if self.device.is_gpu() {
            self.stats.gpu_rounds += 1;
        }
        self.stats.inferences += n_new as u64;
        if self.obs.enabled() {
            self.obs.counter("reid.inference_rounds", 1);
            self.obs.counter("reid.inferences", n_new as u64);
            self.obs.record_sim_ms("reid.infer", ms);
        }
    }

    // ------------------------------------------------------------------
    // Extraction rounds. Collection walks the requested boxes, skips
    // cached and repeated keys, and asks the gate (when one is installed)
    // about each remaining box: Extract → miss; Reuse → propagate the
    // donor, promoting an uncached donor to a miss so the cache never holds
    // a value nobody computed. Without a gate every remaining box is a
    // miss. Inference then charges exactly the misses — one round — and
    // applies the propagations uncharged, recording provenance.
    // ------------------------------------------------------------------

    /// Collects one round over `(track, box)` items, deduplicated through
    /// the reusable scratch set, cache hits skipped.
    fn collect<'a>(&mut self, items: impl IntoIterator<Item = (TrackId, &'a TrackBox)>) -> Round {
        let mut seen = std::mem::take(&mut self.scratch_seen);
        let mut round = Round::default();
        for (t, b) in items {
            let key = BoxKey::new(t, b.frame);
            if self.cache.contains_key(&key) || !seen.insert(key) {
                continue;
            }
            let Some(rt) = self.gate.as_deref_mut() else {
                round.misses.push((key, *b));
                continue;
            };
            let GateDecision::Reuse { donor, age } = rt.plan.decide(t, b.frame, &rt.config) else {
                rt.stats.extracts += 1;
                round.misses.push((key, *b));
                continue;
            };
            let dkey = BoxKey::new(t, donor.frame);
            // A donor nobody extracted yet is promoted to a miss: the
            // propagation below then shares a real computed feature, and
            // the charge covers it.
            if !self.cache.contains_key(&dkey) && seen.insert(dkey) {
                rt.stats.extracts += 1;
                round.misses.push((dkey, donor));
            }
            // A low-confidence reuse is labelled a deferral.
            if rt.config.confidence(age) < rt.config.defer_below {
                rt.stats.defers += 1;
            } else {
                rt.stats.reuses += 1;
            }
            round.propagations.push(Propagation {
                target: key,
                donor,
                age,
            });
        }
        seen.clear();
        self.scratch_seen = seen;
        round
    }

    /// Inference half of a round. Each miss is extracted through the
    /// backend (with retries) and **one** inference call is charged for all
    /// of them. An exhausted retry ladder aborts the round before any
    /// feature is cached or propagated; attempt and backoff charges already
    /// on the clock stay (failed work still costs time), but no inference
    /// round is charged.
    fn try_infer(&mut self, round: Round) -> Result<()> {
        if !round.misses.is_empty() {
            let n = round.misses.len();
            let mut computed: Vec<(BoxKey, Arc<Feature>)> = Vec::with_capacity(n);
            for (key, b) in &round.misses {
                computed.push((*key, self.try_observe_retry(*key, b)?));
            }
            self.cache.extend(computed);
            self.charge_inference_round(n);
        }
        self.apply_propagations(&round.propagations);
        Ok(())
    }

    /// Copies each donor's cached feature to its target key and records
    /// provenance. Uncharged: propagation moves an `Arc`, not the model.
    fn apply_propagations(&mut self, props: &[Propagation]) {
        for p in props {
            let dkey = BoxKey::new(p.target.track, p.donor.frame);
            let f = match self.cache.get(&dkey) {
                Some(f) => Arc::clone(f),
                // Unreachable (collection promotes uncached donors to
                // misses), but the hot path stays panic-free: fall back
                // to the pure model, uncharged.
                None => Arc::new(self.model.observe_track_box(&p.donor)),
            };
            self.cache.insert(p.target, f);
            if let Some(rt) = &mut self.gate {
                let (donor, age) = (dkey, p.age);
                rt.provenance
                    .insert(p.target, FeatureProvenance { donor, age });
            }
        }
    }

    /// Charges the distance cost and evaluates every pair from the cache,
    /// which the round before it has warmed.
    fn charged_pair_distances(&mut self, pairs: &[BoxPairRef<'_>]) -> Vec<f64> {
        let ms = self.cost.distance_cost_ms(pairs.len(), self.device);
        self.clock.charge(ms);
        self.stats.distances += pairs.len() as u64;
        if self.obs.enabled() {
            self.obs.counter("reid.distances", pairs.len() as u64);
            // The per-pair loop below counts a hit for each side.
            self.obs.counter("reid.cache_hits", 2 * pairs.len() as u64);
            self.obs.record_sim_ms("reid.distance", ms);
        }
        let mut out = Vec::with_capacity(pairs.len());
        for ((ta, ba), (tb, bb)) in pairs {
            self.stats.cache_hits += 2;
            let (ka, kb) = (BoxKey::new(*ta, ba.frame), BoxKey::new(*tb, bb.frame));
            let d = match (self.cache.get(&ka), self.cache.get(&kb)) {
                (Some(fa), Some(fb)) => fa.euclidean(fb),
                _ => {
                    let fa = self.cached_or_recompute(ka, ba);
                    fa.euclidean(&self.cached_or_recompute(kb, bb))
                }
            };
            out.push(d);
        }
        out
    }

    /// A cache read after a round. The round guarantees every key is
    /// cached, but the hot path must stay panic-free, so an (unreachable)
    /// miss falls back to the pure model, uncharged, instead of unwrapping.
    fn cached_or_recompute(&mut self, key: BoxKey, tb: &TrackBox) -> Arc<Feature> {
        if let Some(f) = self.cache.get(&key) {
            return Arc::clone(f);
        }
        let f = Arc::new(self.model.observe_track_box(tb));
        self.cache.insert(key, Arc::clone(&f));
        f
    }

    /// Number of distinct features currently cached.
    pub fn cached_features(&self) -> usize {
        self.cache.len()
    }

    /// Evicts cached features for boxes strictly before `frame`, returning
    /// how many were dropped. The serve layer's retention compactor calls
    /// this with the horizon start: the model is pure, so re-deriving an
    /// evicted feature later yields the identical vector — eviction
    /// changes memory and clock charges, never decisions.
    pub fn evict_cached_before(&mut self, frame: FrameIdx) -> usize {
        let before = self.cache.len();
        self.cache.retain(|key, _| key.frame.get() >= frame.get());
        before - self.cache.len()
    }

    /// Reads a cached feature (populated by a prior extraction).
    pub fn cached_feature(&self, track: TrackId, frame: FrameIdx) -> Option<Arc<Feature>> {
        self.cache.get(&BoxKey::new(track, frame)).cloned()
    }

    /// Charges the cost of `n` pairwise distances computed outside the
    /// session (bulk scoring keeps the arithmetic in a dense loop and
    /// reports the work here so the simulated clock stays exact).
    pub fn charge_distance_batch(&mut self, n: usize) {
        let ms = self.cost.distance_cost_ms(n, self.device);
        self.clock.charge(ms);
        self.stats.distances += n as u64;
        if self.obs.enabled() {
            self.obs.counter("reid.distances", n as u64);
            self.obs.record_sim_ms("reid.distance", ms);
        }
    }

    // ------------------------------------------------------------------
    // Extraction through the backend (see the module docs).
    // ------------------------------------------------------------------

    /// One extraction through the backend with retry/backoff. Charges every
    /// attempt's backend-reported extra latency and, after each failure
    /// short of the last, the policy's backoff — all in simulated time.
    fn try_observe_retry(&mut self, key: BoxKey, tb: &TrackBox) -> Result<Arc<Feature>> {
        let max = self.retry.max_attempts.max(1);
        let mut last_reason = "";
        for attempt in 0..max {
            let at = Attempt {
                epoch: self.epoch,
                attempt,
                key,
            };
            let reply = self.backend.try_observe(tb, &at);
            self.clock.charge(reply.extra_ms);
            last_reason = match reply.outcome {
                Ok(f) if f.is_finite() => return Ok(f),
                Ok(_) => "non-finite feature components",
                Err(fault) => fault.reason(),
            };
            self.stats.backend_faults += 1;
            self.obs.counter("reid.backend_faults", 1);
            if attempt + 1 < max {
                self.stats.retries += 1;
                let backoff = self.retry.backoff_ms(attempt);
                self.clock.charge(backoff);
                if self.obs.enabled() {
                    self.obs.counter("reid.retries", 1);
                    self.obs.record_sim_ms("reid.backoff", backoff);
                }
            }
        }
        self.obs.event(
            "reid_retries_exhausted",
            &[("attempts", tm_obs::Value::U64(max as u64))],
        );
        Err(TmError::ReidBackend {
            attempts: max,
            reason: last_reason.to_string(),
        })
    }

    /// Extracts (or reuses) the feature for one box, charging inference cost
    /// on a cache miss. Hits return a shared handle without copying the
    /// vector.
    pub fn try_feature(&mut self, track: TrackId, tb: &TrackBox) -> Result<Arc<Feature>> {
        let key = BoxKey::new(track, tb.frame);
        if let Some(f) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            self.obs.counter("reid.cache_hits", 1);
            return Ok(Arc::clone(f));
        }
        let round = self.collect([(track, tb)]);
        self.try_infer(round)?;
        Ok(self.cached_or_recompute(key, tb))
    }

    /// The distance of one BBox pair, extracting whatever features are not
    /// cached in a single inference call (on GPU: one round).
    pub fn try_pair_distance(
        &mut self,
        a: (TrackId, &TrackBox),
        b: (TrackId, &TrackBox),
    ) -> Result<f64> {
        Ok(self.try_pair_distances_batch(&[(a, b)])?[0])
    }

    /// Evaluates a batch of BBox pairs in one round.
    ///
    /// All features missing from the cache are inferred in a single call
    /// (one GPU round with one launch overhead, or a CPU loop), then the
    /// pairwise distances are charged and returned in input order. This is
    /// the primitive behind every `-B` algorithm (§IV-F).
    pub fn try_pair_distances_batch(&mut self, pairs: &[BoxPairRef<'_>]) -> Result<Vec<f64>> {
        let round = self.collect(pairs.iter().flat_map(|&(a, b)| [a, b]));
        self.try_infer(round)?;
        Ok(self.charged_pair_distances(pairs))
    }

    /// Ensures every listed box has a cached feature, inferring all misses
    /// in **one** call (one GPU round). Read the features back with
    /// [`ReidSession::cached_feature`]. This is the bulk-ingest path used by
    /// the exact (baseline) scorer, where per-item cache lookups would
    /// dominate wall-clock.
    pub fn try_ensure_features(&mut self, boxes: &[(TrackId, &TrackBox)]) -> Result<()> {
        let round = self.collect(boxes.iter().copied());
        self.try_infer(round)
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Captures the session's mutable state (clock, counters and a handle
    /// on every cached feature, in canonical key order).
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut cache: Vec<(BoxKey, Arc<Feature>)> = self
            .cache
            .iter()
            .map(|(k, f)| (*k, Arc::clone(f)))
            .collect();
        cache.sort_by_key(|(k, _)| *k);
        let gate = self.gate.as_ref().map(|rt| {
            let mut provenance: Vec<(BoxKey, FeatureProvenance)> =
                rt.provenance.iter().map(|(k, v)| (*k, *v)).collect();
            provenance.sort_by_key(|(k, _)| *k);
            GateSnapshot {
                config: rt.config,
                stats: rt.stats,
                flushed: rt.flushed,
                provenance,
                plans: rt.plan.export(),
            }
        });
        SessionSnapshot {
            elapsed_ms: self.clock.elapsed_ms(),
            stats: self.stats,
            cache,
            gate,
        }
    }

    /// Restores a snapshot taken by [`ReidSession::snapshot`]: the clock
    /// and counters are set (not re-charged) and the cache shares the
    /// snapshot's features, so the resumed session is indistinguishable
    /// from the one that was checkpointed.
    pub fn restore_snapshot(&mut self, snap: &SessionSnapshot) {
        self.clock.set_elapsed_ms(snap.elapsed_ms);
        self.stats = snap.stats;
        self.cache = snap
            .cache
            .iter()
            .map(|(k, f)| (*k, Arc::clone(f)))
            .collect();
        self.gate = snap.gate.as_ref().map(|g| {
            Box::new(GateRuntime {
                config: g.config,
                plan: GatePlan::import(g.plans.clone()),
                stats: g.stats,
                flushed: g.flushed,
                provenance: g.provenance.iter().copied().collect(),
            })
        });
    }
}

/// A session's mutable state as captured by [`ReidSession::snapshot`].
/// Features are shared handles (checkpoints write their raw components and
/// read them back verbatim via [`Feature::from_raw`]) and the cache is
/// sorted by key, so equal sessions produce equal snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Simulated time consumed when the snapshot was taken.
    pub elapsed_ms: f64,
    /// Work counters at snapshot time.
    pub stats: ReidStats,
    /// Cache contents in ascending key order.
    pub cache: Vec<(BoxKey, Arc<Feature>)>,
    /// Gate runtime state; `None` for ungated sessions, so pre-gating
    /// snapshots compare (and serialize) exactly as before.
    pub gate: Option<GateSnapshot>,
}

/// The gate runtime as captured by [`ReidSession::snapshot`]: config,
/// counters with their flush mark, provenance and per-track plans, all in
/// canonical order so equal gated sessions produce equal snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSnapshot {
    /// The configuration the gate was running.
    pub config: GateConfig,
    /// Decision counters at snapshot time.
    pub stats: GateStats,
    /// Counter values at the last `flush_gate_obs` (so a resumed session
    /// flushes only post-restore deltas).
    pub flushed: GateStats,
    /// Propagated-feature provenance in ascending target-key order.
    pub provenance: Vec<(BoxKey, FeatureProvenance)>,
    /// Per-track plans in ascending `TrackId` order.
    pub plans: Vec<(TrackId, TrackPlan)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appearance::AppearanceConfig;
    use tm_types::{BBox, GtObjectId};

    fn tb(frame: u64, actor: u64) -> TrackBox {
        TrackBox::new(FrameIdx(frame), BBox::new(0.0, 0.0, 10.0, 10.0))
            .with_provenance(GtObjectId(actor))
    }

    fn model() -> AppearanceModel {
        AppearanceModel::new(AppearanceConfig::default())
    }

    #[test]
    fn features_are_cached_and_reused() {
        let m = model();
        let mut s = ReidSession::new(&m, CostModel::calibrated(), Device::Cpu);
        let b = tb(3, 1);
        let f1 = s.try_feature(TrackId(1), &b).unwrap();
        let cost_after_first = s.elapsed_ms();
        let f2 = s.try_feature(TrackId(1), &b).unwrap();
        assert_eq!(f1, f2);
        assert!(Arc::ptr_eq(&f1, &f2), "cache hit must reuse the allocation");
        assert_eq!(s.elapsed_ms(), cost_after_first, "cache hit must be free");
        assert_eq!(s.stats().inferences, 1);
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn observed_session_mirrors_stats_into_the_recorder() {
        let m = model();
        let rec = Arc::new(tm_obs::Recorder::new());
        let mut s = ReidSession::new(&m, CostModel::calibrated(), Device::Cpu)
            .with_obs(Obs::new(rec.clone()));
        let b = tb(3, 1);
        s.try_feature(TrackId(1), &b).unwrap();
        s.try_feature(TrackId(1), &b).unwrap();
        let b2 = tb(4, 2);
        s.try_pair_distance((TrackId(1), &b), (TrackId(2), &b2))
            .unwrap();
        assert_eq!(rec.counter_value("reid.inferences"), s.stats().inferences);
        assert_eq!(rec.counter_value("reid.cache_hits"), s.stats().cache_hits);
        assert_eq!(rec.counter_value("reid.distances"), s.stats().distances);
        // The sim histogram totals are the quantized clock charges (each
        // charge is quantized independently, so allow 1 tick per event).
        let infer = rec.sim_hist("reid.infer").unwrap();
        let dist = rec.sim_hist("reid.distance").unwrap();
        let events = (infer.count + dist.count) as i128;
        let diff = infer.sum_ticks + dist.sum_ticks - tm_obs::ticks(s.elapsed_ms());
        assert!(diff.abs() <= events, "tick totals drifted: {diff}");
    }

    #[test]
    fn pair_distance_charges_inference_and_distance() {
        let m = model();
        let cost = CostModel::calibrated();
        let mut s = ReidSession::new(&m, cost, Device::Cpu);
        let d = s
            .try_pair_distance((TrackId(1), &tb(0, 1)), (TrackId(2), &tb(0, 2)))
            .unwrap();
        assert!(d > 0.0);
        let expected = 2.0 * cost.cpu_infer_ms + cost.cpu_dist_ms;
        assert!((s.elapsed_ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn same_actor_distance_below_cross_actor() {
        let m = model();
        let mut s = ReidSession::new(&m, CostModel::zero(), Device::Cpu);
        let same = s
            .try_pair_distance((TrackId(1), &tb(0, 5)), (TrackId(2), &tb(10, 5)))
            .unwrap();
        let cross = s
            .try_pair_distance((TrackId(1), &tb(0, 5)), (TrackId(3), &tb(10, 6)))
            .unwrap();
        assert!(same < cross, "same {same} cross {cross}");
    }

    #[test]
    fn batch_charges_one_gpu_round() {
        let m = model();
        let cost = CostModel::calibrated();
        let gpu = Device::Gpu { batch: 10 };
        let mut s = ReidSession::new(&m, cost, gpu);
        let pairs: Vec<_> = (0..10u64)
            .map(|i| ((TrackId(1), tb(i, 1)), (TrackId(2), tb(i, 2))))
            .collect();
        let borrowed: Vec<_> = pairs
            .iter()
            .map(|((t1, b1), (t2, b2))| ((*t1, b1), (*t2, b2)))
            .collect();
        let ds = s.try_pair_distances_batch(&borrowed).unwrap();
        assert_eq!(ds.len(), 10);
        assert_eq!(s.stats().gpu_rounds, 1);
        assert_eq!(s.stats().inferences, 20);
        let expected = cost.gpu_call_overhead_ms
            + 20.0 * cost.gpu_infer_item_ms
            + 10.0 * cost.gpu_dist_item_ms;
        assert!((s.elapsed_ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn batch_dedupes_shared_boxes() {
        let m = model();
        let mut s = ReidSession::new(&m, CostModel::calibrated(), Device::Cpu);
        let shared = tb(0, 1);
        let other1 = tb(0, 2);
        let other2 = tb(1, 2);
        // The shared box appears in both pairs → only 3 inferences.
        let ds = s
            .try_pair_distances_batch(&[
                ((TrackId(1), &shared), (TrackId(2), &other1)),
                ((TrackId(1), &shared), (TrackId(2), &other2)),
            ])
            .unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(s.stats().inferences, 3);
    }

    #[test]
    fn batch_reuses_cross_call_cache() {
        let m = model();
        let cost = CostModel::calibrated();
        let mut s = ReidSession::new(&m, cost, Device::Cpu);
        let a = tb(0, 1);
        let b = tb(0, 2);
        s.try_pair_distance((TrackId(1), &a), (TrackId(2), &b))
            .unwrap();
        let before = s.elapsed_ms();
        s.try_pair_distance((TrackId(1), &a), (TrackId(2), &b))
            .unwrap();
        // Second call: no inference, only one distance.
        assert!((s.elapsed_ms() - before - cost.cpu_dist_ms).abs() < 1e-9);
        assert_eq!(s.stats().inferences, 2);
    }

    #[test]
    fn distances_match_direct_model_evaluation() {
        let m = model();
        let mut s = ReidSession::new(&m, CostModel::zero(), Device::Cpu);
        let a = tb(4, 7);
        let b = tb(9, 8);
        let via_session = s
            .try_pair_distance((TrackId(1), &a), (TrackId(2), &b))
            .unwrap();
        let direct = m.observe_track_box(&a).euclidean(&m.observe_track_box(&b));
        assert!((via_session - direct).abs() < 1e-12);
    }

    #[test]
    fn normalized_distance_is_in_unit_interval() {
        let m = model();
        let mut s = ReidSession::new(&m, CostModel::zero(), Device::Cpu);
        for i in 0..20u64 {
            let d = s
                .try_pair_distance(
                    (TrackId(1), &tb(i, i % 5)),
                    (TrackId(2), &tb(i + 1, (i + 1) % 5)),
                )
                .unwrap()
                / crate::feature::NORMALIZER;
            assert!((0.0..=1.0).contains(&d), "d̃={d}");
        }
    }

    #[test]
    fn scan_charges_follow_device() {
        let m = model();
        let cost = CostModel::calibrated();
        let mut cpu = ReidSession::new(&m, cost, Device::Cpu);
        cpu.charge_thompson_scan(400);
        let mut gpu = ReidSession::new(&m, cost, Device::Gpu { batch: 10 });
        gpu.charge_thompson_scan(400);
        assert!(gpu.elapsed_ms() < cpu.elapsed_ms());
    }

    /// A backend that fails the first `fail_first` attempts of every
    /// extraction, then defers to the model.
    #[derive(Debug)]
    struct Flaky<'a> {
        model: &'a AppearanceModel,
        fail_first: u32,
        corrupt: bool,
    }

    impl crate::backend::InferenceBackend for Flaky<'_> {
        fn try_observe(
            &self,
            tb: &TrackBox,
            at: &crate::backend::Attempt,
        ) -> crate::backend::BackendReply {
            if at.attempt < self.fail_first {
                if self.corrupt {
                    crate::backend::BackendReply {
                        outcome: Ok(Arc::new(Feature::from_raw(vec![f64::NAN, 0.0]))),
                        extra_ms: 1.5,
                    }
                } else {
                    crate::backend::BackendReply::fault(
                        crate::backend::BackendFault::Transient("injected timeout"),
                        1.5,
                    )
                }
            } else {
                crate::backend::BackendReply::ok(self.model.observe_track_box(tb))
            }
        }
    }

    #[test]
    fn transient_faults_are_retried_and_charged() {
        let m = model();
        let flaky = Flaky {
            model: &m,
            fail_first: 2,
            corrupt: false,
        };
        let cost = CostModel::calibrated();
        let mut s = ReidSession::new(&m, cost, Device::Cpu).with_backend(&flaky);
        let policy = s.retry_policy();
        let a = tb(0, 1);
        let b = tb(0, 2);
        let d = s
            .try_pair_distance((TrackId(1), &a), (TrackId(2), &b))
            .expect("succeeds on the third attempt");
        let mut clean = ReidSession::new(&m, cost, Device::Cpu);
        let d_clean = clean
            .try_pair_distance((TrackId(1), &a), (TrackId(2), &b))
            .unwrap();
        assert_eq!(d, d_clean, "retried features must equal clean features");
        assert_eq!(s.stats().retries, 4, "2 retries per box");
        assert_eq!(s.stats().backend_faults, 4);
        // Per box: 2 failed attempts × 1.5 ms extra + backoff(0) + backoff(1).
        let per_box = 2.0 * 1.5 + policy.backoff_ms(0) + policy.backoff_ms(1);
        let expected = clean.elapsed_ms() + 2.0 * per_box;
        assert!((s.elapsed_ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn corrupted_features_are_treated_as_faults() {
        let m = model();
        let flaky = Flaky {
            model: &m,
            fail_first: 1,
            corrupt: true,
        };
        let mut s = ReidSession::new(&m, CostModel::zero(), Device::Cpu).with_backend(&flaky);
        let a = tb(2, 1);
        let f = s
            .try_feature(TrackId(1), &a)
            .expect("retry fixes corruption");
        assert!(f.is_finite());
        assert_eq!(f.as_slice(), m.observe_track_box(&a).as_slice());
        assert_eq!(s.stats().backend_faults, 1);
        assert_eq!(s.stats().retries, 1);
    }

    #[test]
    fn exhausted_retries_return_backend_error() {
        let m = model();
        let flaky = Flaky {
            model: &m,
            fail_first: u32::MAX,
            corrupt: false,
        };
        let mut s = ReidSession::new(&m, CostModel::zero(), Device::Cpu).with_backend(&flaky);
        let a = tb(0, 1);
        let err = s
            .try_feature(TrackId(1), &a)
            .expect_err("backend never recovers");
        assert!(err.is_backend(), "got {err:?}");
        assert!(err.to_string().contains("injected timeout"));
        assert_eq!(s.stats().inferences, 0, "no inference round on failure");
        assert_eq!(
            s.stats().backend_faults as u32,
            s.retry_policy().max_attempts
        );
    }

    #[test]
    fn snapshot_restore_is_byte_exact() {
        let m = model();
        let cost = CostModel::calibrated();
        let mut s = ReidSession::new(&m, cost, Device::Cpu);
        s.try_pair_distance((TrackId(1), &tb(0, 1)), (TrackId(2), &tb(0, 2)))
            .unwrap();
        s.try_feature(TrackId(1), &tb(0, 1)).unwrap();
        let snap = s.snapshot();

        let mut fresh = ReidSession::new(&m, cost, Device::Cpu);
        fresh.restore_snapshot(&snap);
        assert_eq!(fresh.elapsed_ms().to_bits(), s.elapsed_ms().to_bits());
        assert_eq!(fresh.stats(), s.stats());
        assert_eq!(fresh.cached_features(), s.cached_features());
        // Continuing from the restore reproduces the original trajectory.
        let d1 = s
            .try_pair_distance((TrackId(1), &tb(5, 1)), (TrackId(2), &tb(5, 2)))
            .unwrap();
        let d2 = fresh
            .try_pair_distance((TrackId(1), &tb(5, 1)), (TrackId(2), &tb(5, 2)))
            .unwrap();
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(fresh.elapsed_ms().to_bits(), s.elapsed_ms().to_bits());
        assert_eq!(fresh.snapshot(), s.snapshot());
    }

    fn gate_tracks(frames_per_track: &[(u64, &[u64])]) -> tm_types::TrackSet {
        let mut set = tm_types::TrackSet::new();
        for &(id, frames) in frames_per_track {
            // Spatially separated per track so the crowding signal stays
            // quiet and reuse decisions actually occur.
            let boxes = frames
                .iter()
                .map(|&f| {
                    TrackBox::new(FrameIdx(f), BBox::new(100.0 * id as f64, 0.0, 10.0, 10.0))
                        .with_provenance(GtObjectId(id))
                })
                .collect();
            set.insert(tm_types::Track::with_boxes(
                TrackId(id),
                tm_types::ClassId(1),
                boxes,
            ));
        }
        set
    }

    fn track_pairs(set: &tm_types::TrackSet) -> Vec<((TrackId, TrackBox), (TrackId, TrackBox))> {
        let tracks: Vec<_> = set.iter().collect();
        let mut pairs = Vec::new();
        for a in &tracks {
            for b in &tracks {
                if a.id >= b.id {
                    continue;
                }
                for (ba, bb) in a.boxes.iter().zip(b.boxes.iter()) {
                    pairs.push(((a.id, *ba), (b.id, *bb)));
                }
            }
        }
        pairs
    }

    #[test]
    fn gated_always_extract_is_bit_identical_to_ungated() {
        let m = model();
        let cost = CostModel::calibrated();
        let set = gate_tracks(&[(1, &[0, 1, 2, 3, 9, 10]), (2, &[0, 1, 2, 3, 9, 10])]);
        let pairs = track_pairs(&set);
        let borrowed: Vec<_> = pairs
            .iter()
            .map(|((t1, b1), (t2, b2))| ((*t1, b1), (*t2, b2)))
            .collect();

        let mut plain = ReidSession::new(&m, cost, Device::Cpu);
        let mut gated = ReidSession::new(&m, cost, Device::Cpu)
            .with_gate(crate::gate::GatePolicy::On(GateConfig::always_extract()));
        gated.gate_update_plan(&set);

        let d1 = plain.try_pair_distances_batch(&borrowed).unwrap();
        let d2 = gated.try_pair_distances_batch(&borrowed).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(plain.elapsed_ms().to_bits(), gated.elapsed_ms().to_bits());
        assert_eq!(plain.stats(), gated.stats());
        assert_eq!(gated.gate_stats().saved_charges(), 0);
    }

    #[test]
    fn gated_session_saves_charges_and_records_provenance() {
        let m = model();
        let cost = CostModel::calibrated();
        let frames: Vec<u64> = (0..24).collect();
        let set = gate_tracks(&[(1, &frames), (2, &frames)]);
        let pairs = track_pairs(&set);
        let borrowed: Vec<_> = pairs
            .iter()
            .map(|((t1, b1), (t2, b2))| ((*t1, b1), (*t2, b2)))
            .collect();

        let mut plain = ReidSession::new(&m, cost, Device::Cpu);
        let mut gated = ReidSession::new(&m, cost, Device::Cpu)
            .with_gate(crate::gate::GatePolicy::On(GateConfig::default()));
        gated.gate_update_plan(&set);

        plain.try_pair_distances_batch(&borrowed).unwrap();
        gated.try_pair_distances_batch(&borrowed).unwrap();
        assert!(
            gated.stats().inferences < plain.stats().inferences,
            "gate must cut inferences: gated {} vs plain {}",
            gated.stats().inferences,
            plain.stats().inferences
        );
        let gs = gated.gate_stats();
        assert!(gs.saved_charges() > 0);
        assert_eq!(
            gs.extracts,
            gated.stats().inferences,
            "charges must equal performed extractions"
        );
        // Every cached feature is either an extraction or has provenance.
        let mut propagated = 0usize;
        for t in set.iter() {
            for b in &t.boxes {
                assert!(gated.cached_feature(t.id, b.frame).is_some());
                if let Some(p) = gated.feature_provenance(t.id, b.frame) {
                    propagated += 1;
                    assert!(p.age > 0);
                    assert!(gated.cached_feature(p.donor.track, p.donor.frame).is_some());
                }
            }
        }
        assert_eq!(
            propagated as u64,
            gs.saved_charges(),
            "each saved charge is one propagated feature"
        );
        assert_eq!(gated.stats().distances, plain.stats().distances);
    }

    #[test]
    fn gated_lane_computes_exactly_what_the_session_charges() {
        let m = model();
        let sched = crate::BatchScheduler::new(&m, crate::BatchConfig::default());
        let lane = sched.backend(&m);
        let frames: Vec<u64> = (0..24).collect();
        let set = gate_tracks(&[(1, &frames), (2, &frames), (3, &frames)]);
        let pairs = track_pairs(&set);
        let borrowed: Vec<_> = pairs
            .iter()
            .map(|((t1, b1), (t2, b2))| ((*t1, b1), (*t2, b2)))
            .collect();
        let config = GateConfig::default();
        let mut s = ReidSession::new(&m, CostModel::calibrated(), Device::Cpu)
            .with_backend(&lane)
            .with_gate(crate::gate::GatePolicy::On(config));
        s.gate_update_plan(&set);
        s.try_pair_distances_batch(&borrowed).unwrap();
        // Nothing is computed that the session did not demand and charge.
        let b = sched.stats();
        assert_eq!(b.computed, b.requests);
        assert_eq!(b.requests, s.stats().inferences);
        assert_eq!(sched.cached_features() as u64, b.computed);
        // Reuses below the confidence floor are counted as deferrals.
        let gs = s.gate_stats();
        let low = set
            .iter()
            .flat_map(|t| t.boxes.iter().map(move |b| (t.id, b.frame)))
            .filter_map(|(t, f)| s.feature_provenance(t, f))
            .filter(|p| config.confidence(p.age) < config.defer_below)
            .count();
        assert!(gs.defers > 0 && gs.reuses > 0, "{gs:?}");
        assert_eq!(gs.defers, low as u64);
    }

    #[test]
    fn gated_snapshot_roundtrips() {
        let m = model();
        let cost = CostModel::calibrated();
        let frames: Vec<u64> = (0..16).collect();
        let set = gate_tracks(&[(1, &frames)]);
        let policy = crate::gate::GatePolicy::On(GateConfig::default());
        let mut s = ReidSession::new(&m, cost, Device::Cpu).with_gate(policy);
        s.gate_update_plan(&set);
        let track = set.iter().next().unwrap();
        let boxes: Vec<_> = track.boxes.iter().map(|b| (track.id, b)).collect();
        s.try_ensure_features(&boxes).unwrap();
        s.flush_gate_obs();
        let snap = s.snapshot();
        assert!(snap.gate.is_some());

        let mut fresh = ReidSession::new(&m, cost, Device::Cpu);
        fresh.restore_snapshot(&snap);
        assert_eq!(fresh.gate_policy(), s.gate_policy());
        assert_eq!(fresh.gate_stats(), s.gate_stats());
        assert_eq!(fresh.snapshot(), snap);
        // The restored plan keeps deciding like the original.
        let extra = tb(30, 1).with_provenance(GtObjectId(1));
        let f1 = s.try_feature(TrackId(1), &extra).unwrap();
        let f2 = fresh.try_feature(TrackId(1), &extra).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(s.elapsed_ms().to_bits(), fresh.elapsed_ms().to_bits());
    }

    #[test]
    fn epoch_is_forwarded_to_the_backend() {
        #[derive(Debug)]
        struct DownAtOdd<'a>(&'a AppearanceModel);
        impl crate::backend::InferenceBackend for DownAtOdd<'_> {
            fn try_observe(
                &self,
                tb: &TrackBox,
                at: &crate::backend::Attempt,
            ) -> crate::backend::BackendReply {
                if at.epoch % 2 == 1 {
                    crate::backend::BackendReply::fault(
                        crate::backend::BackendFault::Unavailable,
                        0.0,
                    )
                } else {
                    crate::backend::BackendReply::ok(self.0.observe_track_box(tb))
                }
            }
            fn available(&self, epoch: u64) -> bool {
                epoch.is_multiple_of(2)
            }
        }
        let m = model();
        let backend = DownAtOdd(&m);
        let mut s = ReidSession::new(&m, CostModel::zero(), Device::Cpu).with_backend(&backend);
        assert!(s.backend_available());
        assert!(s.try_feature(TrackId(1), &tb(0, 1)).is_ok());
        s.set_epoch(1);
        assert_eq!(s.epoch(), 1);
        assert!(!s.backend_available());
        let err = s.try_feature(TrackId(1), &tb(9, 1)).expect_err("down");
        assert!(err.is_backend());
        s.set_epoch(2);
        assert!(s.try_feature(TrackId(1), &tb(9, 1)).is_ok());
    }
}
