//! Cross-camera global identity resolution over a fleet of streams.
//!
//! The paper's merging recurrence — and the [`crate::fleet`] built on it —
//! stops at the camera boundary: N shards share a feature cache but never
//! an identity, so a person walking between viewports is N different
//! people. This module adds the city-scale tier on top: a
//! [`GlobalMerger`] consumes the *same* per-camera feeds a
//! [`crate::FleetIngester`] ingests (read-only — it never touches shard
//! state, so every shard stays byte-identical to its solo run; see
//! `crates/bench/tests/global_differential.rs`) and resolves identities
//! *across* cameras.
//!
//! ## Topology pruning (Clique)
//!
//! The cross-camera candidate space is quadratic in tracks; most of it is
//! physically impossible. A [`CameraTopology`] keeps one
//! [`TravelProfile`] per directed camera pair — an integer-tick
//! travel-time histogram, updated online from *confirmed* cross-camera
//! merges — and a pair (track exiting camera A, track entering camera B)
//! is admissible only if its Δt (entry's first frame − exit's last
//! frame) falls inside the profile's envelope. Until a profile has
//! [`GlobalConfig::min_confirmations`] observations, a permissive prior
//! envelope (`prior_min_dt ..= prior_max_dt`) keeps cold-start
//! exploring. Profile updates are pure histogram increments, so they are
//! permutation-commutative and prefix-stable
//! (`crates/core/tests/topology_properties.rs` pins both).
//!
//! ## Budget discipline (TRACER)
//!
//! Admissible pairs feed the same Thompson-sampling selector machinery a
//! window uses ([`crate::selector::CandidateSelector`]), through a
//! [`tm_reid::ReidSession`] that can route extraction through any
//! [`tm_reid::InferenceBackend`] — hand it a lane of the same
//! `tm_reid::BatchScheduler` the fleet's shards use and cross-camera
//! inferences batch with intra-shard ones. Because cross-camera evidence
//! is appearance-only (spatio-temporal proximity means nothing between
//! viewports), accepted candidates additionally pass a normalized-score
//! acceptance threshold ([`GlobalConfig::accept_threshold`]) — the
//! within-window merger inherits the paper's thresholdless top-`m` rule,
//! but across cameras a wrong merge chains whole identities together, so
//! the global tier is deliberately conservative.
//!
//! Fault semantics carry over from the stream layer: a backend failure
//! trips the same [`crate::resilience::Breaker`]; degraded rounds accept
//! *nothing* provisionally (there is no spatio-temporal fallback across
//! viewports) and stash their frame bounds for re-verification on
//! recovery, where each round's pairs are rebuilt under the topology
//! state produced by every earlier commit and replayed in round order —
//! so an outage defers global links but never fabricates them, and a
//! recovered run converges to the fault-free answer exactly.
//!
//! ## Identity namespace and determinism
//!
//! Per-camera track ids are lifted into disjoint namespaces with
//! [`tm_types::TrackId::in_camera`] (camera 0 is the identity map, so a
//! single-camera world through the global merger reproduces the shard
//! mapping exactly). Rounds are fixed `round_len`-frame spans processed
//! when every feed's watermark passes the round boundary; decisions are
//! a function of (feed contents, round index) only, which is what makes
//! kill-and-resume from a [`Kind::Global`] envelope byte-identical.

use crate::checkpoint::{
    corrupt, open, put_session_snapshot, seal, take_session_snapshot, Kind, Reader, Writer,
};
use crate::exec;
use crate::resilience::{Breaker, DecisionMode, RobustnessConfig, RobustnessReport};
use crate::selector::{CandidateSelector, SelectionInput};
use crate::union::merge_mapping;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tm_obs::{Obs, Value};
use tm_reid::{AppearanceModel, CostModel, Device, GatePolicy, InferenceBackend, ReidSession};
use tm_types::{FrameIdx, Result, TmError, TrackId, TrackPair, TrackSet};

fn invalid(reason: &str) -> TmError {
    TmError::invalid("global", reason)
}

/// Tuning for a [`GlobalMerger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalConfig {
    /// Frames per global round. Each round resolves the tracks that
    /// *entered* some camera during it against earlier exits everywhere
    /// else; a round is processed once every feed's watermark passes its
    /// end.
    pub round_len: u64,
    /// Budget fraction: the selector considers `⌈k·|admissible|⌉`
    /// top-ranked pairs per round (before the acceptance threshold).
    pub k: f64,
    /// Cold-start envelope floor, in frames (clamped to ≥ 1): with an
    /// unlearned profile, Δt ≥ this is required.
    pub prior_min_dt: u64,
    /// Cold-start envelope ceiling, in frames: with an unlearned
    /// profile, Δt ≤ this is required. This is also the hard lookback
    /// bound on how old an exit can be and still pair with a new entry.
    pub prior_max_dt: u64,
    /// Confirmed merges a directed camera pair needs before its learned
    /// envelope replaces the prior.
    pub min_confirmations: u64,
    /// Slack added on both sides of a learned `[min_dt, max_dt]`
    /// envelope. Choose ≥ the world's travel-time jitter or sound
    /// transits may be pruned once the profile tightens.
    pub envelope_pad: u64,
    /// Normalized-score ceiling for accepting a selector candidate as a
    /// cross-camera merge (`None` disables the filter and inherits the
    /// paper's thresholdless top-`m` rule; see the module docs for why
    /// the global tier defaults to filtering).
    pub accept_threshold: Option<f64>,
}

impl GlobalConfig {
    /// Rejects a round length or prior envelope the round walk cannot use
    /// (checked at construction and on resume, where the values come from
    /// bytes).
    fn validate(&self) -> Result<()> {
        if self.round_len == 0 {
            return Err(invalid("round_len must be positive"));
        }
        if self.prior_min_dt > self.prior_max_dt {
            return Err(invalid("prior envelope is inverted"));
        }
        Ok(())
    }
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            round_len: 200,
            k: 1.0,
            prior_min_dt: 1,
            prior_max_dt: 400,
            min_confirmations: 3,
            envelope_pad: 40,
            // Empirically the synthetic appearance space separates
            // cleanly: same-actor cross-camera pairs score ≲ 0.25,
            // distinct actors ≳ 0.35 (see the cross_camera bench); 0.30
            // sits mid-margin.
            accept_threshold: Some(0.30),
        }
    }
}

/// One directed camera pair's travel-time profile: an integer-tick
/// histogram of confirmed transit Δts. Updates are pure increments, so
/// observing the same multiset of Δts in any order yields the same
/// profile (permutation-commutative) and a prefix of observations never
/// rewrites what it already recorded (prefix-stable).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TravelProfile {
    hist: BTreeMap<u64, u64>,
    count: u64,
    min_dt: u64,
    max_dt: u64,
}

impl TravelProfile {
    /// Records one confirmed transit taking `dt` frames.
    pub fn observe(&mut self, dt: u64) {
        *self.hist.entry(dt).or_insert(0) += 1;
        if self.count == 0 {
            self.min_dt = dt;
            self.max_dt = dt;
        } else {
            self.min_dt = self.min_dt.min(dt);
            self.max_dt = self.max_dt.max(dt);
        }
        self.count += 1;
    }

    /// Confirmed transits recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observed `[min_dt, max_dt]`, `None` before the first observation.
    pub fn range(&self) -> Option<(u64, u64)> {
        (self.count > 0).then_some((self.min_dt, self.max_dt))
    }

    /// The tick histogram (Δt → observations).
    pub fn histogram(&self) -> &BTreeMap<u64, u64> {
        &self.hist
    }
}

/// The learned camera-adjacency graph: one [`TravelProfile`] per
/// directed `(from, to)` camera pair that has ever confirmed a transit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CameraTopology {
    profiles: BTreeMap<(u64, u64), TravelProfile>,
}

impl CameraTopology {
    /// An empty topology (every pair on the permissive prior).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a confirmed transit `from → to` taking `dt` frames.
    pub fn observe(&mut self, from: u64, to: u64, dt: u64) {
        self.profiles.entry((from, to)).or_default().observe(dt);
    }

    /// The profile for a directed pair, if any transit ever confirmed.
    pub fn profile(&self, from: u64, to: u64) -> Option<&TravelProfile> {
        self.profiles.get(&(from, to))
    }

    /// Directed pairs with at least one confirmed transit.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no transit has ever been confirmed.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The admissible Δt envelope for a directed pair: the learned
    /// `[min−pad, max+pad]` once the profile has
    /// [`GlobalConfig::min_confirmations`] observations, the permissive
    /// prior before that.
    pub fn envelope(&self, from: u64, to: u64, config: &GlobalConfig) -> (u64, u64) {
        match self.profiles.get(&(from, to)) {
            Some(p) if p.count >= config.min_confirmations => (
                p.min_dt.saturating_sub(config.envelope_pad).max(1),
                p.max_dt + config.envelope_pad,
            ),
            _ => (config.prior_min_dt.max(1), config.prior_max_dt),
        }
    }

    /// Whether a transit `from → to` taking `dt` frames passes the gate.
    pub fn admissible(&self, from: u64, to: u64, dt: u64, config: &GlobalConfig) -> bool {
        let (lo, hi) = self.envelope(from, to, config);
        dt >= lo && dt <= hi
    }

    /// Serializes the topology (bit-exact round trip through
    /// [`CameraTopology::from_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_topology(&mut w, self);
        w.into_bytes()
    }

    /// Deserializes [`CameraTopology::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let t = take_topology(&mut r)?;
        r.finish()?;
        Ok(t)
    }
}

fn put_topology(w: &mut Writer, t: &CameraTopology) {
    w.put_u64(t.profiles.len() as u64);
    for (&(from, to), p) in &t.profiles {
        w.put_u64(from);
        w.put_u64(to);
        w.put_u64(p.count);
        w.put_u64(p.min_dt);
        w.put_u64(p.max_dt);
        w.put_u64(p.hist.len() as u64);
        for (&dt, &n) in &p.hist {
            w.put_u64(dt);
            w.put_u64(n);
        }
    }
}

fn take_topology(r: &mut Reader<'_>) -> Result<CameraTopology> {
    let n = r.take_len()?;
    let mut profiles = BTreeMap::new();
    for _ in 0..n {
        let from = r.take_u64()?;
        let to = r.take_u64()?;
        let count = r.take_u64()?;
        let min_dt = r.take_u64()?;
        let max_dt = r.take_u64()?;
        let buckets = r.take_len()?;
        let mut hist = BTreeMap::new();
        for _ in 0..buckets {
            let dt = r.take_u64()?;
            let c = r.take_u64()?;
            hist.insert(dt, c);
        }
        if hist.values().sum::<u64>() != count {
            return Err(corrupt("profile count disagrees with histogram"));
        }
        profiles.insert(
            (from, to),
            TravelProfile {
                hist,
                count,
                min_dt,
                max_dt,
            },
        );
    }
    Ok(CameraTopology { profiles })
}

/// One decided global round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecision {
    /// Round index (frames `round·L .. (round+1)·L`).
    pub round: u64,
    /// Admissible (topology-gated, deduped) cross-camera pairs offered.
    pub n_pairs: usize,
    /// Accepted cross-camera merges, in namespaced global ids.
    pub candidates: Vec<TrackPair>,
    /// Whether the round ran real ReID or was stashed behind the breaker.
    pub mode: DecisionMode,
}

/// A degraded round awaiting re-verification (no provisional merges —
/// see the module docs). Only the frame bounds are stashed, not the pair
/// set: pairs are *rebuilt* at re-verification time, so each replayed
/// round is gated by the topology state produced by every earlier commit
/// — exactly the envelope a fault-free run would have used.
#[derive(Debug, Clone)]
struct StashedRound {
    round: u64,
    lo: u64,
    hi: u64,
}

/// The cross-camera identity resolver. See the module docs.
pub struct GlobalMerger<'m, S> {
    config: GlobalConfig,
    robustness: RobustnessConfig,
    selector: S,
    session: ReidSession<'m>,
    topology: CameraTopology,
    /// Camera count bound on first `advance` (0 = unbound).
    cameras: u64,
    next_round: u64,
    watermark: u64,
    seen: BTreeSet<TrackPair>,
    accepted: Vec<TrackPair>,
    stash: Vec<StashedRound>,
    breaker: Breaker,
    counters: RobustnessReport,
    decisions: Vec<GlobalDecision>,
    pairs_total: u64,
    pairs_admitted: u64,
    obs: Obs,
}

impl<'m, S: CandidateSelector> GlobalMerger<'m, S> {
    /// Creates a global merger over its own ReID session (route it
    /// through a shared batching lane with
    /// [`GlobalMerger::with_backend`]).
    pub fn new(
        model: &'m AppearanceModel,
        session_cost: CostModel,
        device: Device,
        selector: S,
        config: GlobalConfig,
    ) -> Result<Self> {
        config.validate()?;
        let robustness = RobustnessConfig::default();
        Ok(Self {
            config,
            robustness,
            selector,
            session: exec::window_session(
                model,
                session_cost,
                device,
                robustness.retry,
                GatePolicy::Off,
            ),
            topology: CameraTopology::new(),
            cameras: 0,
            next_round: 0,
            watermark: 0,
            seen: BTreeSet::new(),
            accepted: Vec::new(),
            stash: Vec::new(),
            breaker: Breaker::new(robustness.breaker_threshold),
            counters: RobustnessReport::default(),
            decisions: Vec::new(),
            pairs_total: 0,
            pairs_admitted: 0,
            obs: tm_obs::current(),
        })
    }

    /// Routes cross-camera feature extraction through `backend` — hand
    /// this a `tm_reid::BatchScheduler` lane shared with the fleet's
    /// shards and global inferences batch with intra-shard ones (and
    /// inherit the same fault plan).
    pub fn with_backend(mut self, backend: &'m dyn InferenceBackend) -> Self {
        self.session = self.session.with_backend(backend);
        self
    }

    /// Overrides the robustness configuration (retry/backoff, breaker
    /// threshold; the degraded spatio-temporal gate is unused here).
    pub fn with_robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.robustness = robustness;
        self.session = self.session.with_retry_policy(robustness.retry);
        self.breaker = Breaker::new(robustness.breaker_threshold);
        self
    }

    /// Feeds the current per-camera tracker states — the same
    /// `(tracks, frames_available)` slice a [`crate::FleetIngester`]
    /// advance takes, read-only. Processes every global round whose end
    /// has passed on *every* feed and returns the new decisions.
    ///
    /// # Errors
    ///
    /// The camera count is bound on the first call and must never
    /// change; the fleet-wide watermark (the minimum of the feeds') must
    /// not regress; every feed must pass [`TrackSet::validate`]. Any
    /// error leaves the merger untouched.
    pub fn advance(&mut self, feeds: &[(&TrackSet, u64)]) -> Result<Vec<GlobalDecision>> {
        let combined = self.bind_and_combine(feeds)?;
        let frames = feeds.iter().map(|&(_, f)| f).min().unwrap_or(0);
        self.watermark = frames;
        let mut out = Vec::new();
        while (self.next_round + 1) * self.config.round_len <= frames {
            let round = self.next_round;
            let hi = (round + 1) * self.config.round_len;
            out.push(self.process_round(round, hi, feeds, &combined)?);
            self.next_round += 1;
        }
        Ok(out)
    }

    /// Flushes the final (possibly partial) round at end of stream, then
    /// makes one last recovery attempt for any still-degraded rounds.
    pub fn finish(&mut self, feeds: &[(&TrackSet, u64)]) -> Result<Vec<GlobalDecision>> {
        let mut out = self.advance(feeds)?;
        let combined = self.bind_and_combine(feeds)?;
        let frames = feeds.iter().map(|&(_, f)| f).min().unwrap_or(0);
        if self.next_round * self.config.round_len < frames {
            let round = self.next_round;
            out.push(self.process_round(round, frames, feeds, &combined)?);
            self.next_round += 1;
        }
        if !self.stash.is_empty() {
            self.session.set_epoch(self.next_round);
            if self.session.backend_available() {
                if self.breaker.is_open() {
                    self.breaker.close();
                    exec::emit_breaker_recovery(&self.obs, self.next_round);
                }
                self.reverify_stash(feeds, &combined)?;
            }
        }
        Ok(out)
    }

    /// Validates feeds, binds the camera count, and builds the
    /// namespaced union the selector scores against.
    fn bind_and_combine(&mut self, feeds: &[(&TrackSet, u64)]) -> Result<TrackSet> {
        if feeds.is_empty() {
            return Err(invalid("at least one camera feed is required"));
        }
        if self.cameras == 0 {
            self.cameras = feeds.len() as u64;
        } else if self.cameras != feeds.len() as u64 {
            return Err(invalid("camera count changed across advances"));
        }
        let frames = feeds.iter().map(|&(_, f)| f).min().unwrap_or(0);
        if frames < self.watermark {
            return Err(TmError::FrameRegression {
                frame: FrameIdx(frames),
                watermark: FrameIdx(self.watermark),
            });
        }
        let mut tracks = Vec::new();
        for (camera, (set, _)) in feeds.iter().enumerate() {
            set.validate()?;
            tracks.extend(set.in_camera(camera as u64).into_tracks());
        }
        Ok(TrackSet::from_tracks(tracks))
    }

    /// Resolves one round: entries with first frame in `[round·L, hi)`
    /// against admissible earlier exits in every other camera.
    fn process_round(
        &mut self,
        round: u64,
        hi: u64,
        feeds: &[(&TrackSet, u64)],
        combined: &TrackSet,
    ) -> Result<GlobalDecision> {
        let span = self.obs.span("global.round", self.session.elapsed_ms());
        // The round index is the fault epoch, exactly like a window index
        // on the stream layer: deterministic fault plans address outages
        // to specific rounds.
        self.session.set_epoch(round);
        if self.breaker.is_open() && self.session.backend_available() {
            self.breaker.close();
            exec::emit_breaker_recovery(&self.obs, round);
            self.reverify_stash(feeds, combined)?;
        }
        let lo = round * self.config.round_len;
        // Snapshot the gate counters and remember the round's pairs so a
        // degraded round can be rolled back: its pairs are rebuilt (and
        // recounted) at re-verification, under the recovered topology.
        let counts = (self.pairs_total, self.pairs_admitted);
        let pairs = self.build_pairs(lo, hi, feeds);

        let (candidates, mode) = if pairs.is_empty() {
            (Vec::new(), DecisionMode::Normal)
        } else if self.breaker.is_open() {
            self.degrade_round(round, lo, hi, &pairs, counts);
            (Vec::new(), DecisionMode::Degraded)
        } else {
            let input = SelectionInput {
                pairs: &pairs,
                tracks: combined,
                k: self.config.k,
                voi: None,
            };
            let outcome = self.selector.select(&input, &mut self.session);
            exec::flush_gate_obs(&mut self.session, &self.obs, self.selector.obs_slug());
            match outcome {
                Ok(result) => {
                    self.breaker.record_success();
                    let kept = self.filter_candidates(result.candidates, &result.scores);
                    self.commit(&kept, combined);
                    (kept, DecisionMode::Normal)
                }
                Err(e) if e.is_backend() => {
                    exec::note_breaker_failure(
                        &mut self.breaker,
                        &mut self.counters,
                        &self.obs,
                        round,
                    );
                    self.degrade_round(round, lo, hi, &pairs, counts);
                    (Vec::new(), DecisionMode::Degraded)
                }
                Err(e) => return Err(e),
            }
        };

        let decision = GlobalDecision {
            round,
            n_pairs: pairs.len(),
            candidates,
            mode,
        };
        if self.obs.enabled() {
            self.obs.counter("global.rounds", 1);
            self.obs.counter("global.pairs", decision.n_pairs as u64);
            self.obs
                .counter("global.merges", decision.candidates.len() as u64);
            self.obs.event(
                "global_round",
                &[
                    ("id", Value::U64(round)),
                    ("pairs", Value::U64(decision.n_pairs as u64)),
                    ("merges", Value::U64(decision.candidates.len() as u64)),
                    (
                        "mode",
                        Value::Str(if decision.mode == DecisionMode::Degraded {
                            "degraded"
                        } else {
                            "normal"
                        }),
                    ),
                ],
            );
        }
        span.finish(self.session.elapsed_ms());
        self.decisions.push(decision.clone());
        Ok(decision)
    }

    /// Builds the round's admissible pair set: for every track entering
    /// some camera during `[lo, hi)`, every same-class track in every
    /// *other* camera that ended first, gated by the topology envelope
    /// and deduped across rounds. Counts the unpruned and admitted pair
    /// totals for the pruning-ratio metric.
    fn build_pairs(&mut self, lo: u64, hi: u64, feeds: &[(&TrackSet, u64)]) -> Vec<TrackPair> {
        let mut pairs = Vec::new();
        for (to_cam, (to_set, _)) in feeds.iter().enumerate() {
            for entry in to_set.iter() {
                let Some(first) = entry.first_frame() else {
                    continue;
                };
                if first.get() < lo || first.get() >= hi {
                    continue;
                }
                for (from_cam, (from_set, _)) in feeds.iter().enumerate() {
                    if from_cam == to_cam {
                        continue;
                    }
                    for exit in from_set.iter() {
                        if exit.class != entry.class {
                            continue;
                        }
                        let Some(last) = exit.last_frame() else {
                            continue;
                        };
                        if last >= first {
                            continue;
                        }
                        let dt = first.get() - last.get();
                        self.pairs_total += 1;
                        if !self.topology.admissible(
                            from_cam as u64,
                            to_cam as u64,
                            dt,
                            &self.config,
                        ) {
                            continue;
                        }
                        self.pairs_admitted += 1;
                        let Some(p) = TrackPair::new(
                            exit.id.in_camera(from_cam as u64),
                            entry.id.in_camera(to_cam as u64),
                        ) else {
                            continue;
                        };
                        if self.seen.insert(p) {
                            pairs.push(p);
                        }
                    }
                }
            }
        }
        pairs.sort();
        pairs
    }

    /// Applies the acceptance threshold to a selector's ranked
    /// candidates (no-op when disabled).
    fn filter_candidates(
        &self,
        mut candidates: Vec<TrackPair>,
        scores: &HashMap<TrackPair, f64>,
    ) -> Vec<TrackPair> {
        if let Some(threshold) = self.config.accept_threshold {
            candidates.retain(|p| scores.get(p).is_some_and(|&s| s <= threshold));
        }
        candidates
    }

    /// Commits accepted merges: the accepted log, and the topology profile
    /// of each pair's directed camera hop.
    fn commit(&mut self, accepted: &[TrackPair], combined: &TrackSet) {
        for p in accepted {
            self.accepted.push(*p);
            observe_transit(&mut self.topology, *p, combined);
        }
    }

    /// Stashes a round decided behind the breaker. No provisional
    /// merges: cross-camera evidence is appearance-only, so a degraded
    /// round defers its links instead of guessing them. The pairs built
    /// for the decision record are rolled back out of the dedup set and
    /// the gate counters — re-verification rebuilds them under the
    /// topology state produced by every earlier commit, so the replayed
    /// candidate set (and the counted totals) match a fault-free run's.
    fn degrade_round(
        &mut self,
        round: u64,
        lo: u64,
        hi: u64,
        pairs: &[TrackPair],
        counts: (u64, u64),
    ) {
        for p in pairs {
            self.seen.remove(p);
        }
        (self.pairs_total, self.pairs_admitted) = counts;
        self.counters.degraded_windows += 1;
        self.obs.counter("global.rounds_degraded", 1);
        self.stash.push(StashedRound { round, lo, hi });
    }

    /// Replays stashed rounds with the recovered backend, in round
    /// order: each round's pairs are rebuilt from the feeds under the
    /// *current* topology, re-scored, committed, and observed before the
    /// next round rebuilds — the same build→select→commit→learn cadence
    /// a healthy run follows, so a recovered run converges to the
    /// fault-free links exactly. On renewed failure the just-rebuilt
    /// round is rolled back and the remainder stays stashed.
    fn reverify_stash(&mut self, feeds: &[(&TrackSet, u64)], combined: &TrackSet) -> Result<()> {
        let pending = std::mem::take(&mut self.stash);
        for (i, sr) in pending.iter().enumerate() {
            let counts = (self.pairs_total, self.pairs_admitted);
            let pairs = self.build_pairs(sr.lo, sr.hi, feeds);
            let item = exec::ReverifyItem {
                window_index: sr.round,
                pairs: &pairs,
            };
            let accepted = &mut self.accepted;
            let topology = &mut self.topology;
            let config = &self.config;
            let committed = exec::reverify_windows(
                &[item],
                combined,
                self.config.k,
                &self.selector,
                &mut self.session,
                &mut self.breaker,
                &mut self.counters,
                &self.obs,
                |result| {
                    let mut kept = result.candidates;
                    if let Some(threshold) = config.accept_threshold {
                        kept.retain(|p| result.scores.get(p).is_some_and(|&s| s <= threshold));
                    }
                    for p in &kept {
                        accepted.push(*p);
                        observe_transit(topology, *p, combined);
                    }
                },
            )?;
            if committed == 0 {
                for p in &pairs {
                    self.seen.remove(p);
                }
                (self.pairs_total, self.pairs_admitted) = counts;
                self.stash.extend(pending.into_iter().skip(i));
                return Ok(());
            }
        }
        Ok(())
    }

    /// The cross-camera relabelling implied by all confirmed global
    /// merges, over namespaced global ids. Compose with per-shard
    /// mappings via [`compose_global_mapping`].
    pub fn mapping(&self) -> HashMap<TrackId, TrackId> {
        merge_mapping(&self.accepted)
    }

    /// All cross-camera merges confirmed so far (namespaced ids).
    pub fn accepted(&self) -> &[TrackPair] {
        &self.accepted
    }

    /// Every decided round, in order.
    pub fn decisions(&self) -> &[GlobalDecision] {
        &self.decisions
    }

    /// The learned camera-adjacency graph.
    pub fn topology(&self) -> &CameraTopology {
        &self.topology
    }

    /// The merger configuration.
    pub fn config(&self) -> GlobalConfig {
        self.config
    }

    /// Fault-handling counters so far (all zero on a clean run).
    pub fn robustness(&self) -> RobustnessReport {
        let stats = self.session.stats();
        RobustnessReport {
            retries: stats.retries,
            backend_faults: stats.backend_faults,
            ..self.counters
        }
    }

    /// Simulated time consumed by the global ReID session.
    pub fn elapsed_ms(&self) -> f64 {
        self.session.elapsed_ms()
    }

    /// Index of the next unprocessed round.
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// High-water mark of the fleet-wide minimum watermark.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Whether the global breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// Degraded rounds stashed awaiting re-verification.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Size of the cross-round pair-dedup set.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// `(unpruned, admitted)` cross-camera pair counts: every exit×entry
    /// pair examined versus those that passed the topology gate. The
    /// quotient is the pruning ratio the `cross_camera` bench reports.
    pub fn pair_counts(&self) -> (u64, u64) {
        (self.pairs_total, self.pairs_admitted)
    }

    /// Serializes the merger's complete state into a [`Kind::Global`]
    /// envelope. Call between `advance` calls. Telemetry is not included,
    /// as in every checkpoint: a caller that owns a `tm_obs::Recorder`
    /// carries `Recorder::state()` across a kill itself.
    pub fn checkpoint(&self) -> Vec<u8> {
        seal(Kind::Global, |w| {
            w.put_u64(self.config.round_len);
            w.put_f64(self.config.k);
            w.put_u64(self.config.prior_min_dt);
            w.put_u64(self.config.prior_max_dt);
            w.put_u64(self.config.min_confirmations);
            w.put_u64(self.config.envelope_pad);
            match self.config.accept_threshold {
                Some(t) => {
                    w.put_bool(true);
                    w.put_f64(t);
                }
                None => w.put_bool(false),
            }
            w.put_robustness(&self.robustness);

            w.put_u64(self.cameras);
            w.put_u64(self.next_round);
            w.put_u64(self.watermark);

            let seen: Vec<TrackPair> = self.seen.iter().copied().collect();
            w.put_pairs(&seen);
            w.put_pairs(&self.accepted);

            w.put_u64(self.stash.len() as u64);
            for sr in &self.stash {
                w.put_u64(sr.round);
                w.put_u64(sr.lo);
                w.put_u64(sr.hi);
            }

            w.put_u64(self.decisions.len() as u64);
            for d in &self.decisions {
                w.put_u64(d.round);
                w.put_decision(d.n_pairs, &d.candidates, d.mode);
            }

            w.put_breaker(&self.breaker, &self.counters);
            w.put_u64(self.pairs_total);
            w.put_u64(self.pairs_admitted);

            put_topology(w, &self.topology);
            put_session_snapshot(w, &self.session.snapshot());
        })
    }

    /// Reconstructs a merger from a [`GlobalMerger::checkpoint`].
    ///
    /// `model`, `session_cost`, `device` and `selector` are the code
    /// half of the state and must match the original run; a fault
    /// backend, if any, is re-installed afterwards with
    /// [`GlobalMerger::with_backend`]. Corrupt or truncated bytes yield
    /// an error, never a panic.
    pub fn resume(
        model: &'m AppearanceModel,
        session_cost: CostModel,
        device: Device,
        selector: S,
        bytes: &[u8],
    ) -> Result<Self> {
        let mut r = open(Kind::Global, bytes)?;
        let config = GlobalConfig {
            round_len: r.take_u64()?,
            k: r.take_f64()?,
            prior_min_dt: r.take_u64()?,
            prior_max_dt: r.take_u64()?,
            min_confirmations: r.take_u64()?,
            envelope_pad: r.take_u64()?,
            accept_threshold: if r.take_bool()? {
                Some(r.take_f64()?)
            } else {
                None
            },
        };
        config.validate()?;
        let robustness = r.take_robustness()?;
        let cameras = r.take_u64()?;
        let next_round = r.take_u64()?;
        let watermark = r.take_u64()?;

        let seen: BTreeSet<TrackPair> = r.take_pairs()?.into_iter().collect();
        let accepted = r.take_pairs()?;

        let n = r.take_len()?;
        let stash: Vec<StashedRound> = (0..n)
            .map(|_| {
                Ok(StashedRound {
                    round: r.take_u64()?,
                    lo: r.take_u64()?,
                    hi: r.take_u64()?,
                })
            })
            .collect::<Result<_>>()?;

        let n = r.take_len()?;
        let decisions: Vec<GlobalDecision> = (0..n)
            .map(|_| {
                let round = r.take_u64()?;
                let (n_pairs, candidates, mode) = r.take_decision()?;
                Ok(GlobalDecision {
                    round,
                    n_pairs,
                    candidates,
                    mode,
                })
            })
            .collect::<Result<_>>()?;

        let (breaker, counters) = r.take_breaker()?;
        let pairs_total = r.take_u64()?;
        let pairs_admitted = r.take_u64()?;

        let topology = take_topology(&mut r)?;
        let session_snap = take_session_snapshot(&mut r)?;
        r.finish()?;

        let obs = tm_obs::current();
        let mut session = ReidSession::new(model, session_cost, device)
            .with_obs(obs.clone())
            .with_retry_policy(robustness.retry)
            .with_gate(GatePolicy::Off);
        session.restore_snapshot(&session_snap);

        Ok(Self {
            config,
            robustness,
            selector,
            session,
            topology,
            cameras,
            next_round,
            watermark,
            seen,
            accepted,
            stash,
            breaker,
            counters,
            decisions,
            pairs_total,
            pairs_admitted,
            obs,
        })
    }
}

/// Records one accepted pair's directed camera hop on the topology.
/// Direction follows time: the chronologically earlier track is the
/// exit. Pairs whose tracks are missing or overlap in time (impossible
/// for pairs this module built) are skipped.
fn observe_transit(topology: &mut CameraTopology, p: TrackPair, combined: &TrackSet) {
    let (Some(a), Some(b)) = (combined.get(p.lo()), combined.get(p.hi())) else {
        return;
    };
    let (Some(a_last), Some(b_first)) = (a.last_frame(), b.first_frame()) else {
        return;
    };
    let (exit, entry, dt) = if a_last < b_first {
        (a, b, b_first.get() - a_last.get())
    } else {
        let (Some(b_last), Some(a_first)) = (b.last_frame(), a.first_frame()) else {
            return;
        };
        if b_last >= a_first {
            return;
        }
        (b, a, a_first.get() - b_last.get())
    };
    topology.observe(exit.id.camera(), entry.id.camera(), dt);
}

/// Composes per-shard (within-camera) accepted merges with the global
/// merger's cross-camera merges into one relabelling over namespaced
/// global ids: shard `i`'s pairs are lifted with
/// [`TrackId::in_camera`]`(i)` and unioned with `cross`. With a single
/// camera the namespace is the identity, so the result equals the
/// shard's own mapping.
pub fn compose_global_mapping(
    shard_accepted: &[&[TrackPair]],
    cross: &[TrackPair],
) -> HashMap<TrackId, TrackId> {
    let mut all: Vec<TrackPair> = Vec::new();
    for (camera, pairs) in shard_accepted.iter().enumerate() {
        for p in pairs.iter() {
            if let Some(lifted) = TrackPair::new(
                p.lo().in_camera(camera as u64),
                p.hi().in_camera(camera as u64),
            ) {
                all.push(lifted);
            }
        }
    }
    all.extend_from_slice(cross);
    merge_mapping(&all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmerge::{TMerge, TMergeConfig};
    use tm_reid::{AppearanceConfig, AppearanceModel};
    use tm_synth::{MultiCameraWorld, WorldConfig};

    fn selector() -> TMerge {
        TMerge::new(TMergeConfig {
            tau_max: 3_000,
            seed: 4,
            ..TMergeConfig::default()
        })
    }

    fn world() -> MultiCameraWorld {
        MultiCameraWorld::new(WorldConfig {
            cameras: 4,
            actors: 3,
            hops: 2,
            ..WorldConfig::default()
        })
    }

    fn run_world<'a>(
        model: &'a AppearanceModel,
        w: &MultiCameraWorld,
    ) -> (GlobalMerger<'a, TMerge>, Vec<TrackSet>) {
        let mut global = GlobalMerger::new(
            model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            GlobalConfig::default(),
        )
        .unwrap();
        let horizon = w.horizon();
        let feeds = w.all_camera_tracks(horizon);
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|s| (s, horizon)).collect();
        global.finish(&refs).unwrap();
        (global, feeds)
    }

    #[test]
    fn recovers_cross_camera_identities() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let w = world();
        let (global, feeds) = run_world(&model, &w);
        // Every ground-truth transit's exit/entry tracks end up in one
        // global identity group.
        let mapping = global.mapping();
        let resolve = |id: TrackId| *mapping.get(&id).unwrap_or(&id);
        let horizon = w.horizon();
        let mut linked = 0usize;
        let transits = w.transits(horizon);
        for tr in &transits {
            let ident = MultiCameraWorld::identity(tr.actor);
            let exit = feeds[tr.from as usize]
                .iter()
                .filter(|t| t.boxes[0].provenance == Some(ident))
                .max_by_key(|t| t.last_frame())
                .unwrap();
            let entry = feeds[tr.to as usize]
                .iter()
                .filter(|t| t.boxes[0].provenance == Some(ident))
                .min_by_key(|t| t.first_frame())
                .unwrap();
            if resolve(exit.id.in_camera(tr.from)) == resolve(entry.id.in_camera(tr.to)) {
                linked += 1;
            }
        }
        assert!(
            linked * 2 > transits.len(),
            "most transits should link: {linked}/{}",
            transits.len()
        );
        // No two distinct actors were chained into one identity.
        let mut actor_of_root: HashMap<TrackId, u64> = HashMap::new();
        for (cam, feed) in feeds.iter().enumerate() {
            for t in feed.iter() {
                let actor = t.boxes[0].provenance.unwrap().get();
                let root = resolve(t.id.in_camera(cam as u64));
                if let Some(&other) = actor_of_root.get(&root) {
                    assert_eq!(other, actor, "two actors merged into one identity");
                } else {
                    actor_of_root.insert(root, actor);
                }
            }
        }
    }

    #[test]
    fn topology_learns_and_prunes() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let w = world();
        let (global, _) = run_world(&model, &w);
        assert!(!global.topology().is_empty(), "transits confirmed");
        let (total, admitted) = global.pair_counts();
        assert!(total > 0 && admitted > 0);
        assert!(admitted < total, "the gate must prune something");
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let w = world();
        let horizon = w.horizon();
        let feeds = w.all_camera_tracks(horizon);
        // Checkpoint mid-transit: after the first actor's first hop has
        // started but before the horizon.
        let mid = horizon / 2;
        let make = || {
            GlobalMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                GlobalConfig::default(),
            )
            .unwrap()
        };
        let refs_at = |f: u64| -> Vec<(&TrackSet, u64)> { feeds.iter().map(|s| (s, f)).collect() };

        let mut solo = make();
        solo.advance(&refs_at(mid)).unwrap();
        solo.finish(&refs_at(horizon)).unwrap();

        let mut first = make();
        first.advance(&refs_at(mid)).unwrap();
        let envelope = first.checkpoint();
        let mut revived = GlobalMerger::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            &envelope,
        )
        .unwrap();
        assert_eq!(revived.checkpoint(), envelope, "resume is a fixpoint");
        revived.finish(&refs_at(horizon)).unwrap();

        assert_eq!(solo.decisions(), revived.decisions());
        assert_eq!(solo.accepted(), revived.accepted());
        assert_eq!(solo.topology(), revived.topology());
        assert_eq!(
            solo.elapsed_ms().to_bits(),
            revived.elapsed_ms().to_bits(),
            "clock must be bit-equal"
        );
        assert_eq!(solo.checkpoint(), revived.checkpoint());
    }

    #[test]
    fn single_camera_has_no_cross_pairs() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut global = GlobalMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            GlobalConfig::default(),
        )
        .unwrap();
        let w = MultiCameraWorld::new(WorldConfig {
            cameras: 1,
            actors: 3,
            ..WorldConfig::default()
        });
        let horizon = w.horizon();
        let feed = w.camera_tracks(0, horizon);
        global.finish(&[(&feed, horizon)]).unwrap();
        assert!(global.accepted().is_empty());
        assert_eq!(global.pair_counts(), (0, 0));
        assert!(global.mapping().is_empty());
    }

    #[test]
    fn camera_count_is_bound_and_watermark_monotone() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut global = GlobalMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            GlobalConfig::default(),
        )
        .unwrap();
        let a = TrackSet::new();
        let b = TrackSet::new();
        global.advance(&[(&a, 100), (&b, 100)]).unwrap();
        assert!(global.advance(&[(&a, 150)]).is_err(), "camera count bound");
        assert!(
            global.advance(&[(&a, 50), (&b, 50)]).is_err(),
            "watermark regression"
        );
        assert!(global.advance(&[]).is_err(), "empty fleet");
    }

    #[test]
    fn config_is_validated() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        for bad in [
            GlobalConfig {
                round_len: 0,
                ..GlobalConfig::default()
            },
            GlobalConfig {
                prior_min_dt: 10,
                prior_max_dt: 5,
                ..GlobalConfig::default()
            },
        ] {
            assert!(GlobalMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                bad,
            )
            .is_err());
        }
    }
}
