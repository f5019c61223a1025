//! Streaming ingestion: process an unbounded video feed window by window.
//!
//! §II frames the video as potentially unbounded, with windows processed
//! "in order of succession" during metadata extraction. [`StreamingMerger`]
//! is the one window walk of the crate: feed it the tracker's output as
//! frames arrive, and it runs candidate selection for each window as soon
//! as that window has fully elapsed, maintaining the cross-window pair
//! deduplication and the list of accepted merges. The offline
//! [`crate::run_pipeline`] hands it a whole video in one
//! [`StreamingMerger::finish`] call, and [`crate::FleetIngester`] runs one
//! merger per stream.
//!
//! The decisions are *incremental*: after any `advance` call you can ask
//! for the current id [`StreamingMerger::mapping`] and relabel the metadata
//! emitted so far — exactly what a query engine ingesting a live feed
//! needs.
//!
//! The merger is also *fault-tolerant*: install a fallible
//! [`InferenceBackend`] with [`StreamingMerger::with_backend`] and windows
//! whose selection fails (even after the session's retry budget) fall back
//! to degraded spatio-temporal selection behind a circuit breaker. Degraded
//! decisions are provisional — visible in [`StreamingMerger::mapping`] so
//! queries keep working through an outage, but re-scored with real ReID and
//! only then committed once the backend recovers. And it is *restartable*:
//! [`StreamingMerger::checkpoint`] serializes the full merger state, and
//! [`StreamingMerger::resume`] (see `crate::checkpoint`) continues a killed
//! ingester at the last completed window with byte-identical results.

use crate::exec::{self, ReverifyItem, WindowVerdict};
use crate::pairs::{tracks_in_first_half, window_pair_set};
use crate::resilience::{Breaker, DecisionMode, RobustnessConfig, RobustnessReport};
use crate::selector::{CandidateSelector, SelectionInput};
use crate::voi::{VoiHints, VoiMode};
use crate::window::Window;
use std::collections::{BTreeSet, HashMap};
use tm_obs::Obs;
use tm_reid::{AppearanceModel, GatePolicy, InferenceBackend, ReidSession};
use tm_types::{FrameIdx, Result, TmError, TrackId, TrackPair, TrackSet};

/// Configuration of the streaming merger (the selector, device and cost
/// model are [`StreamingMerger::new`] arguments).
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Window length `L` (frames, even, ≥ 2·L_max).
    pub window_len: u64,
    /// Candidate budget `K`.
    pub k: f64,
    /// Selective feature extraction (DESIGN.md §14). `Off` (the default)
    /// is bit-identical to the pre-gating merger. Rides the checkpoint so
    /// resumed streams keep gating identically.
    pub gate: GatePolicy,
    /// Query-driven VoI reweighting (DESIGN.md §17). `Off` (the default)
    /// is bit-identical to the query-agnostic merger; `Reweight` consumes
    /// hints attached via [`StreamingMerger::set_voi_hints`]. Rides the
    /// checkpoint so resumed streams keep the same selection semantics.
    pub voi: VoiMode,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            window_len: 2000,
            k: 0.05,
            gate: GatePolicy::Off,
            voi: VoiMode::Off,
        }
    }
}

impl StreamConfig {
    /// Rejects a window length the window walk cannot step by (checked at
    /// construction and on resume, where the value comes from bytes).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.window_len == 0 || !self.window_len.is_multiple_of(2) {
            return Err(TmError::invalid("window_len", "must be positive and even"));
        }
        Ok(())
    }
}

/// What one processed window produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDecision {
    /// The window that was processed.
    pub window: Window,
    /// Pairs examined in this window (`|P_c|`).
    pub n_pairs: usize,
    /// Candidates selected in this window.
    pub candidates: Vec<TrackPair>,
    /// How the candidates were decided (degraded decisions are provisional
    /// at the time they are emitted).
    pub mode: DecisionMode,
}

/// A window processed without ReID, awaiting re-verification.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StashedWindow {
    pub(crate) window: Window,
    /// The window's full pair set (needed to re-run the real selector).
    pub(crate) pairs: Vec<TrackPair>,
    /// Candidates chosen on spatio-temporal evidence only.
    pub(crate) provisional: Vec<TrackPair>,
}

/// Aggregate of everything [`StreamingMerger::compact_before`] has dropped
/// so far. Totals (window/pair/candidate counts) survive compaction here
/// even after the per-window [`StreamingMerger::decisions`] entries are
/// gone, so long-horizon reports still add up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionSummary {
    /// Decided windows whose per-window log entry was dropped.
    pub compacted_windows: u64,
    /// Pairs examined across the compacted windows.
    pub compacted_pairs: u64,
    /// Candidates selected across the compacted windows.
    pub compacted_candidates: u64,
    /// Stashed degraded windows that aged past the horizon with their
    /// provisional merges committed for good (the backend never recovered
    /// in time to re-verify them).
    pub expired_stash_windows: u64,
    /// Dedup-set pairs pruned because both members ended before the
    /// horizon.
    pub pruned_seen_pairs: u64,
    /// Cached features evicted from the session.
    pub evicted_features: u64,
}

impl RetentionSummary {
    fn accumulate(&mut self, d: RetentionSummary) {
        self.compacted_windows += d.compacted_windows;
        self.compacted_pairs += d.compacted_pairs;
        self.compacted_candidates += d.compacted_candidates;
        self.expired_stash_windows += d.expired_stash_windows;
        self.pruned_seen_pairs += d.pruned_seen_pairs;
        self.evicted_features += d.evicted_features;
    }

    /// True when compaction has never dropped anything.
    pub fn is_empty(&self) -> bool {
        *self == RetentionSummary::default()
    }
}

/// An online, window-at-a-time merger.
pub struct StreamingMerger<'m, S> {
    pub(crate) config: StreamConfig,
    /// Which stream of a fleet this merger serves (0 outside a fleet).
    /// Purely descriptive — it labels per-stream observability counters and
    /// rides the checkpoint so a resumed fleet reattaches shards to the
    /// right feeds; it never influences decisions.
    pub(crate) stream_id: u64,
    pub(crate) robustness: RobustnessConfig,
    pub(crate) selector: S,
    pub(crate) session: ReidSession<'m>,
    /// Index of the next unprocessed window.
    pub(crate) next_window: usize,
    /// High-water mark of `frames_available` seen so far.
    pub(crate) watermark: u64,
    /// `T_{c−1}`: tracks of the previous window's first half.
    pub(crate) prev_ids: Vec<TrackId>,
    /// Pairs already examined (never re-examined, §II).
    pub(crate) seen: BTreeSet<TrackPair>,
    /// Accepted merges so far.
    pub(crate) merged_ids: Vec<TrackPair>,
    pub(crate) breaker: Breaker,
    /// Degraded windows whose merges are provisional.
    pub(crate) stash: Vec<StashedWindow>,
    /// Serve-level shed-load flag: while set, every window takes the
    /// degraded spatio-temporal path without charging ReID or consulting
    /// the breaker (DESIGN.md §15).
    pub(crate) shed: bool,
    /// Set when shed-load mode ended with stashed windows pending: the
    /// next processed window re-verifies them, exactly like breaker
    /// recovery.
    pub(crate) shed_recover: bool,
    /// Aggregate of state dropped by retention compaction.
    pub(crate) retention: RetentionSummary,
    /// Every decision emitted so far, in window order (bounded by
    /// [`StreamingMerger::compact_before`] when a retention horizon is
    /// configured upstream).
    pub(crate) decisions: Vec<WindowDecision>,
    /// Degraded/re-verified/breaker counters (retry counters live on the
    /// session's stats).
    pub(crate) counters: RobustnessReport,
    /// Query-driven VoI hints, consumed only under [`VoiMode::Reweight`].
    /// Ephemeral: refreshed by the query layer between advances, so they do
    /// NOT ride the checkpoint (the mode does; a resumed stream re-attaches
    /// hints before its next window, or runs un-hinted — both sound).
    pub(crate) voi_hints: Option<VoiHints>,
    /// Observability sink for window lifecycle events (see `tm-obs`).
    pub(crate) obs: Obs,
}

impl<'m, S: CandidateSelector> StreamingMerger<'m, S> {
    /// Creates a streaming merger over a ReID session.
    pub fn new(
        model: &'m AppearanceModel,
        session_cost: tm_reid::CostModel,
        device: tm_reid::Device,
        selector: S,
        config: StreamConfig,
    ) -> Result<Self> {
        config.validate()?;
        let robustness = RobustnessConfig::default();
        Ok(Self {
            config,
            stream_id: 0,
            robustness,
            selector,
            session: exec::window_session(
                model,
                session_cost,
                device,
                robustness.retry,
                config.gate,
            ),
            next_window: 0,
            watermark: 0,
            prev_ids: Vec::new(),
            seen: BTreeSet::new(),
            merged_ids: Vec::new(),
            breaker: Breaker::new(robustness.breaker_threshold),
            stash: Vec::new(),
            shed: false,
            shed_recover: false,
            retention: RetentionSummary::default(),
            decisions: Vec::new(),
            counters: RobustnessReport::default(),
            voi_hints: None,
            obs: tm_obs::current(),
        })
    }

    /// Routes the session's feature extraction through `backend` (e.g. a
    /// `tm-chaos` `FaultyModel`). With the default backend — the model
    /// itself — the fault path is never taken.
    pub fn with_backend(mut self, backend: &'m dyn InferenceBackend) -> Self {
        self.session = self.session.with_backend(backend);
        self
    }

    /// Labels this merger as stream `id` of a fleet. Affects observability
    /// labels and the checkpoint header only — never decisions.
    pub fn with_stream_id(mut self, id: u64) -> Self {
        self.stream_id = id;
        self
    }

    /// The fleet stream this merger serves (0 outside a fleet).
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Routes the merger's window lifecycle — and the session's ReID
    /// charges — through `obs` instead of the ambient
    /// [`tm_obs::current`] observer captured at construction.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.session = self.session.with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Overrides the robustness configuration (retry/backoff policy,
    /// breaker threshold, degraded gating).
    pub fn with_robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.robustness = robustness;
        self.session = self.session.with_retry_policy(robustness.retry);
        self.breaker = Breaker::new(robustness.breaker_threshold);
        self
    }

    /// The window with index `c` (start `c·L/2`, unbounded stream).
    pub(crate) fn window(&self, c: usize) -> Window {
        let half = self.config.window_len / 2;
        let start = c as u64 * half;
        Window {
            index: c,
            start: FrameIdx(start),
            end: FrameIdx(start + self.config.window_len),
            half_end: FrameIdx(start + half),
        }
    }

    /// Feeds the current tracker state. `tracks` must contain every track
    /// observed so far (with boxes up to `frames_available`); the merger
    /// processes every window that has fully elapsed and returns one
    /// decision per newly processed window.
    ///
    /// # Errors
    ///
    /// `frames_available` must not move backwards across calls
    /// ([`TmError::FrameRegression`]); `tracks` must pass
    /// [`TrackSet::validate`]. Either error leaves the merger state
    /// untouched, so the caller can repair the feed and retry.
    pub fn advance(
        &mut self,
        tracks: &TrackSet,
        frames_available: u64,
    ) -> Result<Vec<WindowDecision>> {
        if frames_available < self.watermark {
            return Err(TmError::FrameRegression {
                frame: FrameIdx(frames_available),
                watermark: FrameIdx(self.watermark),
            });
        }
        tracks.validate()?;
        self.watermark = frames_available;
        let mut out = Vec::new();
        loop {
            let w = self.window(self.next_window);
            if w.end.get() > frames_available {
                break;
            }
            out.push(self.process_window(tracks, w)?);
            self.next_window += 1;
        }
        Ok(out)
    }

    /// Decides every window that starts before `total_frames` at end of
    /// stream — the windows still open are clipped to the stream (with
    /// half-overlapping windows there can be two) — then makes one last
    /// recovery attempt for any still-degraded windows.
    pub fn finish(&mut self, tracks: &TrackSet, total_frames: u64) -> Result<Vec<WindowDecision>> {
        let mut out = self.advance(tracks, total_frames)?;
        loop {
            let w = self.window(self.next_window);
            if w.start.get() >= total_frames {
                break;
            }
            let clipped = Window {
                end: FrameIdx(total_frames.min(w.end.get())),
                half_end: FrameIdx(total_frames.min(w.half_end.get())),
                ..w
            };
            out.push(self.process_window(tracks, clipped)?);
            self.next_window += 1;
        }
        if !self.stash.is_empty() && !self.shed {
            self.session.set_epoch(self.next_window as u64);
            if self.session.backend_available() {
                if self.breaker.is_open() {
                    exec::emit_breaker_recovery(&self.obs, self.next_window as u64);
                }
                self.breaker.close();
                self.shed_recover = false;
                self.reverify_stash(tracks)?;
            }
        }
        Ok(out)
    }

    fn process_window(&mut self, tracks: &TrackSet, w: Window) -> Result<WindowDecision> {
        let span = self.obs.span("pipeline.window", self.session.elapsed_ms());
        // Extend the gate's plan over boxes that arrived since the last
        // window (no-op when the gate is off; prefix-stable, charges
        // nothing).
        self.session.gate_update_plan(tracks);
        // The window index is the fault epoch: deterministic fault plans
        // address outages to specific windows.
        self.session.set_epoch(w.index as u64);
        // Recovery runs only outside shed-load mode: while shedding, the
        // whole point is to not spend ReID, so an open breaker stays open
        // and the stash keeps growing until the caller un-sheds.
        if !self.shed {
            let breaker_recovery = self.breaker.is_open() && self.session.backend_available();
            let shed_recovery = self.shed_recover && self.session.backend_available();
            if breaker_recovery {
                self.breaker.close();
                exec::emit_breaker_recovery(&self.obs, w.index as u64);
            }
            if breaker_recovery || shed_recovery {
                self.shed_recover = false;
                self.reverify_stash(tracks)?;
            }
        }
        let cur_ids = tracks_in_first_half(tracks, &w);
        let pairs = window_pair_set(tracks, &cur_ids, &self.prev_ids, &mut self.seen);
        self.prev_ids = cur_ids;

        let (candidates, mode) = if pairs.is_empty() {
            (Vec::new(), DecisionMode::Normal)
        } else if self.shed {
            // Shed-load mode: decide on spatio-temporal evidence only,
            // charging nothing, and stash the window for re-verification —
            // the same contract as a breaker-degraded window.
            let input = SelectionInput {
                pairs: &pairs,
                tracks,
                k: self.config.k,
                voi: None,
            };
            let provisional =
                exec::degrade_window(&input, &mut self.counters, &self.robustness, &self.obs)?;
            self.stash.push(StashedWindow {
                window: w,
                pairs: pairs.clone(),
                provisional: provisional.clone(),
            });
            (provisional, DecisionMode::Degraded)
        } else {
            let voi = match self.config.voi {
                VoiMode::Reweight => self.voi_hints.as_ref(),
                VoiMode::Off => None,
            };
            let input = SelectionInput {
                pairs: &pairs,
                tracks,
                k: self.config.k,
                voi,
            };
            match exec::select_or_degrade(
                &self.selector,
                &input,
                &mut self.session,
                &mut self.breaker,
                &mut self.counters,
                &self.robustness,
                &self.obs,
                w.index as u64,
            )? {
                WindowVerdict::Normal(r) => (r.candidates, DecisionMode::Normal),
                WindowVerdict::Degraded(provisional) => {
                    self.stash.push(StashedWindow {
                        window: w,
                        pairs: pairs.clone(),
                        provisional: provisional.clone(),
                    });
                    (provisional, DecisionMode::Degraded)
                }
            }
        };
        if mode == DecisionMode::Normal {
            self.merged_ids.extend_from_slice(&candidates);
        }
        let decision = WindowDecision {
            window: w,
            n_pairs: pairs.len(),
            candidates,
            mode,
        };
        exec::emit_window_obs(
            &self.obs,
            w.index as u64,
            decision.n_pairs,
            &decision.candidates,
            decision.mode == DecisionMode::Degraded,
        );
        span.finish(self.session.elapsed_ms());
        self.decisions.push(decision.clone());
        Ok(decision)
    }

    /// Re-scores stashed windows with the (recovered) backend, in window
    /// order, committing their candidates for good. Selectors are stateless
    /// and per-window seeded, so a re-run reproduces exactly what the
    /// healthy run would have chosen. If the backend fails again the
    /// remaining windows stay provisional.
    fn reverify_stash(&mut self, tracks: &TrackSet) -> Result<()> {
        self.session.gate_update_plan(tracks);
        let pending = std::mem::take(&mut self.stash);
        let items: Vec<ReverifyItem<'_>> = pending
            .iter()
            .map(|sw| ReverifyItem {
                window_index: sw.window.index as u64,
                pairs: &sw.pairs,
            })
            .collect();
        let merged_ids = &mut self.merged_ids;
        let committed = exec::reverify_windows(
            &items,
            tracks,
            self.config.k,
            &self.selector,
            &mut self.session,
            &mut self.breaker,
            &mut self.counters,
            &self.obs,
            |r| merged_ids.extend_from_slice(&r.candidates),
        )?;
        drop(items);
        self.stash.extend_from_slice(&pending[committed..]);
        Ok(())
    }

    /// The current relabelling implied by all merges: each merged group
    /// maps to its smallest id. Provisional (degraded, not yet re-verified)
    /// merges are included, so queries keep working through an outage.
    pub fn mapping(&self) -> HashMap<TrackId, TrackId> {
        if self.stash.is_empty() {
            return crate::union::merge_mapping(&self.merged_ids);
        }
        let mut all = self.merged_ids.clone();
        all.extend(self.provisional());
        crate::union::merge_mapping(&all)
    }

    /// All candidates committed so far (excludes provisional degraded
    /// merges awaiting re-verification).
    pub fn accepted(&self) -> &[TrackPair] {
        &self.merged_ids
    }

    /// The provisional candidates of the stashed (degraded, not yet
    /// re-verified) windows, in stash order.
    pub(crate) fn provisional(&self) -> impl Iterator<Item = &TrackPair> {
        self.stash.iter().flat_map(|sw| &sw.provisional)
    }

    /// Every decision emitted so far, in window order.
    pub fn decisions(&self) -> &[WindowDecision] {
        &self.decisions
    }

    /// Fault-handling counters so far (all zero on a clean stream).
    pub fn robustness(&self) -> RobustnessReport {
        let stats = self.session.stats();
        RobustnessReport {
            retries: stats.retries,
            backend_faults: stats.backend_faults,
            ..self.counters
        }
    }

    /// Simulated time consumed by the ReID session so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.session.elapsed_ms()
    }

    /// The session's gate decision counters (all-zero when the configured
    /// [`tm_reid::GatePolicy`] is `Off`).
    pub fn gate_stats(&self) -> tm_reid::GateStats {
        self.session.gate_stats()
    }

    /// The stream configuration this merger was built (or resumed) with.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Index of the next unprocessed window.
    pub fn next_window_index(&self) -> usize {
        self.next_window
    }

    /// High-water mark of `frames_available` seen so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Flips serve-level shed-load mode. While shed, every window is
    /// decided on the degraded spatio-temporal path (stash + provisional
    /// merges, zero ReID charges) and breaker recovery is suspended.
    /// Un-shedding with stashed windows pending arms a re-verification at
    /// the next processed window, exactly like breaker recovery.
    pub fn set_shed(&mut self, shed: bool) {
        if self.shed && !shed && !self.stash.is_empty() {
            self.shed_recover = true;
        }
        self.shed = shed;
    }

    /// Whether serve-level shed-load mode is active.
    pub fn is_shed(&self) -> bool {
        self.shed
    }

    /// Attaches (or clears) query-driven VoI hints for subsequent windows.
    /// Consumed only when the stream was configured with
    /// [`VoiMode::Reweight`]; under the default [`VoiMode::Off`] hints are
    /// ignored and the stream stays bit-identical to the query-agnostic
    /// merger. Degraded/shed windows and re-verification always run
    /// hint-free (full fidelity).
    pub fn set_voi_hints(&mut self, hints: Option<VoiHints>) {
        self.voi_hints = hints;
    }

    /// The currently attached VoI hints, if any.
    pub fn voi_hints(&self) -> Option<&VoiHints> {
        self.voi_hints.as_ref()
    }

    /// Whether the circuit breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// Probes whether the backend would accept work at the next window's
    /// epoch — the shed-load controller's recovery signal. Charges nothing
    /// and makes no inference; the epoch it sets is overwritten on the
    /// next processed window anyway.
    pub fn probe_backend(&mut self) -> bool {
        self.session.set_epoch(self.next_window as u64);
        self.session.backend_available()
    }

    /// Degraded windows currently stashed awaiting re-verification.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Size of the cross-window pair-dedup set.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// True when `pair` has already been examined by some processed window
    /// (committed or stashed). Unexamined pairs are the stream's
    /// still-plausible merge frontier — the anytime query layer's `hi`
    /// bound is built from them.
    pub fn pair_examined(&self, pair: &TrackPair) -> bool {
        self.seen.contains(pair)
    }

    /// Every pair belonging to a stashed (degraded, not yet re-verified)
    /// window. These remain undecided: re-verification re-runs the real
    /// selector on the full pair set, so any of them may still be merged.
    pub fn stash_pairs(&self) -> Vec<TrackPair> {
        self.stash
            .iter()
            .flat_map(|sw| sw.pairs.iter().copied())
            .collect()
    }

    /// The session's ReID work counters so far.
    pub fn reid_stats(&self) -> tm_reid::ReidStats {
        self.session.stats()
    }

    /// Features resident in the session cache.
    pub fn cached_features(&self) -> usize {
        self.session.cached_features()
    }

    /// What retention compaction has dropped so far.
    pub fn retention(&self) -> RetentionSummary {
        self.retention
    }

    /// Compacts state older than `horizon_start` (a frame index): folds
    /// old per-window decision entries into the [`RetentionSummary`],
    /// commits the provisional merges of stashed degraded windows that
    /// aged out un-reverified, prunes dedup pairs whose members are dead
    /// (absent from `tracks` or ended before the horizon), and evicts
    /// cached features no live window or pending stash can still touch.
    ///
    /// Compaction never changes the mapping: committed merges and the
    /// watermark are untouched; only bookkeeping that the merging
    /// recurrence can no longer consult is dropped. `tracks` should be the
    /// caller's current (possibly already-pruned) feed.
    pub fn compact_before(
        &mut self,
        horizon_start: FrameIdx,
        tracks: &TrackSet,
    ) -> RetentionSummary {
        let mut delta = RetentionSummary::default();
        // Stashed degraded windows past the horizon: their re-verification
        // window has closed, so the provisional merges become permanent
        // (they were already visible in `mapping`; this only stops them
        // from being re-scored).
        let stash = std::mem::take(&mut self.stash);
        for sw in stash {
            if sw.window.end.get() <= horizon_start.get() {
                self.merged_ids.extend_from_slice(&sw.provisional);
                delta.expired_stash_windows += 1;
            } else {
                self.stash.push(sw);
            }
        }
        self.decisions.retain(|d| {
            if d.window.end.get() <= horizon_start.get() {
                delta.compacted_windows += 1;
                delta.compacted_pairs += d.n_pairs as u64;
                delta.compacted_candidates += d.candidates.len() as u64;
                false
            } else {
                true
            }
        });
        // A pair can only re-form if one of its members shows up in a
        // future window's first half; a track that is gone from the feed
        // or ended before the horizon cannot. Pairs with at least one
        // live member stay, so re-examination protection is preserved for
        // everything still reachable.
        let dead = |id: TrackId| {
            tracks
                .get(id)
                .and_then(|t| t.last_frame())
                .is_none_or(|f| f.get() < horizon_start.get())
        };
        let before_seen = self.seen.len();
        self.seen.retain(|p| !(dead(p.lo()) && dead(p.hi())));
        delta.pruned_seen_pairs += (before_seen - self.seen.len()) as u64;
        // Features are recomputable (the model is pure), so eviction can
        // never change a decision — only future cache hits. Keep anything
        // a pending stash re-verification may still want.
        let guard = self
            .stash
            .iter()
            .map(|sw| sw.window.start.get())
            .min()
            .unwrap_or(horizon_start.get())
            .min(horizon_start.get());
        delta.evicted_features += self.session.evict_cached_before(FrameIdx(guard)) as u64;
        self.retention.accumulate(delta);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig, SelectorKind};
    use crate::tmerge::{TMerge, TMergeConfig};
    use tm_reid::{AppearanceConfig, CostModel, Device};
    use tm_types::{ids::classes, BBox, GtObjectId, Track, TrackBox};

    fn track(id: u64, actor: u64, start: u64, n: usize, x0: f64) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            (0..n)
                .map(|i| {
                    TrackBox::new(
                        FrameIdx(start + i as u64),
                        BBox::new(x0 + i as f64 * 5.0, 100.0, 40.0, 80.0),
                    )
                    .with_provenance(GtObjectId(actor))
                })
                .collect(),
        )
    }

    fn fixture() -> (AppearanceModel, TrackSet) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 30, 0.0),
            track(2, 10, 80, 30, 160.0), // fragment of actor 10
            track(3, 11, 0, 40, 400.0),
            track(4, 12, 60, 40, 800.0),
            track(5, 13, 200, 40, 1200.0),
            track(6, 13, 280, 30, 1400.0), // fragment of actor 13
        ]);
        (model, tracks)
    }

    fn selector() -> TMerge {
        TMerge::new(TMergeConfig {
            tau_max: 1_500,
            seed: 4,
            ..TMergeConfig::default()
        })
    }

    fn config() -> StreamConfig {
        StreamConfig {
            window_len: 200,
            k: 0.1,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn rejects_odd_window() {
        let (model, _) = fixture();
        assert!(StreamingMerger::new(
            &model,
            CostModel::zero(),
            Device::Cpu,
            selector(),
            StreamConfig {
                window_len: 99,
                k: 0.1,
                ..StreamConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn advance_processes_only_elapsed_windows() {
        let (model, tracks) = fixture();
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        // 150 frames available: window [0,200) has not elapsed yet.
        assert!(m.advance(&tracks, 150).unwrap().is_empty());
        let d = m.advance(&tracks, 250).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].window.index, 0);
        assert_eq!(d[0].mode, DecisionMode::Normal);
        // Re-advancing with the same frame count does nothing.
        assert!(m.advance(&tracks, 250).unwrap().is_empty());
    }

    #[test]
    fn regressing_watermark_is_a_clean_error() {
        let (model, tracks) = fixture();
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        m.advance(&tracks, 250).unwrap();
        let before = m.accepted().len();
        let err = m.advance(&tracks, 100);
        assert!(
            matches!(
                err,
                Err(TmError::FrameRegression { frame, watermark })
                    if frame.get() == 100 && watermark.get() == 250
            ),
            "{err:?}"
        );
        // The failed call changed nothing; the stream continues normally.
        assert_eq!(m.accepted().len(), before);
        assert!(m.advance(&tracks, 250).unwrap().is_empty());
    }

    #[test]
    fn invalid_tracks_are_a_clean_error() {
        let (model, _) = fixture();
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        let bad = TrackSet::from_tracks(vec![Track::with_boxes(
            TrackId(1),
            classes::PEDESTRIAN,
            vec![TrackBox::new(FrameIdx(0), BBox::new(0.0, 0.0, 0.0, 10.0))],
        )]);
        assert!(matches!(
            m.advance(&bad, 250),
            Err(TmError::InvalidTrack { .. })
        ));
        // Watermark did not move: the good feed can resume from scratch.
        let (_, tracks) = fixture();
        assert_eq!(m.advance(&tracks, 250).unwrap().len(), 1);
    }

    #[test]
    fn empty_windows_decide_nothing() {
        let (model, _) = fixture();
        // All activity is in frames 600+, so the first windows are empty.
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 600, 30, 0.0),
            track(2, 10, 680, 30, 160.0),
        ]);
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        let d = m.advance(&tracks, 400).unwrap();
        assert_eq!(d.len(), 3);
        for dec in &d {
            assert_eq!(dec.n_pairs, 0);
            assert!(dec.candidates.is_empty());
            assert_eq!(dec.mode, DecisionMode::Normal);
        }
        assert!(m.mapping().is_empty());
    }

    #[test]
    fn zero_admissible_pairs_is_fine() {
        let (model, _) = fixture();
        // Two tracks of different classes: no admissible pair ever forms.
        let mut car = track(2, 20, 0, 30, 300.0);
        car.class = classes::CAR;
        let tracks = TrackSet::from_tracks(vec![track(1, 10, 0, 30, 0.0), car]);
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        let d = m.finish(&tracks, 200).unwrap();
        assert!(d.iter().all(|dec| dec.n_pairs == 0));
        assert!(m.accepted().is_empty());
        assert_eq!(m.elapsed_ms(), 0.0);
    }

    #[test]
    fn video_shorter_than_one_window() {
        let (model, _) = fixture();
        let tracks =
            TrackSet::from_tracks(vec![track(1, 10, 0, 20, 0.0), track(2, 10, 50, 20, 110.0)]);
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        // 80 frames < L = 200: advance can never process a full window…
        assert!(m.advance(&tracks, 80).unwrap().is_empty());
        // …but finish clips the window to the stream and still decides it.
        let d = m.finish(&tracks, 80).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].window.end.get(), 80);
        let poly = TrackPair::new(TrackId(1), TrackId(2)).unwrap();
        assert!(m.accepted().contains(&poly), "{:?}", m.accepted());
    }

    #[test]
    fn streaming_finds_fragments_incrementally() {
        let (model, tracks) = fixture();
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        let mut decisions = Vec::new();
        for frames in [200, 300, 320, 400] {
            decisions.extend(m.advance(&tracks, frames).unwrap());
        }
        decisions.extend(m.finish(&tracks, 400).unwrap());
        let early = TrackPair::new(TrackId(1), TrackId(2)).unwrap();
        assert!(
            m.accepted().contains(&early),
            "early fragment pair not merged: {:?}",
            m.accepted()
        );
        let late = TrackPair::new(TrackId(5), TrackId(6)).unwrap();
        assert!(
            m.accepted().contains(&late),
            "late fragment pair not merged: {:?}",
            m.accepted()
        );
        // The mapping merges both groups.
        let mapping = m.mapping();
        assert_eq!(mapping.get(&TrackId(2)), Some(&TrackId(1)));
        assert_eq!(mapping.get(&TrackId(6)), Some(&TrackId(5)));
        // The decision log matches what the calls returned.
        assert_eq!(m.decisions(), &decisions[..]);
        assert_eq!(m.robustness(), RobustnessReport::default());
    }

    #[test]
    fn no_pair_is_examined_twice_across_windows() {
        let (model, tracks) = fixture();
        let mut m =
            StreamingMerger::new(&model, CostModel::zero(), Device::Cpu, selector(), config())
                .unwrap();
        let mut seen = BTreeSet::new();
        let mut decisions = m.advance(&tracks, 400).unwrap();
        decisions.extend(m.finish(&tracks, 400).unwrap());
        for d in &decisions {
            for p in crate::pairs::build_window_pairs(&tracks, 400, 200)
                .unwrap()
                .iter()
                .filter(|wp| wp.window.index == d.window.index)
                .flat_map(|wp| &wp.pairs)
            {
                assert!(seen.insert(*p), "pair {p} seen twice");
            }
        }
    }

    #[test]
    fn window_lifecycle_reaches_the_recorder() {
        use std::sync::Arc;
        let (model, tracks) = fixture();
        let rec = Arc::new(tm_obs::Recorder::new());
        let (n_windows, n_candidates) = tm_obs::scoped(tm_obs::Obs::new(rec.clone()), || {
            let mut m = StreamingMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                config(),
            )
            .unwrap();
            m.advance(&tracks, 400).unwrap();
            m.finish(&tracks, 400).unwrap();
            (m.decisions().len() as u64, m.accepted().len() as u64)
        });
        assert_eq!(rec.counter_value("pipeline.windows"), n_windows);
        assert_eq!(rec.counter_value("pipeline.candidates"), n_candidates);
        assert_eq!(rec.counter_value("event.window"), n_windows);
        let span = rec.sim_hist("pipeline.window").expect("window spans");
        assert_eq!(span.count, n_windows);
        // A clean stream trips nothing.
        assert_eq!(rec.counter_value("pipeline.windows_degraded"), 0);
        assert_eq!(rec.counter_value("pipeline.breaker_trips"), 0);
    }

    #[test]
    fn streaming_matches_offline_pipeline() {
        let (model, tracks) = fixture();
        let mut m = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            config(),
        )
        .unwrap();
        // Feed in irregular increments.
        for frames in [100, 230, 390, 400] {
            m.advance(&tracks, frames).unwrap();
        }
        m.finish(&tracks, 400).unwrap();

        let offline = run_pipeline(
            &tracks,
            400,
            &model,
            &PipelineConfig {
                window_len: 200,
                k: 0.1,
                selector: SelectorKind::TMerge(TMergeConfig {
                    tau_max: 1_500,
                    seed: 4,
                    ..TMergeConfig::default()
                }),
                device: Device::Cpu,
                cost: CostModel::calibrated(),
                gate: GatePolicy::Off,
            },
            None,
        )
        .unwrap();
        let mut streaming: Vec<TrackPair> = m.accepted().to_vec();
        let mut batch: Vec<TrackPair> = offline.candidates.clone();
        streaming.sort();
        batch.sort();
        assert_eq!(streaming, batch, "streaming and offline disagree");
        assert!((m.elapsed_ms() - offline.elapsed_ms).abs() < 1e-6);
    }

    #[test]
    fn gated_streaming_matches_gated_offline_pipeline() {
        let (model, tracks) = fixture();
        let gate = GatePolicy::On(tm_reid::GateConfig::default());
        let mut m = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            StreamConfig {
                window_len: 200,
                k: 0.1,
                gate,
                voi: VoiMode::Off,
            },
        )
        .unwrap();
        for frames in [100, 230, 390, 400] {
            m.advance(&tracks, frames).unwrap();
        }
        m.finish(&tracks, 400).unwrap();

        let offline = run_pipeline(
            &tracks,
            400,
            &model,
            &PipelineConfig {
                window_len: 200,
                k: 0.1,
                selector: SelectorKind::TMerge(TMergeConfig {
                    tau_max: 1_500,
                    seed: 4,
                    ..TMergeConfig::default()
                }),
                device: Device::Cpu,
                cost: CostModel::calibrated(),
                gate,
            },
            None,
        )
        .unwrap();
        let mut streaming: Vec<TrackPair> = m.accepted().to_vec();
        let mut batch: Vec<TrackPair> = offline.candidates.clone();
        streaming.sort();
        batch.sort();
        assert_eq!(streaming, batch, "gated streaming and offline disagree");
        // The full track set is fed from the first advance, so the
        // incrementally built plan equals the batch plan and the gated
        // clocks agree bit-for-bit.
        assert!((m.elapsed_ms() - offline.elapsed_ms).abs() < 1e-6);
        assert!(m.session.gate_stats().saved_charges() > 0);
    }
}
