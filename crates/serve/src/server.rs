//! The daemon loop: tenant registry, admission, backpressure, retention.
//!
//! [`TmServe`] owns a [`FleetIngester`] per tenant and drives them all
//! from one deterministic cycle function, [`TmServe::run_once`]. Time is
//! the caller's simulated clock — the daemon has no threads, no wall
//! clock, no RNG — so an entire multi-tenant chaos soak replays
//! bit-identically, and killing the process between cycles and resuming
//! from its sealed serve envelope (see [`crate::codec`]) is
//! indistinguishable from never having died.
//!
//! ## Backpressure: shed-load ≡ degraded mode
//!
//! A tenant whose windows breach the latency SLO, or whose breaker is
//! open, flips to **shed-load**: every shard decides windows on the
//! degraded spatio-temporal path (`StreamingMerger::set_shed`), advancing
//! watermarks while charging zero ReID. This is deliberately the *same*
//! machinery as a breaker-open outage — shed windows are stashed and
//! re-verified with real ReID on recovery, so a load spike degrades
//! answer freshness, never correctness. Recovery requires the cooldown to
//! elapse, the breach to clear, and every shard's backend to probe
//! healthy.

use crate::admission::{
    Admission, AdmissionConfig, QuotaWindow, RejectReason, Rejected, TokenBucket,
};
use std::collections::{BTreeMap, VecDeque};
use tm_core::fleet::FleetIngester;
use tm_core::global::{GlobalConfig, GlobalMerger};
use tm_core::selector::CandidateSelector;
use tm_core::stream::{RetentionSummary, StreamConfig};
use tm_obs::{Level, Obs};
use tm_query::{evaluate_merged, Query, QueryAnswer};
use tm_reid::{AppearanceModel, CostModel, Device, InferenceBackend};
use tm_types::{FrameIdx, Result, TmError, Track, TrackSet};

fn invalid(reason: &str) -> TmError {
    TmError::invalid("serve", reason)
}

/// A tenant's registration: identity, stream count, admission tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Tenant identity (namespaces its counters as `serve.tenant.<id>.*`).
    pub id: u64,
    /// Number of camera streams the tenant owns (stream indices
    /// `0..streams`).
    pub streams: usize,
    /// Admission tuning for this tenant.
    pub admission: AdmissionConfig,
}

/// Daemon-wide tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-stream merger configuration (every tenant's shards share it).
    pub stream: StreamConfig,
    /// Per-window simulated-latency SLO; a cycle whose mean window cost
    /// exceeds this flips the tenant to shed-load mode.
    pub slo_window_ms: f64,
    /// Cycles a tenant must stay shed before recovery is considered.
    pub shed_cooldown: u64,
    /// Tiered retention horizon, in windows: shard state older than this
    /// many windows behind the cursor is compacted
    /// ([`tm_core::StreamingMerger::compact_before`]) and the retained
    /// feed pruned. `None` disables compaction (unbounded history).
    pub retention_horizon_windows: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            stream: StreamConfig::default(),
            slo_window_ms: 50.0,
            shed_cooldown: 2,
            retention_horizon_windows: None,
        }
    }
}

/// Monotonic per-tenant counters (also emitted under the tenant's obs
/// prefix; these survive kill-and-resume via the serve envelope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Submissions admitted to the queue.
    pub admitted: u64,
    /// Rejections, by reason.
    pub rejected_queue_full: u64,
    /// See [`RejectReason::OverQuota`].
    pub rejected_over_quota: u64,
    /// See [`RejectReason::RateLimited`].
    pub rejected_rate_limited: u64,
    /// See [`RejectReason::InvalidPayload`].
    pub rejected_invalid: u64,
    /// See [`RejectReason::FrameRegression`].
    pub rejected_regression: u64,
    /// Admitted submissions discarded at apply time because a newer
    /// submission for the stream was already applied.
    pub stale_drops: u64,
    /// Transitions into shed-load mode.
    pub shed_entries: u64,
    /// Recoveries out of shed-load mode.
    pub shed_exits: u64,
    /// Windows decided across all shards.
    pub windows: u64,
}

/// Resident-memory proxy for one tenant, for soak-test bound assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantFootprint {
    /// Pending admission-queue entries.
    pub queue_len: usize,
    /// Tracks retained across the tenant's feeds.
    pub feed_tracks: usize,
    /// Boxes retained across the tenant's feeds.
    pub feed_boxes: usize,
    /// Stashed degraded windows across shards.
    pub stash_windows: usize,
    /// Cross-window dedup pairs across shards.
    pub seen_pairs: usize,
    /// Cached ReID features across shards.
    pub cached_features: usize,
    /// Per-window decision log entries across shards.
    pub decision_entries: usize,
}

/// One admitted, not-yet-applied submission.
#[derive(Debug, Clone)]
pub(crate) struct Submission {
    pub(crate) stream: usize,
    pub(crate) tracks: TrackSet,
    pub(crate) frames: u64,
}

/// One stream's retained feed: the latest applied tracker snapshot.
#[derive(Debug, Clone, Default)]
pub(crate) struct Feed {
    pub(crate) tracks: TrackSet,
    pub(crate) frames: u64,
}

pub(crate) struct Tenant<'m, S> {
    pub(crate) spec: TenantSpec,
    pub(crate) fleet: FleetIngester<'m, S>,
    /// Cross-camera identity resolver, when enabled for this tenant. A
    /// pure overlay: it reads the same retained feeds the fleet advances
    /// on and never touches shard state, so per-stream byte-identity is
    /// unaffected.
    pub(crate) global: Option<GlobalMerger<'m, S>>,
    /// Prefixed handle (`serve.tenant.<id>.`).
    pub(crate) obs: Obs,
    pub(crate) queue: VecDeque<Submission>,
    pub(crate) feeds: Vec<Feed>,
    pub(crate) bucket: TokenBucket,
    pub(crate) quota: QuotaWindow,
    pub(crate) shed: bool,
    pub(crate) cooldown_left: u64,
    pub(crate) last_breach: bool,
    /// Per-shard simulated-clock snapshot at the end of the previous
    /// cycle, for the SLO delta.
    pub(crate) prev_elapsed_ms: Vec<f64>,
    pub(crate) stats: TenantStats,
}

/// Estimated resident payload cost of a submission, charged against the
/// tenant's byte quota (boxes dominate; 64 bytes is one `TrackBox`).
pub(crate) fn payload_bytes(tracks: &TrackSet) -> u64 {
    tracks.total_boxes() as u64 * 64 + tracks.len() as u64 * 24
}

impl<'m, S: CandidateSelector + Send> Tenant<'m, S> {
    fn reject(&mut self, reason: RejectReason, retry_after_ms: u64) -> Admission {
        let (field, name): (&mut u64, _) = match reason {
            RejectReason::QueueFull => (&mut self.stats.rejected_queue_full, "queue_full"),
            RejectReason::OverQuota => (&mut self.stats.rejected_over_quota, "over_quota"),
            RejectReason::RateLimited => (&mut self.stats.rejected_rate_limited, "rate_limited"),
            RejectReason::InvalidPayload => (&mut self.stats.rejected_invalid, "invalid"),
            RejectReason::FrameRegression => (&mut self.stats.rejected_regression, "regression"),
            // Unknown tenant/stream are counted by the caller.
            _ => (&mut self.stats.rejected_invalid, "invalid"),
        };
        *field += 1;
        self.obs.counter(&format!("admission.rejected.{name}"), 1);
        Admission::Rejected(Rejected {
            reason,
            retry_after_ms,
        })
    }

    fn submit(&mut self, now_ms: f64, stream: usize, tracks: TrackSet, frames: u64) -> Admission {
        if stream >= self.spec.streams {
            self.obs.counter("admission.rejected.unknown_stream", 1);
            return Admission::Rejected(Rejected {
                reason: RejectReason::UnknownStream,
                retry_after_ms: 0,
            });
        }
        if tracks.validate().is_err() {
            return self.reject(RejectReason::InvalidPayload, 0);
        }
        // The effective watermark includes already-queued submissions for
        // the stream, so a regression is caught at the door rather than
        // becoming a stale drop at apply time.
        let queued = self
            .queue
            .iter()
            .filter(|s| s.stream == stream)
            .map(|s| s.frames)
            .max()
            .unwrap_or(0);
        if frames < self.feeds[stream].frames.max(queued) {
            return self.reject(RejectReason::FrameRegression, 0);
        }
        if self.queue.len() >= self.spec.admission.max_queue {
            let hint = self.spec.admission.retry_hint_ms;
            return self.reject(RejectReason::QueueFull, hint);
        }
        if let Err(wait) = self.bucket.try_take(now_ms, &self.spec.admission) {
            return self.reject(RejectReason::RateLimited, wait);
        }
        let bytes = payload_bytes(&tracks);
        if let Err(wait) = self.quota.try_charge(now_ms, bytes, &self.spec.admission) {
            return self.reject(RejectReason::OverQuota, wait);
        }
        self.queue.push_back(Submission {
            stream,
            tracks,
            frames,
        });
        self.stats.admitted += 1;
        self.obs.counter("admission.admitted", 1);
        Admission::Admitted
    }

    /// One daemon cycle for this tenant: apply the queue, run the shed
    /// state machine, advance the fleet, measure the SLO, compact.
    fn run_cycle(&mut self, config: &ServeConfig) -> Result<()> {
        // 1. Apply queued submissions in arrival order; a submission made
        // stale by a later-queued, earlier-applied one is dropped (typed,
        // counted — never an error).
        while let Some(sub) = self.queue.pop_front() {
            let feed = &mut self.feeds[sub.stream];
            if sub.frames < feed.frames {
                self.stats.stale_drops += 1;
                self.obs.counter("admission.stale_drops", 1);
                continue;
            }
            feed.tracks = sub.tracks;
            feed.frames = sub.frames;
        }

        // 2. Shed state machine. Entry: last cycle breached the SLO, or
        // any shard's breaker is open. Exit: cooldown elapsed, breach
        // cleared, and every backend probes healthy — then un-shedding
        // arms stash re-verification exactly like breaker recovery.
        let n = self.spec.streams;
        let breaker_open = (0..n).any(|i| self.fleet.shard(i).breaker_open());
        if !self.shed && (self.last_breach || breaker_open) {
            self.shed = true;
            self.cooldown_left = config.shed_cooldown;
            for i in 0..n {
                self.fleet.shard_mut(i).set_shed(true);
            }
            self.stats.shed_entries += 1;
            self.obs.counter("shed.entries", 1);
            self.obs.log(Level::Warn, "entering shed-load mode");
        } else if self.shed {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0
                && !self.last_breach
                && (0..n).all(|i| self.fleet.shard_mut(i).probe_backend())
            {
                self.shed = false;
                for i in 0..n {
                    self.fleet.shard_mut(i).set_shed(false);
                }
                self.stats.shed_exits += 1;
                self.obs.counter("shed.exits", 1);
            }
        }

        // 3. Advance every shard on its retained feed.
        let refs: Vec<(&TrackSet, u64)> =
            self.feeds.iter().map(|f| (&f.tracks, f.frames)).collect();
        let decisions = self.fleet.advance(&refs)?;
        // 3b. The global overlay sees exactly the feeds the fleet saw.
        // Shed-load does not gate it: a degraded global round stashes
        // its pairs and re-verifies on recovery by itself.
        if let Some(global) = self.global.as_mut() {
            global.advance(&refs)?;
        }
        drop(refs);

        // 4. SLO: mean simulated cost per decided window, per shard.
        let mut breach = false;
        for (i, d) in decisions.iter().enumerate() {
            let elapsed = self.fleet.shard(i).elapsed_ms();
            let delta = elapsed - self.prev_elapsed_ms[i];
            self.prev_elapsed_ms[i] = elapsed;
            self.stats.windows += d.len() as u64;
            if !d.is_empty() && delta / d.len() as f64 > config.slo_window_ms {
                breach = true;
            }
        }
        if breach && !self.last_breach {
            self.obs.counter("slo.breaches", 1);
        }
        self.last_breach = breach;

        // 5. Tiered retention: compact shard state and prune feeds behind
        // the horizon. The feed keeps two extra windows of slack beyond
        // the horizon so stash re-verification and prev-window pairing
        // never reach for a pruned track.
        if let Some(h) = config.retention_horizon_windows {
            let half = config.stream.window_len / 2;
            for i in 0..n {
                let cursor = self.fleet.shard(i).next_window_index() as u64;
                if cursor <= h {
                    continue;
                }
                let horizon_start = (cursor - h) * half;
                let feed_cut = horizon_start.saturating_sub(2 * config.stream.window_len);
                let feed = &mut self.feeds[i];
                if feed_cut > 0 {
                    let kept: Vec<Track> = feed
                        .tracks
                        .iter()
                        .filter(|t| t.last_frame().is_some_and(|f| f.get() >= feed_cut))
                        .cloned()
                        .collect();
                    if kept.len() != feed.tracks.len() {
                        feed.tracks = TrackSet::from_tracks(kept);
                    }
                }
                let delta = self
                    .fleet
                    .shard_mut(i)
                    .compact_before(FrameIdx(horizon_start), &feed.tracks);
                self.obs
                    .counter("retention.compacted_windows", delta.compacted_windows);
                self.obs.counter(
                    "retention.expired_stash_windows",
                    delta.expired_stash_windows,
                );
            }
        }
        Ok(())
    }

    fn footprint(&self) -> TenantFootprint {
        let mut f = TenantFootprint {
            queue_len: self.queue.len(),
            ..TenantFootprint::default()
        };
        for feed in &self.feeds {
            f.feed_tracks += feed.tracks.len();
            f.feed_boxes += feed.tracks.total_boxes();
        }
        for i in 0..self.spec.streams {
            let shard = self.fleet.shard(i);
            f.stash_windows += shard.stash_len();
            f.seen_pairs += shard.seen_len();
            f.cached_features += shard.cached_features();
            f.decision_entries += shard.decisions().len();
        }
        f
    }
}

/// The multi-tenant ingestion daemon. See the module docs.
pub struct TmServe<'m, S> {
    pub(crate) model: &'m AppearanceModel,
    pub(crate) session_cost: CostModel,
    pub(crate) device: Device,
    pub(crate) config: ServeConfig,
    #[allow(clippy::type_complexity)]
    pub(crate) make_selector: Box<dyn FnMut(u64, usize) -> S + 'm>,
    pub(crate) tenants: BTreeMap<u64, Tenant<'m, S>>,
    /// Root (unprefixed) observability handle.
    pub(crate) base_obs: Obs,
    pub(crate) now_ms: f64,
    pub(crate) cycles: u64,
    pub(crate) rejected_unknown: u64,
}

impl<'m, S: CandidateSelector + Send> TmServe<'m, S> {
    /// An empty daemon. `make_selector(tenant, stream)` builds the
    /// selector for one shard; selectors are per-window seeded, so handing
    /// every shard an identically configured instance preserves solo-run
    /// byte-identity per stream.
    pub fn new(
        model: &'m AppearanceModel,
        session_cost: CostModel,
        device: Device,
        config: ServeConfig,
        make_selector: impl FnMut(u64, usize) -> S + 'm,
    ) -> Self {
        Self {
            model,
            session_cost,
            device,
            config,
            make_selector: Box::new(make_selector),
            tenants: BTreeMap::new(),
            base_obs: tm_obs::current(),
            now_ms: 0.0,
            cycles: 0,
            rejected_unknown: 0,
        }
    }

    /// The daemon-wide configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cycles run so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Registered tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<u64> {
        self.tenants.keys().copied().collect()
    }

    /// Registers a tenant, building its fleet (one shard per backend)
    /// under the `serve.tenant.<id>.` observability namespace.
    /// `backends.len()` must equal `spec.streams`.
    pub fn register(
        &mut self,
        spec: TenantSpec,
        backends: &[&'m dyn InferenceBackend],
    ) -> Result<()> {
        if spec.streams == 0 {
            return Err(invalid("a tenant needs at least one stream"));
        }
        if backends.len() != spec.streams {
            return Err(invalid(
                "backend count must match the tenant's stream count",
            ));
        }
        if self.tenants.contains_key(&spec.id) {
            return Err(invalid("tenant id already registered"));
        }
        let obs = self
            .base_obs
            .with_prefix(&format!("serve.tenant.{}.", spec.id));
        let id = spec.id;
        let make = &mut self.make_selector;
        let fleet = tm_obs::scoped(obs.clone(), || {
            FleetIngester::new(
                self.model,
                self.session_cost,
                self.device,
                self.config.stream,
                |i| make(id, i),
                backends,
            )
        })?;
        self.tenants.insert(
            spec.id,
            Tenant {
                spec,
                fleet,
                global: None,
                obs,
                queue: VecDeque::new(),
                feeds: vec![Feed::default(); spec.streams],
                bucket: TokenBucket::full(&spec.admission),
                quota: QuotaWindow::fresh(),
                shed: false,
                cooldown_left: 0,
                last_breach: false,
                prev_elapsed_ms: vec![0.0; spec.streams],
                stats: TenantStats::default(),
            },
        );
        self.base_obs.counter("serve.tenants.registered", 1);
        Ok(())
    }

    /// Removes a tenant and drops all its state. Its final mapping is
    /// gone with it — query before deregistering if the answer matters.
    pub fn deregister(&mut self, tenant: u64) -> Result<()> {
        self.tenants
            .remove(&tenant)
            .ok_or_else(|| invalid("unknown tenant"))?;
        self.base_obs.counter("serve.tenants.deregistered", 1);
        Ok(())
    }

    /// Submits one tracker snapshot for `(tenant, stream)`. Never panics
    /// and never buffers beyond the tenant's queue bound: every refusal is
    /// a typed [`Rejected`] with a retry hint.
    pub fn submit(
        &mut self,
        now_ms: f64,
        tenant: u64,
        stream: usize,
        tracks: TrackSet,
        frames: u64,
    ) -> Admission {
        match self.tenants.get_mut(&tenant) {
            Some(t) => t.submit(now_ms, stream, tracks, frames),
            None => {
                self.rejected_unknown += 1;
                self.base_obs
                    .counter("serve.admission.rejected.unknown_tenant", 1);
                Admission::Rejected(Rejected {
                    reason: RejectReason::UnknownTenant,
                    retry_after_ms: 0,
                })
            }
        }
    }

    /// Runs one daemon cycle at simulated time `now_ms`: every tenant (in
    /// id order, for determinism) applies its queue, runs the shed state
    /// machine, advances its fleet, and compacts behind the retention
    /// horizon. Call between submissions; checkpoint between calls.
    pub fn run_once(&mut self, now_ms: f64) -> Result<()> {
        self.now_ms = now_ms;
        self.cycles += 1;
        self.base_obs.counter("serve.cycles", 1);
        for tenant in self.tenants.values_mut() {
            tenant.run_cycle(&self.config)?;
        }
        Ok(())
    }

    /// Answers a query against `(tenant, stream)`'s in-flight merged state
    /// — the retained feed read through the shard's current relabelling
    /// (provisional merges included, so queries keep working through
    /// outages and shed-load). The shard keeps that relabelling as pairs
    /// commit, so an answer costs what the retained feed costs, whatever
    /// the merge history. A pure read: no ingestion state changes.
    pub fn query(&self, tenant: u64, stream: usize, query: Query) -> Result<QueryAnswer> {
        let t = self
            .tenants
            .get(&tenant)
            .ok_or_else(|| invalid("unknown tenant"))?;
        if stream >= t.spec.streams {
            return Err(invalid("unknown stream"));
        }
        let merged = t.fleet.shard(stream).merged_ids();
        Ok(evaluate_merged(
            &t.feeds[stream].tracks,
            |id| merged.get(id),
            query,
        ))
    }

    /// Whether a tenant is currently shedding load.
    pub fn is_shed(&self, tenant: u64) -> Option<bool> {
        self.tenants.get(&tenant).map(|t| t.shed)
    }

    /// A tenant's admission/lifecycle counters.
    pub fn stats(&self, tenant: u64) -> Option<TenantStats> {
        self.tenants.get(&tenant).map(|t| t.stats)
    }

    /// A tenant's resident-memory proxy, for soak-bound assertions.
    pub fn footprint(&self, tenant: u64) -> Option<TenantFootprint> {
        self.tenants.get(&tenant).map(|t| t.footprint())
    }

    /// A tenant's aggregate retention summary across shards.
    pub fn retention(&self, tenant: u64) -> Option<RetentionSummary> {
        self.tenants.get(&tenant).map(|t| {
            let mut total = RetentionSummary::default();
            for i in 0..t.spec.streams {
                let r = t.fleet.shard(i).retention();
                total.compacted_windows += r.compacted_windows;
                total.compacted_pairs += r.compacted_pairs;
                total.compacted_candidates += r.compacted_candidates;
                total.expired_stash_windows += r.expired_stash_windows;
                total.pruned_seen_pairs += r.pruned_seen_pairs;
                total.evicted_features += r.evicted_features;
            }
            total
        })
    }

    /// A tenant's fleet, for inspecting shard decisions and mappings.
    pub fn fleet(&self, tenant: u64) -> Option<&FleetIngester<'m, S>> {
        self.tenants.get(&tenant).map(|t| &t.fleet)
    }

    /// A tenant's fleet, mutably (e.g. for `StreamingMerger::set_shed`).
    pub fn fleet_mut(&mut self, tenant: u64) -> Option<&mut FleetIngester<'m, S>> {
        self.tenants.get_mut(&tenant).map(|t| &mut t.fleet)
    }

    /// A tenant's retained feed for one stream: `(tracks, frames)`.
    pub fn feed(&self, tenant: u64, stream: usize) -> Option<(&TrackSet, u64)> {
        let t = self.tenants.get(&tenant)?;
        let f = t.feeds.get(stream)?;
        Some((&f.tracks, f.frames))
    }

    /// Enables cross-camera global identity resolution for a registered
    /// tenant: every subsequent cycle also advances a [`GlobalMerger`]
    /// over the tenant's retained feeds (one camera per stream). The
    /// overlay is read-only with respect to shard state, so per-stream
    /// decisions and mappings stay byte-identical to a fleet without it.
    /// Enable before the first `run_once` for a deterministic replay.
    pub fn enable_global(&mut self, tenant: u64, config: GlobalConfig) -> Result<()> {
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or_else(|| invalid("unknown tenant"))?;
        if t.global.is_some() {
            return Err(invalid("global resolution already enabled"));
        }
        // The global selector gets the one-past-the-end stream index as
        // its slot, so its seeding is distinct from every shard's and
        // reproducible at resume.
        let selector = (self.make_selector)(t.spec.id, t.spec.streams);
        let global = tm_obs::scoped(t.obs.clone(), || {
            GlobalMerger::new(self.model, self.session_cost, self.device, selector, config)
        })?;
        t.global = Some(global);
        self.base_obs.counter("serve.tenants.global_enabled", 1);
        Ok(())
    }

    /// A tenant's global merger, if enabled.
    pub fn global(&self, tenant: u64) -> Option<&GlobalMerger<'m, S>> {
        self.tenants.get(&tenant)?.global.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::tmerge::{TMerge, TMergeConfig};
    use tm_reid::AppearanceConfig;
    use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId};

    fn track(id: u64, actor: u64, start: u64, n: usize, x0: f64) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            (0..n)
                .map(|i| {
                    TrackBox::new(
                        FrameIdx(start + i as u64),
                        BBox::new(x0 + i as f64 * 2.0, 100.0, 40.0, 80.0),
                    )
                    .with_provenance(GtObjectId(actor))
                })
                .collect(),
        )
    }

    fn feed() -> TrackSet {
        TrackSet::from_tracks(vec![track(1, 10, 0, 30, 0.0), track(2, 10, 80, 30, 60.0)])
    }

    fn config() -> ServeConfig {
        ServeConfig {
            stream: StreamConfig {
                window_len: 200,
                k: 0.1,
                gate: tm_reid::GatePolicy::Off,
                voi: tm_core::VoiMode::Off,
            },
            slo_window_ms: f64::INFINITY,
            shed_cooldown: 2,
            retention_horizon_windows: None,
        }
    }

    fn daemon<'m>(model: &'m AppearanceModel, cfg: ServeConfig) -> TmServe<'m, TMerge> {
        TmServe::new(model, CostModel::calibrated(), Device::Cpu, cfg, |_, _| {
            TMerge::new(TMergeConfig {
                tau_max: 1_500,
                seed: 4,
                ..TMergeConfig::default()
            })
        })
    }

    fn reason(a: Admission) -> Option<RejectReason> {
        match a {
            Admission::Admitted => None,
            Admission::Rejected(r) => Some(r.reason),
        }
    }

    #[test]
    fn admission_rejects_are_typed_and_counted() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut serve = daemon(&model, config());
        assert_eq!(
            reason(serve.submit(0.0, 5, 0, feed(), 100)),
            Some(RejectReason::UnknownTenant)
        );
        let backends: [&dyn InferenceBackend; 1] = [&model];
        serve
            .register(
                TenantSpec {
                    id: 5,
                    streams: 1,
                    admission: AdmissionConfig {
                        max_queue: 2,
                        ..AdmissionConfig::default()
                    },
                },
                &backends,
            )
            .unwrap();

        assert_eq!(
            reason(serve.submit(0.0, 5, 3, feed(), 100)),
            Some(RejectReason::UnknownStream)
        );
        // A non-finite box fails validation.
        let bad = TrackSet::from_tracks(vec![Track::with_boxes(
            TrackId(1),
            classes::PEDESTRIAN,
            vec![TrackBox::new(
                FrameIdx(0),
                BBox::new(f64::NAN, 0.0, 10.0, 10.0),
            )],
        )]);
        assert_eq!(
            reason(serve.submit(0.0, 5, 0, bad, 100)),
            Some(RejectReason::InvalidPayload)
        );
        assert!(serve.submit(0.0, 5, 0, feed(), 100).is_admitted());
        // A watermark regression is caught against the queued submission.
        assert_eq!(
            reason(serve.submit(0.0, 5, 0, feed(), 99)),
            Some(RejectReason::FrameRegression)
        );
        assert!(serve.submit(0.0, 5, 0, feed(), 110).is_admitted());
        let full = serve.submit(0.0, 5, 0, feed(), 120);
        match full {
            Admission::Rejected(r) => {
                assert_eq!(r.reason, RejectReason::QueueFull);
                assert!(r.retry_after_ms > 0);
            }
            Admission::Admitted => panic!("queue bound not enforced"),
        }
        let stats = serve.stats(5).unwrap();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected_queue_full, 1);
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.rejected_regression, 1);

        serve.run_once(1.0).unwrap();
        let fp = serve.footprint(5).unwrap();
        assert_eq!(fp.queue_len, 0);
        assert_eq!(serve.feed(5, 0).unwrap().1, 110, "newest snapshot applied");
    }

    #[test]
    fn rate_and_quota_limits_shed_typed_rejections() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut serve = daemon(&model, config());
        let backends: [&dyn InferenceBackend; 1] = [&model];
        serve
            .register(
                TenantSpec {
                    id: 1,
                    streams: 1,
                    admission: AdmissionConfig {
                        max_queue: 100,
                        rate_capacity: 2.0,
                        rate_per_ms: 0.01,
                        bytes_per_window: payload_bytes(&feed()) * 2,
                        quota_window_ms: 1_000.0,
                        retry_hint_ms: 7,
                    },
                },
                &backends,
            )
            .unwrap();
        let mut frames = 100;
        let mut admit = |serve: &mut TmServe<'_, TMerge>, t: f64| {
            frames += 1;
            reason(serve.submit(t, 1, 0, feed(), frames))
        };
        assert_eq!(admit(&mut serve, 0.0), None);
        assert_eq!(admit(&mut serve, 0.0), None);
        assert_eq!(admit(&mut serve, 0.0), Some(RejectReason::RateLimited));
        // Refilled after the hint, but now the byte quota is exhausted
        // until the window rolls.
        assert_eq!(admit(&mut serve, 200.0), Some(RejectReason::OverQuota));
        assert_eq!(admit(&mut serve, 1_000.0), None);
        let stats = serve.stats(1).unwrap();
        assert_eq!(stats.rejected_rate_limited, 1);
        assert_eq!(stats.rejected_over_quota, 1);
        assert_eq!(stats.admitted, 3);
    }

    #[test]
    fn slo_breach_enters_shed_and_recovery_reverifies() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        // An impossible SLO: the first decided window breaches it.
        let mut cfg = config();
        cfg.slo_window_ms = 0.0;
        let mut serve = daemon(&model, cfg);
        let backends: [&dyn InferenceBackend; 1] = [&model];
        serve
            .register(
                TenantSpec {
                    id: 2,
                    streams: 1,
                    admission: AdmissionConfig::default(),
                },
                &backends,
            )
            .unwrap();
        assert!(serve.submit(0.0, 2, 0, feed(), 250).is_admitted());
        serve.run_once(1.0).unwrap();
        assert_eq!(
            serve.is_shed(2),
            Some(false),
            "breach observed, not yet shed"
        );
        serve.run_once(2.0).unwrap();
        assert_eq!(
            serve.is_shed(2),
            Some(true),
            "breach flips the tenant to shed"
        );
        assert_eq!(serve.stats(2).unwrap().shed_entries, 1);
        // Shed windows advance on the degraded path and stay stashed; with
        // an SLO this tight the tenant never recovers.
        assert!(serve.submit(2.5, 2, 0, feed(), 450).is_admitted());
        serve.run_once(3.0).unwrap();
        assert!(serve.fleet(2).unwrap().shard(0).is_shed());

        // A sane SLO on a fresh daemon: shed never triggers, and the same
        // traffic decides windows normally.
        let mut healthy = daemon(&model, config());
        healthy
            .register(
                TenantSpec {
                    id: 2,
                    streams: 1,
                    admission: AdmissionConfig::default(),
                },
                &backends,
            )
            .unwrap();
        assert!(healthy.submit(0.0, 2, 0, feed(), 250).is_admitted());
        healthy.run_once(1.0).unwrap();
        healthy.run_once(2.0).unwrap();
        assert_eq!(healthy.is_shed(2), Some(false));
        assert_eq!(healthy.stats(2).unwrap().shed_entries, 0);
    }

    #[test]
    fn query_answers_against_in_flight_merged_state() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut serve = daemon(&model, config());
        let backends: [&dyn InferenceBackend; 1] = [&model];
        serve
            .register(
                TenantSpec {
                    id: 3,
                    streams: 1,
                    admission: AdmissionConfig::default(),
                },
                &backends,
            )
            .unwrap();
        // Two fragments of one actor: 0..=29 and 80..=109. Merged they span
        // 110 frames; apart, neither passes a min_frames of 60.
        assert!(serve.submit(0.0, 3, 0, feed(), 250).is_admitted());
        serve.run_once(1.0).unwrap();
        serve.run_once(2.0).unwrap();
        let answer = serve.query(3, 0, Query::Count { min_frames: 60 }).unwrap();
        assert_eq!(
            answer,
            QueryAnswer::Count(vec![TrackId(1)]),
            "fragments merge into one long-lived object"
        );
        assert!(serve.query(4, 0, Query::Count { min_frames: 60 }).is_err());
        assert!(serve.query(3, 9, Query::Count { min_frames: 60 }).is_err());
    }

    #[test]
    fn region_transit_queries_flow_through_the_daemon() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut serve = daemon(&model, config());
        let backends: [&dyn InferenceBackend; 1] = [&model];
        serve
            .register(
                TenantSpec {
                    id: 7,
                    streams: 1,
                    admission: AdmissionConfig::default(),
                },
                &backends,
            )
            .unwrap();
        assert!(serve.submit(0.0, 7, 0, feed(), 250).is_admitted());
        serve.run_once(1.0).unwrap();
        serve.run_once(2.0).unwrap();
        // Each fragment dwells 30 frames inside the region; only the
        // merged track clears a 40-frame dwell floor.
        let region = BBox::new(0.0, 0.0, 1000.0, 1000.0);
        let answer = serve
            .query(
                7,
                0,
                Query::RegionTransit {
                    region,
                    min_frames: 40,
                },
            )
            .unwrap();
        assert_eq!(
            answer,
            QueryAnswer::RegionTransit(vec![TrackId(1)]),
            "dwell is additive across the merged fragments"
        );
        // A region the feed never enters answers empty.
        let answer = serve
            .query(
                7,
                0,
                Query::RegionTransit {
                    region: BBox::new(5000.0, 5000.0, 10.0, 10.0),
                    min_frames: 1,
                },
            )
            .unwrap();
        assert_eq!(answer, QueryAnswer::RegionTransit(vec![]));
    }

    #[test]
    fn deregister_removes_all_tenant_state() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut serve = daemon(&model, config());
        let backends: [&dyn InferenceBackend; 1] = [&model];
        serve
            .register(
                TenantSpec {
                    id: 6,
                    streams: 1,
                    admission: AdmissionConfig::default(),
                },
                &backends,
            )
            .unwrap();
        assert!(
            serve
                .register(
                    TenantSpec {
                        id: 6,
                        streams: 1,
                        admission: AdmissionConfig::default(),
                    },
                    &backends,
                )
                .is_err(),
            "duplicate id"
        );
        serve.deregister(6).unwrap();
        assert!(serve.deregister(6).is_err());
        assert!(serve.tenant_ids().is_empty());
        assert_eq!(
            reason(serve.submit(0.0, 6, 0, feed(), 10)),
            Some(RejectReason::UnknownTenant)
        );
    }
}
