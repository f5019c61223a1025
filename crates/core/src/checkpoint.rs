//! The checkpoint container, and checkpoint/resume for [`StreamingMerger`].
//!
//! ## The container
//!
//! Every checkpoint — merger, fleet, global merger, anytime stream and
//! serve daemon — is one envelope. [`seal`] writes three header words
//! (magic, version, [`Kind`]), the owner's payload, and a 64-bit checksum
//! over every byte before it; [`open`] checks length, magic, version, kind
//! and checksum before any field is parsed. The payload is positional
//! little-endian words (`f64` via `to_bits`, so clocks round-trip
//! bit-exactly; collections length-prefixed). Nested checkpoints are
//! length-prefixed sealed envelopes in their parent's payload, so bytes
//! nested `k` deep are hashed `k` times (at most three: serve → fleet →
//! merger). The checksum catches damage, not forgery: re-sealed bytes
//! reach field readers that bound every count by the bytes that remain,
//! narrow 32-bit fields with a checked conversion and validate the config
//! as construction does, so hostile input is a typed error.
//!
//! ## The merger checkpoint
//!
//! A long-running ingester must survive being killed: `checkpoint()`
//! serializes the merger's complete state — window cursor, watermark,
//! cross-window dedup set, committed merges, degraded stash, decision log,
//! breaker state and the ReID session (simulated clock, work counters,
//! feature cache and gate state) — and `resume()` reconstructs a merger
//! that continues at the last completed window with **byte-identical**
//! output to a run that was never interrupted. The session writes each
//! distinct feature value once and every cache key as a reference to it,
//! so a reused box resumes sharing its donor's `Arc`. The selector and the
//! appearance model are code, not data — `resume()` takes them as
//! arguments and the caller must pass the same ones (and re-install any
//! fault backend with [`StreamingMerger::with_backend`]) for identical
//! continuation. Telemetry is not merger state: a caller that owns a
//! `tm_obs::Recorder` carries `Recorder::state()` across the kill itself
//! and `restore`s it before resuming.

use crate::resilience::{
    Breaker, DecisionMode, DegradedConfig, RobustnessConfig, RobustnessReport,
};
use crate::selector::CandidateSelector;
use crate::stream::{
    Merges, RetentionSummary, StashedWindow, StreamConfig, StreamingMerger, WindowDecision,
};
use crate::window::Window;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tm_reid::{
    AppearanceModel, BoxKey, Feature, GateConfig, GatePolicy, GateSnapshot, GateStats, ReidSession,
    ReidStats, RetryPolicy, SessionSnapshot, TrackPlan,
};
use tm_types::{
    BBox, ClassId, FrameIdx, GtObjectId, Result, TmError, Track, TrackBox, TrackId, TrackPair,
    TrackSet,
};

/// `TMCK` in ASCII: the first word of every envelope.
const MAGIC: u64 = 0x544d_434b;
/// The container layout version; readers reject any other value. Version
/// 3 dropped the gate's provenance and writes each feature value once;
/// version 4 dropped the recorder state from the merger payload.
const VERSION: u64 = 4;
/// Magic, version and kind words.
const HEADER_BYTES: usize = 24;

/// What a sealed envelope holds: the header word after the version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A [`StreamingMerger`].
    Merger = 1,
    /// A [`crate::FleetIngester`]: shard count, then one sealed merger each.
    Fleet = 2,
    /// A [`crate::GlobalMerger`].
    Global = 3,
    /// A `tm-query` anytime stream, ending with its sealed merger.
    Anytime = 4,
    /// A `tm-serve` daemon, holding sealed fleets and global mergers.
    Serve = 5,
}

/// The typed error for bytes that do not decode: every field reader in the
/// workspace reports damaged or hostile checkpoint bytes through this.
pub fn corrupt(reason: &str) -> TmError {
    TmError::invalid("checkpoint", reason)
}

/// Chained multiply–xor over the little-endian words of `bytes`: word `i`
/// feeds chain `i mod 4` (four chains keep four multiplies in flight), the
/// first chain is seeded with the length, the last partial block is
/// zero-padded, and the chains fold into one word. For a fixed word each
/// step is a bijection of its chain's state, and the fold is one in each
/// chain, so a change confined to one word always changes the sum: every
/// single-byte flip is caught.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: &[u8]| {
        let word = u64::from_le_bytes(w.try_into().expect("8-byte word"));
        (h ^ word).wrapping_mul(K).rotate_left(29)
    };
    let mut chains = [bytes.len() as u64, 1, 2, 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (h, w) in chains.iter_mut().zip(block.chunks_exact(8)) {
            *h = step(*h, w);
        }
    }
    let mut last = [0u8; 32];
    last[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    for (h, w) in chains.iter_mut().zip(last.chunks_exact(8)) {
        *h = step(*h, w);
    }
    chains.iter().fold(K, |h, c| step(h, &c.to_le_bytes()))
}

/// Seals one envelope: the header, the payload `body` writes, then the
/// checksum over both. The header goes first and the trailer is appended,
/// so the envelope is never copied.
pub fn seal(kind: Kind, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(MAGIC);
    w.put_u64(VERSION);
    w.put_u64(kind as u64);
    body(&mut w);
    let sum = checksum(&w.buf);
    w.put_u64(sum);
    w.buf
}

/// Opens an envelope [`seal`]ed as `kind`: checks the length, magic,
/// version, kind and checksum, in that order, before any field is parsed,
/// and returns a reader over the payload. The caller reads its fields and
/// ends with [`Reader::finish`].
pub fn open(kind: Kind, bytes: &[u8]) -> Result<Reader<'_>> {
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(corrupt("truncated envelope"));
    }
    let mut header = Reader::new(&bytes[..HEADER_BYTES]);
    if header.take_u64()? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if header.take_u64()? != VERSION {
        return Err(corrupt("unsupported version"));
    }
    if header.take_u64()? != kind as u64 {
        return Err(corrupt(&format!("not a {kind:?} envelope")));
    }
    let (sealed, trailer) = bytes.split_at(bytes.len() - 8);
    if Reader::new(trailer).take_u64()? != checksum(sealed) {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(Reader::new(&sealed[HEADER_BYTES..]))
}

/// Little-endian word-stream writer for a payload being [`seal`]ed. Floats
/// ride as bits, never text, so clocks round-trip bit-exactly.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one little-endian word.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a float as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as one word.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u64(v as u64);
    }

    pub(crate) fn put_pair(&mut self, p: TrackPair) {
        self.put_u64(p.lo().get());
        self.put_u64(p.hi().get());
    }

    pub(crate) fn put_pairs(&mut self, ps: &[TrackPair]) {
        self.put_u64(ps.len() as u64);
        for &p in ps {
            self.put_pair(p);
        }
    }

    fn put_window(&mut self, w: &Window) {
        self.put_u64(w.index as u64);
        self.put_u64(w.start.get());
        self.put_u64(w.end.get());
        self.put_u64(w.half_end.get());
    }

    /// Appends a length-prefixed blob: a nested sealed envelope.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Retry policy, breaker threshold and degraded limits.
    pub(crate) fn put_robustness(&mut self, c: &RobustnessConfig) {
        self.put_u64(c.retry.max_attempts.into());
        self.put_f64(c.retry.base_backoff_ms);
        self.put_f64(c.retry.backoff_factor);
        self.put_f64(c.retry.max_backoff_ms);
        self.put_u64(c.breaker_threshold.into());
        self.put_f64(c.degraded.max_spatial_px);
        self.put_u64(c.degraded.max_temporal_gap as u64);
    }

    /// Breaker state, then the [`RobustnessReport`] counters a checkpoint
    /// keeps (retries and backend faults ride the session snapshot).
    pub(crate) fn put_breaker(&mut self, b: &Breaker, c: &RobustnessReport) {
        self.put_u64(b.threshold().into());
        self.put_u64(b.consecutive().into());
        self.put_bool(b.is_open());
        self.put_u64(c.degraded_windows);
        self.put_u64(c.reverified_windows);
        self.put_u64(c.breaker_trips);
    }

    /// A decision entry after its window or round: pairs examined, the
    /// candidates and the mode.
    pub(crate) fn put_decision(&mut self, n: usize, pairs: &[TrackPair], mode: DecisionMode) {
        self.put_u64(n as u64);
        self.put_pairs(pairs);
        self.put_bool(mode == DecisionMode::Degraded);
    }
}

/// The matching reader over an [`open`]ed payload: every `take_*`
/// validates against the remaining bytes, so corrupt or truncated input
/// yields an error, never a panic or an unbounded allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("truncated"))?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated"))?;
        self.pos = end;
        Ok(bytes)
    }

    /// Takes one little-endian word.
    pub fn take_u64(&mut self) -> Result<u64> {
        let bytes = self.take_slice(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Takes a word that must fit 32 bits.
    fn take_u32(&mut self) -> Result<u32> {
        u32::try_from(self.take_u64()?).map_err(|_| corrupt("32-bit field exceeds 32 bits"))
    }

    /// Takes a float written by [`Writer::put_f64`], bit-exactly.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a boolean word (anything other than 0 or 1 is corrupt).
    pub fn take_bool(&mut self) -> Result<bool> {
        match self.take_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("invalid boolean word")),
        }
    }

    /// Takes a count or length, bounded by the bytes that remain: every
    /// element is at least one byte, so a larger count is corrupt, not an
    /// allocation request.
    pub fn take_len(&mut self) -> Result<usize> {
        let n = self.take_u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(corrupt("length prefix exceeds remaining bytes"));
        }
        Ok(n as usize)
    }

    pub(crate) fn take_pair(&mut self) -> Result<TrackPair> {
        let lo = TrackId(self.take_u64()?);
        let hi = TrackId(self.take_u64()?);
        TrackPair::new(lo, hi).ok_or_else(|| corrupt("degenerate track pair"))
    }

    pub(crate) fn take_pairs(&mut self) -> Result<Vec<TrackPair>> {
        let n = self.take_len()?;
        (0..n).map(|_| self.take_pair()).collect()
    }

    fn take_window(&mut self) -> Result<Window> {
        Ok(Window {
            index: self.take_u64()? as usize,
            start: FrameIdx(self.take_u64()?),
            end: FrameIdx(self.take_u64()?),
            half_end: FrameIdx(self.take_u64()?),
        })
    }

    /// Takes a blob written by [`Writer::put_bytes`]: a nested envelope,
    /// which its own owner [`open`]s.
    pub fn take_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.take_len()?;
        self.take_slice(n)
    }

    pub(crate) fn take_robustness(&mut self) -> Result<RobustnessConfig> {
        Ok(RobustnessConfig {
            retry: RetryPolicy {
                max_attempts: self.take_u32()?,
                base_backoff_ms: self.take_f64()?,
                backoff_factor: self.take_f64()?,
                max_backoff_ms: self.take_f64()?,
            },
            breaker_threshold: self.take_u32()?,
            degraded: DegradedConfig {
                max_spatial_px: self.take_f64()?,
                max_temporal_gap: self.take_u64()? as i64,
            },
        })
    }

    pub(crate) fn take_breaker(&mut self) -> Result<(Breaker, RobustnessReport)> {
        let (threshold, consecutive) = (self.take_u32()?, self.take_u32()?);
        let breaker = Breaker::restore(threshold, consecutive, self.take_bool()?);
        let counters = RobustnessReport {
            degraded_windows: self.take_u64()?,
            reverified_windows: self.take_u64()?,
            breaker_trips: self.take_u64()?,
            ..RobustnessReport::default()
        };
        Ok((breaker, counters))
    }

    pub(crate) fn take_decision(&mut self) -> Result<(usize, Vec<TrackPair>, DecisionMode)> {
        let n = self.take_u64()? as usize;
        let pairs = self.take_pairs()?;
        let mode = if self.take_bool()? {
            DecisionMode::Degraded
        } else {
            DecisionMode::Normal
        };
        Ok((n, pairs, mode))
    }

    /// Asserts the payload was consumed exactly (no trailing bytes).
    pub fn finish(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after checkpoint payload"))
        }
    }
}

fn put_gate_config(w: &mut Writer, cfg: &GateConfig) {
    w.put_u64(cfg.fresh_frames);
    w.put_u64(cfg.occlusion_gap);
    w.put_u64(cfg.refresh_interval);
    w.put_u64(cfg.max_reuse_age);
    w.put_f64(cfg.decay_half_life);
    w.put_f64(cfg.defer_below);
    w.put_f64(cfg.ambiguity_iou);
}

fn take_gate_config(r: &mut Reader<'_>) -> Result<GateConfig> {
    Ok(GateConfig {
        fresh_frames: r.take_u64()?,
        occlusion_gap: r.take_u64()?,
        refresh_interval: r.take_u64()?,
        max_reuse_age: r.take_u64()?,
        decay_half_life: r.take_f64()?,
        defer_below: r.take_f64()?,
        ambiguity_iou: r.take_f64()?,
    })
}

fn put_gate_stats(w: &mut Writer, s: &GateStats) {
    w.put_u64(s.extracts);
    w.put_u64(s.reuses);
    w.put_u64(s.defers);
}

fn take_gate_stats(r: &mut Reader<'_>) -> Result<GateStats> {
    Ok(GateStats {
        extracts: r.take_u64()?,
        reuses: r.take_u64()?,
        defers: r.take_u64()?,
    })
}

fn put_box_key(w: &mut Writer, k: BoxKey) {
    w.put_u64(k.track.get());
    w.put_u64(k.frame.get());
}

fn take_box_key(r: &mut Reader<'_>) -> Result<BoxKey> {
    Ok(BoxKey {
        track: TrackId(r.take_u64()?),
        frame: FrameIdx(r.take_u64()?),
    })
}

fn put_track_box(w: &mut Writer, b: &TrackBox) {
    w.put_u64(b.frame.get());
    w.put_f64(b.bbox.x);
    w.put_f64(b.bbox.y);
    w.put_f64(b.bbox.w);
    w.put_f64(b.bbox.h);
    w.put_f64(b.confidence);
    w.put_f64(b.visibility);
    match b.provenance {
        Some(g) => {
            w.put_bool(true);
            w.put_u64(g.get());
        }
        None => w.put_bool(false),
    }
}

fn take_track_box(r: &mut Reader<'_>) -> Result<TrackBox> {
    let frame = FrameIdx(r.take_u64()?);
    let bbox = BBox::new(r.take_f64()?, r.take_f64()?, r.take_f64()?, r.take_f64()?);
    let confidence = r.take_f64()?;
    let visibility = r.take_f64()?;
    let mut b = TrackBox::new(frame, bbox)
        .with_confidence(confidence)
        .with_visibility(visibility);
    if r.take_bool()? {
        b = b.with_provenance(GtObjectId(r.take_u64()?));
    }
    Ok(b)
}

fn put_gate_snapshot(w: &mut Writer, g: &GateSnapshot) {
    put_gate_config(w, &g.config);
    put_gate_stats(w, &g.stats);
    put_gate_stats(w, &g.flushed);
    w.put_u64(g.plans.len() as u64);
    for (track, plan) in &g.plans {
        w.put_u64(track.get());
        w.put_u64(plan.planned as u64);
        w.put_u64(plan.planned_through);
        w.put_u64(plan.anchors.len() as u64);
        for a in &plan.anchors {
            put_track_box(w, a);
        }
    }
}

fn take_gate_snapshot(r: &mut Reader<'_>) -> Result<GateSnapshot> {
    let config = take_gate_config(r)?;
    let stats = take_gate_stats(r)?;
    let flushed = take_gate_stats(r)?;
    let n = r.take_len()?;
    let plans: Vec<(TrackId, TrackPlan)> = (0..n)
        .map(|_| {
            let track = TrackId(r.take_u64()?);
            let planned = r.take_u64()? as usize;
            let planned_through = r.take_u64()?;
            let n_anchors = r.take_len()?;
            let anchors: Vec<TrackBox> = (0..n_anchors)
                .map(|_| take_track_box(r))
                .collect::<Result<_>>()?;
            Ok((
                track,
                TrackPlan {
                    planned,
                    planned_through,
                    anchors,
                },
            ))
        })
        .collect::<Result<_>>()?;
    Ok(GateSnapshot {
        config,
        stats,
        flushed,
        plans,
    })
}

/// Serializes a [`SessionSnapshot`] (clock, work counters, feature cache,
/// gate state) into the word stream: the distinct feature values, each
/// once and numbered by first appearance over the sorted keys, then every
/// key with its value's number. Values are told apart by bit pattern, never
/// by `Arc` address, so equal sessions write equal bytes. Shared by the
/// merger and the global merger checkpoints ([`crate::global`]).
pub(crate) fn put_session_snapshot(w: &mut Writer, snap: &SessionSnapshot) {
    w.put_f64(snap.elapsed_ms);
    w.put_u64(snap.stats.inferences);
    w.put_u64(snap.stats.cache_hits);
    w.put_u64(snap.stats.distances);
    w.put_u64(snap.stats.gpu_rounds);
    w.put_u64(snap.stats.retries);
    w.put_u64(snap.stats.backend_faults);
    let mut numbers: HashMap<Vec<u64>, u64> = HashMap::new();
    let mut values: Vec<&Feature> = Vec::new();
    let refs: Vec<u64> = snap
        .cache
        .iter()
        .map(|(_, feat)| {
            let bits = feat.as_slice().iter().map(|c| c.to_bits()).collect();
            *numbers.entry(bits).or_insert_with(|| {
                values.push(feat);
                values.len() as u64 - 1
            })
        })
        .collect();
    w.put_u64(values.len() as u64);
    for feat in values {
        w.put_u64(feat.dim() as u64);
        for &c in feat.as_slice() {
            w.put_f64(c);
        }
    }
    w.put_u64(snap.cache.len() as u64);
    for ((key, _), value) in snap.cache.iter().zip(refs) {
        put_box_key(w, *key);
        w.put_u64(value);
    }
    match &snap.gate {
        Some(g) => {
            w.put_bool(true);
            put_gate_snapshot(w, g);
        }
        None => w.put_bool(false),
    }
}

/// The matching reader for [`put_session_snapshot`].
pub(crate) fn take_session_snapshot(r: &mut Reader<'_>) -> Result<SessionSnapshot> {
    let elapsed_ms = r.take_f64()?;
    let stats = ReidStats {
        inferences: r.take_u64()?,
        cache_hits: r.take_u64()?,
        distances: r.take_u64()?,
        gpu_rounds: r.take_u64()?,
        retries: r.take_u64()?,
        backend_faults: r.take_u64()?,
    };
    let n = r.take_len()?;
    let values: Vec<Arc<Feature>> = (0..n)
        .map(|_| {
            let len = r.take_len()?;
            let feat: Vec<f64> = (0..len).map(|_| r.take_f64()).collect::<Result<_>>()?;
            Ok(Arc::new(Feature::from_raw(feat)))
        })
        .collect::<Result<_>>()?;
    let n = r.take_len()?;
    let cache: Vec<(BoxKey, Arc<Feature>)> = (0..n)
        .map(|_| {
            let key = take_box_key(r)?;
            let value = usize::try_from(r.take_u64()?)
                .ok()
                .and_then(|i| values.get(i))
                .ok_or_else(|| corrupt("feature index past the distinct count"))?;
            Ok((key, Arc::clone(value)))
        })
        .collect::<Result<_>>()?;
    let gate = if r.take_bool()? {
        Some(take_gate_snapshot(r)?)
    } else {
        None
    };
    Ok(SessionSnapshot {
        elapsed_ms,
        stats,
        cache,
        gate,
    })
}

impl<'m, S: CandidateSelector> StreamingMerger<'m, S> {
    /// Serializes the merger's complete state into a [`Kind::Merger`]
    /// envelope. Call between `advance` calls (the merger is always
    /// consistent at those points).
    pub fn checkpoint(&self) -> Vec<u8> {
        seal(Kind::Merger, |w| {
            w.put_u64(self.config.window_len);
            w.put_f64(self.config.k);
            match self.config.gate.config() {
                Some(cfg) => {
                    w.put_bool(true);
                    put_gate_config(w, cfg);
                }
                None => w.put_bool(false),
            }
            w.put_u64(self.config.voi.to_word());
            w.put_u64(self.stream_id);
            w.put_robustness(&self.robustness);

            w.put_u64(self.next_window as u64);
            w.put_u64(self.watermark);

            w.put_u64(self.prev_ids.len() as u64);
            for id in &self.prev_ids {
                w.put_u64(id.get());
            }
            let seen: Vec<TrackPair> = self.seen.iter().copied().collect();
            w.put_pairs(&seen);
            w.put_pairs(&self.merges.pairs);

            w.put_u64(self.stash.len() as u64);
            for sw in &self.stash {
                w.put_window(&sw.window);
                w.put_pairs(&sw.pairs);
                w.put_pairs(&sw.provisional);
            }

            w.put_u64(self.decisions.len() as u64);
            for d in &self.decisions {
                w.put_window(&d.window);
                w.put_decision(d.n_pairs, &d.candidates, d.mode);
            }

            w.put_breaker(&self.breaker, &self.counters);

            w.put_bool(self.shed);
            w.put_bool(self.shed_recover);
            w.put_u64(self.retention.compacted_windows);
            w.put_u64(self.retention.compacted_pairs);
            w.put_u64(self.retention.compacted_candidates);
            w.put_u64(self.retention.expired_stash_windows);
            w.put_u64(self.retention.pruned_seen_pairs);
            w.put_u64(self.retention.evicted_features);

            put_session_snapshot(w, &self.session.snapshot());
        })
    }

    /// Reconstructs a merger from a [`StreamingMerger::checkpoint`].
    ///
    /// `model`, `session_cost`, `device` and `selector` are the code half
    /// of the state and must match the original run; a fault backend, if
    /// any, is re-installed afterwards with
    /// [`StreamingMerger::with_backend`]. Corrupt or truncated bytes yield
    /// an error, never a panic.
    pub fn resume(
        model: &'m AppearanceModel,
        session_cost: tm_reid::CostModel,
        device: tm_reid::Device,
        selector: S,
        bytes: &[u8],
    ) -> Result<Self> {
        let mut r = open(Kind::Merger, bytes)?;

        let config = StreamConfig {
            window_len: r.take_u64()?,
            k: r.take_f64()?,
            gate: if r.take_bool()? {
                GatePolicy::On(take_gate_config(&mut r)?)
            } else {
                GatePolicy::Off
            },
            voi: crate::voi::VoiMode::from_word(r.take_u64()?)
                .ok_or_else(|| corrupt("unknown VoI mode word"))?,
        };
        config.validate()?;
        let stream_id = r.take_u64()?;
        let robustness = r.take_robustness()?;

        let next_window = r.take_u64()? as usize;
        let watermark = r.take_u64()?;

        let n = r.take_len()?;
        let prev_ids: Vec<TrackId> = (0..n)
            .map(|_| r.take_u64().map(TrackId))
            .collect::<Result<_>>()?;
        let seen: BTreeSet<TrackPair> = r.take_pairs()?.into_iter().collect();
        let merges = Merges::from_pairs(r.take_pairs()?);

        let n = r.take_len()?;
        let stash: Vec<StashedWindow> = (0..n)
            .map(|_| {
                Ok(StashedWindow {
                    window: r.take_window()?,
                    pairs: r.take_pairs()?,
                    provisional: r.take_pairs()?,
                })
            })
            .collect::<Result<_>>()?;

        let n = r.take_len()?;
        let decisions: Vec<WindowDecision> = (0..n)
            .map(|_| {
                let window = r.take_window()?;
                let (n_pairs, candidates, mode) = r.take_decision()?;
                Ok(WindowDecision {
                    window,
                    n_pairs,
                    candidates,
                    mode,
                })
            })
            .collect::<Result<_>>()?;

        let (breaker, counters) = r.take_breaker()?;

        let shed = r.take_bool()?;
        let shed_recover = r.take_bool()?;
        let retention = RetentionSummary {
            compacted_windows: r.take_u64()?,
            compacted_pairs: r.take_u64()?,
            compacted_candidates: r.take_u64()?,
            expired_stash_windows: r.take_u64()?,
            pruned_seen_pairs: r.take_u64()?,
            evicted_features: r.take_u64()?,
        };

        let session_snap = take_session_snapshot(&mut r)?;
        r.finish()?;

        let obs = tm_obs::current();
        let mut session = ReidSession::new(model, session_cost, device)
            .with_obs(obs.clone())
            .with_retry_policy(robustness.retry)
            .with_gate(config.gate);
        session.restore_snapshot(&session_snap);

        Ok(StreamingMerger {
            config,
            stream_id,
            robustness,
            selector,
            session,
            next_window,
            watermark,
            prev_ids,
            seen,
            merges,
            breaker,
            stash,
            decisions,
            counters,
            shed,
            shed_recover,
            retention,
            voi_hints: None,
            obs,
        })
    }
}

/// Serializes a full [`TrackSet`] (ids, classes, boxes with provenance)
/// into the word stream. `tm-serve` uses this to checkpoint each tenant's
/// retained per-stream feeds inside its serve envelope.
pub fn put_track_set(w: &mut Writer, tracks: &TrackSet) {
    w.put_u64(tracks.len() as u64);
    for t in tracks.iter() {
        w.put_u64(t.id.get());
        w.put_u64(t.class.get() as u64);
        w.put_u64(t.boxes.len() as u64);
        for b in &t.boxes {
            put_track_box(w, b);
        }
    }
}

/// Reads back a track set written by [`put_track_set`]. Corrupt input —
/// including a class id wider than 16 bits — is a typed error.
pub fn take_track_set(r: &mut Reader<'_>) -> Result<TrackSet> {
    let n = r.take_len()?;
    let tracks: Vec<Track> = (0..n)
        .map(|_| {
            let id = TrackId(r.take_u64()?);
            let class = ClassId(
                u16::try_from(r.take_u64()?).map_err(|_| corrupt("class id exceeds 16 bits"))?,
            );
            let n_boxes = r.take_len()?;
            let boxes: Vec<TrackBox> = (0..n_boxes)
                .map(|_| take_track_box(r))
                .collect::<Result<_>>()?;
            Ok(Track::with_boxes(id, class, boxes))
        })
        .collect::<Result<_>>()?;
    Ok(TrackSet::from_tracks(tracks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;
    use crate::tmerge::{TMerge, TMergeConfig};
    use tm_reid::{AppearanceConfig, CostModel, Device};
    use tm_types::{ids::classes, BBox, Track, TrackBox, TrackSet};

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
                    .with_provenance(tm_types::GtObjectId(actor))
                })
                .collect(),
        )
    }

    fn fixture() -> (AppearanceModel, TrackSet) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 30, 0.0),
            track(2, 10, 80, 30, 160.0),
            track(3, 11, 0, 40, 400.0),
            track(4, 12, 60, 40, 800.0),
            track(5, 13, 200, 40, 1200.0),
            track(6, 13, 280, 30, 1400.0),
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
            gate: GatePolicy::Off,
            voi: crate::voi::VoiMode::Off,
        }
    }

    fn gated_config() -> StreamConfig {
        StreamConfig {
            gate: GatePolicy::On(GateConfig::default()),
            ..config()
        }
    }

    #[test]
    fn sealed_envelopes_catch_every_bit_flip_cut_and_wrong_kind() {
        // A three-byte blob leaves a partial word for the padded tail.
        let bytes = seal(Kind::Fleet, |w| {
            w.put_u64(7);
            w.put_bytes(b"abc");
        });
        let mut r = open(Kind::Fleet, &bytes).unwrap();
        assert_eq!(r.take_u64().unwrap(), 7);
        assert_eq!(r.take_bytes().unwrap(), b"abc");
        r.finish().unwrap();
        assert!(open(Kind::Merger, &bytes).is_err());
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert!(open(Kind::Fleet, &flipped).is_err(), "byte {i} bit {bit}");
                flipped[i] ^= 1 << bit;
            }
        }
        for n in 0..bytes.len() {
            assert!(open(Kind::Fleet, &bytes[..n]).is_err(), "cut to {n} bytes");
        }
    }

    #[test]
    fn narrowed_words_are_checked_conversions() {
        let breaker = |threshold: u64| {
            let bytes = seal(Kind::Merger, |w| {
                w.put_u64(threshold);
                for _ in 0..5 {
                    w.put_u64(0);
                }
            });
            open(Kind::Merger, &bytes).unwrap().take_breaker()
        };
        assert_eq!(breaker(u32::MAX.into()).unwrap().0.threshold(), u32::MAX);
        assert!(breaker(u64::from(u32::MAX) + 1).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_mid_stream() {
        let (model, tracks) = fixture();
        let mut m = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            config(),
        )
        .unwrap();
        m.advance(&tracks, 250).unwrap();
        let bytes = m.checkpoint();

        let resumed = StreamingMerger::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            &bytes,
        )
        .unwrap();
        assert_eq!(resumed.accepted(), m.accepted());
        assert_eq!(resumed.decisions(), m.decisions());
        assert_eq!(
            resumed.elapsed_ms().to_bits(),
            m.elapsed_ms().to_bits(),
            "clock must resume bit-exactly"
        );
        assert_eq!(resumed.mapping(), m.mapping());
    }

    #[test]
    fn a_caller_carried_recorder_resumes_byte_identically() {
        use std::sync::Arc;
        let (model, tracks) = fixture();
        let run_to_end = |m: &mut StreamingMerger<'_, TMerge>| {
            m.advance(&tracks, 400).unwrap();
            m.finish(&tracks, 400).unwrap();
            m.accepted().to_vec()
        };

        // Uninterrupted run, recorded.
        let rec_full = Arc::new(tm_obs::Recorder::new());
        let full = tm_obs::scoped(tm_obs::Obs::new(rec_full.clone()), || {
            let mut m = StreamingMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                config(),
            )
            .unwrap();
            run_to_end(&mut m)
        });

        // Same run killed after the first advance…
        let rec_mid = Arc::new(tm_obs::Recorder::new());
        let bytes = tm_obs::scoped(tm_obs::Obs::new(rec_mid.clone()), || {
            let mut m = StreamingMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                config(),
            )
            .unwrap();
            m.advance(&tracks, 250).unwrap();
            m.checkpoint()
        });

        // …and resumed under a brand-new recorder: the caller carries the
        // counter/histogram state across the kill, beside the checkpoint.
        let rec_resumed = Arc::new(tm_obs::Recorder::new());
        rec_resumed.restore(&rec_mid.state());
        let resumed = tm_obs::scoped(tm_obs::Obs::new(rec_resumed.clone()), || {
            let mut m = StreamingMerger::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                &bytes,
            )
            .unwrap();
            run_to_end(&mut m)
        });

        assert_eq!(full, resumed);
        let snap = rec_full.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(
            snap,
            rec_resumed.snapshot(),
            "kill-and-resume must reproduce the metrics snapshot byte-for-byte"
        );
    }

    #[test]
    fn gated_checkpoint_resumes_bit_identically() {
        let (model, tracks) = fixture();
        let run_on = |m: &mut StreamingMerger<'_, TMerge>| {
            m.advance(&tracks, 400).unwrap();
            m.finish(&tracks, 400).unwrap();
        };

        // Uninterrupted gated run.
        let mut full = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            gated_config(),
        )
        .unwrap();
        run_on(&mut full);

        // Same gated run killed mid-stream and resumed.
        let mut killed = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            gated_config(),
        )
        .unwrap();
        killed.advance(&tracks, 250).unwrap();
        assert!(
            killed.session.gate_stats().saved_charges() > 0,
            "fixture must exercise the gate before the kill"
        );
        let bytes = killed.checkpoint();
        let mut resumed = StreamingMerger::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            &bytes,
        )
        .unwrap();
        assert_eq!(resumed.session.gate_policy(), killed.session.gate_policy());
        assert_eq!(resumed.session.snapshot(), killed.session.snapshot());
        run_on(&mut resumed);

        assert_eq!(resumed.accepted(), full.accepted());
        assert_eq!(resumed.mapping(), full.mapping());
        assert_eq!(
            resumed.elapsed_ms().to_bits(),
            full.elapsed_ms().to_bits(),
            "resumed gated clock must match the uninterrupted one bit-exactly"
        );
        assert_eq!(
            resumed.session.gate_stats(),
            full.session.gate_stats(),
            "gate decision counters must survive the kill"
        );
    }

    #[test]
    fn resumed_reuses_share_their_donors_feature() {
        let (model, tracks) = fixture();
        let mut live = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            gated_config(),
        )
        .unwrap();
        live.advance(&tracks, 250).unwrap();
        let resumed = StreamingMerger::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            &live.checkpoint(),
        )
        .unwrap();
        let cfg = GateConfig::default();
        let mut plan = tm_reid::GatePlan::default();
        plan.update(&tracks, &cfg);
        let mut reused = 0;
        for t in tracks.iter() {
            for b in &t.boxes {
                let tm_reid::GateDecision::Reuse { donor, .. } = plan.decide(t.id, b.frame, &cfg)
                else {
                    continue;
                };
                for m in [&live, &resumed] {
                    let feature = |frame| m.session.cached_feature(t.id, frame);
                    let (Some(f), Some(d)) = (feature(b.frame), feature(donor.frame)) else {
                        continue;
                    };
                    assert!(Arc::ptr_eq(&f, &d), "{:?} frame {}", t.id, b.frame.get());
                    reused += 1;
                }
            }
        }
        assert!(reused > 0, "the fixture must cache reused boxes");
    }

    #[test]
    fn corrupt_bytes_are_clean_errors() {
        let (model, tracks) = fixture();
        let mut m = StreamingMerger::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            config(),
        )
        .unwrap();
        m.advance(&tracks, 250).unwrap();
        let bytes = m.checkpoint();

        for bad in [
            &[] as &[u8],
            &bytes[..bytes.len() / 2], // truncated
            &bytes[8..],               // magic stripped
        ] {
            let r = StreamingMerger::<TMerge>::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                bad,
            );
            assert!(r.is_err(), "{} bytes must not resume", bad.len());
        }
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xff;
        assert!(StreamingMerger::<TMerge>::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            &flipped,
        )
        .is_err());
    }
}
