//! Multi-stream sharded ingestion.
//!
//! A deployment rarely ingests one camera. [`FleetIngester`] drives N
//! independent [`StreamingMerger`] shards — one per video stream, each
//! with its own simulated clock, circuit breaker, degraded stash and
//! checkpoint state — fanning `advance`/`finish` calls out across threads
//! with [`tm_par::par_map_mut`].
//!
//! ## Per-stream invariance
//!
//! The fleet is an *execution* optimisation, never a *semantic* one: every
//! stream's decisions, accepted merges, mapping, robustness counters and
//! simulated clock are byte-identical to running that stream alone through
//! its own [`StreamingMerger`] (same fault plan, any `TMERGE_THREADS`, any
//! shard interleaving). This holds because shards share no mutable state —
//! each owns its session and breaker — and cross-stream coupling is
//! confined to the [`tm_reid::BatchScheduler`] lanes installed as shard
//! backends, whose replies are contractually identical to the bare
//! backend's (see `tm_reid::batch`). The differential harness
//! (`crates/bench/tests/fleet_differential.rs`) enforces this.
//!
//! ## Cost semantics
//!
//! Each shard's clock is charged only for its own boxes; a batching lane
//! adds nothing to a reply's charge, and fleet fan-out never charges
//! simulated time.
//!
//! ## Restart
//!
//! [`FleetIngester::checkpoint`] seals the per-shard checkpoints into one
//! [`Kind::Fleet`] envelope (see [`crate::checkpoint`]);
//! [`FleetIngester::resume`] restores every shard at its last completed
//! window, with the same byte-identity guarantee as a single resumed
//! merger. Onto fewer backends than shards it resumes the leading prefix
//! and reports the skipped streams through observability
//! (`fleet.resume.skipped_shards` and a warning each). Batching lanes are
//! stateless beyond their shared feature cache, which is derived data
//! (features are recomputable), so the caller simply constructs fresh
//! lanes on resume.

use crate::checkpoint::{open, seal, Kind};
use crate::selector::CandidateSelector;
use crate::stream::{StreamConfig, StreamingMerger, WindowDecision};
use tm_obs::Obs;
use tm_reid::{AppearanceModel, CostModel, Device, InferenceBackend};
use tm_types::{Result, TmError, TrackSet};

fn invalid(reason: &str) -> TmError {
    TmError::invalid("fleet", reason)
}

/// N per-stream [`StreamingMerger`] shards advanced concurrently.
///
/// Stream `i` is shard `i` is feed `i`: the order of `backends` at
/// construction fixes the stream identity for the fleet's whole life,
/// including across [`FleetIngester::resume`].
pub struct FleetIngester<'m, S> {
    shards: Vec<StreamingMerger<'m, S>>,
    /// Fleet-level observability (per-shard lifecycle events ride each
    /// shard's own observer, reinstalled inside the fan-out workers).
    obs: Obs,
}

impl<'m, S: CandidateSelector + Send> FleetIngester<'m, S> {
    /// Creates one shard per backend. `make_selector(i)` builds stream
    /// `i`'s selector — selectors are per-window seeded, so handing every
    /// stream an identically configured instance preserves solo-run
    /// byte-identity.
    pub fn new(
        model: &'m AppearanceModel,
        session_cost: CostModel,
        device: Device,
        config: StreamConfig,
        mut make_selector: impl FnMut(usize) -> S,
        backends: &[&'m dyn InferenceBackend],
    ) -> Result<Self> {
        if backends.is_empty() {
            return Err(invalid("a fleet needs at least one stream backend"));
        }
        let shards = backends
            .iter()
            .enumerate()
            .map(|(i, &backend)| {
                Ok(
                    StreamingMerger::new(model, session_cost, device, make_selector(i), config)?
                        .with_backend(backend)
                        .with_stream_id(i as u64),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            obs: tm_obs::current(),
        })
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet has no streams (never true for a constructed
    /// fleet; kept for the idiomatic `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Stream `i`'s shard, for querying decisions, mapping and counters.
    pub fn shard(&self, i: usize) -> &StreamingMerger<'m, S> {
        &self.shards[i]
    }

    /// Stream `i`'s shard, mutably (e.g. for [`StreamingMerger::set_shed`]
    /// or [`StreamingMerger::compact_before`]).
    pub fn shard_mut(&mut self, i: usize) -> &mut StreamingMerger<'m, S> {
        &mut self.shards[i]
    }

    /// Feeds every stream its current tracker state — `feeds[i]` is stream
    /// `i`'s `(tracks, frames_available)` — advancing all shards
    /// concurrently. Returns the newly emitted decisions per stream.
    ///
    /// # Errors
    ///
    /// `feeds` must have exactly one entry per stream. Shard errors are
    /// reported in stream order (first failing stream wins,
    /// deterministically, regardless of which worker hit it first); the
    /// failing shard is untouched, and siblings may have advanced —
    /// re-calling with a repaired feed is safe because an already-advanced
    /// shard treats an unchanged watermark as a no-op.
    pub fn advance(&mut self, feeds: &[(&TrackSet, u64)]) -> Result<Vec<Vec<WindowDecision>>> {
        self.drive(feeds, false)
    }

    /// Flushes every stream's final (possibly partial) window and makes the
    /// last recovery attempt for still-degraded windows, concurrently.
    /// `feeds[i].1` is stream `i`'s total frame count.
    pub fn finish(&mut self, feeds: &[(&TrackSet, u64)]) -> Result<Vec<Vec<WindowDecision>>> {
        self.drive(feeds, true)
    }

    fn drive(
        &mut self,
        feeds: &[(&TrackSet, u64)],
        finish: bool,
    ) -> Result<Vec<Vec<WindowDecision>>> {
        if feeds.len() != self.shards.len() {
            return Err(invalid("feed count must match stream count"));
        }
        let per_stream = tm_par::par_map_mut(&mut self.shards, |i, shard| {
            let (tracks, frames) = feeds[i];
            if finish {
                shard.finish(tracks, frames)
            } else {
                shard.advance(tracks, frames)
            }
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        if self.obs.enabled() {
            self.obs.counter("fleet.advances", 1);
            for (shard, decisions) in self.shards.iter().zip(&per_stream) {
                self.obs.counter("fleet.windows", decisions.len() as u64);
                self.obs.counter(
                    &format!("fleet.stream.{}.windows", shard.stream_id()),
                    decisions.len() as u64,
                );
            }
        }
        Ok(per_stream)
    }

    /// Serializes every shard's complete state in one envelope. Call
    /// between `advance` calls, like [`StreamingMerger::checkpoint`].
    pub fn checkpoint(&self) -> Vec<u8> {
        seal(Kind::Fleet, |w| {
            w.put_u64(self.shards.len() as u64);
            for shard in &self.shards {
                w.put_bytes(&shard.checkpoint());
            }
        })
    }

    /// Reconstructs a fleet from a [`FleetIngester::checkpoint`]. The code
    /// half of the state — model, cost, device, selectors, backends — must
    /// match the original construction, in the same stream order. Corrupt
    /// or truncated bytes yield an error, never a panic.
    ///
    /// A checkpoint describing *more* streams than `backends` is a
    /// tolerated superset — the shrink-a-tenant restart case, where a
    /// stream was decommissioned between checkpoint and resume. The
    /// leading `backends.len()` shards resume; the trailing shards are
    /// skipped, counted as `fleet.resume.skipped_shards` and logged as a
    /// warning naming each stream id. A checkpoint describing *fewer*
    /// streams than `backends` is still a hard error: inventing fresh state
    /// for a stream the caller expects to have history would silently
    /// violate the byte-identity contract.
    pub fn resume(
        model: &'m AppearanceModel,
        session_cost: CostModel,
        device: Device,
        mut make_selector: impl FnMut(usize) -> S,
        backends: &[&'m dyn InferenceBackend],
        bytes: &[u8],
    ) -> Result<Self> {
        if backends.is_empty() {
            return Err(invalid("a fleet needs at least one stream backend"));
        }
        let mut r = open(Kind::Fleet, bytes)?;
        let n = r.take_len()?;
        if n < backends.len() {
            return Err(invalid("checkpoint has fewer streams than backends"));
        }
        let mut shards = Vec::with_capacity(backends.len());
        for (i, &backend) in backends.iter().enumerate() {
            let blob = r.take_bytes()?;
            let shard =
                StreamingMerger::resume(model, session_cost, device, make_selector(i), blob)?
                    .with_backend(backend);
            if shard.stream_id() != i as u64 {
                return Err(invalid("shard checkpoint carries the wrong stream id"));
            }
            shards.push(shard);
        }
        let obs = tm_obs::current();
        // Shard `i` carries stream id `i` (checked above for every resumed
        // shard, and the checksum covers the skipped ones' bytes), so a
        // skipped shard's id is its position.
        for id in backends.len()..n {
            r.take_bytes()?;
            obs.counter("fleet.resume.skipped_shards", 1);
            obs.log(
                tm_obs::Level::Warn,
                &format!("fleet resume: skipping checkpointed stream {id} (no backend supplied; stream decommissioned?)"),
            );
        }
        r.finish()?;
        Ok(Self { shards, obs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;
    use crate::tmerge::{TMerge, TMergeConfig};
    use tm_reid::{AppearanceConfig, CostModel, Device};
    use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId};

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
            gate: tm_reid::GatePolicy::Off,
            voi: crate::voi::VoiMode::Off,
        }
    }

    /// Stream `i`'s feed: the shared fixture plus one stream-unique track,
    /// so sibling streams are similar but not identical.
    fn stream_tracks(base: &TrackSet, i: usize) -> TrackSet {
        let mut tracks: Vec<Track> = base.iter().cloned().collect();
        tracks.push(track(
            100 + i as u64,
            50 + i as u64,
            40,
            30,
            2000.0 + i as f64 * 37.0,
        ));
        TrackSet::from_tracks(tracks)
    }

    #[test]
    fn fleet_streams_match_solo_runs() {
        let (model, base) = fixture();
        let feeds: Vec<TrackSet> = (0..3).map(|i| stream_tracks(&base, i)).collect();
        let backends: Vec<&dyn InferenceBackend> = vec![&model; 3];

        let mut fleet = FleetIngester::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            config(),
            |_| selector(),
            &backends,
        )
        .unwrap();
        for frames in [250, 400] {
            let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, frames)).collect();
            fleet.advance(&refs).unwrap();
        }
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, 400)).collect();
        fleet.finish(&refs).unwrap();

        for (i, tracks) in feeds.iter().enumerate() {
            let mut solo = StreamingMerger::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                selector(),
                config(),
            )
            .unwrap()
            .with_backend(&model);
            for frames in [250, 400] {
                solo.advance(tracks, frames).unwrap();
            }
            solo.finish(tracks, 400).unwrap();

            let shard = fleet.shard_mut(i);
            assert_eq!(shard.decisions(), solo.decisions(), "stream {i} decisions");
            assert_eq!(shard.accepted(), solo.accepted(), "stream {i} merges");
            assert_eq!(shard.robustness(), solo.robustness(), "stream {i} counters");
            assert_eq!(
                shard.elapsed_ms().to_bits(),
                solo.elapsed_ms().to_bits(),
                "stream {i} clock must be bit-identical"
            );
            assert_eq!(shard.mapping(), solo.mapping(), "stream {i} mapping");
            assert_eq!(shard.stream_id(), i as u64);
        }
    }

    #[test]
    fn mismatched_feed_count_is_a_clean_error() {
        let (model, tracks) = fixture();
        let backends: Vec<&dyn InferenceBackend> = vec![&model; 2];
        let mut fleet = FleetIngester::new(
            &model,
            CostModel::zero(),
            Device::Cpu,
            config(),
            |_| selector(),
            &backends,
        )
        .unwrap();
        assert!(fleet.advance(&[(&tracks, 250)]).is_err());
        // The failed call changed nothing.
        assert_eq!(
            fleet.advance(&[(&tracks, 250), (&tracks, 250)]).unwrap()[0].len(),
            1
        );
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let (model, _) = fixture();
        assert!(FleetIngester::<TMerge>::new(
            &model,
            CostModel::zero(),
            Device::Cpu,
            config(),
            |_| selector(),
            &[],
        )
        .is_err());
    }

    #[test]
    fn fleet_checkpoint_roundtrips_mid_stream() {
        let (model, base) = fixture();
        let feeds: Vec<TrackSet> = (0..2).map(|i| stream_tracks(&base, i)).collect();
        let backends: Vec<&dyn InferenceBackend> = vec![&model; 2];
        let build = |bytes: Option<&[u8]>| {
            let make = |_| selector();
            match bytes {
                None => FleetIngester::new(
                    &model,
                    CostModel::calibrated(),
                    Device::Cpu,
                    config(),
                    make,
                    &backends,
                ),
                Some(b) => FleetIngester::resume(
                    &model,
                    CostModel::calibrated(),
                    Device::Cpu,
                    make,
                    &backends,
                    b,
                ),
            }
        };

        let mut fleet = build(None).unwrap();
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, 250)).collect();
        fleet.advance(&refs).unwrap();
        let bytes = fleet.checkpoint();

        let mut resumed = build(Some(&bytes)).unwrap();
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, 400)).collect();
        fleet.finish(&refs).unwrap();
        resumed.finish(&refs).unwrap();
        for i in 0..feeds.len() {
            assert_eq!(fleet.shard(i).decisions(), resumed.shard(i).decisions());
            assert_eq!(fleet.shard(i).accepted(), resumed.shard(i).accepted());
            assert_eq!(
                fleet.shard(i).elapsed_ms().to_bits(),
                resumed.shard(i).elapsed_ms().to_bits(),
            );
        }

        // Corruption is a clean error; so is a checkpoint with *fewer*
        // streams than backends (a fleet that grew since the kill has no
        // history to resume for the new stream). Fewer backends than
        // streams is the tolerated superset case, tested separately.
        assert!(build(Some(&bytes[..bytes.len() / 2])).is_err());
        assert!(build(Some(&[])).is_err());
        let three: Vec<&dyn InferenceBackend> = vec![&model; 3];
        assert!(FleetIngester::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            |_| selector(),
            &three,
            &bytes,
        )
        .is_err());
    }

    #[test]
    fn superset_checkpoint_resumes_surviving_prefix() {
        use std::sync::Arc;
        let (model, base) = fixture();
        let feeds: Vec<TrackSet> = (0..3).map(|i| stream_tracks(&base, i)).collect();
        let backends: Vec<&dyn InferenceBackend> = vec![&model; 3];
        let mut fleet = FleetIngester::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            config(),
            |_| selector(),
            &backends,
        )
        .unwrap();
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, 250)).collect();
        fleet.advance(&refs).unwrap();
        let bytes = fleet.checkpoint();

        // Stream 2 is decommissioned between checkpoint and resume: the
        // 3-stream envelope resumes onto 2 backends, skipping the tail
        // shard with a typed warning instead of a count-mismatch error.
        let rec = Arc::new(tm_obs::Recorder::new());
        let two: Vec<&dyn InferenceBackend> = vec![&model; 2];
        let mut resumed = tm_obs::scoped(tm_obs::Obs::new(rec.clone()), || {
            FleetIngester::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                |_| selector(),
                &two,
                &bytes,
            )
        })
        .unwrap();
        assert_eq!(resumed.len(), 2);
        assert_eq!(rec.counter_value("fleet.resume.skipped_shards"), 1);
        assert!(rec
            .logs()
            .iter()
            .any(|(l, m)| *l == tm_obs::Level::Warn && m.contains("stream 2")));

        // The surviving prefix continues byte-identically to the full fleet.
        let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, 400)).collect();
        fleet.finish(&refs).unwrap();
        resumed.finish(&refs[..2]).unwrap();
        for i in 0..2 {
            assert_eq!(fleet.shard(i).decisions(), resumed.shard(i).decisions());
            assert_eq!(fleet.shard(i).accepted(), resumed.shard(i).accepted());
            assert_eq!(
                fleet.shard(i).elapsed_ms().to_bits(),
                resumed.shard(i).elapsed_ms().to_bits(),
            );
        }
    }

    #[test]
    fn fleet_counters_reach_the_recorder() {
        use std::sync::Arc;
        let (model, base) = fixture();
        let feeds: Vec<TrackSet> = (0..2).map(|i| stream_tracks(&base, i)).collect();
        let rec = Arc::new(tm_obs::Recorder::new());
        let per_stream = tm_obs::scoped(tm_obs::Obs::new(rec.clone()), || {
            let backends: Vec<&dyn InferenceBackend> = vec![&model; 2];
            let mut fleet = FleetIngester::new(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                config(),
                |_| selector(),
                &backends,
            )
            .unwrap();
            let refs: Vec<(&TrackSet, u64)> = feeds.iter().map(|t| (t, 400)).collect();
            let mut out = fleet.advance(&refs).unwrap();
            for (s, more) in out.iter_mut().zip(fleet.finish(&refs).unwrap()) {
                s.extend(more);
            }
            out
        });
        let total: u64 = per_stream.iter().map(|d| d.len() as u64).sum();
        assert!(total > 0);
        assert_eq!(rec.counter_value("fleet.advances"), 2);
        assert_eq!(rec.counter_value("fleet.windows"), total);
        for (i, d) in per_stream.iter().enumerate() {
            assert_eq!(
                rec.counter_value(&format!("fleet.stream.{i}.windows")),
                d.len() as u64
            );
        }
        // Shard lifecycle events flow into the same recorder from the
        // fan-out workers.
        assert_eq!(rec.counter_value("pipeline.windows"), total);
    }
}
