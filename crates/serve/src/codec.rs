//! The serve envelope: crash recovery for the whole daemon.
//!
//! [`TmServe::checkpoint`] serializes the daemon's complete data half —
//! tenant registry, admission-queue contents, token-bucket and quota
//! clocks (bit-exact f64s), shed state, stats, retained feeds, and each
//! tenant's fleet checkpoint (which nests one merger checkpoint per shard)
//! and optional global-merger checkpoint — into one sealed [`Kind::Serve`]
//! envelope (`tm_core::checkpoint` owns the header and the checksum).
//! Killing the process between cycles and calling [`TmServe::resume`]
//! reconstructs a daemon whose subsequent behaviour is byte-identical to
//! never having died: same decisions, same mappings, same counters, same
//! simulated-clock bits.
//!
//! The code half — appearance model, cost model, device, [`ServeConfig`],
//! selector factory, and the live backends — is the caller's to supply,
//! exactly as with [`FleetIngester::resume`]. Admission *tuning* is data
//! (each tenant's [`AdmissionConfig`] rides the envelope); daemon tuning
//! is code (the `ServeConfig` argument).
//!
//! Resume tolerates topology shrinkage, typed and observable: a tenant
//! whose backends are gone is dropped (reported in the returned list and
//! as `serve.resume.dropped_tenants`), and a tenant resumed with fewer
//! backends than it had streams keeps the surviving prefix via the
//! fleet's lenient superset resume. Growing a tenant at resume is still a
//! hard error — fresh state for a stream the checkpoint says has history
//! would silently violate byte-identity.

use crate::admission::{AdmissionConfig, QuotaWindow, TokenBucket};
use crate::server::{Feed, ServeConfig, Submission, Tenant, TenantSpec, TenantStats, TmServe};
use std::collections::{BTreeMap, VecDeque};
use tm_core::checkpoint::{
    corrupt, open, put_track_set, seal, take_track_set, Kind, Reader, Writer,
};
use tm_core::fleet::FleetIngester;
use tm_core::global::GlobalMerger;
use tm_core::selector::CandidateSelector;
use tm_obs::Level;
use tm_reid::{AppearanceModel, CostModel, Device, InferenceBackend};
use tm_types::Result;

fn put_admission(w: &mut Writer, a: &AdmissionConfig) {
    w.put_u64(a.max_queue as u64);
    w.put_u64(a.bytes_per_window);
    w.put_f64(a.quota_window_ms);
    w.put_f64(a.rate_capacity);
    w.put_f64(a.rate_per_ms);
    w.put_u64(a.retry_hint_ms);
}

fn take_admission(r: &mut Reader<'_>) -> Result<AdmissionConfig> {
    Ok(AdmissionConfig {
        max_queue: r.take_u64()? as usize,
        bytes_per_window: r.take_u64()?,
        quota_window_ms: r.take_f64()?,
        rate_capacity: r.take_f64()?,
        rate_per_ms: r.take_f64()?,
        retry_hint_ms: r.take_u64()?,
    })
}

fn put_stats(w: &mut Writer, s: &TenantStats) {
    for v in [
        s.admitted,
        s.rejected_queue_full,
        s.rejected_over_quota,
        s.rejected_rate_limited,
        s.rejected_invalid,
        s.rejected_regression,
        s.stale_drops,
        s.shed_entries,
        s.shed_exits,
        s.windows,
    ] {
        w.put_u64(v);
    }
}

fn take_stats(r: &mut Reader<'_>) -> Result<TenantStats> {
    Ok(TenantStats {
        admitted: r.take_u64()?,
        rejected_queue_full: r.take_u64()?,
        rejected_over_quota: r.take_u64()?,
        rejected_rate_limited: r.take_u64()?,
        rejected_invalid: r.take_u64()?,
        rejected_regression: r.take_u64()?,
        stale_drops: r.take_u64()?,
        shed_entries: r.take_u64()?,
        shed_exits: r.take_u64()?,
        windows: r.take_u64()?,
    })
}

/// A tenant's data half, parsed off the wire before deciding whether it
/// can be revived (its fleet blob is kept as raw bytes until then).
struct TenantImage<'a> {
    spec: TenantSpec,
    bucket: TokenBucket,
    quota: QuotaWindow,
    shed: bool,
    cooldown_left: u64,
    last_breach: bool,
    prev_elapsed_ms: Vec<f64>,
    stats: TenantStats,
    feeds: Vec<Feed>,
    queue: VecDeque<Submission>,
    fleet_blob: &'a [u8],
    global_blob: Option<&'a [u8]>,
}

fn take_tenant_image<'a>(r: &mut Reader<'a>) -> Result<TenantImage<'a>> {
    let id = r.take_u64()?;
    let streams = r.take_len()?;
    if streams == 0 {
        return Err(corrupt("tenant with zero streams"));
    }
    let admission = take_admission(r)?;
    let bucket = TokenBucket {
        tokens: r.take_f64()?,
        last_ms: r.take_f64()?,
    };
    let quota = QuotaWindow {
        window_start_ms: r.take_f64()?,
        used: r.take_u64()?,
    };
    let shed = r.take_bool()?;
    let cooldown_left = r.take_u64()?;
    let last_breach = r.take_bool()?;
    let prev_elapsed_ms = (0..streams)
        .map(|_| r.take_f64())
        .collect::<Result<Vec<_>>>()?;
    let stats = take_stats(r)?;
    let feeds = (0..streams)
        .map(|_| {
            let frames = r.take_u64()?;
            let tracks = take_track_set(r)?;
            Ok(Feed { tracks, frames })
        })
        .collect::<Result<Vec<_>>>()?;
    let queue_len = r.take_len()?;
    let queue = (0..queue_len)
        .map(|_| {
            let stream = r.take_u64()? as usize;
            if stream >= streams {
                return Err(corrupt("queued submission for an out-of-range stream"));
            }
            let frames = r.take_u64()?;
            let tracks = take_track_set(r)?;
            Ok(Submission {
                stream,
                tracks,
                frames,
            })
        })
        .collect::<Result<VecDeque<_>>>()?;
    let fleet_blob = r.take_bytes()?;
    let global_blob = if r.take_bool()? {
        Some(r.take_bytes()?)
    } else {
        None
    };
    Ok(TenantImage {
        spec: TenantSpec {
            id,
            streams,
            admission,
        },
        bucket,
        quota,
        shed,
        cooldown_left,
        last_breach,
        prev_elapsed_ms,
        stats,
        feeds,
        queue,
        fleet_blob,
        global_blob,
    })
}

impl<'m, S: CandidateSelector + Send> TmServe<'m, S> {
    /// Serializes the daemon's complete data half. Pure: emits nothing to
    /// observability and mutates nothing, so a checkpoint taken between
    /// [`TmServe::run_once`] calls leaves the run's byte-trace untouched.
    pub fn checkpoint(&self) -> Vec<u8> {
        seal(Kind::Serve, |w| {
            w.put_f64(self.now_ms);
            w.put_u64(self.cycles);
            w.put_u64(self.rejected_unknown);
            w.put_u64(self.tenants.len() as u64);
            // BTreeMap iteration is ascending by id: the envelope layout
            // is deterministic for a given daemon state.
            for tenant in self.tenants.values() {
                w.put_u64(tenant.spec.id);
                w.put_u64(tenant.spec.streams as u64);
                put_admission(w, &tenant.spec.admission);
                w.put_f64(tenant.bucket.tokens);
                w.put_f64(tenant.bucket.last_ms);
                w.put_f64(tenant.quota.window_start_ms);
                w.put_u64(tenant.quota.used);
                w.put_bool(tenant.shed);
                w.put_u64(tenant.cooldown_left);
                w.put_bool(tenant.last_breach);
                for &ms in &tenant.prev_elapsed_ms {
                    w.put_f64(ms);
                }
                put_stats(w, &tenant.stats);
                for feed in &tenant.feeds {
                    w.put_u64(feed.frames);
                    put_track_set(w, &feed.tracks);
                }
                w.put_u64(tenant.queue.len() as u64);
                for sub in &tenant.queue {
                    w.put_u64(sub.stream as u64);
                    w.put_u64(sub.frames);
                    put_track_set(w, &sub.tracks);
                }
                w.put_bytes(&tenant.fleet.checkpoint());
                match &tenant.global {
                    Some(global) => {
                        w.put_bool(true);
                        w.put_bytes(&global.checkpoint());
                    }
                    None => w.put_bool(false),
                }
            }
        })
    }

    /// Reconstructs a daemon from a [`TmServe::checkpoint`] envelope.
    ///
    /// `make_selector(tenant, stream)` rebuilds selectors exactly as at
    /// construction. `backends_for(tenant, checkpointed_streams)` supplies
    /// each tenant's live backends: `None` drops the tenant (its state is
    /// discarded, its id reported in the returned list and counted as
    /// `serve.resume.dropped_tenants`); a shorter vector than
    /// `checkpointed_streams` keeps the surviving stream prefix (queued
    /// submissions for decommissioned streams are discarded); a longer one
    /// is a hard error. Corrupt or truncated bytes yield an error, never a
    /// panic.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        model: &'m AppearanceModel,
        session_cost: CostModel,
        device: Device,
        config: ServeConfig,
        make_selector: impl FnMut(u64, usize) -> S + 'm,
        mut backends_for: impl FnMut(u64, usize) -> Option<Vec<&'m dyn InferenceBackend>>,
        bytes: &[u8],
    ) -> Result<(Self, Vec<u64>)> {
        let mut r = open(Kind::Serve, bytes)?;
        let now_ms = r.take_f64()?;
        let cycles = r.take_u64()?;
        let rejected_unknown = r.take_u64()?;
        let n_tenants = r.take_len()?;

        let mut serve = Self::new(model, session_cost, device, config, make_selector);
        serve.now_ms = now_ms;
        serve.cycles = cycles;
        serve.rejected_unknown = rejected_unknown;

        let mut last_id: Option<u64> = None;
        let mut dropped: Vec<u64> = Vec::new();
        let mut tenants: BTreeMap<u64, Tenant<'m, S>> = BTreeMap::new();
        // Backends are materialized per tenant and must outlive the fleet,
        // so collect them alongside; the Vec allocations live in the
        // tenants' fleets only as borrowed slices during construction.
        for _ in 0..n_tenants {
            let mut image = take_tenant_image(&mut r)?;
            if last_id.is_some_and(|prev| prev >= image.spec.id) {
                return Err(corrupt("tenant ids out of order"));
            }
            last_id = Some(image.spec.id);
            let id = image.spec.id;
            let Some(backends) = backends_for(id, image.spec.streams) else {
                serve.base_obs.counter("serve.resume.dropped_tenants", 1);
                serve.base_obs.log(
                    Level::Warn,
                    &format!("serve resume: dropping tenant {id} (no backends supplied)"),
                );
                dropped.push(id);
                continue;
            };
            let orig_streams = image.spec.streams;
            let obs = serve.base_obs.with_prefix(&format!("serve.tenant.{id}."));
            let make = &mut serve.make_selector;
            // Lenient prefix resume: the fleet tolerates a checkpoint with
            // more shards than backends (decommissioned streams) and
            // reports the skips itself, under this tenant's prefix.
            let fleet = tm_obs::scoped(obs.clone(), || {
                FleetIngester::resume(
                    model,
                    session_cost,
                    device,
                    |i| make(id, i),
                    &backends,
                    image.fleet_blob,
                )
            })?;
            let streams = backends.len();
            if streams < image.spec.streams {
                image.spec.streams = streams;
                image.feeds.truncate(streams);
                image.prev_elapsed_ms.truncate(streams);
                image.queue.retain(|sub| sub.stream < streams);
            }
            // The global overlay binds its camera count to the original
            // stream count; a shrunk tenant invalidates its cross-camera
            // state, so the blob is discarded.
            let global = match image.global_blob {
                Some(blob) if streams == orig_streams => {
                    let selector = (serve.make_selector)(id, orig_streams);
                    Some(tm_obs::scoped(obs.clone(), || {
                        GlobalMerger::resume(model, session_cost, device, selector, blob)
                    })?)
                }
                Some(_) => {
                    serve.base_obs.counter("serve.resume.dropped_globals", 1);
                    serve.base_obs.log(
                        Level::Warn,
                        &format!("serve resume: tenant {id} shrank; discarding its global state"),
                    );
                    None
                }
                None => None,
            };
            tenants.insert(
                id,
                Tenant {
                    spec: image.spec,
                    fleet,
                    global,
                    obs,
                    queue: image.queue,
                    feeds: image.feeds,
                    bucket: image.bucket,
                    quota: image.quota,
                    shed: image.shed,
                    cooldown_left: image.cooldown_left,
                    last_breach: image.last_breach,
                    prev_elapsed_ms: image.prev_elapsed_ms,
                    stats: image.stats,
                },
            );
        }
        r.finish()?;
        serve.tenants = tenants;
        Ok((serve, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::tmerge::{TMerge, TMergeConfig};
    use tm_core::StreamConfig;
    use tm_query::Query;
    use tm_reid::AppearanceConfig;
    use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackSet};

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

    fn feed(salt: u64) -> TrackSet {
        TrackSet::from_tracks(vec![
            track(1, 10 + salt, 0, 30, salt as f64 * 13.0),
            track(2, 10 + salt, 80, 30, 160.0 + salt as f64 * 13.0),
            track(3, 11 + salt, 0, 40, 400.0),
            track(4, 12 + salt, 60, 40, 800.0),
        ])
    }

    fn selector() -> TMerge {
        TMerge::new(TMergeConfig {
            tau_max: 1_500,
            seed: 4,
            ..TMergeConfig::default()
        })
    }

    fn serve_config() -> ServeConfig {
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

    fn spec(id: u64, streams: usize) -> TenantSpec {
        TenantSpec {
            id,
            streams,
            admission: AdmissionConfig::default(),
        }
    }

    /// Builds a two-tenant daemon and plays a fixed prefix of traffic.
    fn played(model: &AppearanceModel) -> TmServe<'_, TMerge> {
        let mut serve = TmServe::new(
            model,
            CostModel::calibrated(),
            Device::Cpu,
            serve_config(),
            |_, _| selector(),
        );
        let one: [&dyn InferenceBackend; 1] = [model];
        let two: [&dyn InferenceBackend; 2] = [model, model];
        serve.register(spec(7, 1), &one).unwrap();
        serve.register(spec(9, 2), &two).unwrap();
        serve
            .enable_global(9, tm_core::global::GlobalConfig::default())
            .unwrap();
        for (t, frames) in [(0.0, 250), (40.0, 400)] {
            assert!(serve.submit(t, 7, 0, feed(0), frames).is_admitted());
            assert!(serve.submit(t, 9, 0, feed(1), frames).is_admitted());
            assert!(serve.submit(t, 9, 1, feed(2), frames).is_admitted());
            serve.run_once(t + 1.0).unwrap();
        }
        serve
    }

    #[test]
    fn tmsv_roundtrips_and_continues_byte_identically() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut solo = played(&model);
        let envelope = solo.checkpoint();

        let (mut revived, dropped) = TmServe::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            serve_config(),
            |_, _| selector(),
            |_, streams| Some(vec![&model as &dyn InferenceBackend; streams]),
            &envelope,
        )
        .unwrap();
        assert!(dropped.is_empty());
        assert!(revived.global(9).is_some(), "global overlay revived");
        assert_eq!(revived.checkpoint(), envelope, "resume is a fixpoint");

        // Both daemons play identical further traffic; their envelopes
        // must stay byte-identical (decisions, mappings, counters, clock
        // bits all live inside).
        for daemon in [&mut solo, &mut revived] {
            assert!(daemon.submit(90.0, 7, 0, feed(0), 600).is_admitted());
            assert!(daemon.submit(90.0, 9, 1, feed(2), 600).is_admitted());
            daemon.run_once(91.0).unwrap();
        }
        assert_eq!(solo.checkpoint(), revived.checkpoint());
        assert_eq!(
            solo.query(9, 1, Query::Count { min_frames: 60 }).unwrap(),
            revived
                .query(9, 1, Query::Count { min_frames: 60 })
                .unwrap(),
        );
    }

    #[test]
    fn resume_drops_and_shrinks_tenants_without_backends() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let serve = played(&model);
        let envelope = serve.checkpoint();

        // Tenant 7 gone entirely; tenant 9 shrunk from 2 streams to 1.
        let (revived, dropped) = TmServe::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            serve_config(),
            |_, _| selector(),
            |id, _| (id == 9).then(|| vec![&model as &dyn InferenceBackend; 1]),
            &envelope,
        )
        .unwrap();
        assert_eq!(dropped, vec![7]);
        assert_eq!(revived.tenant_ids(), vec![9]);
        // The shrunk tenant's cross-camera state is discarded, not kept
        // with a stale camera count.
        assert!(revived.global(9).is_none());
        let stats = revived.stats(9).unwrap();
        assert_eq!(stats.admitted, serve.stats(9).unwrap().admitted);
        // The surviving stream's feed is intact; stream 1 is gone.
        assert!(revived.feed(9, 0).is_some());
        assert!(revived.feed(9, 1).is_none());
    }

    #[test]
    fn a_tenants_resume_report_survives_later_tenants_restores() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let mut serve = TmServe::new(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            serve_config(),
            |_, _| selector(),
        );
        let one: [&dyn InferenceBackend; 1] = [&model];
        let two: [&dyn InferenceBackend; 2] = [&model, &model];
        serve.register(spec(3, 2), &two).unwrap();
        serve.register(spec(9, 1), &one).unwrap();
        for (t, frames) in [(0.0, 250), (40.0, 400)] {
            assert!(serve.submit(t, 3, 0, feed(0), frames).is_admitted());
            assert!(serve.submit(t, 3, 1, feed(1), frames).is_admitted());
            assert!(serve.submit(t, 9, 0, feed(2), frames).is_admitted());
            serve.run_once(t + 1.0).unwrap();
        }
        let envelope = serve.checkpoint();

        // Tenant 3 resumes onto one backend and reports its skipped shard;
        // tenant 9's shard restore comes after and must not erase that.
        let rec = std::sync::Arc::new(tm_obs::Recorder::new());
        let (_, dropped) = tm_obs::scoped(tm_obs::Obs::new(rec.clone()), || {
            TmServe::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                serve_config(),
                |_, _| selector(),
                |id, streams| {
                    let streams = if id == 3 { 1 } else { streams };
                    Some(vec![&model as &dyn InferenceBackend; streams])
                },
                &envelope,
            )
        })
        .unwrap();
        assert!(dropped.is_empty());
        assert_eq!(rec.logs().len(), 1);
        assert_eq!(
            rec.counter_value("serve.tenant.3.fleet.resume.skipped_shards"),
            1
        );
        assert_eq!(rec.counter_value("log.warn"), 1);
    }

    #[test]
    fn corrupt_envelopes_are_clean_errors() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let serve = played(&model);
        let envelope = serve.checkpoint();
        let resume = |bytes: &[u8]| {
            TmServe::<TMerge>::resume(
                &model,
                CostModel::calibrated(),
                Device::Cpu,
                serve_config(),
                |_, _| selector(),
                |_, streams| Some(vec![&model as &dyn InferenceBackend; streams]),
                bytes,
            )
            .map(|_| ())
        };
        assert!(resume(&[]).is_err());
        assert!(resume(&envelope[..envelope.len() / 2]).is_err());
        let mut bad = envelope.clone();
        bad[0] ^= 0xFF;
        assert!(resume(&bad).is_err());
        // Trailing garbage is rejected too.
        let mut long = envelope.clone();
        long.extend_from_slice(&[0u8; 8]);
        assert!(resume(&long).is_err());
    }
}
