//! Corruption battery for the checkpoint container (`tm_core::checkpoint`).
//!
//! Every envelope kind — merger, fleet, global, anytime and serve — is
//! checkpointed at a few points of a small run: mid-stream, gated, and
//! mid-outage with a degraded stash. For every fixture:
//!
//! * every single-byte flip (`XOR 0xFF`) and every truncation resumes to a
//!   typed `Err` — never a panic, never `Ok`;
//! * the envelope opened as any other kind is an `Err`;
//! * its payload re-sealed with a trailing word is an `Err`.
//!
//! Payloads crafted past the checksum (edited, then re-sealed through
//! [`seal`] so they reach the field readers) also give typed errors: shard
//! and stream counts of 2⁴⁰ and 2⁶², 32-bit fields at 2³² + 1, window and
//! round lengths the walks cannot step by, two shard blobs swapped, and a
//! session's distinct feature count of 2⁴⁰ or a cache key naming the value
//! at that count.
//! Each crafted case first re-seals the untouched payload and checks that
//! it resumes, so the error is the edit's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tm_chaos::{FaultPlan, FaultyModel};
use tm_core::checkpoint::{seal, Kind};
use tm_core::global::{GlobalConfig, GlobalMerger};
use tm_core::{FleetIngester, StreamConfig, StreamingMerger, TMerge, TMergeConfig, VoiMode};
use tm_query::{AnytimeConfig, AnytimeStream, Query};
use tm_reid::{
    AppearanceConfig, AppearanceModel, CostModel, Device, GateConfig, GatePolicy, InferenceBackend,
};
use tm_serve::{AdmissionConfig, ServeConfig, TenantSpec, TmServe};
use tm_synth::{MultiCameraWorld, WorldConfig};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Result, Track, TrackBox, TrackId, TrackSet,
};

/// Magic, version and kind words ahead of the payload.
const HEADER: usize = 24;
/// The checksum word after it.
const TRAILER: usize = 8;

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

/// A fragmented feed with admissible pairs in its first windows; `salt`
/// shifts one actor so sibling streams differ.
fn feed(salt: u64) -> TrackSet {
    TrackSet::from_tracks(vec![
        track(1, 10 + salt, 0, 30, salt as f64 * 13.0),
        track(2, 10 + salt, 80, 30, 160.0 + salt as f64 * 13.0),
        track(3, 11 + salt, 0, 300, 400.0),
        track(4, 12 + salt, 100, 300, 800.0),
        track(5, 13 + salt, 250, 60, 1200.0),
        track(6, 13 + salt, 330, 40, 1360.0),
    ])
}

/// The serve codec's unit-test feed: two fragments of one actor and two
/// bystanders.
fn serve_feed(salt: u64) -> TrackSet {
    TrackSet::from_tracks(vec![
        track(1, 10 + salt, 0, 30, salt as f64 * 13.0),
        track(2, 10 + salt, 80, 30, 160.0 + salt as f64 * 13.0),
        track(3, 11 + salt, 0, 40, 400.0),
        track(4, 12 + salt, 60, 40, 800.0),
    ])
}

/// Four-dimensional features keep every fixture at tens of KB: the
/// battery resumes each fixture once per byte.
fn model() -> AppearanceModel {
    AppearanceModel::new(AppearanceConfig {
        dim: 4,
        ..AppearanceConfig::default()
    })
}

fn selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 1_500,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn stream_config(gate: GatePolicy) -> StreamConfig {
    StreamConfig {
        window_len: 200,
        k: 0.2,
        gate,
        voi: VoiMode::Off,
    }
}

/// Hard down for windows (and global rounds) 2–3.
fn outage() -> FaultPlan {
    FaultPlan::none().with_hard_down(2, 4)
}

fn merger(model: &AppearanceModel, gate: GatePolicy) -> StreamingMerger<'_, TMerge> {
    StreamingMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        stream_config(gate),
    )
    .unwrap()
}

fn global_selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 3_000,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn global_merger(model: &AppearanceModel) -> GlobalMerger<'_, TMerge> {
    GlobalMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        global_selector(),
        GlobalConfig::default(),
    )
    .unwrap()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        stream: stream_config(GatePolicy::Off),
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: None,
    }
}

/// The resume entry point of each kind, over one shared model.
struct Resumers<'m> {
    model: &'m AppearanceModel,
}

impl Resumers<'_> {
    fn resume(&self, kind: Kind, bytes: &[u8]) -> Result<()> {
        let (model, cost, cpu) = (self.model, CostModel::calibrated(), Device::Cpu);
        match kind {
            Kind::Merger => StreamingMerger::resume(model, cost, cpu, selector(), bytes).map(drop),
            Kind::Fleet => {
                let backends: Vec<&dyn InferenceBackend> = vec![model; 2];
                FleetIngester::resume(model, cost, cpu, |_| selector(), &backends, bytes).map(drop)
            }
            Kind::Global => {
                GlobalMerger::resume(model, cost, cpu, global_selector(), bytes).map(drop)
            }
            Kind::Anytime => AnytimeStream::resume(model, cost, cpu, selector(), bytes).map(drop),
            Kind::Serve => TmServe::resume(
                model,
                cost,
                cpu,
                serve_config(),
                |_, _| selector(),
                |_, streams| Some(vec![model as &dyn InferenceBackend; streams]),
                bytes,
            )
            .map(drop),
        }
    }

    /// Resumes `bytes` as `kind`, turning a panic into a test failure that
    /// names the case.
    fn must_fail(&self, kind: Kind, bytes: &[u8], case: &dyn Fn() -> String) {
        match catch_unwind(AssertUnwindSafe(|| self.resume(kind, bytes))) {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("{}: resumed Ok", case()),
            Err(_) => panic!("{}: panicked", case()),
        }
    }
}

struct Fixture {
    name: &'static str,
    kind: Kind,
    bytes: Vec<u8>,
}

fn fixtures(model: &AppearanceModel) -> Vec<Fixture> {
    let tracks = feed(0);
    let mut out = Vec::new();
    let mut push = |name, kind, bytes| out.push(Fixture { name, kind, bytes });

    for (name, gate) in [
        ("merger mid-stream", GatePolicy::Off),
        (
            "gated merger mid-stream",
            GatePolicy::On(GateConfig::default()),
        ),
    ] {
        let mut m = merger(model, gate);
        m.advance(&tracks, 250).unwrap();
        push(name, Kind::Merger, m.checkpoint());
    }

    let faulty = FaultyModel::new(model, outage());
    let mut m = merger(model, GatePolicy::Off).with_backend(&faulty);
    for frames in [250, 420] {
        m.advance(&tracks, frames).unwrap();
    }
    assert!(m.stash_len() > 0, "the merger fixture must be mid-outage");
    push("merger mid-outage", Kind::Merger, m.checkpoint());

    let feeds = [feed(0), feed(1)];
    let clean: Vec<&dyn InferenceBackend> = vec![model; 2];
    let mut fleet = FleetIngester::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config(GatePolicy::Off),
        |_| selector(),
        &clean,
    )
    .unwrap();
    fleet
        .advance(&[(&feeds[0], 250), (&feeds[1], 250)])
        .unwrap();
    push("fleet mid-stream", Kind::Fleet, fleet.checkpoint());

    let faulty = FaultyModel::new(model, outage());
    let backends: Vec<&dyn InferenceBackend> = vec![model, &faulty];
    let mut fleet = FleetIngester::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config(GatePolicy::Off),
        |_| selector(),
        &backends,
    )
    .unwrap();
    for frames in [250, 420] {
        fleet
            .advance(&[(&feeds[0], frames), (&feeds[1], frames)])
            .unwrap();
    }
    assert!(
        fleet.shard(1).stash_len() > 0,
        "the fleet fixture must be mid-outage"
    );
    push("fleet mid-outage", Kind::Fleet, fleet.checkpoint());

    let world = MultiCameraWorld::new(WorldConfig {
        cameras: 3,
        actors: 3,
        hops: 2,
        ..WorldConfig::default()
    });
    let cams = world.all_camera_tracks(world.horizon());
    let at = |frames: u64| -> Vec<(&TrackSet, u64)> { cams.iter().map(|t| (t, frames)).collect() };
    let mut global = global_merger(model);
    global
        .advance(&at(GlobalConfig::default().round_len))
        .unwrap();
    assert_eq!(global.decisions().len(), 1);
    push("global after a round", Kind::Global, global.checkpoint());

    // Rounds of 200 frames: round 2, busy with transits, falls in the
    // outage.
    let faulty = FaultyModel::new(model, outage());
    let mut global = global_merger(model).with_backend(&faulty);
    for frames in [200, 600] {
        global.advance(&at(frames)).unwrap();
    }
    assert!(
        global.stash_len() > 0,
        "the global fixture must be mid-outage"
    );
    push("global mid-outage", Kind::Global, global.checkpoint());

    let mut anytime = AnytimeStream::new(
        merger(model, GatePolicy::Off),
        Query::Count { min_frames: 200 },
        AnytimeConfig::default(),
    );
    anytime.advance(&tracks, 250).unwrap();
    push("anytime mid-feed", Kind::Anytime, anytime.checkpoint());

    let mut serve = TmServe::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        serve_config(),
        |_, _| selector(),
    );
    let spec = |id, streams| TenantSpec {
        id,
        streams,
        admission: AdmissionConfig::default(),
    };
    let one: [&dyn InferenceBackend; 1] = [model];
    let two: [&dyn InferenceBackend; 2] = [model, model];
    serve.register(spec(7, 1), &one).unwrap();
    serve.register(spec(9, 2), &two).unwrap();
    serve.enable_global(9, GlobalConfig::default()).unwrap();
    for (t, frames) in [(0.0, 250), (40.0, 400)] {
        assert!(serve.submit(t, 7, 0, serve_feed(0), frames).is_admitted());
        assert!(serve.submit(t, 9, 0, serve_feed(1), frames).is_admitted());
        assert!(serve.submit(t, 9, 1, serve_feed(2), frames).is_admitted());
        serve.run_once(t + 1.0).unwrap();
    }
    push(
        "serve with a global overlay",
        Kind::Serve,
        serve.checkpoint(),
    );
    out
}

const KINDS: [Kind; 5] = [
    Kind::Merger,
    Kind::Fleet,
    Kind::Global,
    Kind::Anytime,
    Kind::Serve,
];

fn payload(bytes: &[u8]) -> &[u8] {
    &bytes[HEADER..bytes.len() - TRAILER]
}

/// The payload as words (no fixture carries a string, so every payload
/// is whole words).
fn words(bytes: &[u8]) -> Vec<u64> {
    let p = payload(bytes);
    assert_eq!(p.len() % 8, 0, "payload is not whole words");
    p.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn reseal(kind: Kind, words: &[u64]) -> Vec<u8> {
    seal(kind, |w| {
        for &v in words {
            w.put_u64(v);
        }
    })
}

#[test]
fn every_flip_and_truncation_is_a_typed_error() {
    let model = model();
    let resumers = Resumers { model: &model };
    for Fixture { name, kind, bytes } in fixtures(&model) {
        resumers
            .resume(kind, &bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut flipped = bytes.clone();
        for i in 0..flipped.len() {
            flipped[i] ^= 0xFF;
            resumers.must_fail(kind, &flipped, &|| format!("{name}: byte {i} flipped"));
            flipped[i] ^= 0xFF;
        }
        for n in 0..bytes.len() {
            resumers.must_fail(kind, &bytes[..n], &|| format!("{name}: cut to {n} bytes"));
        }
    }
}

#[test]
fn wrong_kinds_and_trailing_words_are_typed_errors() {
    let model = model();
    let resumers = Resumers { model: &model };
    for Fixture { name, kind, bytes } in fixtures(&model) {
        for other in KINDS.into_iter().filter(|&k| k != kind) {
            resumers.must_fail(other, &bytes, &|| format!("{name} opened as {other:?}"));
        }
        let mut w = words(&bytes);
        resumers.resume(kind, &reseal(kind, &w)).unwrap();
        w.push(0);
        resumers.must_fail(kind, &reseal(kind, &w), &|| {
            format!("{name} + a trailing word")
        });
    }
}

/// Word offsets of the distinct-value count and of the last cache key's
/// value number in a payload that ends with an ungated session snapshot,
/// as the global merger's does: the count `D`, `D` values (a dimension
/// word, then `model()`'s four components), the key count `N`, `N` keys
/// (track, frame, value number), then the gate flag. Value numbers follow
/// first appearance, so `D` is one past the largest.
fn session_tail(w: &[u64]) -> (usize, usize) {
    const VALUE_WORDS: usize = 5;
    let last = w.len() - 2;
    (1..w.len() / 3)
        .find_map(|n| {
            let n_at = w.len().checked_sub(2 + 3 * n)?;
            let d = (0..n).map(|k| w[last - 3 * k]).max()? + 1;
            let values = usize::try_from(d).ok()?.checked_mul(VALUE_WORDS)?;
            let d_at = n_at.checked_sub(1 + values)?;
            (w[n_at] == n as u64 && w[d_at] == d).then_some((d_at, last))
        })
        .expect("the payload ends with a session snapshot")
}

/// Re-seals `bytes` with payload word `at` set to `value`, after checking
/// that the untouched payload re-sealed still resumes.
fn craft(resumers: &Resumers<'_>, kind: Kind, bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut w = words(bytes);
    resumers.resume(kind, &reseal(kind, &w)).unwrap();
    w[at] = value;
    reseal(kind, &w)
}

#[test]
fn crafted_payloads_are_typed_errors() {
    let model = model();
    let resumers = Resumers { model: &model };
    let all = fixtures(&model);
    let find = |name: &str| all.iter().find(|f| f.name == name).unwrap();
    let wide = (1u64 << 32) + 1;
    // Payload word offsets. Fleet: the shard count comes first. Serve:
    // clock, cycles, rejected, tenant count, then the first tenant's id
    // and stream count. Ungated merger: window length, K, gate flag, VoI
    // mode and stream id, then the retry attempts and, three floats
    // later, the breaker threshold. Global: round length, K, the prior
    // envelope's floor and ceiling, two more config words, the acceptance
    // flag and threshold, then the retry attempts.
    let cases = [
        ("fleet mid-stream", 0, 1 << 40, "shard count 2^40"),
        ("fleet mid-stream", 0, 1 << 62, "shard count 2^62"),
        (
            "serve with a global overlay",
            5,
            1 << 40,
            "tenant streams 2^40",
        ),
        (
            "serve with a global overlay",
            5,
            1 << 62,
            "tenant streams 2^62",
        ),
        ("merger mid-stream", 5, wide, "retry attempts 2^32 + 1"),
        ("merger mid-stream", 9, wide, "breaker threshold 2^32 + 1"),
        (
            "global after a round",
            8,
            wide,
            "global retry attempts 2^32 + 1",
        ),
        ("merger mid-stream", 0, 0, "window length 0"),
        ("merger mid-stream", 0, 201, "odd window length"),
        ("global after a round", 0, 0, "round length 0"),
        (
            "global after a round",
            2,
            u64::MAX,
            "inverted prior envelope",
        ),
    ];
    for (name, at, value, what) in cases {
        let Fixture { kind, bytes, .. } = find(name);
        let bad = craft(&resumers, *kind, bytes, at, value);
        resumers.must_fail(*kind, &bad, &|| format!("{name}: {what}"));
    }

    // Two shard blobs swapped: each shard carries its stream id, so the
    // fleet sees shard 1 in slot 0.
    let w = words(&find("fleet mid-stream").bytes);
    assert_eq!(w[0], 2);
    let first = 2 + (w[1] as usize) / 8;
    let mut swapped = vec![2];
    swapped.extend_from_slice(&w[first..]);
    swapped.extend_from_slice(&w[1..first]);
    resumers.must_fail(Kind::Fleet, &reseal(Kind::Fleet, &swapped), &|| {
        "shard blobs swapped".into()
    });

    // The session snapshot's feature values: a key naming the value at
    // the distinct count, and a distinct count of 2^40.
    let name = "global after a round";
    let bytes = &find(name).bytes;
    let w = words(bytes);
    let (d_at, last) = session_tail(&w);
    for (at, value, what) in [
        (last, w[d_at], "feature index at the distinct count"),
        (d_at, 1 << 40, "distinct feature count 2^40"),
    ] {
        let bad = craft(&resumers, Kind::Global, bytes, at, value);
        resumers.must_fail(Kind::Global, &bad, &|| format!("{name}: {what}"));
    }
}
