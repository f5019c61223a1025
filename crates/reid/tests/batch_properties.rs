//! Property tests for the cross-stream batching backend.
//!
//! Four invariants pin the `BatchingBackend` contract from
//! `crates/reid/src/batch.rs`:
//!
//! * **Reply transparency** — for any fault mix and any request sequence,
//!   a lane's reply is the wrapped backend's reply, bit for bit, plus the
//!   amortized overhead on clean replies only. Charges therefore never
//!   exceed the per-stream serial run's charges plus the documented
//!   surcharge.
//! * **Answered exactly once** — every request gets exactly one reply, and
//!   each distinct clean box content is computed at most once fleet-wide
//!   (`computed` ≤ distinct contents ≤ `requests`).
//! * **No cross-stream fault leakage** — a faulting or corrupting stream
//!   never receives a sibling's cached clean feature, and its corrupt
//!   payloads never enter the shared cache.
//! * **Batch bounds** — the pending queue never holds `max_batch` or more
//!   entries after an offer, no dispatched batch exceeds `max_batch`, and
//!   a demand drains the queue entirely.
//!
//! Two threaded tests race lanes against each other: however their
//! prefetches and demands interleave, each distinct content is computed
//! exactly once and every reply is the bare model's.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Barrier;
use tm_reid::{
    AppearanceConfig, AppearanceModel, Attempt, AttemptClass, BackendFault, BackendReply,
    BatchConfig, BatchScheduler, BoxKey, Feature, FeatureKey, InferenceBackend, SplitBackend,
};
use tm_types::{BBox, FrameIdx, GtObjectId, TrackBox, TrackId};

/// A deterministic hash-flaky `SplitBackend` test double (tm-reid cannot
/// depend on tm-chaos): classification is a pure hash of the attempt
/// coordinates, with `try_observe` derived from `classify` exactly as the
/// contract demands.
#[derive(Debug)]
struct HashFlaky<'a> {
    model: &'a AppearanceModel,
    seed: u64,
    /// Percent of attempts that fail transiently.
    fault_pct: u64,
    /// Percent of attempts (after faults) that return a NaN feature.
    corrupt_pct: u64,
}

impl HashFlaky<'_> {
    fn draw(&self, at: &Attempt) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(at.epoch)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(at.attempt as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(at.key.track.get())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(at.key.frame.get());
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl InferenceBackend for HashFlaky<'_> {
    fn try_observe(&self, tb: &TrackBox, at: &Attempt) -> BackendReply {
        match self.classify(at) {
            AttemptClass::Clean { extra_ms } => BackendReply {
                outcome: Ok(self.model.observe_track_box(tb)),
                extra_ms,
            },
            AttemptClass::Corrupt { feature, extra_ms } => BackendReply {
                outcome: Ok(feature),
                extra_ms,
            },
            AttemptClass::Fault { fault, extra_ms } => BackendReply::fault(fault, extra_ms),
        }
    }

    fn prefetch(&self, _requests: &[(&TrackBox, Attempt)]) {}
}

impl SplitBackend for HashFlaky<'_> {
    fn classify(&self, at: &Attempt) -> AttemptClass {
        let h = self.draw(at);
        let pick = h % 100;
        // Deterministic per-attempt extra latency, so transparency is
        // checked against varying nonzero charges, not just 0.0.
        let extra_ms = if (h >> 8).is_multiple_of(4) {
            ((h >> 16) % 50) as f64 * 0.5
        } else {
            0.0
        };
        if pick < self.fault_pct {
            AttemptClass::Fault {
                fault: BackendFault::Transient("hash-flaky transient"),
                extra_ms,
            }
        } else if pick < self.fault_pct + self.corrupt_pct {
            AttemptClass::Corrupt {
                feature: Feature::from_raw(vec![f64::NAN, f64::NAN]),
                extra_ms,
            }
        } else {
            AttemptClass::Clean { extra_ms }
        }
    }
}

/// One request: which box content, and the attempt coordinates.
type RequestSpec = (u64, u64, u64, u32);

fn requests_strategy() -> impl Strategy<Value = Vec<RequestSpec>> {
    proptest::collection::vec((1u64..12, 0u64..40, 0u64..6, 0u32..3), 1..60)
}

fn make_box(track: u64, frame: u64) -> TrackBox {
    TrackBox::new(
        FrameIdx(frame),
        BBox::new(track as f64 * 13.0, frame as f64 * 3.0, 30.0, 60.0),
    )
    .with_provenance(GtObjectId(track))
}

fn make_attempt(track: u64, frame: u64, epoch: u64, attempt: u32) -> Attempt {
    Attempt {
        epoch,
        attempt,
        key: BoxKey::new(TrackId(track), FrameIdx(frame)),
    }
}

proptest! {
    /// Reply transparency + exactly-once compute: the lane's outcome is the
    /// inner backend's outcome bit for bit; clean replies pay exactly the
    /// amortized overhead on top of the inner charge (so total charges are
    /// the serial run's plus the documented surcharge and nothing else);
    /// each distinct clean content is computed at most once.
    #[test]
    fn lane_is_transparent_for_any_fault_mix(
        specs in requests_strategy(),
        seed in 0u64..1000,
        fault_pct in 0u64..40,
        corrupt_pct in 0u64..40,
        overhead_steps in 0u64..4,
    ) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let inner = HashFlaky { model: &model, seed, fault_pct, corrupt_pct };
        let overhead = overhead_steps as f64 * 0.25;
        let sched = BatchScheduler::new(&model, BatchConfig {
            amortized_overhead_ms: overhead,
            ..BatchConfig::default()
        });
        let lane = sched.backend(&inner);

        let mut clean_requests = 0u64;
        let mut distinct_clean: HashSet<FeatureKey> = HashSet::new();
        for &(track, frame, epoch, attempt) in &specs {
            let tb = make_box(track, frame);
            let at = make_attempt(track, frame, epoch, attempt);
            let got = lane.try_observe(&tb, &at);
            let want = inner.try_observe(&tb, &at);
            let clean = matches!(inner.classify(&at), AttemptClass::Clean { .. });
            if clean {
                clean_requests += 1;
                distinct_clean.insert(FeatureKey::of(&tb));
                prop_assert_eq!(
                    got.extra_ms.to_bits(),
                    (want.extra_ms + overhead).to_bits(),
                    "clean reply must charge inner + overhead"
                );
            } else {
                prop_assert_eq!(got.extra_ms.to_bits(), want.extra_ms.to_bits());
            }
            match (got.outcome, want.outcome) {
                (Ok(g), Ok(w)) => prop_assert!(
                    g == w || (clean_is_corrupt(&g) && clean_is_corrupt(&w)),
                    "feature mismatch"
                ),
                (Err(g), Err(w)) => prop_assert_eq!(g, w),
                (g, w) => prop_assert!(false, "outcome kind mismatch: {:?} vs {:?}", g, w),
            }
        }
        let stats = sched.stats();
        prop_assert_eq!(stats.requests, clean_requests, "every clean request counted once");
        prop_assert!(stats.computed <= distinct_clean.len() as u64,
            "computed {} > distinct clean contents {}", stats.computed, distinct_clean.len());
        prop_assert!(stats.computed <= stats.requests);
    }

    /// No cross-stream leakage: a sibling stream caching a box's clean
    /// feature never changes what a faulting/corrupting stream sees for
    /// the same content, and corrupt payloads never enter the cache.
    #[test]
    fn faults_never_leak_across_streams(
        specs in requests_strategy(),
    ) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let clean_inner = HashFlaky { model: &model, seed: 1, fault_pct: 0, corrupt_pct: 0 };
        let fault_inner = HashFlaky { model: &model, seed: 2, fault_pct: 100, corrupt_pct: 0 };
        let corrupt_inner = HashFlaky { model: &model, seed: 3, fault_pct: 0, corrupt_pct: 100 };
        let sched = BatchScheduler::new(&model, BatchConfig::default());
        let clean_lane = sched.backend(&clean_inner);
        let fault_lane = sched.backend(&fault_inner);
        let corrupt_lane = sched.backend(&corrupt_inner);

        for &(track, frame, epoch, attempt) in &specs {
            let tb = make_box(track, frame);
            let at = make_attempt(track, frame, epoch, attempt);
            // The healthy stream computes and caches the clean feature…
            let f = clean_lane.try_observe(&tb, &at).outcome.unwrap();
            prop_assert!(f.is_finite());
            // …but the hard-faulting stream still faults on that content…
            let fr = fault_lane.try_observe(&tb, &at);
            prop_assert!(fr.outcome.is_err(), "cached sibling feature leaked into a fault");
            // …and the corrupting stream still sees its NaNs, not the cache.
            let cr = corrupt_lane.try_observe(&tb, &at).outcome.unwrap();
            prop_assert!(!cr.is_finite(), "cache papered over corruption");
        }
        // The cache holds only clean computations: every cached feature
        // re-served to the clean stream is finite.
        prop_assert_eq!(sched.stats().computed, sched.cached_features() as u64);
    }

    /// Batch bounds: offers never leave `max_batch` or more pending, no
    /// dispatched batch exceeds `max_batch`, and a demand drains the queue.
    #[test]
    fn queue_and_batches_respect_bounds(
        specs in requests_strategy(),
        max_batch in 1usize..6,
    ) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let sched = BatchScheduler::new(&model, BatchConfig {
            max_batch,
            ..BatchConfig::default()
        });
        let lane = sched.backend(&model);

        for &(track, frame, epoch, attempt) in &specs {
            let tb = make_box(track, frame);
            let at = make_attempt(track, frame, epoch, attempt);
            lane.prefetch(&[(&tb, at)]);
            prop_assert!(sched.pending_len() < max_batch,
                "offer left {} pending at max_batch {}", sched.pending_len(), max_batch);
        }
        let s = sched.stats();
        prop_assert!(s.largest_batch <= max_batch as u64);
        // Demand is the deadline: one request flushes everything.
        let tb = make_box(99, 99);
        lane.try_observe(&tb, &make_attempt(99, 99, 0, 0));
        prop_assert_eq!(sched.pending_len(), 0);
        let s = sched.stats();
        prop_assert!(s.largest_batch <= max_batch as u64);
        // Everything dispatched was computed exactly once per content.
        prop_assert_eq!(s.computed, sched.cached_features() as u64);
    }
}

/// NaN features never compare equal; this detects the corrupt payload.
fn clean_is_corrupt(f: &Feature) -> bool {
    !f.is_finite()
}

/// Lanes on several threads demand one content at the same moment: one
/// computation, every reply the bare model's.
#[test]
fn racing_lanes_compute_one_content_once() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let sched = BatchScheduler::new(&model, BatchConfig::default());
    let tb = make_box(9, 9);
    let want = model.observe_track_box(&tb);
    let threads = 8u64;
    let start = Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for lane_id in 0..threads {
            let lane = sched.backend(&model);
            let (start, tb, want) = (&start, &tb, &want);
            s.spawn(move || {
                start.wait();
                let got = lane.try_observe(tb, &make_attempt(lane_id, 9, 0, 0));
                assert_eq!(&got.outcome.unwrap(), want);
            });
        }
    });
    let stats = sched.stats();
    assert_eq!((stats.requests, stats.computed), (threads, 1));
    assert_eq!(sched.cached_features(), 1);
}

/// Lanes on 4 and 8 threads each walk the same contents from a different
/// offset, prefetching a round and then demanding it, at a `max_batch`
/// small enough that full-batch flushes fire between demands. However the
/// threads interleave, each distinct content is computed exactly once,
/// every reply is the bare model's, every demand is counted, and the last
/// demand leaves the queue empty.
#[test]
fn lane_storm_computes_each_content_once() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let contents: Vec<TrackBox> = (0..3u64)
        .flat_map(|round| (0..100u64).map(move |t| make_box(t, round)))
        .collect();
    let distinct: HashSet<FeatureKey> = contents.iter().map(FeatureKey::of).collect();
    for threads in [4u64, 8] {
        let sched = BatchScheduler::new(
            &model,
            BatchConfig {
                max_batch: 3,
                ..BatchConfig::default()
            },
        );
        let start = Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for lane_id in 0..threads {
                let lane = sched.backend(&model);
                let (start, contents, model) = (&start, &contents, &model);
                s.spawn(move || {
                    let n = contents.len();
                    let offset = lane_id as usize * n / threads as usize;
                    let order: Vec<&TrackBox> =
                        (0..n).map(|i| &contents[(i + offset) % n]).collect();
                    start.wait();
                    for round in order.chunks(8) {
                        let hints: Vec<(&TrackBox, Attempt)> = round
                            .iter()
                            .map(|tb| (*tb, make_attempt(lane_id, tb.frame.get(), 0, 0)))
                            .collect();
                        lane.prefetch(&hints);
                        for (tb, at) in &hints {
                            let got = lane.try_observe(tb, at).outcome.unwrap();
                            assert_eq!(got, model.observe_track_box(tb));
                        }
                    }
                });
            }
        });
        let stats = sched.stats();
        assert_eq!(stats.computed, distinct.len() as u64, "{threads} threads");
        assert_eq!(sched.cached_features(), distinct.len());
        assert_eq!(stats.requests, threads * contents.len() as u64);
        assert_eq!(sched.pending_len(), 0);
        assert!(stats.largest_batch <= 3);
    }
}
