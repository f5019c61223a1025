//! Novelty-gated ReID charge planning.
//!
//! Every box that reaches [`crate::ReidSession`] today is featurized
//! unconditionally. This module plans, per [`TrackBox`], whether the
//! session should
//!
//! * **extract** a fresh feature (the box is an *anchor*: the track is
//!   young, just reappeared after an occlusion gap, is overdue for a
//!   periodic refresh, or sits in a crowded frame where appearance is
//!   ambiguous), or
//! * **reuse** the nearest preceding anchor's feature for the same
//!   track, with an age-based confidence decay. The session counts a
//!   reuse whose decayed confidence falls below
//!   [`GateConfig::defer_below`] as a *deferral* ([`GateStats::defers`]),
//!   a label only: the donor stands in either way.
//!
//! The plan is a pure function of tracker state (box frames, gaps, and
//! co-frame crowding from [`tm_types::FrameIndex`]) — it never looks at
//! feature values, so planning is free of inference charges and
//! deterministic for a given [`TrackSet`]. Plans are *prefix-stable*:
//! [`GatePlan::update`] only plans boxes appended since the previous
//! call, so streaming (incremental) and batch (resume) construction
//! agree as long as updates see the same track prefixes — which the
//! checkpoint layer guarantees by serializing the plan verbatim.
//!
//! A track's plan lives while the track is in the feed: each update drops
//! the plans of tracks absent from it, about which nothing asks (window
//! pairs and stash re-verification are built from the same feed).
//!
//! [`GatePolicy::Off`] short-circuits everything: an ungated session
//! never constructs a plan and is bit-identical to the pre-gating
//! pipeline (clock, charges, cache, snapshots).

use serde::{Deserialize, Serialize};
use tm_types::{FrameIdx, Track, TrackBox, TrackId, TrackSet};

/// Tuning knobs for the gate. All signals are pure functions of tracker
/// state; see the module docs for the decision rules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Boxes within this many frames of a track's first observation
    /// always extract (fresh tracks have no trustworthy donor).
    pub fresh_frames: u64,
    /// A gap from the previous box strictly larger than this marks a
    /// post-occlusion reacquisition: extract.
    pub occlusion_gap: u64,
    /// Extract at least once every this many frames per track (anchor
    /// cadence); `1` makes every box an anchor.
    pub refresh_interval: u64,
    /// Never reuse a donor older than this many frames; extract instead.
    pub max_reuse_age: u64,
    /// Propagated confidence decays as `0.5^(age / decay_half_life)`.
    pub decay_half_life: f64,
    /// A reuse whose decayed confidence falls below this is counted in
    /// [`GateStats::defers`] rather than `reuses`. A telemetry label only:
    /// the donor is propagated either way, and no decision, charge or
    /// backend call depends on it. It stays because the `reid.gate.defer`
    /// counter and `perfbench`'s `gate.defer` row report that split.
    pub defer_below: f64,
    /// A co-frame box of another track with IoU at or above this makes
    /// the frame ambiguous for the track: extract.
    pub ambiguity_iou: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            fresh_frames: 2,
            occlusion_gap: 4,
            refresh_interval: 8,
            max_reuse_age: 24,
            decay_half_life: 8.0,
            defer_below: 0.7,
            ambiguity_iou: 0.3,
        }
    }
}

impl GateConfig {
    /// A configuration whose plan marks every box an anchor. Gated
    /// sessions under this config extract exactly what ungated sessions
    /// extract — used by the `Off`-equivalence differential suite.
    pub fn always_extract() -> Self {
        Self {
            refresh_interval: 1,
            ..Self::default()
        }
    }

    /// Decayed confidence of a donor `age` frames old.
    pub fn confidence(&self, age: u64) -> f64 {
        0.5f64.powf(age as f64 / self.decay_half_life.max(f64::MIN_POSITIVE))
    }
}

/// Whether a session gates extraction, and how.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum GatePolicy {
    /// No gating: bit-identical to the pre-gating pipeline.
    #[default]
    Off,
    /// Gate extraction under the given configuration.
    On(GateConfig),
}

impl GatePolicy {
    /// The configuration when gating is on.
    pub fn config(&self) -> Option<&GateConfig> {
        match self {
            GatePolicy::Off => None,
            GatePolicy::On(cfg) => Some(cfg),
        }
    }
}

/// The gate's verdict for one box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateDecision {
    /// Extract a fresh feature for this box.
    Extract,
    /// Propagate `donor`'s feature (an anchor of the same track,
    /// `age` frames older).
    Reuse {
        /// The anchor box whose feature stands in for this box.
        donor: TrackBox,
        /// Frame distance from donor to this box.
        age: u64,
    },
}

/// Decision counters, accumulated by the session and flushed once per
/// window (the `AssignStats` pattern: emit non-zero deltas, reset the
/// high-water mark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GateStats {
    /// Boxes the gate sent to fresh extraction (including donors
    /// promoted to extraction on behalf of a reuse).
    pub extracts: u64,
    /// Boxes that reused a donor feature at or above the confidence floor.
    pub reuses: u64,
    /// Boxes that reused a donor feature below the confidence floor
    /// ([`GateConfig::defer_below`]).
    pub defers: u64,
}

impl GateStats {
    /// Extraction charges avoided by the gate.
    pub fn saved_charges(&self) -> u64 {
        self.reuses + self.defers
    }

    /// Field-wise difference since `earlier` (which must be a prefix).
    pub fn delta(&self, earlier: &GateStats) -> GateStats {
        GateStats {
            extracts: self.extracts - earlier.extracts,
            reuses: self.reuses - earlier.reuses,
            defers: self.defers - earlier.defers,
        }
    }
}

/// Per-track plan state. Serialized verbatim into checkpoints so
/// resumed sessions decide identically to uninterrupted ones.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrackPlan {
    /// Number of boxes already planned (prefix length).
    pub planned: usize,
    /// Frame of the last planned box; frames beyond it are unplanned.
    pub planned_through: u64,
    /// Anchor boxes in ascending frame order.
    pub anchors: Vec<TrackBox>,
}

/// The per-track extraction plan for the [`TrackSet`] a session plans
/// against: one [`TrackPlan`] per track in the latest update's feed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GatePlan {
    /// Plans keyed by track, ordered for deterministic serialization.
    tracks: std::collections::BTreeMap<TrackId, TrackPlan>,
}

impl GatePlan {
    /// Extends the plan over boxes appended to `tracks` since the last
    /// update, and drops the plans of tracks no longer in `tracks`.
    /// Previously planned prefixes are never revisited, so the decision
    /// stream is stable across incremental (streaming) and batch
    /// (pipeline / resume) construction.
    pub fn update(&mut self, tracks: &TrackSet, cfg: &GateConfig) {
        self.tracks.retain(|id, _| tracks.get(*id).is_some());
        let index = tracks.frame_index();
        for track in tracks.iter() {
            let plan = self.tracks.entry(track.id).or_default();
            plan_track(plan, track, &index, cfg);
        }
    }

    /// The gate's verdict for `(track, frame)`. Unknown tracks and
    /// frames beyond the planned prefix fall back to `Extract` — the
    /// gate never blocks a box it has not seen.
    pub fn decide(&self, track: TrackId, frame: FrameIdx, cfg: &GateConfig) -> GateDecision {
        let Some(plan) = self.tracks.get(&track) else {
            return GateDecision::Extract;
        };
        if plan.planned == 0 || frame.get() > plan.planned_through {
            return GateDecision::Extract;
        }
        // Anchor frames extract; everything else reuses the nearest
        // preceding anchor.
        let at = plan.anchors.partition_point(|a| a.frame <= frame);
        if at == 0 {
            return GateDecision::Extract;
        }
        let donor = plan.anchors[at - 1];
        if donor.frame == frame {
            return GateDecision::Extract;
        }
        let age = frame.get() - donor.frame.get();
        if age > cfg.max_reuse_age {
            return GateDecision::Extract;
        }
        GateDecision::Reuse { donor, age }
    }

    /// Per-track plans in ascending `TrackId` order (for snapshots).
    pub fn export(&self) -> Vec<(TrackId, TrackPlan)> {
        self.tracks.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Rebuilds a plan from exported state (checkpoint resume).
    pub fn import(entries: Vec<(TrackId, TrackPlan)>) -> Self {
        Self {
            tracks: entries.into_iter().collect(),
        }
    }
}

fn plan_track(
    plan: &mut TrackPlan,
    track: &Track,
    index: &tm_types::FrameIndex<'_>,
    cfg: &GateConfig,
) {
    let first = match track.boxes.first() {
        Some(b) => b.frame.get(),
        None => return,
    };
    for i in plan.planned..track.boxes.len() {
        let b = track.boxes[i];
        let frame = b.frame.get();
        let anchor = if i == 0 || frame.saturating_sub(first) < cfg.fresh_frames {
            // Fresh tracks always extract.
            true
        } else if frame.saturating_sub(track.boxes[i - 1].frame.get()) > cfg.occlusion_gap {
            // Post-occlusion reacquisition: the interval index has a gap.
            true
        } else {
            let since_anchor = plan
                .anchors
                .last()
                .map(|a| frame.saturating_sub(a.frame.get()))
                .unwrap_or(u64::MAX);
            if since_anchor >= cfg.refresh_interval {
                // Periodic refresh cadence.
                true
            } else {
                // Crowded frame: another track overlaps this box enough
                // that appearance is ambiguous.
                let (_, best_iou) = index.crowding(b.frame, track.id, &b.bbox);
                best_iou >= cfg.ambiguity_iou
            }
        };
        if anchor {
            plan.anchors.push(b);
        }
        plan.planned = i + 1;
        plan.planned_through = frame;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{BBox, ClassId};

    fn tb(frame: u64, x: f64) -> TrackBox {
        TrackBox::new(FrameIdx(frame), BBox::new(x, 0.0, 10.0, 10.0))
    }

    fn lone_track(frames: &[u64]) -> TrackSet {
        let boxes = frames.iter().map(|&f| tb(f, 0.0)).collect();
        let mut set = TrackSet::new();
        set.insert(Track::with_boxes(TrackId(1), ClassId(1), boxes));
        set
    }

    fn decisions(set: &TrackSet, cfg: &GateConfig) -> Vec<(u64, GateDecision)> {
        let mut plan = GatePlan::default();
        plan.update(set, cfg);
        let track = set.iter().next().unwrap();
        track
            .boxes
            .iter()
            .map(|b| (b.frame.get(), plan.decide(track.id, b.frame, cfg)))
            .collect()
    }

    #[test]
    fn fresh_boxes_always_extract() {
        let set = lone_track(&[0, 1, 2, 3]);
        let cfg = GateConfig {
            fresh_frames: 2,
            ..GateConfig::default()
        };
        let ds = decisions(&set, &cfg);
        assert_eq!(ds[0].1, GateDecision::Extract);
        assert_eq!(ds[1].1, GateDecision::Extract);
        assert!(matches!(ds[2].1, GateDecision::Reuse { .. }));
        assert!(matches!(ds[3].1, GateDecision::Reuse { .. }));
    }

    #[test]
    fn occlusion_gap_forces_reextraction() {
        let cfg = GateConfig {
            fresh_frames: 1,
            occlusion_gap: 3,
            refresh_interval: 100,
            max_reuse_age: 200,
            defer_below: 0.0,
            ..GateConfig::default()
        };
        let set = lone_track(&[0, 1, 2, 10, 11]);
        let ds = decisions(&set, &cfg);
        assert_eq!(ds[0].1, GateDecision::Extract);
        assert!(matches!(ds[1].1, GateDecision::Reuse { .. }));
        // Frame 10 reappears after a gap of 8 > occlusion_gap.
        assert_eq!(ds[3].1, GateDecision::Extract);
        assert!(matches!(
            ds[4].1,
            GateDecision::Reuse { donor, age: 1 } if donor.frame.get() == 10
        ));
    }

    #[test]
    fn refresh_cadence_spaces_anchors() {
        let cfg = GateConfig {
            fresh_frames: 1,
            refresh_interval: 4,
            max_reuse_age: 100,
            defer_below: 0.0,
            ..GateConfig::default()
        };
        let set = lone_track(&(0..12).collect::<Vec<_>>());
        let ds = decisions(&set, &cfg);
        let anchors: Vec<u64> = ds
            .iter()
            .filter(|(_, d)| *d == GateDecision::Extract)
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(anchors, vec![0, 4, 8]);
    }

    #[test]
    fn stale_reuse_stays_reuse_then_becomes_extraction() {
        let cfg = GateConfig {
            fresh_frames: 1,
            refresh_interval: 100,
            occlusion_gap: 100,
            max_reuse_age: 6,
            decay_half_life: 4.0,
            defer_below: 0.6,
            ..GateConfig::default()
        };
        let set = lone_track(&(0..10).collect::<Vec<_>>());
        let ds = decisions(&set, &cfg);
        // Low confidence (0.5^(age/4) < 0.6 from age 3) is the session's
        // label; the plan reuses through max_reuse_age.
        assert!(matches!(ds[1].1, GateDecision::Reuse { age: 1, .. }));
        assert!(matches!(ds[3].1, GateDecision::Reuse { age: 3, .. }));
        assert!(matches!(ds[6].1, GateDecision::Reuse { age: 6, .. }));
        // Beyond max_reuse_age the donor is too old: extract.
        assert_eq!(ds[7].1, GateDecision::Extract);
    }

    #[test]
    fn crowded_frames_are_anchors() {
        let cfg = GateConfig {
            fresh_frames: 1,
            refresh_interval: 100,
            max_reuse_age: 100,
            defer_below: 0.0,
            ambiguity_iou: 0.3,
            ..GateConfig::default()
        };
        let mut set = TrackSet::new();
        set.insert(Track::with_boxes(
            TrackId(1),
            ClassId(1),
            (0..6).map(|f| tb(f, 0.0)).collect(),
        ));
        // Second track overlaps track 1 heavily at frame 3 only.
        set.insert(Track::with_boxes(
            TrackId(2),
            ClassId(1),
            vec![tb(3, 2.0), tb(4, 40.0)],
        ));
        let mut plan = GatePlan::default();
        plan.update(&set, &cfg);
        assert_eq!(
            plan.decide(TrackId(1), FrameIdx(3), &cfg),
            GateDecision::Extract
        );
        assert!(matches!(
            plan.decide(TrackId(1), FrameIdx(4), &cfg),
            GateDecision::Reuse { donor, age: 1 } if donor.frame.get() == 3
        ));
    }

    #[test]
    fn always_extract_config_plans_every_box_as_anchor() {
        let cfg = GateConfig::always_extract();
        let set = lone_track(&[0, 1, 2, 5, 6, 20]);
        for (_, d) in decisions(&set, &cfg) {
            assert_eq!(d, GateDecision::Extract);
        }
    }

    #[test]
    fn unplanned_boxes_fall_back_to_extract() {
        let cfg = GateConfig::default();
        let set = lone_track(&[0, 1, 2]);
        let mut plan = GatePlan::default();
        plan.update(&set, &cfg);
        assert_eq!(
            plan.decide(TrackId(99), FrameIdx(0), &cfg),
            GateDecision::Extract
        );
        assert_eq!(
            plan.decide(TrackId(1), FrameIdx(50), &cfg),
            GateDecision::Extract
        );
    }

    #[test]
    fn incremental_update_matches_batch_update() {
        let cfg = GateConfig::default();
        let frames: Vec<u64> = (0..30).filter(|f| f % 7 != 3).collect();

        let full = lone_track(&frames);
        let mut batch = GatePlan::default();
        batch.update(&full, &cfg);

        let mut incr = GatePlan::default();
        for cut in 1..=frames.len() {
            let partial = lone_track(&frames[..cut]);
            incr.update(&partial, &cfg);
        }
        assert_eq!(batch.export(), incr.export());
    }

    #[test]
    fn plans_leave_with_their_tracks() {
        let cfg = GateConfig::default();
        let mut set = lone_track(&[0, 1, 2, 3]);
        set.insert(Track::with_boxes(
            TrackId(2),
            ClassId(1),
            (0..4).map(|f| tb(f, 50.0)).collect(),
        ));
        let mut plan = GatePlan::default();
        plan.update(&set, &cfg);
        assert_eq!(plan.export().len(), 2);
        let rolled = lone_track(&[0, 1, 2, 3, 4]);
        plan.update(&rolled, &cfg);
        assert_eq!(plan.export().len(), 1);
        let mut fresh = GatePlan::default();
        fresh.update(&rolled, &cfg);
        assert_eq!(plan, fresh, "the surviving track keeps its plan");
    }

    #[test]
    fn export_import_roundtrips() {
        let cfg = GateConfig::default();
        let set = lone_track(&[0, 1, 2, 9, 10, 11, 30]);
        let mut plan = GatePlan::default();
        plan.update(&set, &cfg);
        let copy = GatePlan::import(plan.export());
        assert_eq!(plan, copy);
        for f in [0u64, 1, 2, 9, 10, 11, 30, 31] {
            assert_eq!(
                plan.decide(TrackId(1), FrameIdx(f), &cfg),
                copy.decide(TrackId(1), FrameIdx(f), &cfg)
            );
        }
    }
}
