//! Exact per-frame ground truth produced by the world simulation.

use crate::scene::SceneConfig;
use std::collections::BTreeMap;
use tm_types::{BBox, ClassId, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackSet};

/// One actor's exact state in one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtInstance {
    /// The actor's true identity.
    pub actor: GtObjectId,
    /// Object class.
    pub class: ClassId,
    /// The actor's full box, possibly extending beyond the viewport.
    pub full_bbox: BBox,
    /// The box clipped to the viewport; `None` when fully out of frame.
    pub visible_bbox: Option<BBox>,
    /// Fraction of the actor visible: occlusion × frame truncation, `[0,1]`.
    pub visibility: f64,
    /// Glare severity affecting the actor this frame, `[0, 1]`.
    pub glare: f64,
}

/// All actor instances in one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GtFrame {
    /// The frame index.
    pub frame: FrameIdx,
    /// Every actor alive this frame (including invisible ones).
    pub instances: Vec<GtInstance>,
}

/// The complete ground truth of a simulated video.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    config: SceneConfig,
    frames: Vec<GtFrame>,
}

impl GroundTruth {
    /// Assembles ground truth from per-frame data.
    pub fn new(config: SceneConfig, frames: Vec<GtFrame>) -> Self {
        Self { config, frames }
    }

    /// The scene configuration this truth was simulated under.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Per-frame ground truth, indexed by frame.
    pub fn frames(&self) -> &[GtFrame] {
        &self.frames
    }

    /// Number of simulated frames.
    pub fn n_frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Instances of a specific frame (empty slice when out of range).
    pub fn instances_at(&self, frame: FrameIdx) -> &[GtInstance] {
        self.frames
            .get(frame.get() as usize)
            .map_or(&[], |f| f.instances.as_slice())
    }

    /// The ground-truth track of every actor, as a [`TrackSet`] whose
    /// [`TrackId`]s equal the actors' [`GtObjectId`]s.
    ///
    /// Only observations where the actor is at least `min_visibility`
    /// visible are included — an actor fully hidden behind a pillar has no
    /// observable box, and GT benchmarks (MOT-17 et al.) likewise annotate
    /// visibility and let evaluators threshold it. Actors that never clear
    /// the threshold produce no track.
    pub fn gt_tracks(&self, min_visibility: f64) -> TrackSet {
        let mut per_actor: BTreeMap<GtObjectId, Track> = BTreeMap::new();
        for f in &self.frames {
            for i in &f.instances {
                let Some(vb) = i.visible_bbox else { continue };
                if i.visibility < min_visibility {
                    continue;
                }
                per_actor
                    .entry(i.actor)
                    .or_insert_with(|| Track::new(TrackId(i.actor.get()), i.class))
                    .push(
                        TrackBox::new(f.frame, vb)
                            .with_provenance(i.actor)
                            .with_visibility(i.visibility),
                    );
            }
        }
        per_actor.into_values().collect()
    }

    /// The longest GT track span in frames — the paper's `L_max`, which
    /// constrains the window length (`L ≥ 2·L_max`, §II).
    pub fn l_max(&self, min_visibility: f64) -> u64 {
        self.gt_tracks(min_visibility)
            .iter()
            .map(Track::span)
            .max()
            .unwrap_or(0)
    }

    /// Total number of visible instances (≥ `min_visibility`) across all
    /// frames — the "BBoxes per video" statistic the paper reports.
    pub fn total_visible_instances(&self, min_visibility: f64) -> usize {
        self.frames
            .iter()
            .flat_map(|f| &f.instances)
            .filter(|i| i.visible_bbox.is_some() && i.visibility >= min_visibility)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::MotionModel;
    use crate::scene::{ActorSpec, Scenario};
    use tm_types::{ids::classes, Point};

    fn two_actor_gt() -> GroundTruth {
        let mut s = Scenario::new(SceneConfig::new(1000.0, 800.0, 20), 1);
        s.push_actor(ActorSpec::new(
            GtObjectId(3),
            classes::PEDESTRIAN,
            40.0,
            100.0,
            FrameIdx(0),
            FrameIdx(10),
            MotionModel::linear(Point::new(100.0, 400.0), 5.0, 0.0),
        ));
        s.push_actor(ActorSpec::new(
            GtObjectId(8),
            classes::CAR,
            80.0,
            60.0,
            FrameIdx(5),
            FrameIdx(20),
            MotionModel::linear(Point::new(800.0, 200.0), -10.0, 0.0),
        ));
        s.simulate()
    }

    #[test]
    fn gt_tracks_mirror_actor_lifetimes() {
        let gt = two_actor_gt();
        let tracks = gt.gt_tracks(0.1);
        assert_eq!(tracks.len(), 2);
        let a = tracks.get(TrackId(3)).unwrap();
        assert_eq!(a.first_frame(), Some(FrameIdx(0)));
        assert_eq!(a.last_frame(), Some(FrameIdx(9)));
        assert_eq!(a.class, classes::PEDESTRIAN);
        assert_eq!(a.majority_actor().unwrap().0, GtObjectId(3));
        let b = tracks.get(TrackId(8)).unwrap();
        assert_eq!(b.span(), 15);
    }

    #[test]
    fn l_max_is_longest_span() {
        let gt = two_actor_gt();
        assert_eq!(gt.l_max(0.1), 15);
    }

    #[test]
    fn instances_at_out_of_range_is_empty() {
        let gt = two_actor_gt();
        assert!(gt.instances_at(FrameIdx(999)).is_empty());
        assert_eq!(gt.instances_at(FrameIdx(0)).len(), 1);
        assert_eq!(gt.instances_at(FrameIdx(7)).len(), 2);
    }

    #[test]
    fn visibility_threshold_filters_tracks() {
        let gt = two_actor_gt();
        // An impossible threshold removes every track.
        assert!(gt.gt_tracks(1.1).is_empty());
    }

    #[test]
    fn total_visible_instances_counts_boxes() {
        let gt = two_actor_gt();
        // Actor 3 alive frames 0..10, actor 8 alive 5..20 → 10 + 15 boxes.
        assert_eq!(gt.total_visible_instances(0.0), 25);
    }
}
