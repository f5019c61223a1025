//! DeepSORT — SORT with a deep appearance metric (Wojke et al., 2017).
//!
//! Adds to SORT: per-detection ReID features, an exponential-moving-average
//! appearance gallery per track, a matching *cascade* that prefers recently
//! updated tracks, and a much longer patience. The appearance term lets the
//! tracker re-associate an object after a gap that SORT would give up on —
//! which is why DeepSORT fragments less (but still fragments, per the
//! paper's Fig. 11).
//!
//! The learned CNN descriptor is replaced by the `tm-reid` appearance
//! simulator; the association logic is the published one.

use crate::assign::assign_sparse;
use crate::assoc::{self, AssocScratch};
use crate::lifecycle::{LifecycleConfig, TrackManager};
use crate::trackers::Tracker;
use tm_reid::{AppearanceModel, Feature};
use tm_types::{Detection, FrameIdx, TrackSet};

/// DeepSORT parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepSortConfig {
    /// Weight of the IoU term in the combined cost (the rest is
    /// appearance).
    pub lambda_iou: f64,
    /// Reject matches whose combined cost exceeds this gate.
    pub max_cost: f64,
    /// Reject matches whose IoU gate alone fails for *recent* tracks
    /// (time_since_update == 0); coasted tracks rely on appearance.
    pub iou_min_recent: f64,
    /// EMA momentum of the appearance gallery (fraction of old feature
    /// kept on each update).
    pub feature_momentum: f64,
    /// Depth of the matching cascade: tracks are matched in increasing
    /// time-since-update order up to this age.
    pub cascade_depth: u64,
    /// Lifecycle parameters.
    pub lifecycle: LifecycleConfig,
}

impl Default for DeepSortConfig {
    fn default() -> Self {
        Self {
            lambda_iou: 0.4,
            max_cost: 0.45,
            iou_min_recent: 0.2,
            feature_momentum: 0.8,
            cascade_depth: 15,
            lifecycle: LifecycleConfig {
                max_age: 15,
                min_hits: 3,
                min_confidence: 0.5,
                ..LifecycleConfig::default()
            },
        }
    }
}

/// The DeepSORT tracker. Borrows the ReID model to featurize detections.
#[derive(Debug, Clone)]
pub struct DeepSort<'m> {
    config: DeepSortConfig,
    manager: TrackManager,
    model: &'m AppearanceModel,
    scratch: AssocScratch,
}

impl<'m> DeepSort<'m> {
    /// Creates a DeepSORT tracker over the given appearance model.
    pub fn new(config: DeepSortConfig, model: &'m AppearanceModel) -> Self {
        Self {
            manager: TrackManager::new(config.lifecycle),
            config,
            model,
            scratch: AssocScratch::new(),
        }
    }
}

impl Tracker for DeepSort<'_> {
    fn name(&self) -> &'static str {
        "DeepSORT"
    }

    fn step(&mut self, _frame: FrameIdx, detections: &[Detection]) {
        self.manager.predict_all();
        let det_features: Vec<Feature> = detections
            .iter()
            .map(|d| self.model.observe_detection(d))
            .collect();

        let mut det_matched = vec![false; detections.len()];

        // Matching cascade: tracks with the smallest time-since-update get
        // first pick, so long-coasted tracks cannot steal fresh detections.
        for age in 0..=self.config.cascade_depth {
            let track_idxs: Vec<usize> = self
                .manager
                .active
                .iter()
                .enumerate()
                .filter(|(_, t)| t.time_since_update == age)
                .map(|(i, _)| i)
                .collect();
            if track_idxs.is_empty() {
                continue;
            }
            let det_idxs: Vec<usize> = (0..detections.len()).filter(|&i| !det_matched[i]).collect();
            if det_idxs.is_empty() {
                break;
            }
            // Recent tracks additionally require a minimum IoU (they should
            // not teleport); coasted tracks are allowed appearance-only
            // matches since their motion prediction has drifted. The IoU
            // gate also makes the recent tier spatially gateable, so its
            // appearance distances are only computed for intersecting pairs.
            let iou_gate = (age == 0).then_some(self.config.iou_min_recent);
            assoc::combined_edges_sub(
                &self.manager.active,
                &track_idxs,
                detections,
                &det_idxs,
                &det_features,
                self.config.lambda_iou,
                self.config.max_cost,
                iou_gate,
                &mut self.scratch,
            );
            let matches = assign_sparse(
                track_idxs.len(),
                det_idxs.len(),
                &self.scratch.edges,
                &mut self.scratch.assign,
            );
            for &(sub_t, sub_d) in matches {
                let ti = track_idxs[sub_t as usize];
                let di = det_idxs[sub_d as usize];
                self.manager.commit_match(
                    ti,
                    &detections[di],
                    Some(det_features[di].clone()),
                    self.config.feature_momentum,
                );
                det_matched[di] = true;
            }
        }

        for (di, d) in detections.iter().enumerate() {
            if !det_matched[di] {
                self.manager.spawn(d, Some(det_features[di].clone()));
            }
        }
        self.manager.finalize_frame();
    }

    fn finish(&mut self) -> TrackSet {
        self.scratch.assign.stats.flush(&tm_obs::current());
        self.manager.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trackers::track_video;
    use tm_reid::AppearanceConfig;
    use tm_types::{ids::classes, BBox, GtObjectId};

    fn model() -> AppearanceModel {
        AppearanceModel::new(AppearanceConfig::default())
    }

    fn det(frame: u64, x: f64, y: f64, actor: u64) -> Detection {
        Detection::of_actor(
            FrameIdx(frame),
            BBox::new(x, y, 40.0, 80.0),
            0.9,
            classes::PEDESTRIAN,
            1.0,
            GtObjectId(actor),
        )
    }

    #[test]
    fn clean_video_yields_one_track_per_actor() {
        let m = model();
        let frames: Vec<Vec<Detection>> = (0..50u64)
            .map(|f| {
                vec![
                    det(f, 10.0 + 3.0 * f as f64, 100.0, 1),
                    det(f, 10.0 + 3.0 * f as f64, 500.0, 2),
                ]
            })
            .collect();
        let mut ds = DeepSort::new(DeepSortConfig::default(), &m);
        let tracks = track_video(&mut ds, &frames);
        assert_eq!(tracks.len(), 2);
        for t in tracks.iter() {
            assert_eq!(t.majority_actor().unwrap().1, 50);
        }
    }

    #[test]
    fn bridges_gaps_that_fragment_sort() {
        // A 10-frame gap: SORT (max_age 3) splits, DeepSORT (max_age 15 +
        // appearance) must bridge.
        let m = model();
        let mut frames: Vec<Vec<Detection>> = Vec::new();
        for f in 0..60u64 {
            if (25..35).contains(&f) {
                frames.push(vec![]);
            } else {
                frames.push(vec![det(f, 10.0 + 3.0 * f as f64, 100.0, 1)]);
            }
        }
        let mut ds = DeepSort::new(DeepSortConfig::default(), &m);
        let tracks = track_video(&mut ds, &frames);
        assert_eq!(tracks.len(), 1, "DeepSORT should coast over a 10-frame gap");
    }

    #[test]
    fn fragments_beyond_patience() {
        let m = model();
        let mut frames: Vec<Vec<Detection>> = Vec::new();
        for f in 0..100u64 {
            if (30..60).contains(&f) {
                frames.push(vec![]);
            } else {
                frames.push(vec![det(f, 10.0 + 3.0 * f as f64, 100.0, 1)]);
            }
        }
        let mut ds = DeepSort::new(DeepSortConfig::default(), &m);
        let tracks = track_video(&mut ds, &frames);
        assert_eq!(
            tracks.len(),
            2,
            "a 30-frame gap exceeds DeepSORT's patience"
        );
    }

    #[test]
    fn appearance_prevents_swap_on_crossing() {
        // Two visually distinct actors crossing: appearance keeps identities.
        let m = model();
        let frames: Vec<Vec<Detection>> = (0..40u64)
            .map(|f| {
                vec![
                    det(f, 10.0 + 5.0 * f as f64, 100.0, 1),
                    det(f, 210.0 - 5.0 * f as f64, 100.0, 2),
                ]
            })
            .collect();
        let mut ds = DeepSort::new(DeepSortConfig::default(), &m);
        let tracks = track_video(&mut ds, &frames);
        // Identity purity: every track is dominated by one actor with at
        // least 80% of its boxes.
        for t in tracks.iter() {
            let (_, votes) = t.majority_actor().unwrap();
            assert!(
                votes as f64 / t.len() as f64 > 0.8,
                "track {} is mixed ({votes}/{})",
                t.id,
                t.len()
            );
        }
    }

    #[test]
    fn deterministic() {
        let m = model();
        let frames: Vec<Vec<Detection>> = (0..30u64)
            .map(|f| vec![det(f, 10.0 + 3.0 * f as f64, 100.0, 1)])
            .collect();
        let a = track_video(&mut DeepSort::new(DeepSortConfig::default(), &m), &frames);
        let b = track_video(&mut DeepSort::new(DeepSortConfig::default(), &m), &frames);
        assert_eq!(a, b);
    }
}
