//! Per-frame detections — the interface between the detector and trackers.

use crate::{BBox, ClassId, FrameIdx, GtObjectId};

/// One detected object instance in one frame.
///
/// This is exactly what a CNN detector would emit: a box, a confidence and a
/// class. The extra [`Detection::provenance`] field is a **simulation
/// side-channel**: the ground-truth identity of the actor that produced this
/// detection (or `None` for a false positive). It exists so that the ReID
/// simulator can synthesize appearance features and so the metrics can score
/// tracker output against truth. Trackers and the merging algorithms must
/// not — and in this codebase do not — consult it for association decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Frame in which the object was detected.
    pub frame: FrameIdx,
    /// The detected bounding box (already clipped to the camera viewport).
    pub bbox: BBox,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
    /// Detected object class.
    pub class: ClassId,
    /// Fraction of the true object visible when this detection was made,
    /// in `[0, 1]`; `1.0` for fully visible, lower under occlusion or frame
    /// truncation. Drives appearance-noise amplification in the ReID
    /// simulator. `0.0` for false positives.
    pub visibility: f64,
    /// Simulation side-channel: which GT actor produced this detection.
    /// `None` for detector false positives.
    pub provenance: Option<GtObjectId>,
}

impl Detection {
    /// Creates a detection attributed to a ground-truth actor.
    pub fn of_actor(
        frame: FrameIdx,
        bbox: BBox,
        confidence: f64,
        class: ClassId,
        visibility: f64,
        actor: GtObjectId,
    ) -> Self {
        Self {
            frame,
            bbox,
            confidence: confidence.clamp(0.0, 1.0),
            class,
            visibility: visibility.clamp(0.0, 1.0),
            provenance: Some(actor),
        }
    }

    /// Creates a false-positive detection (no underlying actor).
    pub fn false_positive(frame: FrameIdx, bbox: BBox, confidence: f64, class: ClassId) -> Self {
        Self {
            frame,
            bbox,
            confidence: confidence.clamp(0.0, 1.0),
            class,
            visibility: 0.0,
            provenance: None,
        }
    }

    /// True when this detection stems from a real actor.
    pub fn is_true_positive(&self) -> bool {
        self.provenance.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_actor_clamps_confidence_and_visibility() {
        let d = Detection::of_actor(
            FrameIdx(0),
            BBox::new(0.0, 0.0, 10.0, 10.0),
            1.7,
            ClassId(1),
            -0.2,
            GtObjectId(4),
        );
        assert_eq!(d.confidence, 1.0);
        assert_eq!(d.visibility, 0.0);
        assert!(d.is_true_positive());
    }

    #[test]
    fn false_positive_has_no_provenance() {
        let d =
            Detection::false_positive(FrameIdx(3), BBox::new(0.0, 0.0, 5.0, 5.0), 0.4, ClassId(1));
        assert!(!d.is_true_positive());
        assert_eq!(d.visibility, 0.0);
        assert_eq!(d.provenance, None);
    }
}
