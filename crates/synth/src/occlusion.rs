//! Occluders and glare events — the two scene phenomena the paper names as
//! root causes of track fragmentation (§I).
//!
//! An [`Occluder`] hides (part of) an actor geometrically; the detection
//! simulator then misses the actor for the occluded stretch, and once the
//! miss streak exceeds the tracker's patience the track is killed and the
//! object re-appears under a fresh TID — a polyonymous track pair.
//!
//! A [`GlareEvent`] models unfavourable lighting: inside its region and time
//! range, detection probability drops and ReID appearance noise rises.

use crate::motion::MotionModel;
use rand::Rng;
use tm_types::{BBox, FrameIdx};

/// A foreground object that hides actors behind it.
#[derive(Debug, Clone, PartialEq)]
pub enum Occluder {
    /// Fixed scene furniture: a pillar, a parked truck, a kiosk.
    Static {
        /// The occluding region, constant over the whole video.
        bbox: BBox,
    },
    /// A moving foreground object (e.g. a bus crossing the camera).
    Moving {
        /// Occluder width.
        w: f64,
        /// Occluder height.
        h: f64,
        /// Motion of the occluder's centre.
        motion: MotionModel,
        /// First frame the occluder exists.
        enter: FrameIdx,
        /// First frame after the occluder is gone (exclusive).
        exit: FrameIdx,
    },
}

impl Occluder {
    /// Convenience constructor for a static occluder.
    pub fn static_box(bbox: BBox) -> Self {
        Occluder::Static { bbox }
    }

    /// Materializes the occluder's box at every frame of an `n_frames`
    /// video. `None` where the occluder does not exist.
    pub fn boxes_per_frame<R: Rng + ?Sized>(
        &self,
        n_frames: u64,
        rng: &mut R,
    ) -> Vec<Option<BBox>> {
        match self {
            Occluder::Static { bbox } => vec![Some(*bbox); n_frames as usize],
            Occluder::Moving {
                w,
                h,
                motion,
                enter,
                exit,
            } => {
                let mut out = vec![None; n_frames as usize];
                let start = enter.get().min(n_frames);
                let end = exit.get().min(n_frames);
                if start >= end {
                    return out;
                }
                let centres = motion.positions(end - start, rng);
                for (i, c) in centres.iter().enumerate() {
                    out[(start + i as u64) as usize] = Some(BBox::from_center(c.x, c.y, *w, *h));
                }
                out
            }
        }
    }
}

/// Unfavourable lighting in a region for a stretch of frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlareEvent {
    /// The affected region of the camera frame.
    pub region: BBox,
    /// First affected frame.
    pub start: FrameIdx,
    /// First unaffected frame (exclusive).
    pub end: FrameIdx,
    /// Severity in `[0, 1]`: 1.0 washes detections out completely.
    pub intensity: f64,
}

impl GlareEvent {
    /// Creates a glare event, clamping intensity to `[0, 1]`.
    pub fn new(region: BBox, start: FrameIdx, end: FrameIdx, intensity: f64) -> Self {
        Self {
            region,
            start,
            end,
            intensity: intensity.clamp(0.0, 1.0),
        }
    }

    /// Glare severity applied to an object whose box is `bbox` at `frame`:
    /// the event's intensity scaled by how much of the box lies inside the
    /// glare region; 0 outside the time range.
    pub fn severity_at(&self, frame: FrameIdx, bbox: &BBox) -> f64 {
        if frame < self.start || frame >= self.end {
            return 0.0;
        }
        self.intensity * bbox.coverage_by(&self.region)
    }
}

/// Estimates the fraction of `target` covered by the union of `covers`,
/// by point sampling on a regular `GRID × GRID` lattice inside `target`.
///
/// Exact union-of-rectangles area is overkill here; an 8×8 lattice gives
/// visibility estimates within ~2% which is far below the noise the
/// detection simulator adds on top. Returns 0 for an empty target.
pub fn union_coverage(target: &BBox, covers: &[BBox]) -> f64 {
    const GRID: usize = 8;
    if target.is_empty() || covers.is_empty() {
        return 0.0;
    }
    let mut hit = 0usize;
    for gy in 0..GRID {
        // Sample at cell centres to avoid edge bias.
        let py = target.y + target.h * (gy as f64 + 0.5) / GRID as f64;
        for gx in 0..GRID {
            let px = target.x + target.w * (gx as f64 + 0.5) / GRID as f64;
            let p = tm_types::Point::new(px, py);
            if covers.iter().any(|c| c.contains(&p)) {
                hit += 1;
            }
        }
    }
    hit as f64 / (GRID * GRID) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tm_types::Point;

    #[test]
    fn static_occluder_exists_every_frame() {
        let o = Occluder::static_box(BBox::new(0.0, 0.0, 10.0, 10.0));
        let boxes = o.boxes_per_frame(5, &mut StdRng::seed_from_u64(0));
        assert_eq!(boxes.len(), 5);
        assert!(boxes.iter().all(|b| b.is_some()));
    }

    #[test]
    fn moving_occluder_respects_lifetime() {
        let o = Occluder::Moving {
            w: 10.0,
            h: 10.0,
            motion: MotionModel::linear(Point::new(0.0, 0.0), 5.0, 0.0),
            enter: FrameIdx(2),
            exit: FrameIdx(4),
        };
        let boxes = o.boxes_per_frame(6, &mut StdRng::seed_from_u64(0));
        assert!(boxes[0].is_none() && boxes[1].is_none());
        assert!(boxes[2].is_some() && boxes[3].is_some());
        assert!(boxes[4].is_none() && boxes[5].is_none());
        // Moves by vx between its frames.
        assert_eq!(boxes[2].unwrap().center(), Point::new(0.0, 0.0));
        assert_eq!(boxes[3].unwrap().center(), Point::new(5.0, 0.0));
    }

    #[test]
    fn moving_occluder_lifetime_clipped_to_video() {
        let o = Occluder::Moving {
            w: 1.0,
            h: 1.0,
            motion: MotionModel::parked(Point::new(0.0, 0.0)),
            enter: FrameIdx(10),
            exit: FrameIdx(50),
        };
        let boxes = o.boxes_per_frame(12, &mut StdRng::seed_from_u64(0));
        assert!(boxes[9].is_none());
        assert!(boxes[10].is_some() && boxes[11].is_some());
    }

    #[test]
    fn glare_severity_scales_with_overlap_and_time() {
        let g = GlareEvent::new(
            BBox::new(0.0, 0.0, 100.0, 100.0),
            FrameIdx(10),
            FrameIdx(20),
            0.8,
        );
        let fully_inside = BBox::new(10.0, 10.0, 20.0, 20.0);
        assert_eq!(g.severity_at(FrameIdx(9), &fully_inside), 0.0);
        assert_eq!(g.severity_at(FrameIdx(20), &fully_inside), 0.0);
        assert!((g.severity_at(FrameIdx(10), &fully_inside) - 0.8).abs() < 1e-12);
        let half_inside = BBox::new(90.0, 0.0, 20.0, 100.0);
        assert!((g.severity_at(FrameIdx(15), &half_inside) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn union_coverage_full_none_and_half() {
        let t = BBox::new(0.0, 0.0, 80.0, 80.0);
        assert_eq!(union_coverage(&t, &[]), 0.0);
        assert_eq!(
            union_coverage(&t, &[BBox::new(-1.0, -1.0, 100.0, 100.0)]),
            1.0
        );
        let half = union_coverage(&t, &[BBox::new(0.0, 0.0, 40.0, 80.0)]);
        assert!((half - 0.5).abs() < 0.05, "got {half}");
    }

    #[test]
    fn union_coverage_does_not_double_count() {
        let t = BBox::new(0.0, 0.0, 80.0, 80.0);
        let c = BBox::new(0.0, 0.0, 40.0, 80.0);
        // The same cover twice is still half coverage.
        let twice = union_coverage(&t, &[c, c]);
        assert!((twice - 0.5).abs() < 0.05, "got {twice}");
    }

    #[test]
    fn union_coverage_empty_target_is_zero() {
        let t = BBox::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(
            union_coverage(&t, &[BBox::new(-5.0, -5.0, 10.0, 10.0)]),
            0.0
        );
    }
}
