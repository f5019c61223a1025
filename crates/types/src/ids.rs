//! Strongly-typed identifiers.
//!
//! Newtypes keep the many integer identity spaces in this system from being
//! confused with one another: frame indices, tracker-assigned track IDs,
//! simulator-assigned ground-truth object IDs and object class IDs are all
//! distinct types that only convert explicitly.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub $inner);

        impl $name {
            /// Wraps a raw value.
            pub const fn new(v: $inner) -> Self {
                Self(v)
            }

            /// Unwraps to the raw value.
            pub const fn get(self) -> $inner {
                self.0
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Zero-based index of a frame within a video or stream.
    FrameIdx,
    u64,
    "f"
);

id_newtype!(
    /// A tracking identifier (TID) assigned by a tracking algorithm.
    ///
    /// Distinct [`TrackId`]s *should* mean distinct physical objects; the
    /// track-fragmentation problem is precisely that a single object ends up
    /// with several TIDs — the polyonymous tracks TMerge identifies.
    TrackId,
    u64,
    "t"
);

id_newtype!(
    /// A ground-truth object identity assigned by the world simulator.
    ///
    /// This is the hidden variable trackers try to recover. It is carried as
    /// a simulation side-channel on detections and track boxes for use by
    /// the ReID simulator and the evaluation metrics only — trackers and the
    /// merging algorithms never consult it.
    GtObjectId,
    u64,
    "g"
);

id_newtype!(
    /// An object class (pedestrian, car, ...).
    ClassId,
    u16,
    "c"
);

impl FrameIdx {
    /// The frame `n` steps later.
    pub const fn plus(self, n: u64) -> FrameIdx {
        FrameIdx(self.0 + n)
    }

    /// Signed distance in frames from `other` to `self`.
    pub fn delta(self, other: FrameIdx) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

/// Per-camera [`TrackId`] namespace stride for cross-camera (global)
/// identity resolution.
///
/// A fleet of cameras each assigns local track ids independently; the
/// global merging layer works over the disjoint union of those id
/// spaces, mapping local id `t` of camera `c` to
/// `c * CAMERA_STRIDE + t`. Camera `0`'s namespace is the identity map,
/// so a single-camera deployment sees exactly its local ids. Local ids
/// must stay below the stride (2⁴⁰ ≈ 10¹²; synthetic and real trackers
/// are far below it).
pub const CAMERA_STRIDE: u64 = 1 << 40;

impl TrackId {
    /// This local id lifted into camera `camera`'s global namespace.
    pub const fn in_camera(self, camera: u64) -> TrackId {
        TrackId(camera * CAMERA_STRIDE + self.0)
    }

    /// The camera index encoded in a global (namespaced) id.
    pub const fn camera(self) -> u64 {
        self.0 / CAMERA_STRIDE
    }

    /// The camera-local id encoded in a global (namespaced) id.
    pub const fn local(self) -> TrackId {
        TrackId(self.0 % CAMERA_STRIDE)
    }
}

/// Well-known class IDs used by the synthetic scenarios.
pub mod classes {
    use super::ClassId;

    /// A person on foot (MOT-17 / PathTrack style scenes).
    pub const PEDESTRIAN: ClassId = ClassId(1);
    /// A passenger car (KITTI style scenes).
    pub const CAR: ClassId = ClassId(2);
    /// A cyclist.
    pub const CYCLIST: ClassId = ClassId(3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(FrameIdx(7).to_string(), "f7");
        assert_eq!(TrackId(3).to_string(), "t3");
        assert_eq!(GtObjectId(9).to_string(), "g9");
        assert_eq!(ClassId(1).to_string(), "c1");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(TrackId(2) < TrackId(10));
        assert!(FrameIdx(0) < FrameIdx(1));
    }

    #[test]
    fn frame_arithmetic() {
        assert_eq!(FrameIdx(5).plus(3), FrameIdx(8));
        assert_eq!(FrameIdx(5).delta(FrameIdx(8)), -3);
        assert_eq!(FrameIdx(8).delta(FrameIdx(5)), 3);
    }

    #[test]
    fn camera_namespacing_round_trips() {
        let t = TrackId(12_345);
        let g = t.in_camera(7);
        assert_eq!(g.camera(), 7);
        assert_eq!(g.local(), t);
        // Camera 0 is the identity namespace.
        assert_eq!(t.in_camera(0), t);
        // Distinct cameras never collide.
        assert_ne!(t.in_camera(1), t.in_camera(2));
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property; this test documents the intent.
        let t = TrackId(1);
        let g = GtObjectId(1);
        assert_eq!(t.get(), g.get());
    }

    #[test]
    #[ignore = "needs real serde_json: the offline stub under stubs/serde_json only \
                typechecks (to_string returns an error), so transparent newtype JSON \
                cannot be observed; re-enable when building against crates.io"]
    fn serde_is_transparent() {
        let json = serde_json::to_string(&TrackId(42)).unwrap();
        assert_eq!(json, "42");
        let back: TrackId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, TrackId(42));
    }
}
