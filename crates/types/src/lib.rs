//! # tm-types
//!
//! Shared vocabulary for the `tmerge` workspace: 2-D geometry ([`Point`],
//! [`BBox`]), strongly-typed identifiers ([`FrameIdx`], [`TrackId`],
//! [`GtObjectId`], [`ClassId`]), per-frame [`Detection`]s and the [`Track`] /
//! [`TrackSet`] structures every other crate consumes.
//!
//! The crate has no dependencies by design, so that every layer of the
//! system — world simulator, detector, trackers, ReID, merging, metrics,
//! queries — speaks the same types without pulling in each other's
//! machinery.
//!
//! ## Conventions
//!
//! * Coordinates are `f64` pixels with the origin at the **top-left** of the
//!   camera frame; `x` grows right, `y` grows down (image convention).
//! * A [`BBox`] is stored as `(x, y, w, h)` where `(x, y)` is the top-left
//!   corner. Width/height are kept non-negative by construction helpers.
//! * Frames are indexed from `0` with [`FrameIdx`].
//! * Tracking IDs ([`TrackId`]) are assigned by trackers and are unique per
//!   video; ground-truth object identities ([`GtObjectId`]) are assigned by
//!   the world simulator and are the hidden truth trackers try to recover.

pub mod detection;
pub mod error;
pub mod geometry;
pub mod ids;
pub mod motchallenge;
pub mod pair;
pub mod simd;
pub mod track;

pub use detection::Detection;
pub use error::{Result, TmError, TrackDefect};
pub use geometry::{BBox, Point};
pub use ids::{ClassId, FrameIdx, GtObjectId, TrackId, CAMERA_STRIDE};
pub use motchallenge::{parse_motchallenge, write_motchallenge};
pub use pair::TrackPair;
pub use track::{FrameIndex, Track, TrackBox, TrackSet};
