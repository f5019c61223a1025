//! Tracks — sequences of boxes sharing a tracking identifier — and sets of
//! tracks, the central data structure handed from trackers to TMerge and on
//! to metrics and query processing.

use crate::{BBox, ClassId, FrameIdx, GtObjectId, Point, Result, TmError, TrackDefect, TrackId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One observation of a track in one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackBox {
    /// Frame of the observation.
    pub frame: FrameIdx,
    /// The box the tracker committed for this frame.
    pub bbox: BBox,
    /// Confidence of the underlying detection (1.0 for coasted/predicted
    /// boxes some trackers emit).
    pub confidence: f64,
    /// Visibility of the underlying detection (see [`crate::Detection`]).
    pub visibility: f64,
    /// Simulation side-channel: GT actor behind the underlying detection.
    pub provenance: Option<GtObjectId>,
}

impl TrackBox {
    /// Creates a track box.
    pub fn new(frame: FrameIdx, bbox: BBox) -> Self {
        Self {
            frame,
            bbox,
            confidence: 1.0,
            visibility: 1.0,
            provenance: None,
        }
    }

    /// Attaches a provenance actor (builder style).
    pub fn with_provenance(mut self, actor: GtObjectId) -> Self {
        self.provenance = Some(actor);
        self
    }

    /// Sets visibility (builder style).
    pub fn with_visibility(mut self, v: f64) -> Self {
        self.visibility = v.clamp(0.0, 1.0);
        self
    }

    /// Sets confidence (builder style).
    pub fn with_confidence(mut self, c: f64) -> Self {
        self.confidence = c.clamp(0.0, 1.0);
        self
    }
}

/// A track: the boxes a tracker assigned to one tracking identifier, in
/// frame order.
///
/// The paper denotes a track `t_{c,k}` and its box sequence `B_{t_{c,k}}`
/// (`Track::boxes` here). Boxes are kept sorted by frame; [`Track::push`]
/// maintains the invariant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Track {
    /// The tracking identifier (TID).
    pub id: TrackId,
    /// Object class the tracker committed for this track.
    pub class: ClassId,
    /// Observations in ascending frame order.
    pub boxes: Vec<TrackBox>,
}

impl Track {
    /// Creates an empty track.
    pub fn new(id: TrackId, class: ClassId) -> Self {
        Self {
            id,
            class,
            boxes: Vec::new(),
        }
    }

    /// Creates a track from pre-sorted boxes (sorted defensively).
    pub fn with_boxes(id: TrackId, class: ClassId, mut boxes: Vec<TrackBox>) -> Self {
        boxes.sort_by_key(|b| b.frame);
        Self { id, class, boxes }
    }

    /// Appends an observation, keeping boxes sorted by frame.
    pub fn push(&mut self, tb: TrackBox) {
        match self.boxes.last() {
            Some(last) if last.frame > tb.frame => {
                let pos = self.boxes.partition_point(|b| b.frame <= tb.frame);
                self.boxes.insert(pos, tb);
            }
            _ => self.boxes.push(tb),
        }
    }

    /// Number of observations, `|t|` in the paper.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True when the track has no observations.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// First observation.
    pub fn first(&self) -> Option<&TrackBox> {
        self.boxes.first()
    }

    /// Last observation.
    pub fn last(&self) -> Option<&TrackBox> {
        self.boxes.last()
    }

    /// First frame the track appears in.
    pub fn first_frame(&self) -> Option<FrameIdx> {
        self.first().map(|b| b.frame)
    }

    /// Last frame the track appears in.
    pub fn last_frame(&self) -> Option<FrameIdx> {
        self.last().map(|b| b.frame)
    }

    /// Temporal span in frames (inclusive): `last - first + 1`; 0 if empty.
    pub fn span(&self) -> u64 {
        match (self.first_frame(), self.last_frame()) {
            (Some(a), Some(z)) => z.get() - a.get() + 1,
            _ => 0,
        }
    }

    /// The observation at exactly `frame`, if any (binary search).
    pub fn box_at(&self, frame: FrameIdx) -> Option<&TrackBox> {
        self.boxes
            .binary_search_by_key(&frame, |b| b.frame)
            .ok()
            .map(|i| &self.boxes[i])
    }

    /// True when the track has an observation in `frame`.
    pub fn present_at(&self, frame: FrameIdx) -> bool {
        self.box_at(frame).is_some()
    }

    /// True when any observation falls inside `[start, end)` (frame range).
    pub fn overlaps_range(&self, start: FrameIdx, end: FrameIdx) -> bool {
        match (self.first_frame(), self.last_frame()) {
            (Some(a), Some(z)) => a < end && z >= start,
            _ => false,
        }
    }

    /// Centre of the first box — used for the spatial distance `DisS`.
    pub fn first_center(&self) -> Option<Point> {
        self.first().map(|b| b.bbox.center())
    }

    /// Centre of the last box — used for the spatial distance `DisS`.
    pub fn last_center(&self) -> Option<Point> {
        self.last().map(|b| b.bbox.center())
    }

    /// The GT actor this track covers most, with the number of covered
    /// boxes attributed to it. Boxes without provenance (false positives)
    /// are ignored. Returns `None` when no box has provenance.
    ///
    /// This majority vote is the simulator-exact analogue of the manual
    /// GT-correspondence labelling the paper performs with CLEAR-MOT
    /// tooling [30].
    pub fn majority_actor(&self) -> Option<(GtObjectId, usize)> {
        let mut counts: HashMap<GtObjectId, usize> = HashMap::new();
        for b in &self.boxes {
            if let Some(g) = b.provenance {
                *counts.entry(g).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            // Deterministic tie-break: highest count, then smallest id.
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }
}

/// An indexed collection of tracks, the unit handed between pipeline stages.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrackSet {
    tracks: Vec<Track>,
    #[serde(skip)]
    index: HashMap<TrackId, usize>,
}

impl TrackSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from tracks; later duplicates of an id replace earlier
    /// entries (the index always points at the surviving track).
    pub fn from_tracks(tracks: Vec<Track>) -> Self {
        let mut set = Self::new();
        for t in tracks {
            set.insert(t);
        }
        set
    }

    /// Inserts (or replaces) a track.
    pub fn insert(&mut self, track: Track) {
        match self.index.get(&track.id) {
            Some(&i) => self.tracks[i] = track,
            None => {
                self.index.insert(track.id, self.tracks.len());
                self.tracks.push(track);
            }
        }
    }

    /// Number of tracks.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// True when the set holds no tracks.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Looks a track up by id.
    pub fn get(&self, id: TrackId) -> Option<&Track> {
        self.index.get(&id).map(|&i| &self.tracks[i])
    }

    /// Looks a track up by id, erroring when absent.
    pub fn require(&self, id: TrackId) -> Result<&Track> {
        self.get(id).ok_or(TmError::UnknownTrack(id))
    }

    /// Iterates tracks in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Track> {
        self.tracks.iter()
    }

    /// All track ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = TrackId> + '_ {
        self.tracks.iter().map(|t| t.id)
    }

    /// Tracks whose lifetime intersects the frame range `[start, end)`, in
    /// insertion order: a linear filter over the whole set, which is how
    /// window pair construction finds each window's tracks. Per-frame
    /// loops should build a [`FrameIndex`] once instead.
    pub fn overlapping_range(
        &self,
        start: FrameIdx,
        end: FrameIdx,
    ) -> impl Iterator<Item = &Track> {
        self.iter().filter(move |t| t.overlaps_range(start, end))
    }

    /// Builds a [`FrameIndex`] over the current tracks. The index borrows
    /// the set and is a snapshot: inserting tracks afterwards requires
    /// rebuilding it.
    pub fn frame_index(&self) -> FrameIndex<'_> {
        FrameIndex::build(self)
    }

    /// Total number of boxes across all tracks.
    pub fn total_boxes(&self) -> usize {
        self.tracks.iter().map(Track::len).sum()
    }

    /// Applies a track-id relabelling, concatenating tracks that map to the
    /// same new id (their boxes are merged in frame order; the class of the
    /// first contributing track wins). Ids absent from `mapping` keep their
    /// original id.
    ///
    /// This is how accepted TMerge candidates are materialized into a
    /// corrected track set.
    pub fn relabeled(&self, mapping: &HashMap<TrackId, TrackId>) -> TrackSet {
        let mut merged: HashMap<TrackId, Track> = HashMap::new();
        let mut order: Vec<TrackId> = Vec::new();
        for t in &self.tracks {
            let new_id = *mapping.get(&t.id).unwrap_or(&t.id);
            let entry = merged.entry(new_id).or_insert_with(|| {
                order.push(new_id);
                Track::new(new_id, t.class)
            });
            entry.boxes.extend(t.boxes.iter().copied());
        }
        let mut out = TrackSet::new();
        for id in order {
            let mut t = merged.remove(&id).expect("id recorded in order");
            t.boxes.sort_by_key(|b| b.frame);
            out.insert(t);
        }
        out
    }

    /// The same tracks lifted into camera `camera`'s global id namespace
    /// (see [`crate::ids::CAMERA_STRIDE`]). Boxes and classes are
    /// untouched; only ids move. Camera `0` is the identity map.
    pub fn in_camera(&self, camera: u64) -> TrackSet {
        TrackSet::from_tracks(
            self.tracks
                .iter()
                .map(|t| {
                    let mut t = t.clone();
                    t.id = t.id.in_camera(camera);
                    t
                })
                .collect(),
        )
    }

    /// Consumes the set, returning the tracks in insertion order.
    pub fn into_tracks(self) -> Vec<Track> {
        self.tracks
    }

    /// Structural validation of tracker output, run at pipeline entry so
    /// corrupt input fails fast with context instead of panicking (or
    /// silently merging garbage) deep in the assignment core.
    ///
    /// Checks, per track and in frame order:
    /// * every box coordinate and extent is finite
    ///   ([`TrackDefect::NonFiniteBox`]);
    /// * every box has positive width and height
    ///   ([`TrackDefect::EmptyExtent`]);
    /// * no two observations share a frame
    ///   ([`TrackDefect::DuplicateFrame`]);
    /// * frames are in ascending order ([`TrackDefect::UnorderedFrames`]
    ///   — reachable because `Track::boxes` is a public field, so callers
    ///   can break the sort invariant the constructors maintain).
    ///
    /// Empty tracks are fine (the pipeline scores them conservatively).
    /// Returns the first defect found; `Ok(())` on clean input.
    pub fn validate(&self) -> Result<()> {
        for t in &self.tracks {
            let mut prev: Option<FrameIdx> = None;
            for b in &t.boxes {
                let defect = if !(b.bbox.x.is_finite()
                    && b.bbox.y.is_finite()
                    && b.bbox.w.is_finite()
                    && b.bbox.h.is_finite())
                {
                    Some(TrackDefect::NonFiniteBox)
                } else if b.bbox.w <= 0.0 || b.bbox.h <= 0.0 {
                    Some(TrackDefect::EmptyExtent)
                } else if prev == Some(b.frame) {
                    Some(TrackDefect::DuplicateFrame)
                } else if prev.is_some_and(|p| p > b.frame) {
                    Some(TrackDefect::UnorderedFrames)
                } else {
                    None
                };
                if let Some(defect) = defect {
                    return Err(TmError::InvalidTrack {
                        track: t.id,
                        frame: b.frame,
                        defect,
                    });
                }
                prev = Some(b.frame);
            }
        }
        Ok(())
    }
}

impl FromIterator<Track> for TrackSet {
    fn from_iter<I: IntoIterator<Item = Track>>(iter: I) -> Self {
        Self::from_tracks(iter.into_iter().collect())
    }
}

/// A per-frame index over a [`TrackSet`] snapshot: the boxes present in
/// one frame ([`FrameIndex::boxes_at`], in track insertion order, which is
/// what the metric loops historically iterated), the position of a given
/// track id inside that frame's list ([`FrameIndex::position_at`],
/// replacing the per-frame linear `position()` scans of the CLEAR-MOT
/// sticky pass) and co-frame crowding ([`FrameIndex::crowding`], the
/// extraction gate's ambiguity signal), all without rescanning every track.
///
/// Tracks are addressed by their *position* (insertion order index) in the
/// underlying set; [`FrameIndex::track`] resolves a position back to the
/// track.
#[derive(Debug, Clone)]
pub struct FrameIndex<'a> {
    set: &'a TrackSet,
    /// Sorted distinct frames that hold at least one box.
    frame_keys: Vec<u64>,
    /// CSR offsets into `frame_entries` / `frame_by_id`.
    frame_starts: Vec<u32>,
    /// Per frame: `(track position, box)` in track insertion order (a
    /// track with several boxes in one frame contributes them in box
    /// order).
    frame_entries: Vec<(u32, BBox)>,
    /// Per frame: `(track id, local index into the frame's entry slice)`,
    /// sorted by (id, local index) for binary lookup.
    frame_by_id: Vec<(TrackId, u32)>,
}

impl<'a> FrameIndex<'a> {
    fn build(set: &'a TrackSet) -> Self {
        // Per-frame CSR: distinct frames, then a stable counting-sort
        // scatter so each frame's entries keep track insertion order.
        let mut frame_keys: Vec<u64> = set
            .tracks
            .iter()
            .flat_map(|t| t.boxes.iter().map(|b| b.frame.get()))
            .collect();
        frame_keys.sort_unstable();
        frame_keys.dedup();
        let mut counts = vec![0u32; frame_keys.len() + 1];
        for t in &set.tracks {
            for b in &t.boxes {
                let k = frame_keys
                    .binary_search(&b.frame.get())
                    .expect("frame key present");
                counts[k + 1] += 1;
            }
        }
        for k in 0..frame_keys.len() {
            counts[k + 1] += counts[k];
        }
        let frame_starts = counts;
        let total = *frame_starts.last().unwrap_or(&0) as usize;
        let mut cursor = frame_starts.clone();
        let mut frame_entries = vec![(0u32, BBox::new(0.0, 0.0, 0.0, 0.0)); total];
        for (pos, t) in set.tracks.iter().enumerate() {
            for b in &t.boxes {
                let k = frame_keys
                    .binary_search(&b.frame.get())
                    .expect("frame key present");
                frame_entries[cursor[k] as usize] = (pos as u32, b.bbox);
                cursor[k] += 1;
            }
        }
        let mut frame_by_id: Vec<(TrackId, u32)> = Vec::with_capacity(total);
        for k in 0..frame_keys.len() {
            let (s, e) = (frame_starts[k] as usize, frame_starts[k + 1] as usize);
            let base = frame_by_id.len();
            for (local, &(pos, _)) in frame_entries[s..e].iter().enumerate() {
                frame_by_id.push((set.tracks[pos as usize].id, local as u32));
            }
            frame_by_id[base..].sort_unstable();
        }

        Self {
            set,
            frame_keys,
            frame_starts,
            frame_entries,
            frame_by_id,
        }
    }

    /// The underlying track at insertion position `pos`.
    pub fn track(&self, pos: u32) -> &'a Track {
        &self.set.tracks[pos as usize]
    }

    /// The last frame holding any box, if the set is non-empty.
    pub fn max_frame(&self) -> Option<FrameIdx> {
        self.frame_keys.last().map(|&f| FrameIdx(f))
    }

    /// The boxes present in `frame` as `(track position, box)`, in track
    /// insertion order; empty for frames holding no box.
    pub fn boxes_at(&self, frame: FrameIdx) -> &[(u32, BBox)] {
        match self.frame_keys.binary_search(&frame.get()) {
            Ok(k) => {
                &self.frame_entries
                    [self.frame_starts[k] as usize..self.frame_starts[k + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Co-frame crowding around `bbox` in `frame`: the number of boxes
    /// belonging to *other* tracks that overlap it at all, and the best
    /// such IoU. `(0, 0.0)` for an isolated box. Boxes of the excluded
    /// track itself never count, so a track with several boxes in one
    /// frame does not crowd itself.
    pub fn crowding(&self, frame: FrameIdx, exclude: TrackId, bbox: &BBox) -> (usize, f64) {
        let mut partners = 0usize;
        let mut best = 0.0f64;
        for &(pos, ref other) in self.boxes_at(frame) {
            if self.track(pos).id == exclude {
                continue;
            }
            let iou = bbox.iou(other);
            if iou > 0.0 {
                partners += 1;
                if iou > best {
                    best = iou;
                }
            }
        }
        (partners, best)
    }

    /// The first position of track `id` inside `frame`'s
    /// [`FrameIndex::boxes_at`] slice, if the track has a box there.
    pub fn position_at(&self, frame: FrameIdx, id: TrackId) -> Option<u32> {
        let k = self.frame_keys.binary_search(&frame.get()).ok()?;
        let slice =
            &self.frame_by_id[self.frame_starts[k] as usize..self.frame_starts[k + 1] as usize];
        let at = slice.partition_point(|&(tid, _)| tid < id);
        match slice.get(at) {
            Some(&(tid, local)) if tid == id => Some(local),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(frame: u64, x: f64) -> TrackBox {
        TrackBox::new(FrameIdx(frame), BBox::new(x, 0.0, 10.0, 10.0))
    }

    fn track(id: u64, frames: &[u64]) -> Track {
        Track::with_boxes(
            TrackId(id),
            ClassId(1),
            frames.iter().map(|&f| tb(f, f as f64)).collect(),
        )
    }

    #[test]
    fn push_keeps_frame_order() {
        let mut t = Track::new(TrackId(1), ClassId(1));
        t.push(tb(5, 0.0));
        t.push(tb(2, 0.0));
        t.push(tb(9, 0.0));
        let frames: Vec<u64> = t.boxes.iter().map(|b| b.frame.get()).collect();
        assert_eq!(frames, vec![2, 5, 9]);
    }

    #[test]
    fn span_and_endpoints() {
        let t = track(1, &[10, 12, 20]);
        assert_eq!(t.first_frame(), Some(FrameIdx(10)));
        assert_eq!(t.last_frame(), Some(FrameIdx(20)));
        assert_eq!(t.span(), 11);
        assert_eq!(Track::new(TrackId(2), ClassId(1)).span(), 0);
    }

    #[test]
    fn box_at_uses_binary_search() {
        let t = track(1, &[1, 3, 5, 7]);
        assert!(t.box_at(FrameIdx(5)).is_some());
        assert!(t.box_at(FrameIdx(4)).is_none());
        assert!(t.present_at(FrameIdx(7)));
    }

    #[test]
    fn overlaps_range_boundaries() {
        let t = track(1, &[10, 20]);
        assert!(t.overlaps_range(FrameIdx(0), FrameIdx(11)));
        assert!(t.overlaps_range(FrameIdx(20), FrameIdx(21)));
        assert!(!t.overlaps_range(FrameIdx(0), FrameIdx(10)));
        assert!(!t.overlaps_range(FrameIdx(21), FrameIdx(30)));
    }

    #[test]
    fn majority_actor_votes_and_breaks_ties_deterministically() {
        let mut t = Track::new(TrackId(1), ClassId(1));
        t.push(tb(0, 0.0).with_provenance(GtObjectId(7)));
        t.push(tb(1, 0.0).with_provenance(GtObjectId(7)));
        t.push(tb(2, 0.0).with_provenance(GtObjectId(9)));
        t.push(tb(3, 0.0)); // false positive, ignored
        assert_eq!(t.majority_actor(), Some((GtObjectId(7), 2)));

        // Tie: smaller id wins.
        let mut tie = Track::new(TrackId(2), ClassId(1));
        tie.push(tb(0, 0.0).with_provenance(GtObjectId(9)));
        tie.push(tb(1, 0.0).with_provenance(GtObjectId(3)));
        assert_eq!(tie.majority_actor().unwrap().0, GtObjectId(3));
    }

    #[test]
    fn majority_actor_none_for_pure_fp_track() {
        let mut t = Track::new(TrackId(1), ClassId(1));
        t.push(tb(0, 0.0));
        assert_eq!(t.majority_actor(), None);
    }

    #[test]
    fn trackset_insert_replaces_by_id() {
        let mut s = TrackSet::new();
        s.insert(track(1, &[0]));
        s.insert(track(2, &[0, 1]));
        s.insert(track(1, &[0, 1, 2]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(TrackId(1)).unwrap().len(), 3);
    }

    #[test]
    fn trackset_require_errors_on_missing() {
        let s = TrackSet::new();
        assert_eq!(
            s.require(TrackId(4)).unwrap_err(),
            TmError::UnknownTrack(TrackId(4))
        );
    }

    #[test]
    fn relabel_merges_and_sorts() {
        let s = TrackSet::from_tracks(vec![track(1, &[0, 1]), track(2, &[5, 6]), track(3, &[3])]);
        let mut map = HashMap::new();
        map.insert(TrackId(2), TrackId(1));
        map.insert(TrackId(3), TrackId(1));
        let out = s.relabeled(&map);
        assert_eq!(out.len(), 1);
        let t = out.get(TrackId(1)).unwrap();
        let frames: Vec<u64> = t.boxes.iter().map(|b| b.frame.get()).collect();
        assert_eq!(frames, vec![0, 1, 3, 5, 6]);
    }

    #[test]
    fn relabel_identity_preserves_everything() {
        let s = TrackSet::from_tracks(vec![track(1, &[0]), track(2, &[4])]);
        let out = s.relabeled(&HashMap::new());
        assert_eq!(out.len(), 2);
        assert_eq!(out.total_boxes(), 2);
    }

    #[test]
    fn overlapping_range_filters() {
        let s = TrackSet::from_tracks(vec![track(1, &[0, 5]), track(2, &[100, 110])]);
        let hits: Vec<TrackId> = s
            .overlapping_range(FrameIdx(0), FrameIdx(50))
            .map(|t| t.id)
            .collect();
        assert_eq!(hits, vec![TrackId(1)]);
    }

    mod frame_index {
        use super::*;
        use proptest::prelude::*;

        #[test]
        fn boxes_at_preserves_insertion_order() {
            let s =
                TrackSet::from_tracks(vec![track(9, &[0, 1]), track(2, &[1, 2]), track(5, &[1])]);
            let idx = s.frame_index();
            let at1: Vec<TrackId> = idx
                .boxes_at(FrameIdx(1))
                .iter()
                .map(|&(pos, _)| idx.track(pos).id)
                .collect();
            assert_eq!(at1, vec![TrackId(9), TrackId(2), TrackId(5)]);
            assert!(idx.boxes_at(FrameIdx(7)).is_empty());
            assert_eq!(idx.max_frame(), Some(FrameIdx(2)));
        }

        #[test]
        fn position_at_finds_first_duplicate() {
            // One track with two boxes in the same frame: position_at must
            // return the first, like the linear scans it replaces.
            let mut t = track(3, &[4]);
            t.boxes.push(tb(4, 50.0));
            let s = TrackSet::from_tracks(vec![track(1, &[4]), t]);
            let idx = s.frame_index();
            assert_eq!(idx.position_at(FrameIdx(4), TrackId(3)), Some(1));
            assert_eq!(idx.position_at(FrameIdx(4), TrackId(1)), Some(0));
            assert_eq!(idx.position_at(FrameIdx(4), TrackId(9)), None);
            assert_eq!(idx.position_at(FrameIdx(5), TrackId(1)), None);
        }

        #[test]
        fn empty_set_and_empty_tracks() {
            let idx_owner = TrackSet::new();
            let idx = idx_owner.frame_index();
            assert_eq!(idx.max_frame(), None);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Per-frame lookups agree with scanning every track.
            #[test]
            fn per_frame_queries_equal_linear_scan(
                spans in proptest::collection::vec((0u64..50, 0u64..10), 0..12),
                frame in 0u64..60,
            ) {
                let tracks: Vec<Track> = spans
                    .iter()
                    .enumerate()
                    .map(|(i, &(first, span))| {
                        let frames: Vec<u64> = (first..=first + span).collect();
                        track(i as u64 + 1, &frames)
                    })
                    .collect();
                let s = TrackSet::from_tracks(tracks);
                let idx = s.frame_index();
                let frame = FrameIdx(frame);
                let expected: Vec<(TrackId, BBox)> = s
                    .iter()
                    .flat_map(|t| {
                        t.boxes
                            .iter()
                            .filter(|b| b.frame == frame)
                            .map(|b| (t.id, b.bbox))
                    })
                    .collect();
                let got: Vec<(TrackId, BBox)> = idx
                    .boxes_at(frame)
                    .iter()
                    .map(|&(pos, b)| (idx.track(pos).id, b))
                    .collect();
                prop_assert_eq!(&got, &expected);
                for t in s.iter() {
                    let naive = got.iter().position(|&(id, _)| id == t.id);
                    prop_assert_eq!(
                        idx.position_at(frame, t.id).map(|p| p as usize),
                        naive
                    );
                }
            }
        }
    }
}
