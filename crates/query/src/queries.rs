//! Query definitions and evaluation over a [`TrackSet`], as tracked or
//! through a merge relabelling.

use std::collections::HashMap;
use tm_types::{BBox, TrackId, TrackSet};

/// A declarative query over track metadata.
///
/// `PartialEq` only (not `Eq`): [`Query::RegionTransit`] carries an
/// [`BBox`] whose `f64` coordinates rule out total equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Objects (tracks) that remain visible across **more than**
    /// `min_frames` frames (§V-H's *Count* query; 200 in the paper's
    /// example).
    Count {
        /// Duration threshold in frames.
        min_frames: u64,
    },
    /// Clips longer than `min_frames` in which the same `group_size`
    /// objects appear jointly (§V-H's *Co-occurring Objects*; 3 objects
    /// over 50 frames in the paper's example).
    CoOccurrence {
        /// Number of objects that must appear together.
        group_size: usize,
        /// Minimum joint-appearance length in frames.
        min_frames: u64,
    },
    /// Objects whose trajectory intersects `region` in at least
    /// `min_frames` observed frames (the spatially constrained extension
    /// class of [`crate::region`]).
    RegionTransit {
        /// The spatial region of interest (frame coordinates).
        region: BBox,
        /// Minimum dwell time in observed frames.
        min_frames: u64,
    },
}

/// A query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// The tracks satisfying a [`Query::Count`].
    Count(Vec<TrackId>),
    /// The track groups satisfying a [`Query::CoOccurrence`], each sorted
    /// ascending.
    CoOccurrence(Vec<Vec<TrackId>>),
    /// The tracks satisfying a [`Query::RegionTransit`].
    RegionTransit(Vec<TrackId>),
}

impl QueryAnswer {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::Count(v) => v.len(),
            QueryAnswer::CoOccurrence(v) => v.len(),
            QueryAnswer::RegionTransit(v) => v.len(),
        }
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluates a query over the tracks as they are.
pub fn evaluate(tracks: &TrackSet, query: Query) -> QueryAnswer {
    evaluate_merged(tracks, |id| id, query)
}

/// Evaluates a query over `tracks` merged through `merged_id`, which maps
/// each track's id to its merged group's id (such as
/// [`tm_core::MergedIds::get`]). The answer is exactly
/// `evaluate(&tracks.relabeled(&mapping), query)` for the mapping that
/// `merged_id` implies.
///
/// Count and Co-occurrence read only lifetimes, and a merged track's
/// lifetime is the fold of its members': the earliest first frame and the
/// latest last frame. The fold reads each member's first and last box as
/// its first and last frame, which holds because a track's boxes are in
/// frame order — [`TrackSet::validate`] enforces that at every admission.
/// So those two copy no box. RegionTransit counts boxes, so it evaluates
/// a relabelled copy of the feed, mapping only the feed's own ids.
pub fn evaluate_merged(
    tracks: &TrackSet,
    merged_id: impl Fn(TrackId) -> TrackId,
    query: Query,
) -> QueryAnswer {
    match query {
        Query::Count { min_frames } => {
            QueryAnswer::Count(count(&lifetimes(tracks, merged_id), min_frames))
        }
        Query::CoOccurrence {
            group_size,
            min_frames,
        } => QueryAnswer::CoOccurrence(co_occurrence(
            lifetimes(tracks, merged_id),
            group_size,
            min_frames,
        )),
        Query::RegionTransit { region, min_frames } => {
            let mapping: HashMap<TrackId, TrackId> = tracks
                .ids()
                .filter_map(|id| {
                    let to = merged_id(id);
                    (to != id).then_some((id, to))
                })
                .collect();
            let answer = if mapping.is_empty() {
                crate::region::region_transit_query(tracks, &region, min_frames)
            } else {
                crate::region::region_transit_query(
                    &tracks.relabeled(&mapping),
                    &region,
                    min_frames,
                )
            };
            QueryAnswer::RegionTransit(answer)
        }
    }
}

/// A merged track's id and lifetime `[first_frame, last_frame]`.
type Lifetime = (TrackId, u64, u64);

/// Every merged id's lifetime, sorted by id. Members without boxes add
/// nothing, so a merged id whose members have no box is absent.
fn lifetimes(tracks: &TrackSet, merged_id: impl Fn(TrackId) -> TrackId) -> Vec<Lifetime> {
    let mut out: Vec<Lifetime> = tracks
        .iter()
        .filter_map(|t| {
            Some((
                merged_id(t.id),
                t.first_frame()?.get(),
                t.last_frame()?.get(),
            ))
        })
        .collect();
    out.sort_unstable_by_key(|l| l.0);
    out.dedup_by(|next, kept| {
        if next.0 != kept.0 {
            return false;
        }
        kept.1 = kept.1.min(next.1);
        kept.2 = kept.2.max(next.2);
        true
    });
    out
}

fn span(l: &Lifetime) -> u64 {
    l.2 - l.1 + 1
}

/// Tracks spanning more than `min_frames` frames, sorted by id.
pub fn count_query(tracks: &TrackSet, min_frames: u64) -> Vec<TrackId> {
    count(&lifetimes(tracks, |id| id), min_frames)
}

fn count(lifetimes: &[Lifetime], min_frames: u64) -> Vec<TrackId> {
    lifetimes
        .iter()
        .filter(|l| span(l) > min_frames)
        .map(|l| l.0)
        .collect()
}

/// Groups of `group_size` distinct tracks whose lifetime intervals jointly
/// overlap for at least `min_frames` frames, each group sorted, the list
/// sorted lexicographically.
///
/// Joint appearance is evaluated on lifetime intervals
/// `[first_frame, last_frame]` — a track is considered present between its
/// first and last observation even across short detection holes, matching
/// how a clip-retrieval query treats an object that momentarily ducks
/// behind another.
pub fn co_occurrence_query(
    tracks: &TrackSet,
    group_size: usize,
    min_frames: u64,
) -> Vec<Vec<TrackId>> {
    co_occurrence(lifetimes(tracks, |id| id), group_size, min_frames)
}

fn co_occurrence(
    mut spans: Vec<Lifetime>,
    group_size: usize,
    min_frames: u64,
) -> Vec<Vec<TrackId>> {
    if group_size == 0 {
        return Vec::new();
    }
    // Candidates must individually span enough frames.
    spans.retain(|l| span(l) >= min_frames);

    let mut out: Vec<Vec<TrackId>> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    // Depth-first enumeration with interval-intersection pruning: extend a
    // partial group only while the running intersection stays ≥ min_frames.
    struct Dfs<'a> {
        spans: &'a [Lifetime],
        group_size: usize,
        min_frames: u64,
    }
    impl Dfs<'_> {
        fn extend(
            &self,
            start: usize,
            window: (u64, u64),
            group: &mut Vec<usize>,
            out: &mut Vec<Vec<TrackId>>,
        ) {
            if group.len() == self.group_size {
                out.push(group.iter().map(|&i| self.spans[i].0).collect());
                return;
            }
            for i in start..self.spans.len() {
                let (_, f, l) = self.spans[i];
                let nlo = window.0.max(f);
                let nhi = window.1.min(l);
                if nhi < nlo || nhi - nlo + 1 < self.min_frames {
                    continue;
                }
                group.push(i);
                self.extend(i + 1, (nlo, nhi), group, out);
                group.pop();
            }
        }
    }
    Dfs {
        spans: &spans,
        group_size,
        min_frames,
    }
    .extend(0, (0, u64::MAX), &mut group, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{ids::classes, BBox, FrameIdx, Track, TrackBox};

    fn track(id: u64, first: u64, last: u64) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            // Sparse observations: only the endpoints (span semantics).
            vec![
                TrackBox::new(FrameIdx(first), BBox::new(0.0, 0.0, 10.0, 10.0)),
                TrackBox::new(FrameIdx(last), BBox::new(0.0, 0.0, 10.0, 10.0)),
            ],
        )
    }

    #[test]
    fn count_query_uses_strict_threshold() {
        // Spans: 201, 200, 199 frames.
        let ts = TrackSet::from_tracks(vec![track(1, 0, 200), track(2, 0, 199), track(3, 0, 198)]);
        assert_eq!(count_query(&ts, 200), vec![TrackId(1)]);
        assert_eq!(count_query(&ts, 100).len(), 3);
    }

    #[test]
    fn fragmentation_hides_count_results() {
        // One actor visible 0..=300 but fragmented at frame 150.
        let fragmented = TrackSet::from_tracks(vec![track(1, 0, 150), track(2, 151, 300)]);
        assert!(count_query(&fragmented, 200).is_empty());
        // Merged, it qualifies.
        let mut map = std::collections::HashMap::new();
        map.insert(TrackId(2), TrackId(1));
        let merged = fragmented.relabeled(&map);
        assert_eq!(count_query(&merged, 200), vec![TrackId(1)]);
    }

    #[test]
    fn co_occurrence_finds_overlapping_triples() {
        let ts = TrackSet::from_tracks(vec![
            track(1, 0, 100),
            track(2, 20, 120),
            track(3, 40, 140),
            track(4, 95, 200), // overlaps the others < 50 frames jointly
        ]);
        let groups = co_occurrence_query(&ts, 3, 50);
        assert_eq!(groups, vec![vec![TrackId(1), TrackId(2), TrackId(3)]]);
    }

    #[test]
    fn co_occurrence_pairs_and_identity_cases() {
        let ts = TrackSet::from_tracks(vec![track(1, 0, 100), track(2, 50, 160)]);
        assert_eq!(
            co_occurrence_query(&ts, 2, 51),
            vec![vec![TrackId(1), TrackId(2)]]
        );
        assert!(co_occurrence_query(&ts, 2, 52).is_empty());
        assert!(co_occurrence_query(&ts, 0, 10).is_empty());
        // group_size 1 degenerates to the duration predicate.
        assert_eq!(co_occurrence_query(&ts, 1, 101).len(), 2);
    }

    #[test]
    fn evaluate_dispatches() {
        let ts = TrackSet::from_tracks(vec![track(1, 0, 300)]);
        assert_eq!(
            evaluate(&ts, Query::Count { min_frames: 200 }),
            QueryAnswer::Count(vec![TrackId(1)])
        );
        let a = evaluate(
            &ts,
            Query::CoOccurrence {
                group_size: 2,
                min_frames: 10,
            },
        );
        assert!(a.is_empty());
    }

    #[test]
    fn evaluate_dispatches_region_transit() {
        // Both observed boxes sit at (0,0,10,10); the region covers them,
        // so dwell == 2 observed frames.
        let ts = TrackSet::from_tracks(vec![track(1, 0, 300)]);
        let inside = Query::RegionTransit {
            region: BBox::new(0.0, 0.0, 20.0, 20.0),
            min_frames: 2,
        };
        assert_eq!(
            evaluate(&ts, inside),
            QueryAnswer::RegionTransit(vec![TrackId(1)])
        );
        let strict = Query::RegionTransit {
            region: BBox::new(0.0, 0.0, 20.0, 20.0),
            min_frames: 3,
        };
        let a = evaluate(&ts, strict);
        assert!(a.is_empty());
        assert_eq!(a, QueryAnswer::RegionTransit(Vec::new()));
        // Far-away region: no dwell at all.
        let outside = Query::RegionTransit {
            region: BBox::new(500.0, 500.0, 5.0, 5.0),
            min_frames: 1,
        };
        assert!(evaluate(&ts, outside).is_empty());
    }
}
