//! Track-pair set construction per window — Eq. (1) of the paper.
//!
//! For window `W_c`, `T_c` is the set of tracks present in the window's
//! first `L/2` frames, and
//!
//! ```text
//! P_c = { p_{i,j} | t_i ∈ T_c, t_j ∈ T_c ∪ T_{c−1}, t_i ≠ t_j }
//! ```
//!
//! Pairs are canonical ([`TrackPair`]) and deduplicated across windows, so
//! no pair is ever examined twice ("to avoid ... visiting any track pair
//! more than once", §II).

use crate::window::{windows, Window};
use std::collections::BTreeSet;
use tm_types::{Result, TrackId, TrackPair, TrackSet};

/// The pair set of one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPairs {
    /// The window these pairs belong to.
    pub window: Window,
    /// The deduplicated pair set `P_c`, in deterministic order.
    pub pairs: Vec<TrackPair>,
}

/// `T_c`: the tracks whose lifetime intersects the first half of `w`, in
/// ascending id order. A linear scan of the set per window; both the
/// streaming merger and [`build_window_pairs`] find `T_c` this way.
pub fn tracks_in_first_half(tracks: &TrackSet, w: &Window) -> Vec<TrackId> {
    let mut ids: Vec<TrackId> = tracks
        .overlapping_range(w.start, w.half_end)
        .map(|t| t.id)
        .collect();
    ids.sort();
    ids
}

/// `P_c` from `T_c` (`cur_ids`) and `T_{c−1}` (`prev_ids`): every
/// same-class pair inside `T_c` or across `T_c × T_{c−1}` that `seen` does
/// not hold yet, in ascending order. The new pairs are added to `seen`, so
/// no pair is ever examined twice. Shared by [`build_window_pairs`] and
/// the streaming merger.
pub(crate) fn window_pair_set(
    tracks: &TrackSet,
    cur_ids: &[TrackId],
    prev_ids: &[TrackId],
    seen: &mut BTreeSet<TrackPair>,
) -> Vec<TrackPair> {
    let mut pairs = Vec::new();
    let mut push = |a: TrackId, b: TrackId| {
        let (Some(ta), Some(tb)) = (tracks.get(a), tracks.get(b)) else {
            return;
        };
        if ta.class != tb.class {
            return;
        }
        if let Some(p) = TrackPair::new(a, b) {
            if seen.insert(p) {
                pairs.push(p);
            }
        }
    };
    // Pairs inside T_c.
    for (i, &a) in cur_ids.iter().enumerate() {
        for &b in &cur_ids[i + 1..] {
            push(a, b);
        }
    }
    // Pairs across T_c × T_{c−1}.
    for &a in cur_ids {
        for &b in prev_ids {
            push(a, b);
        }
    }
    pairs.sort();
    pairs
}

/// Builds `P_c` for every window of a video.
///
/// Only tracks of equal class are paired — a pedestrian track and a car
/// track can never be polyonymous, and the paper's per-class datasets make
/// the same assumption implicitly.
pub fn build_window_pairs(
    tracks: &TrackSet,
    n_frames: u64,
    window_len: u64,
) -> Result<Vec<WindowPairs>> {
    let ws = windows(n_frames, window_len)?;
    let mut seen: BTreeSet<TrackPair> = BTreeSet::new();
    let mut out = Vec::with_capacity(ws.len());
    let mut prev_ids: Vec<TrackId> = Vec::new();
    for w in ws {
        let cur_ids = tracks_in_first_half(tracks, &w);
        let pairs = window_pair_set(tracks, &cur_ids, &prev_ids, &mut seen);
        out.push(WindowPairs { window: w, pairs });
        prev_ids = cur_ids;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::{ids::classes, BBox, ClassId, FrameIdx, Track, TrackBox};

    fn track_span(id: u64, class: ClassId, start: u64, end: u64) -> Track {
        Track::with_boxes(
            TrackId(id),
            class,
            (start..end)
                .map(|f| TrackBox::new(FrameIdx(f), BBox::new(0.0, 0.0, 10.0, 10.0)))
                .collect(),
        )
    }

    fn ped(id: u64, start: u64, end: u64) -> Track {
        track_span(id, classes::PEDESTRIAN, start, end)
    }

    #[test]
    fn pairs_within_one_window() {
        let ts = TrackSet::from_tracks(vec![ped(1, 0, 10), ped(2, 0, 10), ped(3, 0, 10)]);
        let wp = build_window_pairs(&ts, 100, 100).unwrap();
        assert_eq!(wp.len(), 2);
        // First window holds all C(3,2) = 3 pairs.
        assert_eq!(wp[0].pairs.len(), 3);
        // Second window re-derives the same pairs → deduplicated away.
        assert!(wp[1].pairs.is_empty());
    }

    #[test]
    fn cross_window_pairs_are_formed() {
        // Track 1 lives in window 0's first half only; track 2 appears in
        // window 1's first half only. They must still be paired via
        // T_1 × T_0.
        let ts = TrackSet::from_tracks(vec![ped(1, 0, 40), ped(2, 60, 100)]);
        let wp = build_window_pairs(&ts, 200, 100).unwrap();
        // Window 0 first half = [0, 50): only track 1 → no pairs.
        assert!(wp[0].pairs.is_empty());
        // Window 1 first half = [50, 100): track 2; T_0 = {1} → pair (1,2).
        assert_eq!(
            wp[1].pairs,
            vec![TrackPair::new(TrackId(1), TrackId(2)).unwrap()]
        );
    }

    #[test]
    fn no_pair_is_visited_twice() {
        let ts = TrackSet::from_tracks(vec![ped(1, 0, 300), ped(2, 0, 300), ped(3, 100, 250)]);
        let wp = build_window_pairs(&ts, 300, 100).unwrap();
        let mut seen = BTreeSet::new();
        for w in &wp {
            for p in &w.pairs {
                assert!(seen.insert(*p), "pair {p} appears twice");
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn different_classes_are_never_paired() {
        let ts = TrackSet::from_tracks(vec![ped(1, 0, 50), track_span(2, classes::CAR, 0, 50)]);
        let wp = build_window_pairs(&ts, 100, 100).unwrap();
        assert!(wp.iter().all(|w| w.pairs.is_empty()));
    }

    #[test]
    fn distant_tracks_never_pair() {
        // Tracks more than a full window apart cannot be polyonymous under
        // the L ≥ 2·L_max assumption, and must not be paired.
        let ts = TrackSet::from_tracks(vec![ped(1, 0, 10), ped(2, 500, 510)]);
        let wp = build_window_pairs(&ts, 600, 100).unwrap();
        assert!(wp.iter().all(|w| w.pairs.is_empty()));
    }

    #[test]
    fn empty_track_set() {
        let ts = TrackSet::new();
        let wp = build_window_pairs(&ts, 100, 50).unwrap();
        assert!(wp.iter().all(|w| w.pairs.is_empty()));
    }

    /// The window walk must produce exactly the pair sets a direct
    /// reimplementation of Eq. (1) produces, on a crowded synthetic layout.
    #[test]
    fn indexed_pairs_match_direct_filter() {
        // 40 tracks with staggered, overlapping, duplicate and edge-case
        // spans, two classes interleaved.
        let mut tracks = Vec::new();
        for i in 0u64..40 {
            let class = if i % 3 == 0 {
                classes::CAR
            } else {
                classes::PEDESTRIAN
            };
            let start = (i * 37) % 500;
            let end = start + 1 + (i * 13) % 160;
            tracks.push(track_span(i + 1, class, start, end));
        }
        let ts = TrackSet::from_tracks(tracks);

        // Direct-filter reimplementation of Eq. (1) over the same windows.
        let ws = crate::window::windows(600, 100).unwrap();
        let mut seen: BTreeSet<TrackPair> = BTreeSet::new();
        let mut expected: Vec<Vec<TrackPair>> = Vec::new();
        let mut prev_ids: Vec<TrackId> = Vec::new();
        for w in ws {
            let cur_ids = tracks_in_first_half(&ts, &w);
            let mut pairs = Vec::new();
            let mut push = |a: TrackId, b: TrackId, pairs: &mut Vec<TrackPair>| {
                let (ta, tb) = (ts.get(a).unwrap(), ts.get(b).unwrap());
                if ta.class != tb.class {
                    return;
                }
                if let Some(p) = TrackPair::new(a, b) {
                    if seen.insert(p) {
                        pairs.push(p);
                    }
                }
            };
            for (i, &a) in cur_ids.iter().enumerate() {
                for &b in &cur_ids[i + 1..] {
                    push(a, b, &mut pairs);
                }
            }
            for &a in &cur_ids {
                for &b in &prev_ids {
                    push(a, b, &mut pairs);
                }
            }
            pairs.sort();
            expected.push(pairs);
            prev_ids = cur_ids;
        }

        let got: Vec<Vec<TrackPair>> = build_window_pairs(&ts, 600, 100)
            .unwrap()
            .into_iter()
            .map(|wp| wp.pairs)
            .collect();
        assert_eq!(got, expected);
    }
}
