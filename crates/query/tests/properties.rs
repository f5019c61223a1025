//! Property tests for the query layer (ISSUE 4, satellite 2).
//!
//! Two families of invariants pin the semantics TMerge relies on:
//!
//! * **TID-permutation invariance** — query answers and recall depend only
//!   on track *geometry* and the attribution, never on the numeric ids, so
//!   renaming every track (and remapping the attribution) must commute with
//!   query evaluation.
//! * **Monotone improvement under correct merges** — merging two fragments
//!   of the same GT actor can only extend lifetime intervals, so Count and
//!   Co-occurrence recall never decrease, and the fully merged track set
//!   recovers recall 1.0. This is the paper's §V-H claim in miniature.
//!
//! A third pins the merged evaluation a live daemon answers with: reading
//! a feed through a merge relabelling gives exactly the answer of the
//! relabelled copy, for every query class.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use tm_core::{merge_mapping, MergedIds};
use tm_query::{
    co_occurrence_query, co_occurrence_recall, count_query, count_recall, evaluate,
    evaluate_merged, Query,
};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

/// One GT actor: lifetime `[start, start + len]`, fragmented into `frags`
/// contiguous pieces on the predicted side.
type ActorSpec = (u64, u64, usize);

fn actor_strategy() -> impl Strategy<Value = Vec<ActorSpec>> {
    proptest::collection::vec((0u64..100, 20u64..300, 1usize..5), 1..6)
}

fn track(id: u64, first: u64, last: u64) -> Track {
    Track::with_boxes(
        TrackId(id),
        classes::PEDESTRIAN,
        vec![
            TrackBox::new(FrameIdx(first), BBox::new(0.0, 0.0, 10.0, 10.0)),
            TrackBox::new(FrameIdx(last), BBox::new(0.0, 0.0, 10.0, 10.0)),
        ],
    )
}

/// Builds the GT set, the fragmented prediction, and the attribution.
/// Actor `i` is GT track `i + 1`; its fragment `j` is predicted track
/// `100 * (i + 1) + j`, so fragment ids never collide across actors.
fn world(actors: &[ActorSpec]) -> (TrackSet, TrackSet, HashMap<TrackId, GtObjectId>) {
    let mut gt = Vec::new();
    let mut pred = Vec::new();
    let mut attribution = HashMap::new();
    for (i, &(start, len, frags)) in actors.iter().enumerate() {
        let actor = i as u64 + 1;
        gt.push(track(actor, start, start + len));
        // Equal cuts; each fragment owns [cut_j, cut_{j+1} - 1] except the
        // last, which runs to the actor's final frame.
        let frags = frags as u64;
        for j in 0..frags {
            let lo = start + j * len / frags;
            let hi = if j + 1 == frags {
                start + len
            } else {
                start + (j + 1) * len / frags - 1
            };
            let tid = TrackId(100 * actor + j);
            pred.push(track(tid.get(), lo, hi));
            attribution.insert(tid, GtObjectId(actor));
        }
    }
    (
        TrackSet::from_tracks(gt),
        TrackSet::from_tracks(pred),
        attribution,
    )
}

/// An injective id renaming covering every predicted track.
fn permutation(pred: &TrackSet) -> HashMap<TrackId, TrackId> {
    pred.iter()
        .map(|t| (t.id, TrackId(t.id.get() * 7 + 3)))
        .collect()
}

/// The merges that repair one actor, one fragment at a time: every
/// non-first fragment folds into fragment 0 of the same actor.
fn correct_merges(actors: &[ActorSpec]) -> Vec<(TrackId, TrackId)> {
    let mut merges = Vec::new();
    for (i, &(_, _, frags)) in actors.iter().enumerate() {
        let actor = i as u64 + 1;
        for j in 1..frags as u64 {
            merges.push((TrackId(100 * actor + j), TrackId(100 * actor)));
        }
    }
    merges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_query_commutes_with_tid_permutation(
        actors in actor_strategy(), min_frames in 5u64..250,
    ) {
        let (_, pred, _) = world(&actors);
        let pi = permutation(&pred);
        let direct: BTreeSet<TrackId> = count_query(&pred.relabeled(&pi), min_frames)
            .into_iter()
            .collect();
        let mapped: BTreeSet<TrackId> = count_query(&pred, min_frames)
            .into_iter()
            .map(|t| pi[&t])
            .collect();
        prop_assert_eq!(direct, mapped);
    }

    #[test]
    fn co_occurrence_query_commutes_with_tid_permutation(
        actors in actor_strategy(),
        group_size in 2usize..4,
        min_frames in 5u64..150,
    ) {
        let (_, pred, _) = world(&actors);
        let pi = permutation(&pred);
        let as_sets = |groups: Vec<Vec<TrackId>>| -> BTreeSet<BTreeSet<TrackId>> {
            groups.into_iter().map(|g| g.into_iter().collect()).collect()
        };
        let direct = as_sets(co_occurrence_query(&pred.relabeled(&pi), group_size, min_frames));
        let mapped: BTreeSet<BTreeSet<TrackId>> =
            as_sets(co_occurrence_query(&pred, group_size, min_frames))
                .into_iter()
                .map(|g| g.into_iter().map(|t| pi[&t]).collect())
                .collect();
        prop_assert_eq!(direct, mapped);
    }

    #[test]
    fn recall_is_invariant_under_tid_permutation(
        actors in actor_strategy(),
        group_size in 2usize..4,
        min_frames in 5u64..250,
    ) {
        let (gt, pred, attribution) = world(&actors);
        let pi = permutation(&pred);
        let renamed = pred.relabeled(&pi);
        let renamed_attr: HashMap<TrackId, GtObjectId> = attribution
            .iter()
            .map(|(t, &g)| (pi[t], g))
            .collect();
        // Both sides are ratios of identical integer counts, so the
        // comparison is exact, not approximate.
        prop_assert_eq!(
            count_recall(&renamed, &gt, min_frames, &renamed_attr),
            count_recall(&pred, &gt, min_frames, &attribution),
        );
        prop_assert_eq!(
            co_occurrence_recall(&renamed, &gt, group_size, min_frames, &renamed_attr),
            co_occurrence_recall(&pred, &gt, group_size, min_frames, &attribution),
        );
    }

    #[test]
    fn count_recall_improves_monotonically_under_correct_merges(
        actors in actor_strategy(), min_frames in 5u64..250,
    ) {
        let (gt, pred, attribution) = world(&actors);
        let mut current = pred;
        let mut last = count_recall(&current, &gt, min_frames, &attribution);
        for (from, to) in correct_merges(&actors) {
            let mut step = HashMap::new();
            step.insert(from, to);
            current = current.relabeled(&step);
            let r = count_recall(&current, &gt, min_frames, &attribution);
            prop_assert!(
                r >= last,
                "correct merge {from} -> {to} dropped count recall {last} -> {r}"
            );
            last = r;
        }
        // Fully merged, every predicted track spans its actor's lifetime.
        prop_assert_eq!(last, 1.0);
    }

    #[test]
    fn co_occurrence_recall_improves_monotonically_under_correct_merges(
        actors in actor_strategy(),
        group_size in 2usize..4,
        min_frames in 5u64..150,
    ) {
        let (gt, pred, attribution) = world(&actors);
        let mut current = pred;
        let mut last =
            co_occurrence_recall(&current, &gt, group_size, min_frames, &attribution);
        for (from, to) in correct_merges(&actors) {
            let mut step = HashMap::new();
            step.insert(from, to);
            current = current.relabeled(&step);
            let r = co_occurrence_recall(&current, &gt, group_size, min_frames, &attribution);
            prop_assert!(
                r >= last,
                "correct merge {from} -> {to} dropped co-occurrence recall {last} -> {r}"
            );
            last = r;
        }
        prop_assert_eq!(last, 1.0);
    }
}

/// One track of a random feed: `(id, kind, start, len, step, x0)`. Kind 0
/// is a track without boxes, kind 1 a single box at `start`, anything else
/// a walk over `[start, start + len)` observed every `step` frames. Ids
/// repeat (a later track replaces an earlier one), and walks of different
/// ids overlap in frames as often as not.
type TrackSpec = (u64, u64, u64, u64, u64, f64);

fn feed(specs: &[TrackSpec]) -> TrackSet {
    TrackSet::from_tracks(
        specs
            .iter()
            .map(|&(id, kind, start, len, step, x0)| {
                let frames: Vec<u64> = match kind {
                    0 => Vec::new(),
                    1 => vec![start],
                    _ => (start..start + len).step_by(step as usize).collect(),
                };
                Track::with_boxes(
                    TrackId(id),
                    classes::PEDESTRIAN,
                    frames
                        .into_iter()
                        .map(|f| {
                            let x = x0 + 4.0 * (f - start) as f64;
                            TrackBox::new(FrameIdx(f), BBox::new(x, 100.0, 20.0, 40.0))
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Count, Co-occurrence and RegionTransit read through a merge
    /// relabelling answer exactly as on the relabelled copy. Accepted pairs
    /// may name ids absent from the feed (merges of pruned tracks) and chain
    /// groups whose smallest ids started in different groups.
    #[test]
    fn merged_evaluation_equals_the_relabelled_answer(
        specs in proptest::collection::vec(
            (1u64..16, 0u64..4, 0u64..200, 1u64..120, 1u64..4, 0.0f64..600.0),
            0..12,
        ),
        edges in proptest::collection::vec((1u64..20, 1u64..20), 0..16),
        count_floor in 0u64..150,
        group_size in 0usize..4,
        joint_floor in 0u64..100,
        (region_x, dwell_floor) in (0.0f64..800.0, 0u64..30),
    ) {
        let tracks = feed(&specs);
        let pairs: Vec<TrackPair> = edges
            .into_iter()
            .filter_map(|(a, b)| TrackPair::new(TrackId(a), TrackId(b)))
            .collect();
        let mapping = merge_mapping(&pairs);
        let relabelled = tracks.relabeled(&mapping);
        let ids: MergedIds = pairs.iter().collect();
        let queries = [
            Query::Count { min_frames: count_floor },
            Query::CoOccurrence { group_size, min_frames: joint_floor },
            Query::RegionTransit {
                region: BBox::new(region_x, 0.0, 200.0, 400.0),
                min_frames: dwell_floor,
            },
        ];
        for q in queries {
            let want = evaluate(&relabelled, q);
            prop_assert_eq!(&evaluate_merged(&tracks, |id| ids.get(id), q), &want, "{:?}", q);
            let by_map = evaluate_merged(&tracks, |id| *mapping.get(&id).unwrap_or(&id), q);
            prop_assert_eq!(&by_map, &want, "{:?}", q);
        }
    }
}
