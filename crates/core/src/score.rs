//! Track-pair scores (Definition 3.1) and exact score evaluation.
//!
//! ## The dense kernel
//!
//! Features are unit-norm ([`tm_reid::Feature`] enforces `‖f‖ = 1`), so the
//! Euclidean distance collapses to a dot product:
//!
//! ```text
//! ‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b = 2 − 2·a·b
//! ```
//!
//! [`exact_scores`] exploits this: each track's features are packed into a
//! flat row-major matrix once, and every pair's score is a cache-blocked
//! row×row dot-product sweep ([`sum_pairwise_unit_distances`], now living
//! in [`crate::simd`] with an AVX2+FMA fast path and the pinned scalar
//! kernel as fallback/reference). The dot product is clamped at zero
//! before the square root so identical features cannot produce `NaN` from
//! a slightly negative rounding residue.
//!
//! The pre-rewrite scorer is kept, in test builds only, as
//! `exact_scores_reference`; a property test below pins the two to within
//! `1e-9`.
//!
//! ## Scratch reuse
//!
//! [`exact_scores_with`] is the allocation-free core: the working state
//! that outlives a group — the `DenseStore` feature-matrix pool and the
//! task list — lives in a caller-owned [`ScoreScratch`], and results are
//! written into a caller `Vec`. A group's resolved pairs and missing boxes
//! borrow the window's `TrackSet`, so they are never stored: each group is
//! resolved once to surface a missing track, then walked as an iterator by
//! each stage. After warm-up a steady-state window performs **zero** heap
//! allocations in this path (pinned by `tm-bench/tests/alloc_audit.rs`).
//! [`exact_scores`] wraps it with a per-thread scratch pool
//! (`with_score_scratch`) so existing callers keep the reuse without
//! plumbing.
//!
//! ## Cost accounting vs. arithmetic
//!
//! Simulated-clock charges (inference rounds, distance batches) happen in a
//! **serial** walk over the pair groups, in exactly the order the original
//! implementation charged them — only the pure arithmetic that follows is
//! fanned out over threads (`tm_par::par_map_into`, index-ordered
//! collection). Reported costs and scores are therefore bit-identical for
//! any `TMERGE_THREADS` setting.

use crate::sampling::split_flat_index;
use crate::selector::SelectionInput;
use std::cell::RefCell;
use std::collections::HashMap;
use tm_reid::{ReidSession, NORMALIZER};
use tm_types::{Result, Track, TrackBox, TrackId, TrackPair, TrackSet};

pub use crate::simd::{sum_pairwise_unit_distances, sum_pairwise_unit_distances_scalar};

/// Maximum BBox pairs evaluated per batch round. One logical GPU round per
/// `batch` track pairs may be split into several calls at this cap to bound
/// memory; the extra per-call overhead charged is negligible relative to
/// the items (see `tm_reid::CostModel`).
pub const MAX_ROUND_ITEMS: usize = 65_536;

/// A resolved track pair: both tracks with their box sequences.
#[derive(Debug, Clone, Copy)]
pub struct PairBoxes<'a> {
    /// The pair.
    pub pair: TrackPair,
    /// The track with the smaller id.
    pub a: &'a Track,
    /// The track with the larger id.
    pub b: &'a Track,
}

impl<'a> PairBoxes<'a> {
    /// Looks both tracks up.
    pub fn resolve(pair: TrackPair, tracks: &'a TrackSet) -> Result<Self> {
        Ok(Self {
            pair,
            a: tracks.require(pair.lo())?,
            b: tracks.require(pair.hi())?,
        })
    }

    /// `|t_i| · |t_j|` — the size of the BBox-pair pool.
    pub fn total_bbox_pairs(&self) -> u64 {
        self.a.len() as u64 * self.b.len() as u64
    }

    /// The BBox pair at a flat index in `0..total_bbox_pairs()`.
    pub fn bbox_pair(&self, flat: u64) -> ((TrackId, &'a TrackBox), (TrackId, &'a TrackBox)) {
        let (alpha, beta) = split_flat_index(flat, self.b.len());
        (
            (self.a.id, &self.a.boxes[alpha]),
            (self.b.id, &self.b.boxes[beta]),
        )
    }

    /// The spatial distance `DisS` (§IV-C): Euclidean distance between the
    /// centre of the chronologically earlier track's *last* box and the
    /// later track's *first* box. `None` when either track is empty.
    pub fn spatial_distance(&self) -> Option<f64> {
        let (earlier, later) = if self.a.first_frame() <= self.b.first_frame() {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        };
        Some(earlier.last_center()?.distance(&later.first_center()?))
    }

    /// The temporal distance `DisT` (§IV-C footnote 4): frames between the
    /// chronologically earlier track's last box and the later track's first
    /// box. The paper measured it as essentially uncorrelated with the
    /// score (Pearson < 0.1) and left it out of BetaInit; `tm-bench`'s
    /// `corr_analysis` exhibit (`run_all corr_analysis`) reproduces that
    /// measurement.
    pub fn temporal_distance(&self) -> Option<i64> {
        let (earlier, later) = if self.a.first_frame() <= self.b.first_frame() {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        };
        Some(later.first_frame()?.delta(earlier.last_frame()?))
    }
}

/// The naive subtract-square-accumulate kernel the reference scorer uses;
/// exposed so benchmarks can compare the kernels head-to-head.
pub fn sum_pairwise_distances_naive(fa: &[f64], fb: &[f64], dim: usize) -> f64 {
    debug_assert!(dim > 0 && fa.len().is_multiple_of(dim) && fb.len().is_multiple_of(dim));
    let mut sum = 0.0f64;
    for ra in fa.chunks_exact(dim) {
        for rb in fb.chunks_exact(dim) {
            let mut acc = 0.0;
            for (x, y) in ra.iter().zip(rb) {
                let d = x - y;
                acc += d * d;
            }
            sum += acc.sqrt();
        }
    }
    sum
}

/// One pair's scoring work, recorded by the serial cost-accounting walk and
/// executed by the parallel kernel pass.
enum ScoreTask {
    /// Empty BBox-pair pool → worst possible score (1.0), no arithmetic.
    Empty,
    /// Dense kernel over the two tracks' packed feature matrices.
    Dense { a: TrackId, b: TrackId, total: u64 },
}

/// A pool of dense row-major feature matrices keyed by track. All rows
/// live in one flat `Vec<f64>`; per-track spans are recorded in a reusable
/// index. [`DenseStore::clear`] empties both while keeping their capacity,
/// so steady-state windows never reallocate.
#[derive(Debug, Default)]
struct DenseStore {
    data: Vec<f64>,
    index: HashMap<TrackId, (usize, usize)>,
    dim: usize,
}

impl DenseStore {
    /// Empties the store, keeping allocated capacity.
    fn clear(&mut self) {
        self.data.clear();
        self.index.clear();
        self.dim = 0;
    }

    /// Row width of the stored matrices (0 until the first row arrives).
    fn dim(&self) -> usize {
        self.dim
    }

    /// Whether `track` already has a committed matrix.
    fn contains(&self, track: TrackId) -> bool {
        self.index.contains_key(&track)
    }

    /// The flat row-major matrix committed for `track`.
    ///
    /// # Panics
    /// If `track` was never committed.
    fn rows(&self, track: TrackId) -> &[f64] {
        let &(start, len) = self
            .index
            .get(&track)
            .expect("track matrix was committed before use");
        &self.data[start..start + len]
    }

    /// Starts a track's matrix; returns the start cursor to pass to
    /// [`DenseStore::commit_track`].
    fn start_track(&self) -> usize {
        self.data.len()
    }

    /// Appends one feature row (also records the row width).
    fn push_row(&mut self, row: &[f64]) {
        self.dim = row.len();
        self.data.extend_from_slice(row);
    }

    /// Commits the rows appended since `start` as `track`'s matrix.
    fn commit_track(&mut self, track: TrackId, start: usize) {
        self.index.insert(track, (start, self.data.len() - start));
    }
}

/// Reusable working memory for [`exact_scores_with`]: the dense
/// feature-matrix pool and the task list. Create one per long-lived loop
/// (or call [`exact_scores`], which pools one per thread); after warm-up,
/// calls through it do not allocate.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    store: DenseStore,
    tasks: Vec<(TrackPair, ScoreTask)>,
}

impl std::fmt::Debug for ScoreTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreTask::Empty => write!(f, "Empty"),
            ScoreTask::Dense { a, b, total } => {
                write!(f, "Dense({a:?}×{b:?}, {total})")
            }
        }
    }
}

impl ScoreScratch {
    /// An empty scratch; buffers grow to the working-set size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread pool of score scratches. A `Vec` (not a single slot) so
    /// reentrant scoring — e.g. a selector invoked from inside a fanned-out
    /// window that itself scores — checks out distinct scratches.
    static SCRATCH_POOL: RefCell<Vec<ScoreScratch>> = const { RefCell::new(Vec::new()) };
}

/// Checks a [`ScoreScratch`] out of the calling thread's pool, runs `f`,
/// and returns it. Windows processed on the same worker thread therefore
/// share warm buffers; under `TMERGE_THREADS=1` every window in the process
/// reuses one scratch.
pub(crate) fn with_score_scratch<R>(f: impl FnOnce(&mut ScoreScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    let r = f(&mut scratch);
    SCRATCH_POOL.with(|p| p.borrow_mut().push(scratch));
    r
}

/// Resolves every pair of a group, surfacing the typed missing-track
/// error, and returns the group as an iterator of resolved pairs that the
/// staging steps walk in turn. Every pair has resolved once by then, so
/// `flat_map` over the `Result`s drops nothing.
fn resolve_group<'t>(
    group: &'t [TrackPair],
    tracks: &'t TrackSet,
) -> Result<impl Iterator<Item = PairBoxes<'t>> + Clone + 't> {
    for &pair in group {
        PairBoxes::resolve(pair, tracks)?;
    }
    Ok(group
        .iter()
        .flat_map(move |&pair| PairBoxes::resolve(pair, tracks)))
}

/// Every box of every group track not yet in `store`, duplicates across
/// pairs included, exactly as the scorers have always pushed them; the
/// session dedups by key. The `store` borrow lasts only as long as the
/// iterator, so packing can take `store` mutably right after.
fn missing_boxes<'t: 's, 's>(
    resolved: impl Iterator<Item = PairBoxes<'t>> + 's,
    store: &'s DenseStore,
) -> impl Iterator<Item = (TrackId, &'t TrackBox)> + 's {
    resolved
        .flat_map(|pb| [pb.a, pb.b])
        .filter(|t| !store.contains(t.id))
        .flat_map(|t| t.boxes.iter().map(move |b| (t.id, b)))
}

/// Packs every not-yet-stored group track's features into `store`, reading
/// the session cache warmed by the ensure step. `strict` marks the
/// reference path, where a cache miss after an infallible ensure is a bug;
/// the optimized path falls back to a charged single extraction, so the
/// scorer total stays correct even on such a miss.
fn pack_group<'t>(
    resolved: impl Iterator<Item = PairBoxes<'t>>,
    store: &mut DenseStore,
    session: &mut ReidSession<'_>,
    strict: bool,
) -> Result<()> {
    for pb in resolved {
        for t in [pb.a, pb.b] {
            if store.contains(t.id) {
                continue;
            }
            let start = store.start_track();
            for b in &t.boxes {
                let f = match session.cached_feature(t.id, b.frame) {
                    Some(f) => f,
                    None if strict => panic!("ensured above"),
                    None => session.try_feature(t.id, b)?,
                };
                store.push_row(f.as_slice());
            }
            store.commit_track(t.id, start);
        }
    }
    Ok(())
}

/// Computes the **exact** normalized score `s̃_{i,j}` of every pair: the
/// mean normalized feature distance over *all* BBox pairs (Eq. 5). This is
/// the inner loop of the baseline (Algorithm 1).
///
/// Convenience wrapper over [`exact_scores_with`] using the calling
/// thread's pooled [`ScoreScratch`].
pub fn exact_scores(
    input: &SelectionInput<'_>,
    session: &mut ReidSession<'_>,
) -> Result<Vec<(TrackPair, f64)>> {
    with_score_scratch(|scratch| {
        let mut out = Vec::with_capacity(input.pairs.len());
        exact_scores_with(input, session, scratch, &mut out)?;
        Ok(out)
    })
}

/// The allocation-free exact scorer: identical results and charges to
/// [`exact_scores`], with all working memory in `scratch` and the scores
/// written into `out` (cleared first).
///
/// Track pairs are processed in groups of the session device's batch size
/// `B` (one logical GPU round per group, §IV-F), with rounds split at
/// [`MAX_ROUND_ITEMS`] to bound memory. Pairs with an empty pool score the
/// worst possible value (1.0).
///
/// Clock charges run serially in group order (identical to the reference
/// implementation); the dot-product kernel then fans out over all pairs
/// (see the module docs).
pub fn exact_scores_with(
    input: &SelectionInput<'_>,
    session: &mut ReidSession<'_>,
    scratch: &mut ScoreScratch,
    out: &mut Vec<(TrackPair, f64)>,
) -> Result<()> {
    let batch = session.device().batch();
    let ScoreScratch { store, tasks } = scratch;
    store.clear();
    tasks.clear();
    for group in input.pairs.chunks(batch.max(1)) {
        let resolved = resolve_group(group, input.tracks)?;
        // One inference round for every box of the group not yet extracted.
        session.try_ensure_features(missing_boxes(resolved.clone(), store))?;
        pack_group(resolved.clone(), store, session, false)?;
        for pb in resolved {
            let total = pb.total_bbox_pairs();
            if total == 0 || store.dim() == 0 {
                tasks.push((pb.pair, ScoreTask::Empty));
                continue;
            }
            session.charge_distance_batch(total as usize);
            tasks.push((
                pb.pair,
                ScoreTask::Dense {
                    a: pb.a.id,
                    b: pb.b.id,
                    total,
                },
            ));
        }
    }
    // Pure arithmetic from here on: fan the pairs out over threads and
    // collect in input order.
    let store = &*store;
    tm_par::par_map_into(tasks, out, |(pair, task)| match task {
        ScoreTask::Empty => (*pair, 1.0),
        ScoreTask::Dense { a, b, total } => {
            let sum = sum_pairwise_unit_distances(store.rows(*a), store.rows(*b), store.dim());
            (*pair, sum / (NORMALIZER * *total as f64))
        }
    });
    Ok(())
}

/// The pre-rewrite exact scorer (naive coordinate-difference kernel, fully
/// serial), built for tests only: the ground truth of the kernel property
/// test. Staging goes through the same helpers as the optimized path, so
/// only the kernel and the fan-out differ.
#[cfg(test)]
fn exact_scores_reference(
    input: &SelectionInput<'_>,
    session: &mut ReidSession<'_>,
) -> Result<Vec<(TrackPair, f64)>> {
    let batch = session.device().batch();
    let mut store = DenseStore::default();
    let mut out = Vec::with_capacity(input.pairs.len());
    for group in input.pairs.chunks(batch.max(1)) {
        let resolved = resolve_group(group, input.tracks)?;
        session.try_ensure_features(missing_boxes(resolved.clone(), &store))?;
        pack_group(resolved.clone(), &mut store, session, true)?;
        for pb in resolved {
            let total = pb.total_bbox_pairs();
            if total == 0 || store.dim() == 0 {
                out.push((pb.pair, 1.0));
                continue;
            }
            session.charge_distance_batch(total as usize);
            let sum =
                sum_pairwise_distances_naive(store.rows(pb.a.id), store.rows(pb.b.id), store.dim());
            out.push((pb.pair, sum / (NORMALIZER * total as f64)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device};
    use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId};

    fn track(id: u64, actor: u64, start: u64, n: usize) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            (0..n)
                .map(|i| {
                    TrackBox::new(
                        FrameIdx(start + i as u64),
                        BBox::new(i as f64 * 5.0, 100.0, 40.0, 80.0),
                    )
                    .with_provenance(GtObjectId(actor))
                })
                .collect(),
        )
    }

    fn setup() -> (AppearanceModel, TrackSet) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 5),
            track(2, 10, 30, 5), // same actor as 1 → polyonymous with it
            track(3, 11, 0, 5),
        ]);
        (model, tracks)
    }

    fn pairs() -> Vec<TrackPair> {
        vec![
            TrackPair::new(TrackId(1), TrackId(2)).unwrap(),
            TrackPair::new(TrackId(1), TrackId(3)).unwrap(),
            TrackPair::new(TrackId(2), TrackId(3)).unwrap(),
        ]
    }

    #[test]
    fn pair_boxes_indexing() {
        let (_, tracks) = setup();
        let pb = PairBoxes::resolve(pairs()[0], &tracks).unwrap();
        assert_eq!(pb.total_bbox_pairs(), 25);
        let ((ta, ba), (tb, bb)) = pb.bbox_pair(7); // α=1, β=2
        assert_eq!(ta, TrackId(1));
        assert_eq!(tb, TrackId(2));
        assert_eq!(ba.frame, FrameIdx(1));
        assert_eq!(bb.frame, FrameIdx(32));
    }

    #[test]
    fn spatial_distance_orders_by_time() {
        let (_, tracks) = setup();
        // Track 1 ends at frame 4 box x=20 (centre 40,140); track 2 starts
        // at frame 30 box x=0 (centre 20,140): DisS = 20.
        let pb = PairBoxes::resolve(pairs()[0], &tracks).unwrap();
        assert!((pb.spatial_distance().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn polyonymous_pair_scores_lowest() {
        let (model, tracks) = setup();
        let ps = pairs();
        let input = SelectionInput {
            pairs: &ps,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let scores = exact_scores(&input, &mut session).unwrap();
        let get = |a: u64, b: u64| {
            scores
                .iter()
                .find(|(p, _)| *p == TrackPair::new(TrackId(a), TrackId(b)).unwrap())
                .unwrap()
                .1
        };
        assert!(get(1, 2) < get(1, 3), "same-actor pair must score lower");
        assert!(get(1, 2) < get(2, 3));
        for (_, s) in &scores {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn batched_scores_match_sequential() {
        let (model, tracks) = setup();
        let ps = pairs();
        let input = SelectionInput {
            pairs: &ps,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut cpu = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let seq = exact_scores(&input, &mut cpu).unwrap();
        let mut gpu = ReidSession::new(&model, CostModel::zero(), Device::Gpu { batch: 2 });
        let bat = exact_scores(&input, &mut gpu).unwrap();
        for ((p1, s1), (p2, s2)) in seq.iter().zip(&bat) {
            assert_eq!(p1, p2);
            assert!((s1 - s2).abs() < 1e-12, "batched result differs");
        }
    }

    #[test]
    fn exact_scores_count_every_bbox_pair() {
        let (model, tracks) = setup();
        let ps = pairs();
        let input = SelectionInput {
            pairs: &ps,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        exact_scores(&input, &mut session).unwrap();
        // 3 pairs × 25 bbox pairs each.
        assert_eq!(session.stats().distances, 75);
        // 15 distinct boxes → 15 inferences, rest cache hits.
        assert_eq!(session.stats().inferences, 15);
    }

    #[test]
    fn dot_kernel_matches_naive_kernel_and_reference_charges() {
        let (model, tracks) = setup();
        let ps = pairs();
        let input = SelectionInput {
            pairs: &ps,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut s_new = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        let new = exact_scores(&input, &mut s_new).unwrap();
        let mut s_ref = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        let reference = exact_scores_reference(&input, &mut s_ref).unwrap();
        for ((p1, s1), (p2, s2)) in new.iter().zip(&reference) {
            assert_eq!(p1, p2);
            assert!((s1 - s2).abs() < 1e-9, "{p1}: {s1} vs {s2}");
        }
        // The rewrite must charge the exact same simulated cost.
        assert_eq!(s_new.elapsed_ms(), s_ref.elapsed_ms());
        assert_eq!(s_new.stats().distances, s_ref.stats().distances);
        assert_eq!(s_new.stats().inferences, s_ref.stats().inferences);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        let (model, tracks) = setup();
        let ps = pairs();
        let input = SelectionInput {
            pairs: &ps,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut fresh_session = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        let fresh = exact_scores(&input, &mut fresh_session).unwrap();

        let mut scratch = ScoreScratch::new();
        let mut out = Vec::new();
        for round in 0..5 {
            let mut session = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
            exact_scores_with(&input, &mut session, &mut scratch, &mut out).unwrap();
            assert_eq!(out.len(), fresh.len());
            for ((p1, s1), (p2, s2)) in out.iter().zip(&fresh) {
                assert_eq!(p1, p2, "round {round}");
                assert_eq!(s1.to_bits(), s2.to_bits(), "round {round}: {s1} vs {s2}");
            }
            assert_eq!(session.elapsed_ms(), fresh_session.elapsed_ms());
        }
    }

    #[test]
    fn dense_store_commits_and_clears() {
        let mut store = DenseStore::default();
        let start = store.start_track();
        store.push_row(&[1.0, 2.0]);
        store.push_row(&[3.0, 4.0]);
        store.commit_track(TrackId(7), start);
        assert!(store.contains(TrackId(7)));
        assert_eq!(store.dim(), 2);
        assert_eq!(store.rows(TrackId(7)), &[1.0, 2.0, 3.0, 4.0]);

        let data_cap_before = store.data.capacity();
        store.clear();
        assert!(!store.contains(TrackId(7)));
        assert_eq!(store.dim(), 0);
        assert_eq!(
            store.data.capacity(),
            data_cap_before,
            "clear keeps capacity"
        );
    }

    #[test]
    fn empty_tracks_score_worst_without_charges() {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            Track::with_boxes(TrackId(1), classes::PEDESTRIAN, vec![]),
            track(2, 10, 0, 3),
        ]);
        let ps = vec![TrackPair::new(TrackId(1), TrackId(2)).unwrap()];
        let input = SelectionInput {
            pairs: &ps,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        let scores = exact_scores(&input, &mut session).unwrap();
        assert_eq!(scores, vec![(ps[0], 1.0)]);
        assert_eq!(session.stats().distances, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The dot-product kernel agrees with the naive kernel on
            /// realistic (model-generated, unit-norm) feature matrices.
            /// Frames are disjoint across tracks so no two rows are
            /// bit-identical, keeping the `√(2−2·a·b)` cancellation error
            /// far below the 1e-9 budget.
            #[test]
            fn rewrite_matches_reference(
                sizes in proptest::collection::vec(1usize..8, 2..5),
                actors in proptest::collection::vec(0u64..4, 2..5),
                threads in 1usize..5,
            ) {
                let model = AppearanceModel::new(AppearanceConfig::default());
                let n = sizes.len().min(actors.len());
                let tracks = TrackSet::from_tracks(
                    (0..n)
                        .map(|i| track(i as u64 + 1, actors[i], i as u64 * 100, sizes[i]))
                        .collect(),
                );
                let mut ps = Vec::new();
                for i in 0..n as u64 {
                    for j in (i + 1)..n as u64 {
                        ps.push(TrackPair::new(TrackId(i + 1), TrackId(j + 1)).unwrap());
                    }
                }
                let input = SelectionInput { pairs: &ps, tracks: &tracks, k: 1.0, voi: None };
                std::env::set_var(tm_par::THREADS_ENV, threads.to_string());
                let mut s_new = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
                let new = exact_scores(&input, &mut s_new).unwrap();
                std::env::remove_var(tm_par::THREADS_ENV);
                let mut s_ref = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
                let reference = exact_scores_reference(&input, &mut s_ref).unwrap();
                prop_assert_eq!(new.len(), reference.len());
                for ((p1, s1), (p2, s2)) in new.iter().zip(&reference) {
                    prop_assert_eq!(p1, p2);
                    prop_assert!((s1 - s2).abs() < 1e-9, "{}: {} vs {}", p1, s1, s2);
                }
            }
        }
    }
}
