//! Anytime query-driven merging (DESIGN.md §17).
//!
//! The classic pipeline is query-agnostic: it spends its whole inference
//! budget repairing track identity, then the query layer reads the result.
//! This module inverts the relationship, in the spirit of TRACER-style
//! anytime processing: the *query* drives candidate selection, and the
//! caller can stop at any budget with a sound answer interval.
//!
//! Three pieces:
//!
//! * **Value-of-information hints** ([`voi_hints`]) — a per-pair weight in
//!   `[0, 1]` measuring how much resolving that pair could move the answer
//!   of a specific [`Query`]. Weight `0.0` is reserved for pairs that are
//!   *provably irrelevant* (no outcome of the pair can ever change the
//!   answer); the selectors defer those outright, and their per-window
//!   charge becomes headroom for relevant pairs. Positive weights reweight
//!   bandit arm selection softly (see `tm_core::voi`).
//! * **Sound answer intervals** — after any prefix of the work, the final
//!   answer cardinality is bracketed by `[lo, hi]`: `lo` counts only what
//!   the accepted merges already guarantee, `hi` additionally grants every
//!   still-plausible merge. Both are computed against the *component
//!   structure* of the undecided pair graph, so they are sound for every
//!   realizable completion of the run.
//! * **Drivers** — [`AnytimeQuery`] (offline: whole video known up front,
//!   windows scheduled by descending VoI, monotonically tightening interval,
//!   early termination when `lo == hi`) and [`AnytimeStream`] (online:
//!   wraps a [`StreamingMerger`], refreshes hints between advances, reports
//!   raw per-watermark intervals, and converges to the exact answer at
//!   `finish`). Stream interval state rides an anytime checkpoint
//!   envelope (`tm_core::checkpoint`) that ends with the merger's own.
//!
//! ## Budget unit
//!
//! The budget counts **pairwise distance evaluations** — the unit the
//! selectors' per-window `τ_max` is denominated in. `inferences_spent`
//! reports the same unit. A budgeted offline run spreads what remains over
//! the windows still unprocessed (breadth over depth): every window is
//! visited at a reduced per-window `τ`, instead of the first few windows
//! exhausting the budget at full depth, and unspent allowance flows to
//! later windows. Budget adherence is approximate at window granularity: a
//! selector's initialisation phase may charge slightly past the remaining
//! budget before the clamp takes effect, so callers must not assume
//! `inferences_spent <= budget` exactly.
//!
//! ## Interval soundness
//!
//! Let `G_lo` be the partition induced by accepted merges only, and `G_hi`
//! the coarser partition induced by accepted ∪ plausible pairs. Any final
//! partition refines `G_hi` and coarsens `G_lo`, so per-`G_hi`-component
//! bounds over *all* partitions of its `G_lo` sub-components bracket every
//! realizable outcome (possibly loosely — unconstrained partitions are a
//! superset of realizable ones, which only widens the interval). The
//! current `G_lo` partition itself is realizable (the selectors may accept
//! nothing further), hence `estimate ∈ [lo, hi]` at every step, and the
//! full-budget answer is realizable at every prefix, hence it lies inside
//! every intermediate interval — the property battery pins both.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use tm_core::checkpoint::{corrupt, open, seal, Kind, Reader, Writer};
use tm_core::{
    build_window_pairs, CandidateSelector, MergedIds, PipelineConfig, SelectionInput,
    StreamingMerger, VoiHints, VoiMode,
};
use tm_reid::{AppearanceModel, ReidSession};
use tm_types::{BBox, Result, Track, TrackId, TrackPair, TrackSet};

use crate::queries::{evaluate_merged, Query, QueryAnswer};

// ---------------------------------------------------------------------------
// Configuration and answer types
// ---------------------------------------------------------------------------

/// How an anytime run spends and stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimeConfig {
    /// Total distance-evaluation budget; `None` runs to completion.
    pub budget: Option<u64>,
    /// Stop as soon as the interval closes (`lo == hi`): every remaining
    /// inference is provably unable to change the answer cardinality.
    pub stop_on_convergence: bool,
    /// Attach VoI hints to the selectors (defer weight-0 pairs, bias the
    /// rest). With `false` the run is query-agnostic — same candidates as
    /// the classic pipeline — and only the interval reporting is added.
    pub reweight_arms: bool,
}

impl Default for AnytimeConfig {
    fn default() -> Self {
        Self {
            budget: None,
            stop_on_convergence: true,
            reweight_arms: true,
        }
    }
}

/// One point of the interval trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalPoint {
    /// Distance evaluations spent when the point was taken.
    pub spent: u64,
    /// Answer cardinality of the current accepted partition.
    pub estimate: u64,
    /// Sound lower bound on the final answer cardinality.
    pub lo: f64,
    /// Sound upper bound on the final answer cardinality.
    pub hi: f64,
}

/// What an anytime run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeAnswer {
    /// Answer cardinality of the final accepted partition.
    pub estimate: u64,
    /// Final lower bound (equals `estimate` when `converged`).
    pub lo: f64,
    /// Final upper bound (equals `estimate` when `converged`).
    pub hi: f64,
    /// Total distance evaluations spent.
    pub inferences_spent: u64,
    /// True when `lo == hi`: the cardinality can no longer change.
    pub converged: bool,
    /// True when convergence fired before all windows were processed.
    pub terminated_early: bool,
    /// The concrete answer rows on the final accepted partition.
    pub answer: QueryAnswer,
    /// The merges the run accepted (committed only, for a stream).
    pub accepted: Vec<TrackPair>,
    /// Interval after every processed window (first point is pre-work).
    pub trajectory: Vec<IntervalPoint>,
    /// Pairs deferred as provably irrelevant to the query.
    pub deferred: u64,
}

// ---------------------------------------------------------------------------
// Per-track / per-component statistics
// ---------------------------------------------------------------------------

/// The per-track facts every query class reads: lifetime interval and —
/// for region queries — dwell inside the region.
#[derive(Debug, Clone, Copy, Default)]
struct TrackStat {
    /// Track has at least one observation.
    live: bool,
    first: u64,
    last: u64,
    /// Region dwell in observed frames (0 unless the query is
    /// [`Query::RegionTransit`]).
    dwell: u64,
}

impl TrackStat {
    fn span(&self) -> u64 {
        if self.live {
            self.last - self.first + 1
        } else {
            0
        }
    }
}

fn track_stats(tracks: &TrackSet, query: &Query) -> HashMap<TrackId, TrackStat> {
    let region = match query {
        Query::RegionTransit { region, .. } => Some(*region),
        _ => None,
    };
    tracks
        .iter()
        .map(|t| {
            let stat = match (t.first_frame(), t.last_frame()) {
                (Some(f), Some(l)) => TrackStat {
                    live: true,
                    first: f.get(),
                    last: l.get(),
                    dwell: region.map_or(0, |r| dwell(t, &r)),
                },
                _ => TrackStat::default(),
            };
            (t.id, stat)
        })
        .collect()
}

/// Frames in which the track's box overlaps `region` — the
/// [`crate::region::region_transit_query`] predicate, additive under merge.
fn dwell(t: &Track, region: &BBox) -> u64 {
    t.boxes
        .iter()
        .filter(|b| b.bbox.intersection_area(region) > 0.0)
        .count() as u64
}

/// Aggregate of a set of tracks: interval hull and total dwell. The hull
/// span upper-bounds the span of any merged subset; dwell is exactly
/// additive.
#[derive(Debug, Clone, Copy, Default)]
struct CompStat {
    live: bool,
    first: u64,
    last: u64,
    dwell: u64,
}

impl CompStat {
    fn absorb(&mut self, s: &TrackStat) {
        self.dwell += s.dwell;
        if !s.live {
            return;
        }
        if !self.live {
            (self.first, self.last) = (s.first, s.last);
            self.live = true;
        } else {
            self.first = self.first.min(s.first);
            self.last = self.last.max(s.last);
        }
    }

    fn absorb_comp(&mut self, c: &CompStat) {
        self.dwell += c.dwell;
        if !c.live {
            return;
        }
        if !self.live {
            (self.first, self.last) = (c.first, c.last);
            self.live = true;
        } else {
            self.first = self.first.min(c.first);
            self.last = self.last.max(c.last);
        }
    }

    fn span(&self) -> u64 {
        if self.live {
            self.last - self.first + 1
        } else {
            0
        }
    }
}

fn pair_hull(a: &TrackStat, b: &TrackStat) -> u64 {
    let mut c = CompStat::default();
    c.absorb(a);
    c.absorb(b);
    c.span()
}

// ---------------------------------------------------------------------------
// Value-of-information hints
// ---------------------------------------------------------------------------

/// Per-pair value-of-information weights for `query` over the candidate
/// universe `pairs`.
///
/// Weight `0.0` (deferral) is only assigned when *no outcome* of the pair
/// can change the query answer — the arguments are component-local:
/// merges never cross the connected components of the pair universe, so a
/// component whose aggregate can never satisfy the predicate contributes
/// zero rows under every completion, and merges inside it are irrelevant.
/// Positive weights are soft priorities ranked by how much the pair can
/// still *grow* the answer: 1.0 = the merge can mint a new answer row out
/// of two non-qualifying fragments, 0.5 = transitive value (extends a
/// qualifying track, or builds toward the floor through a chain), 0.25 =
/// shrink-only (both sides already qualify — resolving the pair can only
/// collapse rows the `hi` bound has already granted).
pub fn voi_hints(tracks: &TrackSet, query: Query, pairs: &[TrackPair]) -> VoiHints {
    let stats = track_stats(tracks, &query);
    let components: MergedIds = pairs.iter().collect();
    let mut comps: HashMap<TrackId, CompStat> = HashMap::new();
    for t in tracks.iter() {
        comps
            .entry(components.get(t.id))
            .or_default()
            .absorb(stats.get(&t.id).unwrap_or(&TrackStat::default()));
    }
    let mut hints = VoiHints::new();
    for p in pairs {
        let a = stats.get(&p.lo()).copied().unwrap_or_default();
        let b = stats.get(&p.hi()).copied().unwrap_or_default();
        let comp = comps
            .get(&components.get(p.lo()))
            .copied()
            .unwrap_or_default();
        let w = match query {
            Query::Count { min_frames } => weight_count(&a, &b, &comp, min_frames),
            Query::RegionTransit { min_frames, .. } => weight_region(&a, &b, &comp, min_frames),
            Query::CoOccurrence { min_frames, .. } => {
                weight_co_occurrence(&a, &b, &comp, min_frames)
            }
        };
        hints.set(*p, w);
    }
    hints
}

/// Count asks for merged span `> min_frames` (strict, matching
/// [`crate::queries::count_query`]).
fn weight_count(a: &TrackStat, b: &TrackStat, comp: &CompStat, min_frames: u64) -> f64 {
    // Provably irrelevant: the span of any merged subset of the component
    // is at most the component hull, so nothing in here ever qualifies and
    // the component contributes zero rows under every completion.
    if comp.span() <= min_frames {
        return 0.0;
    }
    let qa = a.span() > min_frames;
    let qb = b.span() > min_frames;
    if qa && qb {
        0.25 // shrink-only: collapses two counted tracks into one
    } else if !qa && !qb && pair_hull(a, b) > min_frames {
        1.0 // mint: two short fragments can jointly clear the floor
    } else {
        0.5 // transitive: extends a counted track, or chains toward the floor
    }
}

/// RegionTransit asks for merged dwell `>= min_frames`; dwell is exactly
/// additive under merge.
fn weight_region(a: &TrackStat, b: &TrackStat, comp: &CompStat, min_frames: u64) -> f64 {
    // Provably irrelevant: merged dwell can never exceed the component's
    // total dwell.
    if comp.dwell < min_frames {
        return 0.0;
    }
    let qa = a.dwell >= min_frames;
    let qb = b.dwell >= min_frames;
    if qa && qb {
        0.25 // shrink-only: two transiting rows collapse into one
    } else if !qa && !qb && a.dwell + b.dwell >= min_frames {
        1.0 // mint: two sub-threshold dwells add up past the floor
    } else {
        0.5 // transitive: extends a row, or chains dwell toward the floor
    }
}

/// Co-occurrence group members must individually span `>= min_frames`.
fn weight_co_occurrence(a: &TrackStat, b: &TrackStat, comp: &CompStat, min_frames: u64) -> f64 {
    // Provably irrelevant: no merged subset of the component can reach the
    // individual-span floor, so no member of any qualifying group can ever
    // come from this component.
    if comp.span() < min_frames {
        return 0.0;
    }
    // Unlike Count/RegionTransit there is no shrink-only class: merging
    // two already-eligible fragments of one actor still *extends* the
    // member's interval union, which can mint new joint groups.
    if pair_hull(a, b) >= min_frames {
        1.0 // the merged track can be (or stay) an eligible, longer member
    } else {
        0.5 // transitive: chains toward member eligibility
    }
}

// ---------------------------------------------------------------------------
// Sound interval bounds
// ---------------------------------------------------------------------------

/// Bounds the final answer cardinality given the accepted merges
/// (`accepted`, the `G_lo` partition) and the still-plausible pairs.
/// `answer` must be the evaluation of `query` on the accepted partition —
/// it seeds the co-occurrence witness count.
fn bound_interval(
    tracks: &TrackSet,
    query: &Query,
    stats: &HashMap<TrackId, TrackStat>,
    accepted: &MergedIds,
    plausible: &[TrackPair],
    answer: &QueryAnswer,
) -> (f64, f64) {
    // G_lo: partition under accepted merges only, keyed by smallest id.
    let mut lo_comps: BTreeMap<TrackId, CompStat> = BTreeMap::new();
    for t in tracks.iter() {
        lo_comps
            .entry(accepted.get(t.id))
            .or_default()
            .absorb(stats.get(&t.id).unwrap_or(&TrackStat::default()));
    }

    // G_hi: partition under accepted ∪ plausible; group G_lo components by
    // their G_hi component. A G_lo key is its component's smallest id,
    // itself a member, so its G_hi component is well-defined.
    let mut g_hi = accepted.clone();
    g_hi.extend(plausible);
    let mut hi_comps: BTreeMap<TrackId, Vec<CompStat>> = BTreeMap::new();
    for (&root, &stat) in &lo_comps {
        hi_comps.entry(g_hi.get(root)).or_default().push(stat);
    }

    match *query {
        Query::Count { min_frames } => {
            let (mut lo, mut hi) = (0.0, 0.0);
            for members in hi_comps.values() {
                let mut hull = CompStat::default();
                for m in members {
                    hull.absorb_comp(m);
                }
                let n_q = members.iter().filter(|m| m.span() > min_frames).count();
                let n_nq = members.len() - n_q;
                // Any partition keeps at least one row per qualifying
                // member (its group's span only grows); merging the whole
                // component reaches exactly one row.
                lo += f64::from(u8::from(n_q >= 1));
                // Each qualifying member can stand alone; extra rows need
                // >= 2 non-qualifying members and a hull that clears the
                // threshold at all.
                let extra = if n_nq >= 2 && hull.span() > min_frames {
                    (n_nq / 2) as f64
                } else {
                    0.0
                };
                hi += n_q as f64 + extra;
            }
            (lo, hi)
        }
        Query::RegionTransit { min_frames, .. } => {
            let (mut lo, mut hi) = (0.0, 0.0);
            for members in hi_comps.values() {
                let n_q = members.iter().filter(|m| m.dwell >= min_frames).count();
                let positives: Vec<u64> = members
                    .iter()
                    .filter(|m| m.dwell > 0 && m.dwell < min_frames)
                    .map(|m| m.dwell)
                    .collect();
                lo += f64::from(u8::from(n_q >= 1));
                // Dwell is additive and disjoint across final groups: a new
                // qualifying group needs >= 2 positive sub-threshold members
                // and >= min_frames of their combined dwell.
                let total: u64 = positives.iter().sum();
                // min_frames == 0 means every track already qualifies (the
                // positives list is empty); checked_div keeps that total.
                let extra =
                    (positives.len() / 2).min(total.checked_div(min_frames).unwrap_or(0) as usize);
                hi += (n_q + extra) as f64;
            }
            (lo, hi)
        }
        Query::CoOccurrence {
            group_size,
            min_frames,
        } => {
            let lo = co_occurrence_lo(answer, &g_hi);
            let hi = co_occurrence_hi(&hi_comps, group_size, min_frames);
            (lo, hi)
        }
    }
}

/// Lower bound for co-occurrence: each answer group on the accepted
/// partition whose members live in `group_size` *distinct* `G_hi`
/// components survives every completion — member intervals only grow under
/// merging (so individual span and joint overlap keep qualifying) and
/// members in different `G_hi` components can never merge with each other.
/// Distinct component sets yield distinct final groups, so the number of
/// distinct component sets is a sound floor.
fn co_occurrence_lo(answer: &QueryAnswer, g_hi: &MergedIds) -> f64 {
    let QueryAnswer::CoOccurrence(groups) = answer else {
        return 0.0;
    };
    let mut witness: BTreeSet<Vec<TrackId>> = BTreeSet::new();
    for g in groups {
        let mut roots: Vec<TrackId> = g.iter().map(|&id| g_hi.get(id)).collect();
        roots.sort();
        roots.dedup();
        if roots.len() == g.len() {
            witness.insert(roots);
        }
    }
    witness.len() as f64
}

/// DFS node budget for the co-occurrence upper bound; beyond it the loose
/// `C(Σ multiplicities, g)` fallback applies.
const CO_OCCURRENCE_DFS_BUDGET: u64 = 2_000_000;

/// Upper bound for co-occurrence: every final track lies inside one `G_hi`
/// component (interval ⊆ component hull) and a component with `m` `G_lo`
/// sub-components splits into at most `m` final tracks. Sum over chains of
/// components with pairwise hull-intersection `>= min_frames`, counting
/// `Π C(m_i, k_i)` member choices with `Σ k_i = group_size` — a superset
/// of every realizable group set.
fn co_occurrence_hi(
    hi_comps: &BTreeMap<TrackId, Vec<CompStat>>,
    group_size: usize,
    min_frames: u64,
) -> f64 {
    if group_size == 0 {
        return 0.0;
    }
    // Eligible components: hull must clear the individual-span floor.
    let mut comps: Vec<(u64, u64, u64)> = hi_comps
        .values()
        .filter_map(|members| {
            let mut hull = CompStat::default();
            for m in members {
                hull.absorb_comp(m);
            }
            (hull.live && hull.span() >= min_frames).then_some((
                hull.first,
                hull.last,
                members.len() as u64,
            ))
        })
        .collect();
    comps.sort_unstable();

    let mut nodes = CO_OCCURRENCE_DFS_BUDGET;
    let mut total = 0.0;
    let mut exhausted = false;
    // Iterative DFS over (next comp index, window, remaining picks, ways).
    let mut stack: Vec<(usize, u64, u64, usize, f64)> = comps
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.0, c.1, group_size, 1.0))
        .collect();
    while let Some((i, w_lo, w_hi, rem, ways)) = stack.pop() {
        let (c_lo, c_hi, mult) = comps[i];
        let n_lo = w_lo.max(c_lo);
        let n_hi = w_hi.min(c_hi);
        if n_hi < n_lo || n_hi - n_lo + 1 < min_frames {
            continue;
        }
        for k in 1..=rem.min(mult as usize) {
            if nodes == 0 {
                exhausted = true;
                break;
            }
            nodes -= 1;
            let w = ways * binom_f64(mult, k as u64);
            if k == rem {
                total += w;
            } else {
                for (j, c) in comps.iter().enumerate().skip(i + 1) {
                    // Sorted by hull start: once a component starts past
                    // the window, every later one does too.
                    if c.0 > n_hi {
                        break;
                    }
                    stack.push((j, n_lo, n_hi, rem - k, w));
                }
            }
        }
        if exhausted {
            break;
        }
    }
    if exhausted {
        // Loose but sound: choose any group_size of the eligible slots.
        let slots: u64 = comps.iter().map(|c| c.2).sum();
        return binom_f64(slots, group_size as u64);
    }
    total
}

/// Binomial coefficient in `f64` (sound as an upper bound even when it
/// saturates to `inf`).
fn binom_f64(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 1..=k {
        acc = acc * ((n - k + i) as f64) / (i as f64);
    }
    acc
}

// ---------------------------------------------------------------------------
// Offline driver
// ---------------------------------------------------------------------------

/// Offline anytime query processor: the whole video is known up front.
///
/// Windows are processed in descending value-of-information order (highest
/// max pair weight first, window index breaking ties), so the interval
/// tightens as fast as possible; because the selectors are stateless and
/// deterministically seeded, and the pair universe is globally
/// de-duplicated, the *full-budget* accepted set is identical to the
/// classic window-order pipeline's — the differential suite pins this.
#[derive(Debug, Clone)]
pub struct AnytimeQuery {
    /// The underlying pipeline shape (window length, K, selector, cost).
    pub pipeline: PipelineConfig,
    /// Anytime behaviour (budget, convergence stop, VoI reweighting).
    pub config: AnytimeConfig,
}

impl AnytimeQuery {
    /// A driver over `pipeline` with anytime behaviour `config`.
    pub fn new(pipeline: PipelineConfig, config: AnytimeConfig) -> Self {
        Self { pipeline, config }
    }

    /// Runs `query` over `tracks`, interleaving candidate scoring with
    /// query evaluation until the budget is exhausted, the interval
    /// converges, or the video is fully processed.
    pub fn run(
        &self,
        tracks: &TrackSet,
        n_frames: u64,
        model: &AppearanceModel,
        query: Query,
    ) -> Result<AnytimeAnswer> {
        tracks.validate()?;
        let obs = tm_obs::current();
        let stats = track_stats(tracks, &query);
        let windows = build_window_pairs(tracks, n_frames, self.pipeline.window_len)?;
        let universe: Vec<TrackPair> = windows.iter().flat_map(|w| w.pairs.clone()).collect();

        let hints = voi_hints(tracks, query, &universe);
        let deferred = universe.iter().filter(|p| hints.deferred(p)).count() as u64;
        obs.counter("query.voi.deferred", deferred);
        // Deferred pairs leave the plausible set only when the hints are
        // actually enforced; an un-hinted selector can still pick them.
        let enforce_deferral = self.config.reweight_arms;

        // Descending total pair VoI, stable on window index — windows dense
        // in answer-growing pairs tighten the interval fastest.
        // Result-invariant (selectors are stateless, pairs globally unique)
        // — only *when* the interval tightens depends on the order.
        let mut order: Vec<usize> = (0..windows.len())
            .filter(|&wi| !windows[wi].pairs.is_empty())
            .collect();
        let total_w = |wi: usize| {
            windows[wi]
                .pairs
                .iter()
                .map(|p| hints.weight(p))
                .sum::<f64>()
        };
        order.sort_by(|&a, &b| total_w(b).total_cmp(&total_w(a)).then(a.cmp(&b)));

        let mut session = ReidSession::new(model, self.pipeline.cost, self.pipeline.device)
            .with_gate(self.pipeline.gate);
        session.gate_update_plan(tracks);

        let mut processed = vec![false; windows.len()];
        let mut accepted: Vec<TrackPair> = Vec::new();
        let mut merged = MergedIds::new();
        let mut spent = 0u64;
        let mut trajectory: Vec<IntervalPoint> = Vec::new();
        let (mut run_lo, mut run_hi) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut flips = 0u64;
        let mut terminated_early = false;

        let observe = |merged: &MergedIds,
                       processed: &[bool],
                       spent: u64,
                       trajectory: &mut Vec<IntervalPoint>,
                       run_lo: &mut f64,
                       run_hi: &mut f64,
                       flips: &mut u64|
         -> (u64, QueryAnswer) {
            let answer = evaluate_merged(tracks, |id| merged.get(id), query);
            let plausible: Vec<TrackPair> = windows
                .iter()
                .enumerate()
                .filter(|&(wi, _)| !processed[wi])
                .flat_map(|(_, w)| w.pairs.iter())
                .filter(|p| !(enforce_deferral && hints.deferred(p)))
                .copied()
                .collect();
            let (lo, hi) = bound_interval(tracks, &query, &stats, merged, &plausible, &answer);
            // The universe only shrinks, so the interval can only tighten;
            // intersect with the running interval to make that monotone
            // even across bound slack.
            *run_lo = run_lo.max(lo);
            *run_hi = run_hi.min(hi);
            let estimate = answer.len() as u64;
            if let Some(prev) = trajectory.last() {
                if prev.estimate != estimate {
                    *flips += 1;
                }
            }
            trajectory.push(IntervalPoint {
                spent,
                estimate,
                lo: *run_lo,
                hi: *run_hi,
            });
            (estimate, answer)
        };

        // Pre-work point: nothing accepted, everything plausible.
        let (mut estimate, mut answer) = observe(
            &merged,
            &processed,
            spent,
            &mut trajectory,
            &mut run_lo,
            &mut run_hi,
            &mut flips,
        );

        for (pos, &wi) in order.iter().enumerate() {
            if run_lo == run_hi && self.config.stop_on_convergence {
                terminated_early = true;
                break;
            }
            let remaining = match self.config.budget {
                Some(b) if spent >= b => break,
                Some(b) => Some(b - spent),
                None => None,
            };
            let kind = match remaining {
                // Breadth over depth: spread what's left over the windows
                // still unprocessed, proportionally to their pair counts,
                // so every window is visited at reduced depth instead of
                // the first few exhausting the budget; unspent allowance
                // flows to later windows.
                Some(r) => {
                    let here = windows[wi].pairs.len() as u64;
                    let left: u64 = order[pos..]
                        .iter()
                        .map(|&w| windows[w].pairs.len() as u64)
                        .sum();
                    let share = (r * here).div_ceil(left.max(1));
                    self.pipeline.selector.with_tau_at_most(share.max(1))
                }
                None => self.pipeline.selector,
            };
            let selector = kind.build();
            let wp = &windows[wi];
            session.set_epoch(wp.window.index as u64);
            let input = SelectionInput {
                pairs: &wp.pairs,
                tracks,
                k: self.pipeline.k,
                voi: self.config.reweight_arms.then_some(&hints),
            };
            let result = selector.select(&input, &mut session)?;
            spent += result.distance_evals;
            merged.extend(&result.candidates);
            accepted.extend(result.candidates);
            processed[wi] = true;
            (estimate, answer) = observe(
                &merged,
                &processed,
                spent,
                &mut trajectory,
                &mut run_lo,
                &mut run_hi,
                &mut flips,
            );
        }

        let converged = run_lo == run_hi;
        obs.counter("query.voi.flips", flips);
        if terminated_early {
            obs.counter("query.voi.terminated_early", 1);
        }
        Ok(AnytimeAnswer {
            estimate,
            lo: run_lo,
            hi: run_hi,
            inferences_spent: spent,
            converged,
            terminated_early,
            answer,
            accepted,
            trajectory,
            deferred,
        })
    }
}

// ---------------------------------------------------------------------------
// Streaming driver
// ---------------------------------------------------------------------------

/// Anytime answers over a live feed: wraps a [`StreamingMerger`],
/// refreshes VoI hints before every advance, and reports a sound interval
/// at each watermark.
///
/// Mid-stream bounds are *per-watermark*: they bracket the answer over the
/// tracks seen so far, treating every unexamined same-class pair (plus
/// every pair of a degraded, stashed window) as plausible — sound but
/// loose while the feed is open. At [`AnytimeStream::finish`] the window
/// set closes: unexamined pairs outside the stash can never merge, so a
/// fault-free (or fully recovered) stream converges to the exact answer.
///
/// The `lo` side counts **committed** merges only — provisional merges
/// from degraded windows can still be dropped by re-verification, so they
/// widen `hi` (via the stash's plausible pairs) instead of raising `lo`.
pub struct AnytimeStream<'m, S: CandidateSelector> {
    merger: StreamingMerger<'m, S>,
    query: Query,
    reweight_arms: bool,
    trajectory: Vec<IntervalPoint>,
    flips: u64,
    finished: bool,
}

impl<'m, S: CandidateSelector> AnytimeStream<'m, S> {
    /// Wraps `merger`. Only [`AnytimeConfig::reweight_arms`] applies to a
    /// stream (the feed, not a budget, decides when windows close); hints
    /// additionally require the merger to run [`VoiMode::Reweight`].
    pub fn new(merger: StreamingMerger<'m, S>, query: Query, config: AnytimeConfig) -> Self {
        Self {
            merger,
            query,
            reweight_arms: config.reweight_arms,
            trajectory: Vec::new(),
            flips: 0,
            finished: false,
        }
    }

    /// Feeds the merger up to `frames_available` and returns the interval
    /// at the new watermark.
    pub fn advance(&mut self, tracks: &TrackSet, frames_available: u64) -> Result<IntervalPoint> {
        self.refresh_hints(tracks);
        self.merger.advance(tracks, frames_available)?;
        Ok(self.observe(tracks).0)
    }

    /// Closes the stream: flushes the final window, re-verifies any
    /// stashed windows, and returns the final anytime answer. Converges
    /// exactly (`lo == hi == estimate`) whenever the stash drained.
    pub fn finish(&mut self, tracks: &TrackSet, total_frames: u64) -> Result<AnytimeAnswer> {
        self.refresh_hints(tracks);
        self.merger.finish(tracks, total_frames)?;
        self.finished = true;
        let (point, answer) = self.observe(tracks);
        tm_obs::current().counter("query.voi.flips", self.flips);
        Ok(AnytimeAnswer {
            estimate: point.estimate,
            lo: point.lo,
            hi: point.hi,
            inferences_spent: point.spent,
            converged: point.lo == point.hi,
            terminated_early: false,
            answer,
            accepted: self.merger.accepted().to_vec(),
            trajectory: self.trajectory.clone(),
            deferred: 0,
        })
    }

    /// The interval trajectory so far (one point per advance/finish).
    pub fn trajectory(&self) -> &[IntervalPoint] {
        &self.trajectory
    }

    /// The wrapped merger.
    pub fn merger(&self) -> &StreamingMerger<'m, S> {
        &self.merger
    }

    /// Mutable access to the wrapped merger (probing, shedding).
    pub fn merger_mut(&mut self) -> &mut StreamingMerger<'m, S> {
        &mut self.merger
    }

    fn refresh_hints(&mut self, tracks: &TrackSet) {
        if !self.reweight_arms || self.merger.config().voi != VoiMode::Reweight {
            self.merger.set_voi_hints(None);
            return;
        }
        // Component structure over every admissible pair (examined or
        // not): a superset of what can still merge, which only weakens the
        // deferral conditions — sound.
        let universe = admissible_pairs(tracks);
        let hints = voi_hints(tracks, self.query, &universe);
        tm_obs::current().counter(
            "query.voi.deferred",
            universe.iter().filter(|p| hints.deferred(p)).count() as u64,
        );
        self.merger.set_voi_hints(Some(hints));
    }

    /// The interval at the current watermark, and the estimate's answer.
    fn observe(&mut self, tracks: &TrackSet) -> (IntervalPoint, QueryAnswer) {
        let stats = track_stats(tracks, &self.query);
        let enforce = self.reweight_arms && self.merger.config().voi == VoiMode::Reweight;
        let hints = enforce.then(|| {
            let universe = admissible_pairs(tracks);
            voi_hints(tracks, self.query, &universe)
        });

        // Plausible: every stashed (degraded) window's pairs — their
        // provisional decisions can still flip either way — plus, while
        // the feed is open, every admissible pair not yet examined. After
        // finish() the window set is closed, so only the stash remains.
        // Stash pairs are NEVER pruned by deferral: re-verification runs
        // hint-free by design.
        let mut plausible: BTreeSet<TrackPair> = self.merger.stash_pairs().into_iter().collect();
        if !self.finished {
            for p in admissible_pairs(tracks) {
                if !self.merger.pair_examined(&p) && !hints.as_ref().is_some_and(|h| h.deferred(&p))
                {
                    plausible.insert(p);
                }
            }
        }
        let plausible: Vec<TrackPair> = plausible.into_iter().collect();

        // Estimate evaluates the merger's full relabelling (committed +
        // provisional) — the stream's best current guess; the bounds use
        // committed merges only, and so must the lo-side witness answer.
        let merged = self.merger.merged_ids();
        let answer = evaluate_merged(tracks, |id| merged.get(id), self.query);
        let committed = self.merger.committed_ids();
        let lo_answer = evaluate_merged(tracks, |id| committed.get(id), self.query);
        let (lo, hi) = bound_interval(
            tracks,
            &self.query,
            &stats,
            committed,
            &plausible,
            &lo_answer,
        );
        let estimate = answer.len() as u64;
        if let Some(prev) = self.trajectory.last() {
            if prev.estimate != estimate {
                self.flips += 1;
            }
        }
        let point = IntervalPoint {
            spent: self.merger.reid_stats().distances,
            estimate,
            lo,
            hi,
        };
        self.trajectory.push(point);
        (point, answer)
    }

    // -- checkpoint envelope ------------------------------------------------

    /// Serializes the anytime state as an anytime envelope ending with
    /// the merger's own checkpoint. Hints are not serialized (they are
    /// recomputed from the feed on the next advance).
    pub fn checkpoint(&self) -> Vec<u8> {
        seal(Kind::Anytime, |w| {
            put_query(w, &self.query);
            w.put_bool(self.reweight_arms);
            w.put_bool(self.finished);
            w.put_u64(self.flips);
            w.put_u64(self.trajectory.len() as u64);
            for p in &self.trajectory {
                w.put_u64(p.spent);
                w.put_u64(p.estimate);
                w.put_f64(p.lo);
                w.put_f64(p.hi);
            }
            w.put_bytes(&self.merger.checkpoint());
        })
    }

    /// Reconstructs an anytime stream from a [`AnytimeStream::checkpoint`].
    /// `model`, `session_cost`, `device` and `selector` must match the
    /// original run, exactly as for [`StreamingMerger::resume`].
    pub fn resume(
        model: &'m AppearanceModel,
        session_cost: tm_reid::CostModel,
        device: tm_reid::Device,
        selector: S,
        bytes: &[u8],
    ) -> Result<Self> {
        let mut r = open(Kind::Anytime, bytes)?;
        let query = take_query(&mut r)?;
        let reweight_arms = r.take_bool()?;
        let finished = r.take_bool()?;
        let flips = r.take_u64()?;
        let n = r.take_len()?;
        let trajectory: Vec<IntervalPoint> = (0..n)
            .map(|_| {
                Ok(IntervalPoint {
                    spent: r.take_u64()?,
                    estimate: r.take_u64()?,
                    lo: r.take_f64()?,
                    hi: r.take_f64()?,
                })
            })
            .collect::<Result<_>>()?;
        let merger_bytes = r.take_bytes()?;
        r.finish()?;
        let merger = StreamingMerger::resume(model, session_cost, device, selector, merger_bytes)?;
        Ok(Self {
            merger,
            query,
            reweight_arms,
            trajectory,
            flips,
            finished,
        })
    }
}

/// Every same-class pair over the current track set — the admissible merge
/// universe of a stream whose future windows are unknown.
fn admissible_pairs(tracks: &TrackSet) -> Vec<TrackPair> {
    let mut ids: Vec<(TrackId, tm_types::ClassId)> =
        tracks.iter().map(|t| (t.id, t.class)).collect();
    ids.sort();
    let mut out = Vec::new();
    for (i, &(a, ca)) in ids.iter().enumerate() {
        for &(b, cb) in &ids[i + 1..] {
            if ca == cb {
                if let Some(p) = TrackPair::new(a, b) {
                    out.push(p);
                }
            }
        }
    }
    out
}

fn put_query(w: &mut Writer, q: &Query) {
    match *q {
        Query::Count { min_frames } => {
            w.put_u64(0);
            w.put_u64(min_frames);
        }
        Query::CoOccurrence {
            group_size,
            min_frames,
        } => {
            w.put_u64(1);
            w.put_u64(group_size as u64);
            w.put_u64(min_frames);
        }
        Query::RegionTransit { region, min_frames } => {
            w.put_u64(2);
            w.put_f64(region.x);
            w.put_f64(region.y);
            w.put_f64(region.w);
            w.put_f64(region.h);
            w.put_u64(min_frames);
        }
    }
}

fn take_query(r: &mut Reader<'_>) -> Result<Query> {
    Ok(match r.take_u64()? {
        0 => Query::Count {
            min_frames: r.take_u64()?,
        },
        1 => Query::CoOccurrence {
            group_size: r.take_u64()? as usize,
            min_frames: r.take_u64()?,
        },
        2 => Query::RegionTransit {
            region: BBox::new(r.take_f64()?, r.take_f64()?, r.take_f64()?, r.take_f64()?),
            min_frames: r.take_u64()?,
        },
        _ => return Err(corrupt("unknown query tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::evaluate;
    use tm_types::{ids::classes, FrameIdx, TrackBox};

    fn track(id: u64, frames: std::ops::Range<u64>) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            frames
                .map(|f| TrackBox::new(FrameIdx(f), BBox::new(10.0, 10.0, 5.0, 5.0)))
                .collect(),
        )
    }

    fn pair(a: u64, b: u64) -> TrackPair {
        TrackPair::new(TrackId(a), TrackId(b)).unwrap()
    }

    #[test]
    fn count_deferral_requires_hopeless_component() {
        // Tracks 1+2 span [0, 40] jointly: hull 41 <= 100 — hopeless.
        let ts = TrackSet::from_tracks(vec![track(1, 0..20), track(2, 25..41)]);
        let hints = voi_hints(&ts, Query::Count { min_frames: 100 }, &[pair(1, 2)]);
        assert!(hints.deferred(&pair(1, 2)));
        // With a reachable threshold the pair mints a qualifying track.
        let hints = voi_hints(&ts, Query::Count { min_frames: 30 }, &[pair(1, 2)]);
        assert_eq!(hints.weight(&pair(1, 2)), 1.0);
    }

    #[test]
    fn interval_brackets_estimate_and_tightens_to_exact() {
        let ts = TrackSet::from_tracks(vec![
            track(1, 0..100),
            track(2, 120..220),
            track(3, 400..420),
        ]);
        let query = Query::Count { min_frames: 150 };
        let stats = track_stats(&ts, &query);
        let p = pair(1, 2);
        // Undecided: neither track qualifies alone, merging 1+2 would
        // (hull 220 > 150).
        let answer = evaluate(&ts, query);
        let (lo, hi) = bound_interval(&ts, &query, &stats, &MergedIds::new(), &[p], &answer);
        assert_eq!((lo, hi), (0.0, 1.0));
        assert!(lo <= answer.len() as f64 && answer.len() as f64 <= hi);
        // Accepted: exactly one qualifying merged track, interval closed.
        let mapping = tm_core::merge_mapping(&[p]);
        let merged = ts.relabeled(&mapping);
        let answer = evaluate(&merged, query);
        let (lo, hi) = bound_interval(&ts, &query, &stats, &[p].iter().collect(), &[], &answer);
        assert_eq!((lo, hi), (1.0, 1.0));
        assert_eq!(answer.len(), 1);
    }

    #[test]
    fn region_bounds_use_additive_dwell() {
        let region = BBox::new(0.0, 0.0, 100.0, 100.0);
        // Both tracks dwell fully inside the region.
        let ts = TrackSet::from_tracks(vec![track(1, 0..30), track(2, 40..70)]);
        let query = Query::RegionTransit {
            region,
            min_frames: 50,
        };
        let stats = track_stats(&ts, &query);
        let answer = evaluate(&ts, query);
        let (lo, hi) = bound_interval(
            &ts,
            &query,
            &stats,
            &MergedIds::new(),
            &[pair(1, 2)],
            &answer,
        );
        // 30 + 30 = 60 >= 50: one extra qualifying group is possible.
        assert_eq!((lo, hi), (0.0, 1.0));
        // Hopeless when the combined dwell cannot reach the floor.
        let hints = voi_hints(
            &ts,
            Query::RegionTransit {
                region,
                min_frames: 70,
            },
            &[pair(1, 2)],
        );
        assert!(hints.deferred(&pair(1, 2)));
    }

    #[test]
    fn co_occurrence_bounds_count_component_choices() {
        // Three long tracks overlapping on [0, 100): answer has one group.
        let ts = TrackSet::from_tracks(vec![track(1, 0..100), track(2, 0..100), track(3, 0..100)]);
        let query = Query::CoOccurrence {
            group_size: 3,
            min_frames: 50,
        };
        let stats = track_stats(&ts, &query);
        let answer = evaluate(&ts, query);
        assert_eq!(answer.len(), 1);
        // Nothing plausible: exact.
        let (lo, hi) = bound_interval(&ts, &query, &stats, &MergedIds::new(), &[], &answer);
        assert_eq!((lo, hi), (1.0, 1.0));
        // A plausible merge of 1+2 could destroy the group: lo drops.
        let (lo, hi) = bound_interval(
            &ts,
            &query,
            &stats,
            &MergedIds::new(),
            &[pair(1, 2)],
            &answer,
        );
        assert_eq!(lo, 0.0);
        assert!(hi >= 1.0);
    }

    #[test]
    fn binom_matches_small_cases() {
        assert_eq!(binom_f64(5, 2), 10.0);
        assert_eq!(binom_f64(4, 4), 1.0);
        assert_eq!(binom_f64(3, 5), 0.0);
    }

    #[test]
    fn query_words_round_trip() {
        let queries = [
            Query::Count { min_frames: 7 },
            Query::CoOccurrence {
                group_size: 3,
                min_frames: 50,
            },
            Query::RegionTransit {
                region: BBox::new(1.5, 2.5, 3.5, 4.5),
                min_frames: 9,
            },
        ];
        for q in queries {
            let bytes = seal(Kind::Anytime, |w| put_query(w, &q));
            let mut r = open(Kind::Anytime, &bytes).unwrap();
            assert_eq!(take_query(&mut r).unwrap(), q);
            r.finish().unwrap();
        }
    }
}
