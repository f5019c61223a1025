//! TMerge — Thompson-sampling candidate selection (Algorithms 2–4, §IV).
//!
//! Every track pair `p_{i,j}` carries a Beta posterior `Be(S, F)` over its
//! normalized score. Each iteration:
//!
//! 1. draws `θ_{i,j} ~ Be(S_{i,j}, F_{i,j})` for every live pair and picks
//!    the arg-min (Thompson sampling for *minimization*) — certified draws
//!    (`sampling::ThompsonDraws`, built once per selection for the CPU's
//!    product build) that reach the exact sampler's decisions from
//!    brackets: most draws need no `ln`, few need two, and almost none is
//!    computed exactly. A round with one live pair is a forced pick: the
//!    draws skip its uniforms and compute nothing, and the loop charges
//!    its scan to the simulated clock as for any other round,
//! 2. samples one of that pair's BBox pairs **without replacement**,
//!    computes its normalized ReID distance `d̃`,
//! 3. flips a Bernoulli coin with success probability `d̃`; success
//!    (`r = 1`, evidence of dissimilarity) increments `S`, failure
//!    increments `F` — the conjugate posterior update of §IV-B,
//! 4. optionally applies the ULB Hoeffding pruning of Algorithm 4.
//!
//! The final candidates are the `⌈K·|P_c|⌉` pairs with the lowest posterior
//! means `S/(S+F)`.
//!
//! **Flat rounds.** What a round reads for every live arm sits in per-arm
//! arrays ([`Arms`]): the counts `S` and `F` as integers, the VoI bias, the
//! sample count `n` and a sample mean cached on each pull. The round hands
//! the live list and the arrays to the draws in one call. The live list
//! keeps index order and is edited only when an arm locks in, is pruned or
//! runs out of BBox pairs. ULB reuses one Hoeffding radius per distinct
//! small `n` and finds its two order statistics in one pass when `m` is
//! small.
//!
//! **BetaInit** (Algorithm 3) warm-starts the posterior: pairs whose track
//! end-points are spatially close (`DisS < thr_S`) get `F += 1`, lowering
//! their prior mean so they are explored first.
//!
//! **Batched variant (TMerge-B, §IV-F)**: with a GPU session of batch size
//! `B`, each round takes the `B` smallest Thompson draws and evaluates them
//! in one GPU round; the posterior/ULB updates then apply to all `B`
//! results. `τ` counts BBox-pair evaluations, so a CPU run and a `-B` run
//! with the same `τ_max` do the same amount of ReID work.

use crate::sampling::{ThompsonDraws, WithoutReplacement};
use crate::score::PairBoxes;
use crate::selector::{CandidateSelector, SelectionInput, SelectionResult};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tm_reid::{ReidSession, NORMALIZER};
use tm_types::{Result, TmError, TrackPair};

/// TMerge parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TMergeConfig {
    /// Maximum number of BBox-pair evaluations (`τ_max`, Algorithm 2).
    pub tau_max: u64,
    /// BetaInit spatial threshold `thr_S` in pixels; `None` disables
    /// BetaInit (every pair starts at `Be(1, 1)`), as in the Fig. 8
    /// ablation.
    pub thr_s: Option<f64>,
    /// Enable ULB pruning (Algorithm 4); disabled in the Fig. 8 ablation.
    pub use_ulb: bool,
    /// RNG seed (Thompson draws, BBox sampling, Bernoulli trials).
    pub seed: u64,
    /// Record per-iteration normalized distances (regret analysis, §IV-E).
    pub record_history: bool,
    /// Rank the final candidates by the raw Bernoulli posterior mean
    /// `S/(S+F)` (Algorithm 2 line 15, literally). The default (`false`)
    /// ranks by the continuous sample mean `s̃'` that Algorithm 4 already
    /// maintains, shrunk toward the Beta prior by its pseudo-counts — the
    /// same information, without the 1-bit quantization loss; see
    /// DESIGN.md §5.
    pub rank_by_bernoulli_posterior: bool,
}

impl Default for TMergeConfig {
    /// The paper's defaults: `τ_max = 10 000`, `thr_S = 200`, ULB on.
    fn default() -> Self {
        Self {
            tau_max: 10_000,
            thr_s: Some(200.0),
            use_ulb: true,
            seed: 0,
            record_history: false,
            rank_by_bernoulli_posterior: false,
        }
    }
}

/// The TMerge selector.
#[derive(Debug, Clone, Copy)]
pub struct TMerge {
    config: TMergeConfig,
}

impl TMerge {
    /// Creates the selector.
    pub fn new(config: TMergeConfig) -> Self {
        Self { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TMergeConfig {
        &self.config
    }
}

/// Per-pair bandit state, indexed by the pair's position in the input.
/// Every round reads the arrays for each live arm; the [`Arm`]s are read
/// only for the chosen arms and at the end.
struct Arms<'a> {
    /// Beta counts: `S` starts at 1, `F` at 1 or 2 (BetaInit), and a pull
    /// increments one of them.
    s: Vec<u64>,
    f: Vec<u64>,
    /// Additive VoI rank bias (`1 - weight`, [`crate::voi`]); 0 without
    /// hints. Biases exploration toward high-weight arms.
    bias: Vec<f64>,
    /// Samples drawn, their normalized-distance sum and `sum / n` (1
    /// before the first), for ULB.
    n: Vec<u64>,
    sum: Vec<f64>,
    mean: Vec<f64>,
    rest: Vec<Arm<'a>>,
}

/// The part of an arm's state a round reads only when the arm is chosen.
struct Arm<'a> {
    boxes: PairBoxes<'a>,
    sampler: WithoutReplacement,
    /// `F` after BetaInit (the prior `S` is 1), for shrinkage ranking.
    prior_f: u64,
    /// Pruned into the candidate set (provably in the top-m).
    locked_in: bool,
    /// Pruned out (provably not in the top-m).
    pruned_out: bool,
    /// Deferred by a weight-0 VoI hint: never played, never a candidate.
    deferred: bool,
}

impl Arms<'_> {
    fn len(&self) -> usize {
        self.rest.len()
    }

    fn live(&self, i: usize) -> bool {
        let arm = &self.rest[i];
        !arm.deferred && !arm.locked_in && !arm.pruned_out && !arm.sampler.is_exhausted()
    }

    /// Records one Bernoulli trial and its normalized distance.
    fn pull(&mut self, i: usize, success: bool, d_norm: f64) {
        if success {
            self.s[i] += 1;
        } else {
            self.f[i] += 1;
        }
        self.n[i] += 1;
        self.sum[i] += d_norm;
        self.mean[i] = self.sum[i] / self.n[i] as f64;
    }

    fn posterior_mean(&self, i: usize) -> f64 {
        let (s, f) = (self.s[i] as f64, self.f[i] as f64);
        s / (s + f)
    }

    /// The score used for the final ranking: either the literal posterior
    /// mean, or the continuous sample mean shrunk toward the prior mean by
    /// the prior's pseudo-count weight.
    fn ranking_score(&self, i: usize, rank_by_posterior: bool) -> f64 {
        if rank_by_posterior {
            return self.posterior_mean(i);
        }
        let w0 = 1.0 + self.rest[i].prior_f as f64;
        let p0 = 1.0 / w0;
        (p0 * w0 + self.sum[i]) / (w0 + self.n[i] as f64)
    }
}

impl CandidateSelector for TMerge {
    fn name(&self) -> String {
        "TMerge".to_string()
    }

    fn obs_slug(&self) -> &'static str {
        "tmerge"
    }

    fn select(
        &self,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
    ) -> Result<SelectionResult> {
        let m = input.m();
        if m == 0 || input.pairs.is_empty() {
            return Ok(SelectionResult::default());
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // --- BetaInit (Algorithm 3). ---
        let len = input.pairs.len();
        let mut arms = Arms {
            s: vec![1; len],
            f: Vec::with_capacity(len),
            bias: Vec::with_capacity(len),
            n: vec![0; len],
            sum: vec![0.0; len],
            mean: vec![1.0; len],
            rest: Vec::with_capacity(len),
        };
        for &p in input.pairs {
            let boxes = PairBoxes::resolve(p, input.tracks)?;
            let mut f = 1;
            if let (Some(thr), Some(dis)) = (self.config.thr_s, boxes.spatial_distance()) {
                if dis < thr {
                    f += 1;
                }
            }
            let (bias, deferred) = match input.voi {
                Some(h) => (h.bias(&p), h.deferred(&p)),
                None => (0.0, false),
            };
            arms.f.push(f);
            arms.bias.push(bias);
            arms.rest.push(Arm {
                sampler: WithoutReplacement::new(boxes.total_bbox_pairs()),
                boxes,
                prior_f: f,
                locked_in: false,
                pruned_out: false,
                deferred,
            });
        }

        let mut tau = 0u64;
        let mut round = 0u64;
        let mut history = Vec::new();
        let batch = session.device().batch();
        // Round buffers, reused across rounds. The live list keeps index
        // order and loses an arm only when the arm locks in, is pruned or
        // runs out of BBox pairs.
        let mut live: Vec<usize> = (0..len).filter(|&i| arms.live(i)).collect();
        let mut draws = ThompsonDraws::new();
        let mut items: Vec<tm_reid::BoxPairRef<'_>> = Vec::with_capacity(batch);
        let mut ulb = UlbScratch::default();

        // --- Main sampling loop (Algorithm 2 lines 3–14). ---
        while tau < self.config.tau_max && !live.is_empty() {
            round += 1;
            // Line 4–5: Thompson draws over all live arms. The VoI bias (0
            // without hints) handicaps low-weight arms: they only win a
            // round when every high-weight arm drew badly.
            session.charge_thompson_scan(live.len());
            let budget_left = (self.config.tau_max - tau) as usize;
            let take = batch.min(live.len()).min(budget_left).max(1);
            draws.draw(&mut rng, &live, &arms.s, &arms.f, &arms.bias)?;
            // Line 6: the arg-min draw; TMerge-B takes the B smallest
            // (positions in `live`).
            let chosen = draws.smallest(take);

            // Line 7: sample a BBox pair (without replacement) from each
            // chosen arm; evaluate as one (GPU) round.
            items.clear();
            for &pos in chosen {
                let arm = &mut arms.rest[live[pos]];
                let flat = arm
                    .sampler
                    .draw(&mut rng)
                    .ok_or(TmError::Empty("live arm bbox-pair pool"))?;
                items.push(arm.boxes.bbox_pair(flat));
            }
            let distances = session.try_pair_distances_batch(&items)?;

            // Lines 8–13: Bernoulli trials and posterior updates.
            // Whether an arm ran out of box pairs or ULB decided it: only
            // then does the live list change.
            let mut dropped = false;
            for (&pos, d) in chosen.iter().zip(&distances) {
                let d_norm = (d / NORMALIZER).clamp(0.0, 1.0);
                let i = live[pos];
                arms.pull(i, rng.random_bool(d_norm), d_norm);
                dropped |= arms.rest[i].sampler.is_exhausted();
                tau += 1;
                if self.config.record_history {
                    history.push(d_norm);
                }
            }

            // Line 14: ULB pruning (Algorithm 4).
            if self.config.use_ulb {
                dropped |= ulb_prune(&mut arms, tau, m, &mut ulb);
            }
            if dropped {
                live.retain(|&i| arms.live(i));
            }
        }

        // --- Line 15: top-m by posterior mean. ---
        let rank_by_posterior = self.config.rank_by_bernoulli_posterior;
        let candidates = rank_candidates(&arms, m, rank_by_posterior);
        let obs = session.obs();
        if obs.enabled() {
            obs.counter("selector.tmerge.selections", 1);
            obs.counter("selector.tmerge.rounds", round);
            obs.counter("selector.tmerge.pulls", tau);
            let count = |flag: fn(&Arm<'_>) -> bool| arms.rest.iter().filter(|a| flag(a)).count();
            let locked = count(|a| a.locked_in) as u64;
            let pruned = count(|a| a.pruned_out) as u64;
            obs.counter("selector.tmerge.locked_in", locked);
            obs.counter("selector.tmerge.pruned_out", pruned);
            let voi_deferred = count(|a| a.deferred) as u64;
            if voi_deferred > 0 {
                obs.counter("selector.tmerge.voi_deferred", voi_deferred);
            }
            obs.counter("selector.tmerge.accepted", candidates.len() as u64);
            obs.counter(
                "selector.tmerge.rejected",
                (arms.len() - candidates.len()) as u64,
            );
            let mean_posterior =
                (0..arms.len()).map(|i| arms.posterior_mean(i)).sum::<f64>() / arms.len() as f64;
            obs.event(
                "tmerge_select",
                &[
                    ("pairs", tm_obs::Value::U64(arms.len() as u64)),
                    ("m", tm_obs::Value::U64(m as u64)),
                    ("pulls", tm_obs::Value::U64(tau)),
                    ("locked_in", tm_obs::Value::U64(locked)),
                    ("pruned_out", tm_obs::Value::U64(pruned)),
                    ("mean_posterior", tm_obs::Value::F64(mean_posterior)),
                ],
            );
        }
        let scores = (0..arms.len())
            .map(|i| {
                let score = arms.ranking_score(i, rank_by_posterior);
                (arms.rest[i].boxes.pair, score)
            })
            .collect();
        Ok(SelectionResult {
            candidates,
            scores,
            distance_evals: tau,
            history,
        })
    }
}

/// Candidate ranking honouring ULB verdicts: pairs proven inside the top-m
/// come first, proven-outside pairs come last; within each class the
/// posterior mean orders ascending (ties by pair for determinism).
fn rank_candidates(arms: &Arms<'_>, m: usize, rank_by_posterior: bool) -> Vec<TrackPair> {
    let class = |a: &Arm<'_>| -> u8 {
        if a.locked_in {
            0
        } else if a.pruned_out {
            2
        } else {
            1
        }
    };
    let score = |i: usize| arms.ranking_score(i, rank_by_posterior);
    let rest = &arms.rest;
    let mut order: Vec<usize> = (0..arms.len()).filter(|&i| !rest[i].deferred).collect();
    order.sort_by(|&x, &y| {
        class(&rest[x])
            .cmp(&class(&rest[y]))
            .then(
                score(x)
                    .partial_cmp(&score(y))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(rest[x].boxes.pair.cmp(&rest[y].boxes.pair))
    });
    order
        .into_iter()
        .take(m)
        .map(|i| rest[i].boxes.pair)
        .collect()
}

/// Minimum iterations / per-arm samples before Hoeffding bounds are
/// trusted. `U = √(2·ln τ / n)` degenerates at τ = 1 (ln 1 = 0 makes the
/// radius zero after a single sample); the paper relies on "a chosen τ that
/// makes the probability bound large enough", which this floor encodes.
const ULB_MIN_TAU: u64 = 8;
const ULB_MIN_SAMPLES: u64 = 2;

/// Sample counts below this share one Hoeffding radius per ULB check: a
/// 4 KiB table per selection, where an offline window's 105 arms end with
/// 95 samples on average.
const RADIUS_TABLE: usize = 256;

/// The largest `m` whose order statistics ULB finds in one pass, keeping
/// at most 16 sorted values a side; a larger `m`, such as K·|P_c| in the
/// figure sweeps, goes to two `select_nth_unstable_by` calls.
const ONE_PASS_M: usize = 16;

/// Algorithm 4 (ULB): lock arms provably inside the top-m and prune arms
/// provably outside, using Hoeffding radii `U = √(2·ln τ / n)`. Returns
/// whether it locked in or pruned any arm.
fn ulb_prune(arms: &mut Arms<'_>, tau: u64, m: usize, scratch: &mut UlbScratch) -> bool {
    if tau < ULB_MIN_TAU {
        return false;
    }
    // Bounds for every arm (pruned ones included — the counts in Algorithm
    // 4 line 6 quantify over all of P_c).
    scratch.fill_bounds(tau, &arms.n, &arms.mean);
    let cut = UlbCut::new(&scratch.bounds, m, &mut scratch.order_stat);
    let mut changed = false;
    for (i, (&n, &bounds)) in arms.n.iter().zip(&scratch.bounds).enumerate() {
        if n < ULB_MIN_SAMPLES {
            continue;
        }
        let Some(verdict) = cut.verdict(bounds) else {
            continue;
        };
        let arm = &mut arms.rest[i];
        if arm.locked_in || arm.pruned_out {
            continue;
        }
        match verdict {
            UlbVerdict::Inside => arm.locked_in = true,
            UlbVerdict::Outside => arm.pruned_out = true,
        }
        changed = true;
    }
    changed
}

/// ULB's buffers, reused across rounds.
#[derive(Default)]
struct UlbScratch {
    bounds: Vec<(f64, f64)>,
    order_stat: Vec<f64>,
    /// `(τ, √(2·ln τ / n))` at index `n`: the radius for `n` samples, and
    /// the `τ` it was computed at.
    radius: Vec<(u64, f64)>,
}

impl UlbScratch {
    /// Every arm's Hoeffding bounds `s̃ ± √(2·ln τ / n)` into `bounds`, and
    /// `(−∞, +∞)` below two samples. The radius for an `n` under
    /// [`RADIUS_TABLE`] is computed once per `τ`, with the same operations,
    /// so the bounds' bits do not depend on the reuse.
    fn fill_bounds(&mut self, tau: u64, n: &[u64], mean: &[f64]) {
        let log_term = 2.0 * (tau as f64).ln();
        if self.radius.is_empty() {
            // τ ≥ ULB_MIN_TAU here, so a τ of 0 marks an empty entry.
            self.radius = vec![(0, 0.0); RADIUS_TABLE];
        }
        self.bounds.resize(n.len(), (0.0, 0.0));
        for ((bounds, &n), &s) in self.bounds.iter_mut().zip(n).zip(mean) {
            *bounds = if n < ULB_MIN_SAMPLES {
                (f64::NEG_INFINITY, f64::INFINITY)
            } else {
                let u = match self.radius.get_mut(n as usize) {
                    Some(entry) => {
                        if entry.0 != tau {
                            *entry = (tau, (log_term / n as f64).sqrt());
                        }
                        entry.1
                    }
                    None => (log_term / n as f64).sqrt(),
                };
                (s - u, s + u)
            };
        }
    }
}

/// What ULB proves about one arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UlbVerdict {
    /// Provably inside the top-m: locked into the candidates.
    Inside,
    /// Provably outside the top-m: pruned.
    Outside,
}

/// The m-th smallest lower and upper bound over all arms, which decide
/// every arm's ULB verdict.
#[derive(Debug, Clone, Copy)]
struct UlbCut {
    lb_m: f64,
    ub_m: f64,
}

impl UlbCut {
    /// The cut over `bounds` (`m ≥ 1`): one pass for `m ≤ 16`, two O(n)
    /// selections with `buf` as scratch above. With fewer than m arms, +∞
    /// stands in for both: every arm is then inside the top-m and none
    /// outside, as the counts say.
    fn new(bounds: &[(f64, f64)], m: usize, buf: &mut Vec<f64>) -> Self {
        debug_assert!(m >= 1, "ULB needs m ≥ 1");
        if m > bounds.len() {
            Self {
                lb_m: f64::INFINITY,
                ub_m: f64::INFINITY,
            }
        } else if m <= ONE_PASS_M {
            Self::in_one_pass(bounds, m)
        } else {
            Self::by_selection(bounds, m, buf)
        }
    }

    /// Both m-th smallest bounds (`m ≤ 16`, `m ≤ bounds.len()`) from one
    /// pass that keeps the m smallest of each side in order.
    fn in_one_pass(bounds: &[(f64, f64)], m: usize) -> Self {
        let mut lbs = Smallest::new(m);
        let mut ubs = Smallest::new(m);
        for &(lb, ub) in bounds {
            lbs.offer(lb);
            ubs.offer(ub);
        }
        Self {
            lb_m: lbs.last(),
            ub_m: ubs.last(),
        }
    }

    /// Both m-th smallest bounds (`m ≤ bounds.len()`) from two selections
    /// over copies in `buf`.
    fn by_selection(bounds: &[(f64, f64)], m: usize, buf: &mut Vec<f64>) -> Self {
        let mut mth = |side: fn(&(f64, f64)) -> f64| {
            buf.clear();
            buf.extend(bounds.iter().map(side));
            *buf.select_nth_unstable_by(m - 1, f64::total_cmp).1
        };
        Self {
            lb_m: mth(|b| b.0),
            ub_m: mth(|b| b.1),
        }
    }

    /// The verdict for an arm with bounds `(lb, ub)`. The bounds below a
    /// value form a prefix of the sorted bounds, so "at least m bounds lie
    /// below x" is "the m-th smallest lies below x".
    fn verdict(&self, (lb, ub): (f64, f64)) -> Option<UlbVerdict> {
        if ub <= self.lb_m {
            // |{p' : lb' < ub}| ≤ m−1  →  provably in the top-m.
            Some(UlbVerdict::Inside)
        } else if self.ub_m < lb {
            // |{p' : ub' < lb}| ≥ m  →  provably outside the top-m.
            Some(UlbVerdict::Outside)
        } else {
            None
        }
    }
}

/// `f64::total_cmp`'s order as an integer order: the same transform of the
/// bits, and its own inverse.
#[inline(always)]
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The `m ≤ 16` smallest values offered so far, kept ascending as
/// [`total_key`]s — the order the selections use, so both ways give the
/// m-th smallest with the same bits.
struct Smallest {
    keys: [i64; ONE_PASS_M],
    len: usize,
    m: usize,
}

impl Smallest {
    fn new(m: usize) -> Self {
        debug_assert!((1..=ONE_PASS_M).contains(&m));
        Self {
            keys: [0; ONE_PASS_M],
            len: 0,
            m,
        }
    }

    #[inline(always)]
    fn offer(&mut self, x: f64) {
        let key = total_key(x);
        if self.len == self.m {
            if key >= self.keys[self.m - 1] {
                return;
            }
            self.len -= 1;
        }
        let mut at = self.len;
        while at > 0 && key < self.keys[at - 1] {
            self.keys[at] = self.keys[at - 1];
            at -= 1;
        }
        self.keys[at] = key;
        self.len += 1;
    }

    /// The m-th smallest, once at least m values were offered.
    fn last(&self) -> f64 {
        debug_assert_eq!(self.len, self.m);
        let key = self.keys[self.m - 1];
        f64::from_bits(total_key(f64::from_bits(key as u64)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device};
    use tm_types::TrackId;
    use tm_types::{ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackSet};

    fn track(id: u64, actor: u64, start: u64, n: usize, x0: f64) -> Track {
        Track::with_boxes(
            TrackId(id),
            classes::PEDESTRIAN,
            (0..n)
                .map(|i| {
                    TrackBox::new(
                        FrameIdx(start + i as u64),
                        BBox::new(x0 + i as f64 * 5.0, 100.0, 40.0, 80.0),
                    )
                    .with_provenance(GtObjectId(actor))
                })
                .collect(),
        )
    }

    /// 8 tracks, 2 polyonymous pairs: (1,2) for actor 10 — spatially close
    /// fragments — and (3,4) for actor 11.
    fn fixture() -> (AppearanceModel, TrackSet, Vec<TrackPair>) {
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 10, 0.0),
            track(2, 10, 40, 10, 60.0),
            track(3, 11, 0, 10, 300.0),
            track(4, 11, 40, 10, 360.0),
            track(5, 12, 0, 10, 600.0),
            track(6, 13, 0, 10, 900.0),
            track(7, 14, 10, 10, 1200.0),
            track(8, 15, 10, 10, 1500.0),
        ]);
        let ids: Vec<u64> = (1..=8).collect();
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
            }
        }
        (model, tracks, pairs)
    }

    fn poly_pairs() -> Vec<TrackPair> {
        vec![
            TrackPair::new(TrackId(1), TrackId(2)).unwrap(),
            TrackPair::new(TrackId(3), TrackId(4)).unwrap(),
        ]
    }

    #[test]
    fn finds_polyonymous_pairs_with_a_fraction_of_the_work() {
        let (model, tracks, pairs) = fixture();
        // 28 pairs; m = 2.
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 2.0 / 28.0,
            voi: None,
        };
        assert_eq!(input.m(), 2);
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 500,
            seed: 11,
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        for p in poly_pairs() {
            assert!(r.candidates.contains(&p), "missing {p}: {:?}", r.candidates);
        }
        // Full enumeration would be 28 × 100 = 2800 distances; we used ≤500.
        assert!(r.distance_evals <= 500);
    }

    #[test]
    fn respects_tau_budget_exactly() {
        let (model, tracks, pairs) = fixture();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 0.1,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 123,
            use_ulb: false,
            record_history: true,
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        assert_eq!(r.distance_evals, 123);
        assert_eq!(r.history.len(), 123);
    }

    #[test]
    fn batched_variant_respects_budget_and_quality() {
        let (model, tracks, pairs) = fixture();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 2.0 / 28.0,
            voi: None,
        };
        let mut gpu = ReidSession::new(&model, CostModel::calibrated(), Device::Gpu { batch: 10 });
        let tm = TMerge::new(TMergeConfig {
            tau_max: 600,
            seed: 3,
            ..Default::default()
        });
        let r = tm.select(&input, &mut gpu).unwrap();
        assert!(r.distance_evals <= 600);
        for p in poly_pairs() {
            assert!(r.candidates.contains(&p), "missing {p}");
        }
        // And it is much cheaper than the CPU run for the same budget.
        let mut cpu = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
        tm.select(&input, &mut cpu).unwrap();
        assert!(gpu.elapsed_ms() < cpu.elapsed_ms() / 3.0);
    }

    #[test]
    fn sampling_is_biased_toward_low_score_pairs() {
        // Long tracks so no pool is exhausted within the budget (with tiny
        // pools, exhaustion of the best arms forces late samples onto bad
        // pairs, which is correct without-replacement behaviour but not
        // what this test measures).
        let model = AppearanceModel::new(AppearanceConfig::default());
        let tracks = TrackSet::from_tracks(vec![
            track(1, 10, 0, 30, 0.0),
            track(2, 10, 40, 30, 60.0),
            track(3, 11, 0, 30, 300.0),
            track(4, 12, 0, 30, 600.0),
            track(5, 13, 0, 30, 900.0),
            track(6, 14, 0, 30, 1200.0),
        ]);
        let ids: Vec<u64> = (1..=6).collect();
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
            }
        }
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 0.1,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 600,
            use_ulb: false,
            record_history: true,
            seed: 5,
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        let q = r.history.len() / 4;
        let early: f64 = r.history[..q].iter().sum::<f64>() / q as f64;
        let late: f64 = r.history[r.history.len() - q..].iter().sum::<f64>() / q as f64;
        assert!(late < early, "late {late} should be below early {early}");
    }

    #[test]
    fn beta_init_lowers_prior_of_close_pairs() {
        // With an enormous thr_S every pair gets F=2; with None, F=1.
        // Verify through the prior posterior mean on a zero-budget run.
        let (model, tracks, pairs) = fixture();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 0,
            thr_s: Some(1e9),
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        for s in r.scores.values() {
            assert!(
                (s - 1.0 / 3.0).abs() < 1e-12,
                "prior mean should be 1/3, got {s}"
            );
        }
        let tm = TMerge::new(TMergeConfig {
            tau_max: 0,
            thr_s: None,
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        for s in r.scores.values() {
            assert!((s - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn ulb_prunes_and_preserves_quality() {
        let (model, tracks, pairs) = fixture();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 2.0 / 28.0,
            voi: None,
        };
        let run = |ulb: bool| {
            let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
            let tm = TMerge::new(TMergeConfig {
                tau_max: 2000,
                use_ulb: ulb,
                seed: 9,
                ..Default::default()
            });
            tm.select(&input, &mut session).unwrap()
        };
        let with = run(true);
        let without = run(false);
        // ULB should terminate earlier (pruning shrinks the live set until
        // sampling stops) without losing the true pairs.
        assert!(with.distance_evals <= without.distance_evals);
        for p in poly_pairs() {
            assert!(with.candidates.contains(&p), "ULB lost {p}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (model, tracks, pairs) = fixture();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 0.2,
            voi: None,
        };
        let run = || {
            let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
            TMerge::new(TMergeConfig {
                tau_max: 300,
                seed: 42,
                ..Default::default()
            })
            .select(&input, &mut session)
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.distance_evals, b.distance_evals);
    }

    #[test]
    fn empty_inputs_and_zero_m() {
        let (model, tracks, pairs) = fixture();
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig::default());
        let r = tm
            .select(
                &SelectionInput {
                    pairs: &[],
                    tracks: &tracks,
                    k: 0.5,
                    voi: None,
                },
                &mut session,
            )
            .unwrap();
        assert!(r.candidates.is_empty());
        let r = tm
            .select(
                &SelectionInput {
                    pairs: &pairs,
                    tracks: &tracks,
                    k: 0.0,
                    voi: None,
                },
                &mut session,
            )
            .unwrap();
        assert!(r.candidates.is_empty());
        assert_eq!(r.distance_evals, 0);
    }

    #[test]
    fn voi_deferred_pairs_are_never_played_or_selected() {
        let (model, tracks, pairs) = fixture();
        let mut hints = crate::voi::VoiHints::new();
        for &p in &pairs {
            if !poly_pairs().contains(&p) {
                hints.set(p, 0.0);
            }
        }
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 1.0,
            voi: Some(&hints),
        };
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 10_000,
            seed: 7,
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        // m = 28, but the 26 deferred pairs must not appear; the two live
        // arms can spend at most their combined bbox-pair pools.
        let mut got = r.candidates.clone();
        got.sort();
        assert_eq!(got, poly_pairs());
        assert!(
            r.distance_evals <= 200,
            "deferred arms were played: {} evals",
            r.distance_evals
        );
    }

    #[test]
    fn all_ones_hints_match_no_hints_exactly() {
        let (model, tracks, pairs) = fixture();
        let mut hints = crate::voi::VoiHints::new();
        for &p in &pairs {
            hints.set(p, 1.0);
        }
        let run = |voi: Option<&crate::voi::VoiHints>| {
            let input = SelectionInput {
                pairs: &pairs,
                tracks: &tracks,
                k: 0.2,
                voi,
            };
            let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
            TMerge::new(TMergeConfig {
                tau_max: 400,
                seed: 21,
                ..Default::default()
            })
            .select(&input, &mut session)
            .unwrap()
        };
        let plain = run(None);
        let hinted = run(Some(&hints));
        assert_eq!(plain.candidates, hinted.candidates);
        assert_eq!(plain.distance_evals, hinted.distance_evals);
        let mut a: Vec<_> = plain.scores.iter().collect();
        let mut b: Vec<_> = hinted.scores.iter().collect();
        a.sort_by_key(|(p, _)| **p);
        b.sort_by_key(|(p, _)| **p);
        assert_eq!(a, b);
    }

    /// The selection loop as it stood before flat rounds, frozen as the
    /// differential battery's reference: arms as structs with `f64`
    /// shapes, the live list rebuilt every round, the round's shapes
    /// pushed as they stand and picked by `select_nth_unstable_by` among
    /// all live arms (the certified draws, whose decisions `sampling`'s
    /// battery pins to exact `Beta` draws), a lone live arm drawn exactly
    /// through `Beta`, and ULB's bounds computed per arm and cut by two
    /// selections.
    fn select_reference(
        config: &TMergeConfig,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
    ) -> Result<SelectionResult> {
        use rand_distr::{Beta, Distribution};
        use std::cmp::Ordering;

        struct RefArm<'a> {
            boxes: PairBoxes<'a>,
            sampler: WithoutReplacement,
            s: f64,
            f: f64,
            prior_s: f64,
            prior_f: f64,
            n: u64,
            sum: f64,
            locked_in: bool,
            pruned_out: bool,
            bias: f64,
            deferred: bool,
        }
        impl RefArm<'_> {
            fn sample_mean(&self) -> f64 {
                if self.n == 0 {
                    1.0
                } else {
                    self.sum / self.n as f64
                }
            }
            fn ranking_score(&self, by_posterior: bool) -> f64 {
                if by_posterior {
                    return self.s / (self.s + self.f);
                }
                let w0 = self.prior_s + self.prior_f;
                let p0 = self.prior_s / w0;
                (p0 * w0 + self.sum) / (w0 + self.n as f64)
            }
            fn live(&self) -> bool {
                !self.deferred
                    && !self.locked_in
                    && !self.pruned_out
                    && !self.sampler.is_exhausted()
            }
        }

        let m = input.m();
        if m == 0 || input.pairs.is_empty() {
            return Ok(SelectionResult::default());
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut arms = Vec::new();
        for &p in input.pairs {
            let boxes = PairBoxes::resolve(p, input.tracks)?;
            let mut f = 1.0;
            if let (Some(thr), Some(dis)) = (config.thr_s, boxes.spatial_distance()) {
                if dis < thr {
                    f += 1.0;
                }
            }
            let (bias, deferred) = match input.voi {
                Some(h) => (h.bias(&p), h.deferred(&p)),
                None => (0.0, false),
            };
            arms.push(RefArm {
                sampler: WithoutReplacement::new(boxes.total_bbox_pairs()),
                boxes,
                s: 1.0,
                f,
                prior_s: 1.0,
                prior_f: f,
                n: 0,
                sum: 0.0,
                locked_in: false,
                pruned_out: false,
                bias,
                deferred,
            });
        }
        let (mut tau, mut history) = (0u64, Vec::new());
        let batch = session.device().batch();
        let mut buf = Vec::new();
        let mut draws = ThompsonDraws::new();
        while tau < config.tau_max {
            let live: Vec<usize> = (0..arms.len()).filter(|&i| arms[i].live()).collect();
            if live.is_empty() {
                break;
            }
            session.charge_thompson_scan(live.len());
            let budget_left = (config.tau_max - tau) as usize;
            let take = batch.min(live.len()).min(budget_left).max(1);
            let chosen = if let [i] = live[..] {
                // A lone arm is drawn through `rand_distr::Beta` itself and
                // wins whatever it drew.
                Beta::new(arms[i].s, arms[i].f)
                    .expect("counts ≥ 1 are valid shapes")
                    .sample(&mut rng);
                vec![0]
            } else {
                let shapes = |shape: fn(&RefArm<'_>) -> f64| -> Vec<u64> {
                    live.iter().map(|&i| shape(&arms[i]) as u64).collect()
                };
                let (s, f) = (shapes(|a| a.s), shapes(|a| a.f));
                let bias: Vec<f64> = live.iter().map(|&i| arms[i].bias).collect();
                let positions: Vec<usize> = (0..live.len()).collect();
                draws.draw(&mut rng, &positions, &s, &f, &bias)?;
                draws.smallest_among_all(take).to_vec()
            };
            let mut items = Vec::new();
            for &pos in &chosen {
                let arm = &mut arms[live[pos]];
                let flat = arm
                    .sampler
                    .draw(&mut rng)
                    .ok_or(TmError::Empty("live arm bbox-pair pool"))?;
                items.push(arm.boxes.bbox_pair(flat));
            }
            let distances = session.try_pair_distances_batch(&items)?;
            for (&pos, d) in chosen.iter().zip(&distances) {
                let d_norm = (d / NORMALIZER).clamp(0.0, 1.0);
                let arm = &mut arms[live[pos]];
                if rng.random_bool(d_norm) {
                    arm.s += 1.0;
                } else {
                    arm.f += 1.0;
                }
                arm.n += 1;
                arm.sum += d_norm;
                tau += 1;
                if config.record_history {
                    history.push(d_norm);
                }
            }
            if config.use_ulb && tau >= ULB_MIN_TAU {
                let log_term = 2.0 * (tau as f64).ln();
                let bounds: Vec<(f64, f64)> = arms
                    .iter()
                    .map(|a| {
                        if a.n < ULB_MIN_SAMPLES {
                            (f64::NEG_INFINITY, f64::INFINITY)
                        } else {
                            let u = (log_term / a.n as f64).sqrt();
                            let s = a.sample_mean();
                            (s - u, s + u)
                        }
                    })
                    .collect();
                let cut = if m > bounds.len() {
                    UlbCut {
                        lb_m: f64::INFINITY,
                        ub_m: f64::INFINITY,
                    }
                } else {
                    UlbCut::by_selection(&bounds, m, &mut buf)
                };
                for (arm, &b) in arms.iter_mut().zip(&bounds) {
                    if arm.locked_in || arm.pruned_out || arm.n < ULB_MIN_SAMPLES {
                        continue;
                    }
                    match cut.verdict(b) {
                        Some(UlbVerdict::Inside) => arm.locked_in = true,
                        Some(UlbVerdict::Outside) => arm.pruned_out = true,
                        None => {}
                    }
                }
            }
        }
        let by_posterior = config.rank_by_bernoulli_posterior;
        let class = |a: &RefArm<'_>| u8::from(!a.locked_in) + u8::from(a.pruned_out);
        let mut order: Vec<usize> = (0..arms.len()).filter(|&i| !arms[i].deferred).collect();
        order.sort_by(|&x, &y| {
            class(&arms[x])
                .cmp(&class(&arms[y]))
                .then(
                    arms[x]
                        .ranking_score(by_posterior)
                        .partial_cmp(&arms[y].ranking_score(by_posterior))
                        .unwrap_or(Ordering::Equal),
                )
                .then(arms[x].boxes.pair.cmp(&arms[y].boxes.pair))
        });
        Ok(SelectionResult {
            candidates: order.iter().take(m).map(|&i| arms[i].boxes.pair).collect(),
            scores: arms
                .iter()
                .map(|a| (a.boxes.pair, a.ranking_score(by_posterior)))
                .collect(),
            distance_evals: tau,
            history,
        })
    }

    /// A random selection problem and its `τ_max`, of one of three kinds.
    /// Wide: 18–24 tracks, most of them short (1–6 boxes, so their pairs'
    /// pools of box pairs run out), and 1–150 of their pairs. Deep: 4–6
    /// tracks of 20–30 boxes, all of their pairs, and a budget of up to
    /// 8,000 pulls, so that pairs gather the hundreds of samples ULB needs
    /// to lock in and prune. Tracks belong to six actors and are placed so
    /// that BetaInit's 200 px threshold splits them; pairs come in random
    /// order. Forced: see [`forced_scenario`].
    fn scenario(g: &mut StdRng) -> (TrackSet, Vec<TrackPair>, u64) {
        let kind = g.random_range(0..3u32);
        if kind == 2 {
            return forced_scenario(g);
        }
        let deep = kind == 0;
        let count = if deep {
            g.random_range(4..=6u64)
        } else {
            g.random_range(18..=24u64)
        };
        let tracks = TrackSet::from_tracks(
            (1..=count)
                .map(|id| {
                    let (actor, start) = (g.random_range(0..6u64), g.random_range(0..60u64));
                    let len = if deep {
                        g.random_range(20..=30usize)
                    } else if g.random_range(0..10u32) < 7 {
                        g.random_range(1..=6usize)
                    } else {
                        g.random_range(10..=30usize)
                    };
                    track(id, actor, start, len, g.random_range(0.0..900.0))
                })
                .collect(),
        );
        let mut pairs = Vec::new();
        for a in 1..=count {
            for b in a + 1..=count {
                pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
            }
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, g.random_range(0..=i));
        }
        if !deep {
            pairs.truncate(g.random_range(1..=150usize));
        }
        let tau_max = g.random_range(0..=if deep { 8000 } else { 1500 });
        (tracks, pairs, tau_max)
    }

    /// A city shard window's shape, where most rounds have one live arm:
    /// one pair of two 100–200-box tracks, alone or beside a pair of two
    /// 1-box tracks that runs out on its first pull, and a budget of up to
    /// 2,000 pulls.
    fn forced_scenario(g: &mut StdRng) -> (TrackSet, Vec<TrackPair>, u64) {
        let mut lens = vec![g.random_range(100..=200usize), g.random_range(100..=200)];
        if g.random_range(0..2u32) == 0 {
            lens.extend([1, 1]);
        }
        let tracks = TrackSet::from_tracks(
            (1..)
                .zip(&lens)
                .map(|(id, &len)| {
                    let (actor, start) = (g.random_range(0..2u64), g.random_range(0..60u64));
                    track(id, actor, start, len, g.random_range(0.0..900.0))
                })
                .collect(),
        );
        let mut pairs: Vec<TrackPair> = (1..=lens.len() as u64)
            .step_by(2)
            .map(|a| TrackPair::new(TrackId(a), TrackId(a + 1)).unwrap())
            .collect();
        if g.random_range(0..2u32) == 0 {
            pairs.reverse();
        }
        (tracks, pairs, g.random_range(0..=2000))
    }

    /// VoI hints over `pairs`: none, random weights, or weights with
    /// deferrals (exact 0) and exact 1s among them.
    fn hints(g: &mut StdRng, pairs: &[TrackPair]) -> Option<crate::voi::VoiHints> {
        let kind = g.random_range(0..3u32);
        if kind == 0 {
            return None;
        }
        let mut hints = crate::voi::VoiHints::new();
        for &p in pairs {
            let w = match (kind, g.random_range(0..4u32)) {
                (1, _) | (_, 3) => g.random_range(0.0..1.0),
                (_, 0) => 0.0,
                (_, 1) => 1.0,
                _ => 0.5,
            };
            hints.set(p, w);
        }
        Some(hints)
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn flat_rounds_match_the_frozen_loop(seed in any::<u64>()) {
                let mut g = StdRng::seed_from_u64(seed);
                let model = AppearanceModel::new(AppearanceConfig::default());
                let (tracks, pairs, tau_max) = scenario(&mut g);
                let voi = hints(&mut g, &pairs);
                let input = SelectionInput {
                    pairs: &pairs,
                    tracks: &tracks,
                    k: 1.0 - g.random_range(0.0..1.0),
                    voi: voi.as_ref(),
                };
                let config = TMergeConfig {
                    tau_max,
                    thr_s: [None, Some(200.0)][g.random_range(0..2usize)],
                    use_ulb: g.random_range(0..4u32) > 0,
                    seed: g.random_range(0..u64::MAX),
                    record_history: true,
                    rank_by_bernoulli_posterior: g.random_range(0..2u32) == 0,
                };
                let device = [Device::Cpu, Device::Gpu { batch: 4 }, Device::Gpu { batch: 10 }]
                    [g.random_range(0..3usize)];
                let mut flat_session = ReidSession::new(&model, CostModel::calibrated(), device);
                let mut ref_session = ReidSession::new(&model, CostModel::calibrated(), device);
                let flat = TMerge::new(config).select(&input, &mut flat_session).unwrap();
                let frozen = select_reference(&config, &input, &mut ref_session).unwrap();
                let what = format!("{config:?} on {device:?}, {} pairs", pairs.len());
                prop_assert_eq!(&flat.candidates, &frozen.candidates, "{}", what);
                let bits = |r: &SelectionResult| {
                    let mut s: Vec<_> = r.scores.iter().map(|(p, v)| (*p, v.to_bits())).collect();
                    s.sort_unstable();
                    s
                };
                prop_assert_eq!(bits(&flat), bits(&frozen), "{}", what);
                prop_assert_eq!(flat.distance_evals, frozen.distance_evals, "{}", what);
                let history = |r: &SelectionResult| r.history.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(history(&flat), history(&frozen), "{}", what);
                prop_assert_eq!(
                    flat_session.elapsed_ms().to_bits(),
                    ref_session.elapsed_ms().to_bits(),
                    "{}", what
                );
                prop_assert_eq!(flat_session.stats(), ref_session.stats(), "{}", what);
            }
        }
    }

    /// ULB's verdicts as the selector used to reach them: both bound lists
    /// fully sorted, then two binary searches per arm.
    fn ulb_reference(bounds: &[(f64, f64)], m: usize) -> Vec<Option<UlbVerdict>> {
        let order = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
        let mut lbs: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let mut ubs: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        lbs.sort_by(order);
        ubs.sort_by(order);
        bounds
            .iter()
            .map(|&(lb, ub)| {
                if lbs.partition_point(|&x| x < ub) < m {
                    Some(UlbVerdict::Inside)
                } else if ubs.partition_point(|&x| x < lb) >= m {
                    Some(UlbVerdict::Outside)
                } else {
                    None
                }
            })
            .collect()
    }

    #[test]
    fn order_statistic_ulb_matches_the_sorted_reference() {
        use rand::RngExt;
        // Bounds from a small pool, so ties (±0.0 included) are common,
        // and (−∞, +∞) for arms with fewer than two samples.
        let pool: [f64; 9] = [-0.5, -0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5];
        let mut g = StdRng::seed_from_u64(13);
        let mut buf = Vec::new();
        for case in 0..2000 {
            let n = g.random_range(1..=40usize);
            let bounds: Vec<(f64, f64)> = (0..n)
                .map(|_| match g.random_range(0..4u32) {
                    0 => (f64::NEG_INFINITY, f64::INFINITY),
                    1 => {
                        let s: f64 = g.random_range(0.0..1.0);
                        let u: f64 = g.random_range(0.0..0.6);
                        (s - u, s + u)
                    }
                    _ => {
                        let a = pool[g.random_range(0..pool.len())];
                        let b = pool[g.random_range(0..pool.len())];
                        (a.min(b), a.max(b))
                    }
                })
                .collect();
            // m on both sides of the one-pass cutoff whenever n allows.
            for m in [
                1,
                n,
                n + 1,
                g.random_range(1..=n),
                ONE_PASS_M.min(n),
                (ONE_PASS_M + 1).min(n),
            ] {
                let cut = UlbCut::new(&bounds, m, &mut buf);
                let got: Vec<_> = bounds.iter().map(|&b| cut.verdict(b)).collect();
                assert_eq!(
                    got,
                    ulb_reference(&bounds, m),
                    "case {case}, m {m}: {bounds:?}"
                );
                if m <= n.min(ONE_PASS_M) {
                    let (one, two) = (
                        UlbCut::in_one_pass(&bounds, m),
                        UlbCut::by_selection(&bounds, m, &mut buf),
                    );
                    let bits = |c: UlbCut| (c.lb_m.to_bits(), c.ub_m.to_bits());
                    assert_eq!(bits(one), bits(two), "case {case}, m {m}");
                }
            }
        }
    }

    #[test]
    fn shared_radii_give_the_bounds_of_a_radius_per_arm() {
        use rand::RngExt;
        // Sample counts from a small pool, so several arms share each n;
        // counts under two, and counts past the radius table. Each scratch
        // sees a run of growing τ, so stale radii would show.
        let mut g = StdRng::seed_from_u64(29);
        for case in 0..300 {
            let arms = g.random_range(1..=60usize);
            let pool: Vec<u64> = (0..g.random_range(1..=6usize))
                .map(|_| match g.random_range(0..6u32) {
                    0 => g.random_range(0..2u64),
                    1 => g.random_range(RADIUS_TABLE as u64..3 * RADIUS_TABLE as u64),
                    _ => g.random_range(2..40u64),
                })
                .collect();
            let n: Vec<u64> = (0..arms)
                .map(|_| pool[g.random_range(0..pool.len())])
                .collect();
            let sum: Vec<f64> = n
                .iter()
                .map(|&n| g.random_range(0.0..1.0) * n as f64)
                .collect();
            let mean: Vec<f64> = n
                .iter()
                .zip(&sum)
                .map(|(&n, &s)| if n == 0 { 1.0 } else { s / n as f64 })
                .collect();
            let mut scratch = UlbScratch::default();
            let mut tau = ULB_MIN_TAU + g.random_range(0..50u64);
            for _ in 0..4 {
                scratch.fill_bounds(tau, &n, &mean);
                let log_term = 2.0 * (tau as f64).ln();
                for (i, &got) in scratch.bounds.iter().enumerate() {
                    let want = if n[i] < ULB_MIN_SAMPLES {
                        (f64::NEG_INFINITY, f64::INFINITY)
                    } else {
                        let u = (log_term / n[i] as f64).sqrt();
                        let s = sum[i] / n[i] as f64;
                        (s - u, s + u)
                    };
                    let bits = |b: (f64, f64)| (b.0.to_bits(), b.1.to_bits());
                    assert_eq!(bits(got), bits(want), "case {case}, τ {tau}, arm {i}");
                }
                let m = g.random_range(1..=arms);
                let cut = UlbCut::new(&scratch.bounds, m, &mut Vec::new());
                let got: Vec<_> = scratch.bounds.iter().map(|&b| cut.verdict(b)).collect();
                assert_eq!(got, ulb_reference(&scratch.bounds, m), "case {case}, m {m}");
                tau += g.random_range(1..5u64);
            }
        }
    }

    #[test]
    fn budget_beyond_all_pools_stops_at_exhaustion() {
        let (model, tracks, _) = fixture();
        let pairs = vec![TrackPair::new(TrackId(1), TrackId(2)).unwrap()];
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        let mut session = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
        let tm = TMerge::new(TMergeConfig {
            tau_max: 100_000,
            use_ulb: false,
            ..Default::default()
        });
        let r = tm.select(&input, &mut session).unwrap();
        assert_eq!(r.distance_evals, 100, "1 pair × 10×10 boxes");
    }
}
