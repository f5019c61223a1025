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
//!    computed exactly,
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
    /// Run the ULB check every this many rounds (1 = every round, as in
    /// Algorithm 2 line 14).
    pub ulb_every: u64,
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
            ulb_every: 1,
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

/// Per-pair bandit state.
struct Arm<'a> {
    boxes: PairBoxes<'a>,
    sampler: WithoutReplacement,
    /// Beta shape parameters.
    s: f64,
    f: f64,
    /// Prior pseudo-counts (after BetaInit), for shrinkage ranking.
    prior_s: f64,
    prior_f: f64,
    /// Rank by the raw Bernoulli posterior instead of the shrunk mean.
    rank_by_posterior: bool,
    /// Samples drawn and their normalized-distance sum (for ULB).
    n: u64,
    sum: f64,
    /// Pruned into the candidate set (provably in the top-m).
    locked_in: bool,
    /// Pruned out (provably not in the top-m).
    pruned_out: bool,
    /// Additive VoI rank bias (`1 - weight`, [`crate::voi`]); 0 without
    /// hints. Biases exploration toward high-weight arms.
    bias: f64,
    /// Deferred by a weight-0 VoI hint: never played, never a candidate.
    deferred: bool,
}

impl Arm<'_> {
    fn posterior_mean(&self) -> f64 {
        self.s / (self.s + self.f)
    }

    fn sample_mean(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// The score used for the final ranking: either the literal posterior
    /// mean, or the continuous sample mean shrunk toward the prior mean by
    /// the prior's pseudo-count weight.
    fn ranking_score(&self) -> f64 {
        if self.rank_by_posterior {
            return self.posterior_mean();
        }
        let w0 = self.prior_s + self.prior_f;
        let p0 = self.prior_s / w0;
        (p0 * w0 + self.sum) / (w0 + self.n as f64)
    }

    fn live(&self) -> bool {
        !self.deferred && !self.locked_in && !self.pruned_out && !self.sampler.is_exhausted()
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
        let mut arms: Vec<Arm<'_>> = Vec::with_capacity(input.pairs.len());
        for &p in input.pairs {
            let boxes = PairBoxes::resolve(p, input.tracks)?;
            let mut f = 1.0;
            if let (Some(thr), Some(dis)) = (self.config.thr_s, boxes.spatial_distance()) {
                if dis < thr {
                    f += 1.0;
                }
            }
            let sampler = WithoutReplacement::new(boxes.total_bbox_pairs());
            let (bias, deferred) = match input.voi {
                Some(h) => (h.bias(&p), h.deferred(&p)),
                None => (0.0, false),
            };
            arms.push(Arm {
                boxes,
                sampler,
                s: 1.0,
                f,
                prior_s: 1.0,
                prior_f: f,
                rank_by_posterior: self.config.rank_by_bernoulli_posterior,
                n: 0,
                sum: 0.0,
                locked_in: false,
                pruned_out: false,
                bias,
                deferred,
            });
        }

        let mut tau = 0u64;
        let mut round = 0u64;
        let mut history = Vec::new();
        let batch = session.device().batch();
        // Round buffers, reused across rounds.
        let mut live: Vec<usize> = Vec::with_capacity(arms.len());
        let mut draws = ThompsonDraws::new();
        let mut items: Vec<tm_reid::BoxPairRef<'_>> = Vec::with_capacity(batch);
        let mut ulb = UlbScratch::default();

        // --- Main sampling loop (Algorithm 2 lines 3–14). ---
        while tau < self.config.tau_max {
            live.clear();
            live.extend((0..arms.len()).filter(|&i| arms[i].live()));
            if live.is_empty() {
                break;
            }
            round += 1;
            // Line 4–5: Thompson draws over all live arms. The VoI bias (0
            // without hints) handicaps low-weight arms: they only win a
            // round when every high-weight arm drew badly.
            session.charge_thompson_scan(live.len());
            let budget_left = (self.config.tau_max - tau) as usize;
            let take = batch.min(live.len()).min(budget_left).max(1);
            draws.clear();
            for &i in &live {
                draws.push(&mut rng, arms[i].s, arms[i].f, arms[i].bias)?;
            }
            // Line 6: the arg-min draw; TMerge-B takes the B smallest
            // (positions in `live`).
            let chosen = draws.smallest(take);

            // Line 7: sample a BBox pair (without replacement) from each
            // chosen arm; evaluate as one (GPU) round.
            items.clear();
            for &pos in chosen {
                let arm = &mut arms[live[pos]];
                let flat = arm
                    .sampler
                    .draw(&mut rng)
                    .ok_or(TmError::Empty("live arm bbox-pair pool"))?;
                items.push(arm.boxes.bbox_pair(flat));
            }
            let distances = session.try_pair_distances_batch(&items)?;

            // Lines 8–13: Bernoulli trials and posterior updates.
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
                if self.config.record_history {
                    history.push(d_norm);
                }
            }

            // Line 14: ULB pruning (Algorithm 4).
            if self.config.use_ulb && round.is_multiple_of(self.config.ulb_every.max(1)) {
                ulb_prune(&mut arms, tau, m, &mut ulb);
            }
        }

        // --- Line 15: top-m by posterior mean. ---
        let candidates = rank_candidates(&arms, m);
        let obs = session.obs();
        if obs.enabled() {
            obs.counter("selector.tmerge.selections", 1);
            obs.counter("selector.tmerge.rounds", round);
            obs.counter("selector.tmerge.pulls", tau);
            let locked = arms.iter().filter(|a| a.locked_in).count() as u64;
            let pruned = arms.iter().filter(|a| a.pruned_out).count() as u64;
            obs.counter("selector.tmerge.locked_in", locked);
            obs.counter("selector.tmerge.pruned_out", pruned);
            let voi_deferred = arms.iter().filter(|a| a.deferred).count() as u64;
            if voi_deferred > 0 {
                obs.counter("selector.tmerge.voi_deferred", voi_deferred);
            }
            obs.counter("selector.tmerge.accepted", candidates.len() as u64);
            obs.counter(
                "selector.tmerge.rejected",
                (arms.len() - candidates.len()) as u64,
            );
            let mean_posterior =
                arms.iter().map(|a| a.posterior_mean()).sum::<f64>() / arms.len() as f64;
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
        let scores = arms
            .iter()
            .map(|a| (a.boxes.pair, a.ranking_score()))
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
fn rank_candidates(arms: &[Arm<'_>], m: usize) -> Vec<TrackPair> {
    let class = |a: &Arm<'_>| -> u8 {
        if a.locked_in {
            0
        } else if a.pruned_out {
            2
        } else {
            1
        }
    };
    let mut order: Vec<usize> = (0..arms.len()).filter(|&i| !arms[i].deferred).collect();
    order.sort_by(|&x, &y| {
        class(&arms[x])
            .cmp(&class(&arms[y]))
            .then(
                arms[x]
                    .ranking_score()
                    .partial_cmp(&arms[y].ranking_score())
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(arms[x].boxes.pair.cmp(&arms[y].boxes.pair))
    });
    order
        .into_iter()
        .take(m)
        .map(|i| arms[i].boxes.pair)
        .collect()
}

/// Minimum iterations / per-arm samples before Hoeffding bounds are
/// trusted. `U = √(2·ln τ / n)` degenerates at τ = 1 (ln 1 = 0 makes the
/// radius zero after a single sample); the paper relies on "a chosen τ that
/// makes the probability bound large enough", which this floor encodes.
const ULB_MIN_TAU: u64 = 8;
const ULB_MIN_SAMPLES: u64 = 2;

/// Algorithm 4 (ULB): lock arms provably inside the top-m and prune arms
/// provably outside, using Hoeffding radii `U = √(2·ln τ / n)`.
fn ulb_prune(arms: &mut [Arm<'_>], tau: u64, m: usize, scratch: &mut UlbScratch) {
    if tau < ULB_MIN_TAU {
        return;
    }
    let log_term = 2.0 * (tau as f64).ln();
    // Bounds for every arm (pruned ones included — the counts in Algorithm
    // 4 line 6 quantify over all of P_c).
    scratch.bounds.clear();
    scratch.bounds.extend(arms.iter().map(|a| {
        if a.n < ULB_MIN_SAMPLES {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            let u = (log_term / a.n as f64).sqrt();
            let s = a.sample_mean();
            (s - u, s + u)
        }
    }));
    let cut = UlbCut::new(&scratch.bounds, m, &mut scratch.order_stat);
    for (arm, &bounds) in arms.iter_mut().zip(&scratch.bounds) {
        if arm.locked_in || arm.pruned_out || arm.n < ULB_MIN_SAMPLES {
            continue;
        }
        match cut.verdict(bounds) {
            Some(UlbVerdict::Inside) => arm.locked_in = true,
            Some(UlbVerdict::Outside) => arm.pruned_out = true,
            None => {}
        }
    }
}

/// ULB's buffers, reused across rounds.
#[derive(Default)]
struct UlbScratch {
    bounds: Vec<(f64, f64)>,
    order_stat: Vec<f64>,
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
    /// Two O(n) selections over `bounds` (`m ≥ 1`), using `buf` as
    /// scratch. With fewer than m arms, +∞ stands in for both: every arm
    /// is then inside the top-m and none outside, as the counts say.
    fn new(bounds: &[(f64, f64)], m: usize, buf: &mut Vec<f64>) -> Self {
        debug_assert!(m >= 1, "ULB needs m ≥ 1");
        if m > bounds.len() {
            return Self {
                lb_m: f64::INFINITY,
                ub_m: f64::INFINITY,
            };
        }
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
            for m in [1, n, n + 1, g.random_range(1..=n)] {
                let cut = UlbCut::new(&bounds, m, &mut buf);
                let got: Vec<_> = bounds.iter().map(|&b| cut.verdict(b)).collect();
                assert_eq!(
                    got,
                    ulb_reference(&bounds, m),
                    "case {case}, m {m}: {bounds:?}"
                );
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
