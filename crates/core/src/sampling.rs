//! Sampling for TMerge's rounds (Algorithm 2, lines 4–7).
//!
//! **BBox pairs without replacement** (line 7). A track pair `(t_i, t_j)`
//! owns `|t_i| · |t_j|` BBox pairs, addressed by a flat index
//! `k = α·|t_j| + β`. Uniform sampling without replacement uses a *virtual
//! Fisher–Yates shuffle*: instead of materializing the (possibly
//! ~10⁴-element) index range, displaced entries are kept in a small hash
//! map, giving O(1) time and O(samples) memory per draw.
//!
//! **Certified Thompson draws** (lines 4–6). `ThompsonDraws` draws
//! `θ ~ Be(S, F)` for every live arm and returns the `take` smallest, with
//! the same decisions and the same RNG consumption as sampling each arm
//! through `rand_distr::Beta`, at a fraction of the cost: one running
//! product per draw instead of one `ln` per uniform, and an exact replay
//! only for arms whose certified bracket straddles the cut.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt};
use rand_distr::{Beta, Distribution};
use std::cmp::Ordering;
use std::collections::HashMap;
use tm_types::{Result, TmError};

/// Uniform without-replacement sampler over `0..total`.
#[derive(Debug, Clone)]
pub struct WithoutReplacement {
    total: u64,
    remaining: u64,
    displaced: HashMap<u64, u64>,
}

impl WithoutReplacement {
    /// A sampler over the range `0..total`.
    pub fn new(total: u64) -> Self {
        Self {
            total,
            remaining: total,
            displaced: HashMap::new(),
        }
    }

    /// Number of indices not yet drawn.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// True once every index has been drawn.
    pub fn is_exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// Total size of the range.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Draws one index uniformly among those not yet drawn.
    pub fn draw(&mut self, rng: &mut StdRng) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let slot = rng.random_range(0..self.remaining);
        let value = self.displaced.get(&slot).copied().unwrap_or(slot);
        let last = self.remaining - 1;
        // Move whatever occupies the last slot into the drawn slot.
        let last_value = self.displaced.remove(&last).unwrap_or(last);
        if slot != last {
            self.displaced.insert(slot, last_value);
        }
        self.remaining = last;
        Some(value)
    }
}

/// Converts a flat BBox-pair index back to `(α, β)` box indices given the
/// second track's box count.
pub fn split_flat_index(flat: u64, b_len: usize) -> (usize, usize) {
    debug_assert!(b_len > 0);
    (
        (flat / b_len as u64) as usize,
        (flat % b_len as u64) as usize,
    )
}

/// Unit roundoff of `f64`: `u = 2⁻⁵³`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Safety factor of a bracket's radius over the proven error bound.
const BRACKET_MARGIN: f64 = 4.0;

/// Largest shape drawn through a bracket. `k ≤ 2²⁰` uniforms keep
/// `k·u ≤ 2⁻³³`, so the bound's second-order terms stay negligible;
/// larger shapes take the exact draw.
const MAX_BRACKET_SHAPE: f64 = (1u64 << 19) as f64;

/// Smallest `x̂ + ŷ` a bracket is trusted at (the bound grows as
/// `k/(x̂ + ŷ)`); below it the draw is replayed exactly. A Gamma(k ≥ 2)
/// sum falls this low with probability below 10⁻⁶.
const MIN_BRACKET_SUM: f64 = 1.0 / 1024.0;

/// Uniforms per renormalisation of the running product. The product
/// runs as two interleaved partial products of scaled uniforms in
/// `[2⁻¹, 2⁵³]`, each renormalised into `[½, 1)`; 16 factors keep them
/// inside `[2⁻¹⁷, 2⁸⁴⁸]`, clear of overflow and subnormals.
const PRODUCT_BLOCK: u64 = 32;

/// `2⁵³ ×` the uniform on `(0, 1]` that `rand_distr::Beta` turns into one
/// exponential `−ln U`. Scaling by a power of two is exact, so a product
/// of these rounds exactly where the product of the uniforms would.
fn scaled_unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 + 0.5
}

/// Splits a positive normal `p` into `(m, e)` with `p = m·2^e` and
/// `m ∈ [½, 1)`; exact.
fn split_exponent(p: f64) -> (f64, i64) {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = p.to_bits();
    let e = (bits >> 52) as i64 - 1022;
    (f64::from_bits((bits & MANTISSA) | (1022 << 52)), e)
}

/// `−ln` of the product of the next `count` uniforms: `count − 1`
/// roundings, exact renormalisations and one `ln`.
fn neg_ln_product(rng: &mut StdRng, count: u64) -> f64 {
    let (mut p0, mut p1) = (1.0f64, 1.0f64);
    // The product of the scaled uniforms is p0·p1·2^exp.
    let mut exp = 0i64;
    let mut left = count;
    while left > 0 {
        let n = left.min(PRODUCT_BLOCK);
        for _ in 0..n / 2 {
            p0 *= scaled_unit(rng);
            p1 *= scaled_unit(rng);
        }
        if n % 2 == 1 {
            p0 *= scaled_unit(rng);
        }
        let (m0, e0) = split_exponent(p0);
        let (m1, e1) = split_exponent(p1);
        (p0, p1, exp) = (m0, m1, exp + e0 + e1);
        left -= n;
    }
    // Product of the uniforms = m·2^-e with m ∈ [½, 1), so both terms are
    // non-negative (bar e = −1 when every uniform is exactly 1, which
    // gives 0) and their sum carries no cancellation.
    let (m, e) = split_exponent(p0 * p1);
    let e = 53 * count as i64 - exp - e;
    e as f64 * std::f64::consts::LN_2 - m.ln()
}

/// The number of uniforms `rand_distr::Beta` spends on a shape, when the
/// shape is a whole number a bracket can take.
fn bracket_uniforms(shape: f64) -> Option<u64> {
    let k = shape as u64;
    (k as f64 == shape && shape <= MAX_BRACKET_SHAPE).then_some(k)
}

/// The centre `θ̂` and radius of a bracket around the `Be(a, b)` draw that
/// `rand_distr::Beta` would make from the next `a + b` uniforms, which are
/// consumed; `None` when the bound does not apply (the caller replays).
///
/// Error bound (`u = 2⁻⁵³`, `k = a + b`, `X` and `Y` the real sums of
/// `−ln U`, `θ = X/(X+Y)`, first order in `k·u`):
///
/// * The exact sampler takes one faithful `ln` per uniform (relative error
///   `≤ 2u`) and sums them recursively, so its `x` and `y` are within
///   relative `(a+1)u` and `(b+1)u` of `X` and `Y`. That moves `θ` by at
///   most `θ(1−θ)(k+2)u ≤ (k+2)u/4`; its addition and division add `2u`.
/// * Here each product rounds `a − 1` (or `b − 1`) times, moving its `−ln`
///   by at most `u` a rounding, and `e·ln 2 − ln m` adds `≤ 4u` relative
///   (both terms are non-negative), or `2u` absolute when every uniform is
///   exactly 1. With `ŝ = x̂ + ŷ` that puts `x̂/ŝ` within
///   `(k+2)u/ŝ + 2u` of `θ`, and its addition and division add `2u`.
/// * Rounding `θ̂ ± r` costs `≤ 2u` more. In all, the exact draw is within
///   `r₀ = u·(k/4 + (k+2)/ŝ + 10)` of `θ̂`. The radius is `4·r₀`, a 4×
///   margin that also absorbs a libm `ln` a few ulp off; with `ŝ ≈ k` (a
///   Gamma(k) sum) it is about `(k + 44)·2⁻⁵³`.
fn beta_bracket(rng: &mut StdRng, a: u64, b: u64) -> Option<(f64, f64)> {
    let x = neg_ln_product(rng, a);
    let y = neg_ln_product(rng, b);
    let sum = x + y;
    if sum.is_nan() || sum < MIN_BRACKET_SUM {
        return None;
    }
    let k = (a + b) as f64;
    let r0 = UNIT_ROUNDOFF * (k / 4.0 + (k + 2.0) / sum + 10.0);
    Some((x / sum, BRACKET_MARGIN * r0))
}

/// `(draw, index)` order: ascending draws, ties to the lower index — the
/// order a stable sort of the draws in index order gives.
fn key_order(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// One arm's draw: its bracket, and what an exact replay needs.
#[derive(Debug, Clone)]
struct Slot {
    beta: Beta,
    bias: f64,
    /// The RNG state before this arm's draw.
    start: StdRng,
    /// Bracket of the biased draw and the point estimate inside it; all
    /// three equal the draw once `exact`.
    lo: f64,
    mid: f64,
    hi: f64,
    exact: bool,
}

impl Slot {
    /// Replays the draw exactly, on a clone of its starting RNG state.
    fn replay(&mut self) {
        if !self.exact {
            let d = self.beta.sample(&mut self.start.clone()) + self.bias;
            (self.lo, self.mid, self.hi, self.exact) = (d, d, d, true);
        }
    }
}

/// Certified Thompson draws over one round's live arms (Algorithm 2,
/// lines 4–6): [`push`](Self::push) each arm's `Be(S, F)` and VoI bias in
/// index order, then [`smallest`](Self::smallest) gives the positions of
/// the `take` smallest biased draws. Arms, order and RNG consumption are
/// exactly those of drawing every arm with `rand_distr::Beta`, stable
/// sorting and truncating; ties go to the earlier push.
///
/// A draw is bracketed (see [`beta_bracket`]) from the same uniforms the
/// exact sampler consumes, so the main RNG ends every round where the
/// exact loop would. The `take` smallest centres are chosen in O(n) and
/// the choice is certified from the brackets: the chosen brackets must
/// lie below all others and must not overlap each other. Arms whose
/// brackets overlap a boundary are replayed exactly, through
/// `rand_distr::Beta` on a clone of the RNG state saved before their draw,
/// and the choice is made again. Non-integer shapes, shapes above 2¹⁹ and
/// the rare sums the bound excludes take the exact draw at once. Buffers
/// are kept across rounds.
#[derive(Debug, Default)]
pub(crate) struct ThompsonDraws {
    slots: Vec<Slot>,
    order: Vec<usize>,
}

impl ThompsonDraws {
    /// Starts a new round (capacity is kept).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Draws `θ ~ Be(s, f)` for the next arm, to be ranked as `θ + bias`,
    /// consuming `rng` exactly as `Beta::new(s, f)?.sample(rng)` does. An
    /// invalid shape is a typed `beta_shape` error.
    pub fn push(&mut self, rng: &mut StdRng, s: f64, f: f64, bias: f64) -> Result<()> {
        // Shapes start at 1 and only ever increment, so this can only fail
        // on NaN corruption upstream — surfaced as an error, not a panic.
        let beta = Beta::new(s, f).map_err(|_| {
            TmError::invalid(
                "beta_shape",
                format!("Beta({s}, {f}) is not a valid posterior"),
            )
        })?;
        let start = rng.clone();
        let bracket = match (bracket_uniforms(s), bracket_uniforms(f)) {
            (Some(a), Some(b)) => beta_bracket(rng, a, b),
            _ => None,
        };
        let mut slot = Slot {
            beta,
            bias,
            start,
            lo: 0.0,
            mid: 0.0,
            hi: 0.0,
            exact: false,
        };
        match bracket {
            Some((theta, r)) => {
                slot.lo = (theta - r) + bias;
                slot.mid = theta + bias;
                slot.hi = (theta + r) + bias;
            }
            None => {
                // The exact draw, leaving `rng` where it leaves its clone
                // (for integer shapes the bracket already got there).
                *rng = slot.start.clone();
                let d = slot.beta.sample(rng) + bias;
                (slot.lo, slot.mid, slot.hi, slot.exact) = (d, d, d, true);
            }
        }
        self.slots.push(slot);
        Ok(())
    }

    /// Positions (in push order) of the `take` smallest draws, ascending,
    /// ties to the earlier push. Replays exactly only the draws whose
    /// brackets leave the answer open.
    pub fn smallest(&mut self, take: usize) -> &[usize] {
        let n = self.slots.len();
        let take = take.min(n);
        self.order.clear();
        self.order.extend(0..n);
        if take == 0 {
            return &[];
        }
        let mut failed = 0;
        while !self.certify(take) {
            failed += 1;
            assert!(failed <= n, "every failed certification replays a draw");
        }
        &self.order[..take]
    }

    /// One attempt: chooses the `take` smallest centres into
    /// `order[..take]`, sorted, and returns true when the brackets prove
    /// the choice and its order. Otherwise replays the draws on the open
    /// boundaries and returns false; each failed attempt replays at least
    /// one draw, since exact draws always compare decisively.
    fn certify(&mut self, take: usize) -> bool {
        let slots = &mut self.slots;
        let order = &mut self.order;
        let by_mid = |&i: &usize, &j: &usize| key_order((slots[i].mid, i), (slots[j].mid, j));
        if take < order.len() {
            order.select_nth_unstable_by(take - 1, by_mid);
            let (chosen, rest) = order.split_at(take);
            let top = chosen
                .iter()
                .map(|&i| (slots[i].hi, i))
                .max_by(|&a, &b| key_order(a, b))
                .expect("take ≥ 1");
            let floor = rest
                .iter()
                .map(|&j| (slots[j].lo, j))
                .min_by(|&a, &b| key_order(a, b))
                .expect("take < n");
            if key_order(top, floor) != Ordering::Less {
                for &i in chosen {
                    if key_order((slots[i].hi, i), floor) != Ordering::Less {
                        slots[i].replay();
                    }
                }
                for &j in rest {
                    if key_order(top, (slots[j].lo, j)) != Ordering::Less {
                        slots[j].replay();
                    }
                }
                return false;
            }
        }
        let chosen = &mut order[..take];
        chosen.sort_unstable_by(by_mid);
        let mut certain = true;
        for w in 0..take.saturating_sub(1) {
            let (i, j) = (chosen[w], chosen[w + 1]);
            if key_order((slots[i].hi, i), (slots[j].lo, j)) != Ordering::Less {
                slots[i].replay();
                slots[j].replay();
                certain = false;
            }
        }
        certain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn draws_every_index_exactly_once() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = WithoutReplacement::new(100);
        let mut seen = BTreeSet::new();
        while let Some(v) = s.draw(&mut rng) {
            assert!(v < 100);
            assert!(seen.insert(v), "index {v} drawn twice");
        }
        assert_eq!(seen.len(), 100);
        assert!(s.is_exhausted());
        assert!(s.draw(&mut rng).is_none());
    }

    #[test]
    fn zero_total_is_immediately_exhausted() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = WithoutReplacement::new(0);
        assert!(s.is_exhausted());
        assert!(s.draw(&mut rng).is_none());
    }

    #[test]
    fn remaining_decrements() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = WithoutReplacement::new(5);
        assert_eq!(s.remaining(), 5);
        s.draw(&mut rng);
        s.draw(&mut rng);
        assert_eq!(s.remaining(), 3);
    }

    #[test]
    fn draws_are_roughly_uniform() {
        // First draw over 0..10, repeated with many seeds: every index
        // should appear a reasonable number of times.
        let mut counts = [0usize; 10];
        for seed in 0..2000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = WithoutReplacement::new(10);
            counts[s.draw(&mut rng).unwrap() as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((120..=280).contains(&c), "index {i} drawn {c}/2000 times");
        }
    }

    #[test]
    fn split_flat_index_round_trips() {
        let b_len = 7;
        for alpha in 0..5usize {
            for beta in 0..b_len {
                let flat = (alpha * b_len + beta) as u64;
                assert_eq!(split_flat_index(flat, b_len), (alpha, beta));
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn exhaustive_and_unique(total in 0u64..200, seed in 0u64..1000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut s = WithoutReplacement::new(total);
                let mut seen = BTreeSet::new();
                while let Some(v) = s.draw(&mut rng) {
                    prop_assert!(v < total);
                    prop_assert!(seen.insert(v));
                }
                prop_assert_eq!(seen.len() as u64, total);
            }
        }

        /// The `take` smallest of `arms` (`(s, f, bias)`) as the selection
        /// loop used to find them: one exact `Beta` draw per arm, a stable
        /// sort, a truncation.
        fn reference(rng: &mut StdRng, arms: &[(f64, f64, f64)], take: usize) -> Vec<usize> {
            let mut draws: Vec<(usize, f64)> = Vec::with_capacity(arms.len());
            for (i, &(s, f, bias)) in arms.iter().enumerate() {
                draws.push((i, Beta::new(s, f).unwrap().sample(rng) + bias));
            }
            draws.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
            draws.truncate(take);
            draws.into_iter().map(|(i, _)| i).collect()
        }

        /// An integer shape, log-uniform in `[1, 10⁴]`.
        fn shape(g: &mut StdRng) -> f64 {
            (g.random_range(0.0..4.0f64) * std::f64::consts::LN_10)
                .exp()
                .floor()
        }

        /// A live set of `n` arms: shapes up to 10⁴, and VoI biases that
        /// are all 0 (no hints), all random in `[0, 1]`, or a mix with
        /// exact 0, ½ and 1.
        fn arms(seed: u64, n: usize) -> Vec<(f64, f64, f64)> {
            let mut g = StdRng::seed_from_u64(seed);
            let hints = g.random_range(0..3u32);
            (0..n)
                .map(|_| {
                    let bias = match hints {
                        0 => 0.0,
                        1 => g.random_range(0.0..1.0),
                        _ => [0.0, 0.5, 1.0, g.random_range(0.0..1.0)][g.random_range(0..4usize)],
                    };
                    (shape(&mut g), shape(&mut g), bias)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn certified_selection_matches_exact_draws(
                seed in any::<u64>(),
                n in 1usize..=300,
                take in sample::select(vec![1usize, 2, 7, usize::MAX]),
            ) {
                let arms = arms(seed, n);
                let take = take.min(n);
                let mut exact_rng = StdRng::seed_from_u64(seed ^ 0x7B);
                let mut rng = exact_rng.clone();
                let expected = reference(&mut exact_rng, &arms, take);
                let mut draws = ThompsonDraws::default();
                for &(s, f, bias) in &arms {
                    draws.push(&mut rng, s, f, bias).unwrap();
                }
                prop_assert_eq!(draws.smallest(take), &expected[..]);
                prop_assert_eq!(rng.next_u64(), exact_rng.next_u64());
            }

            #[test]
            fn brackets_hold_the_exact_draw_inside_the_proven_bound(
                seed in any::<u64>(),
                n in 1usize..=40,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                for (s, f, _) in arms(seed, n) {
                    let mut exact_rng = rng.clone();
                    let exact = Beta::new(s, f).unwrap().sample(&mut exact_rng);
                    let (theta, r) = beta_bracket(&mut rng, s as u64, f as u64)
                        .expect("a Gamma(k ≥ 2) sum this small is a 1e-6 event");
                    let r0 = r / BRACKET_MARGIN;
                    prop_assert!(
                        (theta - exact).abs() <= r0,
                        "Be({s}, {f}): |{theta} - {exact}| > r0 = {r0}"
                    );
                    prop_assert_eq!(rng.clone().next_u64(), exact_rng.next_u64());
                }
            }
        }
    }

    /// A round of `Be(3, 5)` draws with hand-set brackets. Arm `i` draws
    /// from seed `seed_i` with a bias that puts its draw `d` at `target_i`
    /// (to the ulp), so draws from different seeds can sit 1e-9 apart; its
    /// bracket is `[d − width, d + width]` with the centre moved to
    /// `d + shift_i`. Returns the round and the exact draws.
    fn crafted(arms: &[(u64, f64, f64)], width: f64) -> (ThompsonDraws, Vec<f64>) {
        let mut draws = ThompsonDraws::default();
        let mut exact = Vec::new();
        for &(seed, target, shift) in arms {
            let start = StdRng::seed_from_u64(seed);
            let beta = Beta::new(3.0, 5.0).unwrap();
            let theta = beta.sample(&mut start.clone());
            let bias = target - theta;
            let d = theta + bias;
            exact.push(d);
            draws.slots.push(Slot {
                beta,
                bias,
                start,
                lo: d - width,
                mid: d + shift,
                hi: d + width,
                exact: false,
            });
        }
        (draws, exact)
    }

    /// Positions of the `take` smallest exact draws, ties to the lower.
    fn exact_order(exact: &[f64], take: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..exact.len()).collect();
        order.sort_by(|&i, &j| key_order((exact[i], i), (exact[j], j)));
        order.truncate(take);
        order
    }

    /// Which arms were replayed; every replay must carry the exact draw.
    fn replayed(draws: &ThompsonDraws, exact: &[f64]) -> Vec<bool> {
        for (i, slot) in draws.slots.iter().enumerate().filter(|(_, s)| s.exact) {
            let d = exact[i];
            assert_eq!((slot.lo, slot.mid, slot.hi), (d, d, d), "arm {i}");
        }
        draws.slots.iter().map(|s| s.exact).collect()
    }

    #[test]
    fn overlap_at_the_cut_is_replayed_and_resolved() {
        // Arm 0 draws 1e-9 below arm 1, but its centre sits above: only a
        // replay finds the true arg-min. Arm 2 is far above and must not be
        // replayed.
        let arms = [(7, 1.0, 2e-9), (8, 1.0 + 1e-9, 0.0), (9, 1.5, 0.0)];
        let (mut draws, exact) = crafted(&arms, 4e-9);
        assert_eq!(draws.smallest(1), &exact_order(&exact, 1)[..]);
        assert_eq!(draws.smallest(1), &[0]);
        assert_eq!(replayed(&draws, &exact), [true, true, false]);
    }

    #[test]
    fn exact_ties_go_to_the_lower_index() {
        // Identical seeds, shapes and biases: equal draws. Arm 1's centre
        // is lower, but the stable sort keeps arm 0 first.
        for take in [1, 2] {
            let (mut draws, exact) = crafted(&[(3, 1.0, 0.0), (3, 1.0, -1e-9)], 2e-9);
            assert_eq!(exact[0], exact[1]);
            assert_eq!(draws.smallest(take), &[0, 1][..take]);
            assert_eq!(replayed(&draws, &exact), [true, true]);
        }
        // The same tie between zero-width brackets, decided without a
        // replay.
        let (mut draws, exact) = crafted(&[(9, 1.2, 0.0), (5, 1.0, 0.0), (5, 1.0, 0.0)], 0.0);
        assert_eq!(draws.smallest(2), &[1, 2]);
        assert_eq!(replayed(&draws, &exact), [false, false, false]);
    }

    #[test]
    fn batched_rounds_resolve_overlap_at_the_cut_and_inside_the_batch() {
        // take = 3 over five arms drawing 1e-9 apart from five seeds. Arm
        // 3 (4th smallest) has its centre below arm 2 (3rd), across the
        // cut; arms 0 and 1 have swapped centres inside the batch. Arm 4
        // stays clear and is never replayed.
        let arms = [
            (11, 1.0, 1.5e-9),
            (12, 1.0 + 1e-9, -1.5e-9),
            (13, 1.0 + 2e-9, 1.4e-9),
            (14, 1.0 + 3e-9, -1.4e-9),
            (15, 1.25, 0.0),
        ];
        let (mut draws, exact) = crafted(&arms, 1.6e-9);
        assert_eq!(draws.smallest(3), &exact_order(&exact, 3)[..]);
        assert_eq!(draws.smallest(3), &[0, 1, 2]);
        assert!(!replayed(&draws, &exact)[4], "a clear arm was replayed");
        // The whole round, in order.
        let (mut draws, exact) = crafted(&arms, 1.6e-9);
        assert_eq!(draws.smallest(5), &[0, 1, 2, 3, 4]);
        replayed(&draws, &exact);
    }

    #[test]
    fn non_integer_shapes_take_the_exact_draw() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut exact_rng = rng.clone();
        let mut draws = ThompsonDraws::default();
        draws.push(&mut rng, 2.5, 3.0, 0.25).unwrap();
        let d = Beta::new(2.5, 3.0).unwrap().sample(&mut exact_rng) + 0.25;
        let slot = &draws.slots[0];
        assert!(slot.exact);
        assert_eq!((slot.lo, slot.mid, slot.hi), (d, d, d));
        assert_eq!(rng.next_u64(), exact_rng.next_u64());
    }

    #[test]
    fn invalid_shapes_are_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut draws = ThompsonDraws::default();
        for (s, f) in [
            (f64::NAN, 1.0),
            (1.0, 0.0),
            (-2.0, 3.0),
            (1.0, f64::INFINITY),
        ] {
            match draws.push(&mut rng, s, f, 0.0) {
                Err(TmError::InvalidConfig { param, .. }) => assert_eq!(param, "beta_shape"),
                other => panic!("Be({s}, {f}): {other:?}"),
            }
        }
        assert!(draws.slots.is_empty());
    }

    #[test]
    fn buffers_are_reused_across_rounds() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut draws = ThompsonDraws::default();
        for round in 0..3 {
            draws.clear();
            for i in 0..50 {
                draws
                    .push(&mut rng, 1.0 + i as f64, 2.0 + round as f64, 0.0)
                    .unwrap();
            }
            assert_eq!(draws.slots.len(), 50);
            assert_eq!(draws.smallest(60).len(), 50);
        }
        assert!(draws.slots.capacity() >= 50 && draws.order.capacity() >= 50);
    }
}
