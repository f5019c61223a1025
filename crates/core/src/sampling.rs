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
//! through `rand_distr::Beta`, at a fraction of the cost. A round's
//! uniforms are read in one pass and folded into two lane-parallel
//! products per draw, in one body compiled twice (portable, and AVX-512
//! chosen at run time). The products' exponents alone bracket every draw
//! without an `ln`; only arms whose bracket meets the cut are refined, to
//! a bracket from two `ln`s, and only if that still meets it, to an exact
//! replay.

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
/// `k·u ≤ 2⁻³³`, so the bounds' second-order terms stay negligible;
/// larger shapes take the exact draw.
const MAX_BRACKET_SHAPE: f64 = (1u64 << 19) as f64;

/// Smallest `x̂ + ŷ` a fine bracket is trusted at (its bound grows as
/// `k/(x̂ + ŷ)`); below it the draw is replayed exactly. A Gamma(k ≥ 2)
/// sum falls this low with probability below 10⁻⁶.
const MIN_BRACKET_SUM: f64 = 1.0 / 1024.0;

/// Uniforms after which a run of draws stops taking more draws, so a
/// run's buffer stays within 512 KiB unless one draw alone needs more.
const MAX_RUN: usize = 1 << 16;

/// Interleaved partial products of one draw: uniform `i` of a product
/// goes to lane `i mod 8`.
const LANES: usize = 8;

/// Factors per lane between exact renormalisations. Scaled uniforms lie
/// in `[2⁻¹, 2⁵³]` and a renormalised lane in `[½, 1)`, so 16 factors keep
/// every lane inside `[2⁻¹⁷, 2⁸⁴⁸]`, clear of overflow and subnormals.
const LANE_BLOCK: usize = 16;

/// `2⁵³ ×` the uniform on `(0, 1]` that `rand_distr::Beta` makes of the
/// word `z` and turns into one exponential `−ln U`. Scaling by a power of
/// two is exact, so a product of these rounds exactly where the product
/// of the uniforms would.
#[inline(always)]
fn scaled_unit(z: u64) -> f64 {
    (z >> 11) as f64 + 0.5
}

/// Splits a positive normal `p` into `(m, e)` with `p = m·2^e` and
/// `m ∈ [½, 1)`; exact.
#[inline(always)]
fn split_exponent(p: f64) -> (f64, i64) {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = p.to_bits();
    let e = (bits >> 52) as i64 - 1022;
    (f64::from_bits((bits & MANTISSA) | (1022 << 52)), e)
}

/// A product of uniforms, `ΠU = m·2^−e` with `m ∈ [½, 1)`: its `−ln` is
/// `e·ln 2 − ln m`, and `−ln m ∈ (0, ln 2]`. `e = −1` only when every
/// uniform is exactly 1.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Product {
    m: f64,
    e: i64,
}

impl Product {
    /// The empty product, `ΠU = 1`.
    const ONE: Product = Product { m: 0.5, e: -1 };

    /// `−ln ΠU`, with one `ln`. Both terms are non-negative (bar `e = −1`,
    /// which gives 0), so the sum carries no cancellation.
    fn neg_ln(self) -> f64 {
        self.e as f64 * std::f64::consts::LN_2 - self.m.ln()
    }
}

/// Multiplies `row` into `lanes`.
#[inline(always)]
fn multiply(lanes: &mut [f64; LANES], row: &[f64; LANES]) {
    for (lane, v) in lanes.iter_mut().zip(row) {
        *lane *= v;
    }
}

/// Moves every lane's exponent into `exp`; exact.
#[inline(always)]
fn renormalise(lanes: &mut [f64; LANES], exp: &mut i64) {
    for lane in lanes {
        let (m, e) = split_exponent(*lane);
        *lane = m;
        *exp += e;
    }
}

/// The product of the `count` scaled uniforms at `us[..count]`, uniform
/// `i` into lane `i mod 8`; `us` holds at least `count + 7` values (the
/// last row reads past `count` and multiplies exact ones in their place).
/// A lane's first factor multiplies 1 exactly and the exponents move out
/// exactly, so the `count − 1` roundings are those of one running
/// product: each lane's later factors and the fold of the lanes.
#[inline(always)]
fn product(us: &[f64], count: usize) -> Product {
    let mut lanes = [1.0f64; LANES];
    // The product of the scaled uniforms is Π lanes · 2^exp.
    let mut exp = 0i64;
    let full = count - count % LANES;
    let mut blocks = us[..full].chunks_exact(LANES * LANE_BLOCK);
    for block in &mut blocks {
        for row in block.chunks_exact(LANES) {
            multiply(&mut lanes, row.try_into().expect("a row"));
        }
        renormalise(&mut lanes, &mut exp);
    }
    for row in blocks.remainder().chunks_exact(LANES) {
        multiply(&mut lanes, row.try_into().expect("a row"));
    }
    let tail: &[f64; LANES] = us[full..full + LANES].try_into().expect("a row");
    let last: [f64; LANES] = std::array::from_fn(|l| if l < count % LANES { tail[l] } else { 1.0 });
    multiply(&mut lanes, &last);
    // At most 16 factors in all fold to at most 2⁸⁴⁸ without help.
    if count > 2 * LANES {
        renormalise(&mut lanes, &mut exp);
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    let (m, e) = split_exponent(((l0 * l1) * (l2 * l3)) * ((l4 * l5) * (l6 * l7)));
    // Product of the uniforms = m·2^(exp + e − 53·count).
    Product {
        m,
        e: 53 * count as i64 - exp - e,
    }
}

/// Draws the products of a run of slots whose uniforms follow each other
/// in the stream: the run's `total` uniforms are read from a clone of the
/// first slot's RNG state into `buf`, then every slot takes its `x` (the
/// first `a`) and `y` (the next `k − a`). This is the one body of both
/// builds (see [`ProductBuild`]); its floating-point operations and their
/// order do not depend on the build.
#[inline(always)]
fn run_body<const VECTOR: bool>(slots: &mut [Slot], total: usize, buf: &mut Vec<f64>) {
    if buf.len() < total + LANES {
        buf.resize(total + LANES, 1.0);
    }
    let mut rng = slots[0].start.clone();
    for u in &mut buf[..total] {
        #[allow(unused_mut)]
        let mut z = rng.next_u64();
        // Left to itself, LLVM vectorises the portable stream with SSE2,
        // whose emulated 64-bit multiplies run SplitMix64 ~1.4× slower
        // than scalar code; an empty `asm!` on each word keeps it scalar.
        #[cfg(target_arch = "x86_64")]
        if !VECTOR {
            // SAFETY: the template is empty: no instruction, no memory.
            unsafe { std::arch::asm!("/* {0} */", inout(reg) z, options(pure, nomem, nostack)) };
        }
        *u = scaled_unit(z);
    }
    let mut at = 0;
    for slot in slots {
        let (a, k) = (slot.a as usize, slot.k as usize);
        slot.x = product(&buf[at..], a);
        slot.y = product(&buf[at + a..], k - a);
        at += k;
    }
}

/// The portable build of [`run_body`].
fn run_portable(slots: &mut [Slot], total: usize, buf: &mut Vec<f64>) {
    run_body::<false>(slots, total, buf)
}

/// The AVX-512 build of [`run_body`]: LLVM turns the SplitMix64 stream,
/// its conversions and the lanes into 8-wide vector code (`vpmullq`,
/// `vcvtqq2pd`). Bit-identical to [`run_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn run_avx512(slots: &mut [Slot], total: usize, buf: &mut Vec<f64>) {
    run_body::<true>(slots, total, buf)
}

/// Which compiled copy of the product body a round runs. Both do the same
/// IEEE operations in the same order, so they give the same bits; the
/// choice only moves wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProductBuild {
    Portable,
    /// Runs portable on a CPU without AVX-512 F, DQ and VL.
    Avx512,
}

impl ProductBuild {
    /// The build for this process: AVX-512 when the CPU has it and
    /// `TMERGE_SIMD=0` does not veto it (`tm_types::simd::avx512_enabled`).
    pub fn detect() -> Self {
        if tm_types::simd::avx512_enabled() {
            Self::Avx512
        } else {
            Self::Portable
        }
    }

    fn run(self, slots: &mut [Slot], total: usize, buf: &mut Vec<f64>) {
        #[cfg(target_arch = "x86_64")]
        if self == Self::Avx512 && tm_types::simd::avx512_detected() {
            // SAFETY: the CPU has AVX-512 F, DQ and VL, checked just above.
            return unsafe { run_avx512(slots, total, buf) };
        }
        run_portable(slots, total, buf)
    }
}

/// The number of uniforms `rand_distr::Beta` spends on a shape, when the
/// shape is a whole number a bracket can take.
fn bracket_uniforms(shape: f64) -> Option<u64> {
    let k = shape as u64;
    (k as f64 == shape && shape <= MAX_BRACKET_SHAPE).then_some(k)
}

/// Tier 0: a bracket `(lo, mid, hi)` around the `Be(a, b)` draw made from
/// the uniforms behind `x` and `y` (`k = a + b`), from their exponents
/// alone: no `ln`. `None` when a product is exactly 1 (`e = −1`).
///
/// With `X`, `Y` the real sums of `−ln U` and `n = e_x + e_y`:
///
/// * `−ln m ∈ (0, ln 2]` puts the products' `−ln`s in
///   `(e·ln 2, (e+1)·ln 2]`. `θ = X/(X+Y)` rises with `X` and falls with
///   `Y`, and `ln 2` cancels, so `θ(X, Y) ∈ [e_x/(n+1), (e_x+1)/(n+1)]`
///   up to the products' rounding.
/// * Each product rounds `a − 1` (or `b − 1`) times, moving its `−ln` by
///   at most `u` a rounding. At either end of the bracket `X + Y` is
///   `(n+1)·ln 2`, where moving `X` and `Y` by `δ_x`, `δ_y` moves `θ` by at
///   most `max(δ_x, δ_y)/((n+1)·ln 2) ≤ 1.5·k·u/(n+1)`.
/// * The exact draw lies within `(k+2)u/4 + 2u` of `θ(X, Y)` (see
///   [`fine_bracket`]), and a division and the radius cost `≤ 2u`.
///
/// In all the exact draw is within `u·(k/4 + 1.5·k/(n+1) + 4.5)` of the
/// exponent bracket, and `r₀ = u·(2k + 5)` bounds that for every `n ≥ 0`
/// without a division. The radius is `4·r₀`, a margin that also absorbs a
/// libm `ln` a few ulp off; with `n + 1 ≈ k/ln 2` it is narrower than the
/// bracket's width `1/(n+1)` by about `10¹⁵/k²` (10⁹ at `k = 10³`). The
/// centre is the bracket's midpoint.
fn coarse_bracket(x: Product, y: Product, k: u64) -> Option<(f64, f64, f64)> {
    if x.e < 0 || y.e < 0 {
        return None;
    }
    let (ex, d) = (x.e as f64, (x.e + y.e + 1) as f64);
    let r = BRACKET_MARGIN * UNIT_ROUNDOFF * (2.0 * k as f64 + 5.0);
    let (lo, hi) = (ex / d - r, (ex + 1.0) / d + r);
    Some((lo, 0.5 * (lo + hi), hi))
}

/// Tier 1: the centre `θ̂` and radius of a bracket around the `Be(a, b)`
/// draw made from the uniforms behind `x` and `y` (`k = a + b`), with one
/// `ln` per product; `None` when the bound does not apply (the caller
/// replays).
///
/// Error bound (`u = 2⁻⁵³`, `X` and `Y` the real sums of `−ln U`,
/// `θ = X/(X+Y)`, first order in `k·u`):
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
fn fine_bracket(x: Product, y: Product, k: u64) -> Option<(f64, f64)> {
    let (x, y) = (x.neg_ln(), y.neg_ln());
    let sum = x + y;
    if sum.is_nan() || sum < MIN_BRACKET_SUM {
        return None;
    }
    let k = k as f64;
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

/// How far a draw's bracket has been refined, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// [`coarse_bracket`]: the products' exponents, no `ln`.
    Coarse,
    /// [`fine_bracket`]: `θ̂ ± 4r₀`, one `ln` per product.
    Fine,
    /// The exact draw, replayed on the saved RNG state.
    Exact,
}

/// One arm's draw: its bracket, and what refining it needs.
#[derive(Debug, Clone)]
struct Slot {
    beta: Beta,
    bias: f64,
    /// The RNG state before this arm's draw.
    start: StdRng,
    /// The draw's two products, over its first `a = S` and its other
    /// `k − a = F` uniforms; `k = 0` for a draw that is exact from the
    /// start (or whose bracket is set by hand in a test).
    x: Product,
    y: Product,
    a: u64,
    k: u64,
    /// The draw's uniforms directly follow the previous slot's, so the two
    /// can be read in one run.
    joins: bool,
    /// Bracket of the biased draw and the point estimate inside it; all
    /// three equal the draw once `Exact`.
    lo: f64,
    mid: f64,
    hi: f64,
    tier: Tier,
}

impl Slot {
    /// Sets the bracket `[lo, hi]` around `mid` of the unbiased draw.
    fn set(&mut self, (lo, mid, hi): (f64, f64, f64), tier: Tier) {
        (self.lo, self.mid, self.hi) = (lo + self.bias, mid + self.bias, hi + self.bias);
        self.tier = tier;
    }

    /// Refines the bracket by one tier: coarse to fine (or to exact, when
    /// the fine bound does not apply), fine to exact.
    fn refine(&mut self) {
        match self.tier {
            Tier::Coarse => match fine_bracket(self.x, self.y, self.k) {
                Some((theta, r)) => self.set((theta - r, theta, theta + r), Tier::Fine),
                None => self.replay(),
            },
            Tier::Fine => self.replay(),
            Tier::Exact => {}
        }
    }

    /// Replays the draw exactly, on a clone of its starting RNG state.
    fn replay(&mut self) {
        let d = self.beta.sample(&mut self.start.clone()) + self.bias;
        (self.lo, self.mid, self.hi, self.tier) = (d, d, d, Tier::Exact);
    }
}

/// Certified Thompson draws over one round's live arms (Algorithm 2,
/// lines 4–6): [`push`](Self::push) each arm's `Be(S, F)` and VoI bias in
/// index order, then [`smallest`](Self::smallest) gives the positions of
/// the `take` smallest biased draws. Arms, order and RNG consumption are
/// exactly those of drawing every arm with `rand_distr::Beta`, stable
/// sorting and truncating; ties go to the earlier push.
///
/// A push saves the RNG state and skips the uniforms the exact sampler
/// would consume, so the main RNG ends every round where the exact loop
/// would. `smallest` then reads each run of consecutive draws' uniforms in
/// one pass and folds every draw's into two products (lane-parallel, see
/// [`run_body`]). Each draw holds a bracket of one of three tiers: coarse
/// (the products' exponents, no `ln`), fine (one `ln` per product) or
/// exact (a replay through `rand_distr::Beta` on a clone of the RNG state
/// saved before the draw).
/// The `take` smallest centres are chosen in O(n) and the choice is
/// certified from the brackets: the chosen brackets must lie below all
/// others and must not overlap each other. When they do not, the arms on
/// the open boundaries that hold the coarsest brackets are refined one
/// tier, and the choice is made again. Non-integer shapes, shapes above
/// 2¹⁹ and the rare draws the bounds exclude take the exact draw at once.
/// Buffers are kept across rounds.
#[derive(Debug)]
pub(crate) struct ThompsonDraws {
    build: ProductBuild,
    slots: Vec<Slot>,
    order: Vec<usize>,
    /// Arms on an open boundary of the last attempt.
    open: Vec<usize>,
    /// Slots whose products are drawn (a prefix of `slots`).
    drawn: usize,
    /// The RNG state after the last bracketed push.
    end: Option<StdRng>,
    /// A run's scaled uniforms.
    buf: Vec<f64>,
}

impl ThompsonDraws {
    /// Draws through this process's product build ([`ProductBuild::detect`]).
    pub fn new() -> Self {
        Self::with_build(ProductBuild::detect())
    }

    /// Draws through the given product build.
    pub fn with_build(build: ProductBuild) -> Self {
        Self {
            build,
            slots: Vec::new(),
            order: Vec::new(),
            open: Vec::new(),
            drawn: 0,
            end: None,
            buf: Vec::new(),
        }
    }

    /// Starts a new round (capacity is kept).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.drawn = 0;
        self.end = None;
    }

    /// Draws `θ ~ Be(s, f)` for the next arm, to be ranked as `θ + bias`,
    /// consuming `rng` exactly as `Beta::new(s, f)?.sample(rng)` does (a
    /// bracketed draw's products are computed in `smallest`). An invalid
    /// shape is a typed `beta_shape` error.
    pub fn push(&mut self, rng: &mut StdRng, s: f64, f: f64, bias: f64) -> Result<()> {
        // Shapes start at 1 and only ever increment, so this can only fail
        // on NaN corruption upstream — surfaced as an error, not a panic.
        let beta = Beta::new(s, f).map_err(|_| {
            TmError::invalid(
                "beta_shape",
                format!("Beta({s}, {f}) is not a valid posterior"),
            )
        })?;
        let mut slot = Slot {
            beta,
            bias,
            start: rng.clone(),
            x: Product::ONE,
            y: Product::ONE,
            a: 0,
            k: 0,
            joins: false,
            lo: 0.0,
            mid: 0.0,
            hi: 0.0,
            tier: Tier::Exact,
        };
        if let (Some(a), Some(b)) = (bracket_uniforms(s), bracket_uniforms(f)) {
            // The products are drawn in `smallest`; skip their uniforms.
            // SplitMix64's state steps by a constant, so the compiler folds
            // this loop into one multiply-add.
            (slot.a, slot.k, slot.tier) = (a, a + b, Tier::Coarse);
            slot.joins = self.end.as_ref() == Some(&*rng);
            for _ in 0..a + b {
                rng.next_u64();
            }
            self.end = Some(rng.clone());
        } else {
            let d = beta.sample(rng) + bias;
            (slot.lo, slot.mid, slot.hi) = (d, d, d);
        }
        self.slots.push(slot);
        Ok(())
    }

    /// Draws the products of the slots pushed since the last call, one run
    /// of consecutive bracketed slots at a time, and sets their coarse
    /// brackets.
    fn draw(&mut self) {
        let mut i = self.drawn;
        let n = self.slots.len();
        while i < n {
            if self.slots[i].k == 0 {
                i += 1;
                continue;
            }
            let mut total = self.slots[i].k as usize;
            let mut j = i + 1;
            while j < n && self.slots[j].joins && total < MAX_RUN {
                total += self.slots[j].k as usize;
                j += 1;
            }
            self.build.run(&mut self.slots[i..j], total, &mut self.buf);
            for slot in &mut self.slots[i..j] {
                match coarse_bracket(slot.x, slot.y, slot.k) {
                    Some(bracket) => slot.set(bracket, Tier::Coarse),
                    // A product of exact ones: straight to the next tier.
                    None => slot.refine(),
                }
            }
            i = j;
        }
        self.drawn = n;
    }

    /// Positions (in push order) of the `take` smallest draws, ascending,
    /// ties to the earlier push. Refines only the brackets that leave the
    /// answer open, coarsest first.
    pub fn smallest(&mut self, take: usize) -> &[usize] {
        self.draw();
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
            assert!(
                failed <= 2 * n,
                "every failed certification refines a draw by one of its two tiers"
            );
        }
        &self.order[..take]
    }

    /// One attempt: chooses the `take` smallest centres into
    /// `order[..take]`, sorted, and returns true when the brackets prove
    /// the choice and its order. Otherwise refines the coarsest of the
    /// brackets on the open boundaries and returns false. Each failed
    /// attempt refines at least one draw, since exact draws always compare
    /// decisively, so some open bracket is not exact.
    fn certify(&mut self, take: usize) -> bool {
        let slots = &mut self.slots;
        let order = &mut self.order;
        let open = &mut self.open;
        open.clear();
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
                let above = |&i: &usize| key_order((slots[i].hi, i), floor) != Ordering::Less;
                let below = |&j: &usize| key_order(top, (slots[j].lo, j)) != Ordering::Less;
                open.extend(chosen.iter().copied().filter(above));
                open.extend(rest.iter().copied().filter(below));
            }
        }
        if open.is_empty() {
            let chosen = &mut order[..take];
            chosen.sort_unstable_by(by_mid);
            for w in chosen.windows(2) {
                let (i, j) = (w[0], w[1]);
                if key_order((slots[i].hi, i), (slots[j].lo, j)) != Ordering::Less {
                    open.extend([i, j]);
                }
            }
            if open.is_empty() {
                return true;
            }
        }
        let coarsest = open
            .iter()
            .map(|&i| slots[i].tier)
            .min()
            .expect("a failed attempt has open brackets");
        for &i in open.iter() {
            // An arm listed twice is refined once: its tier has moved on.
            if slots[i].tier == coarsest {
                slots[i].refine();
            }
        }
        false
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
                let mut draws = ThompsonDraws::new();
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
                    let (coarse, fine) = tier_brackets(&mut rng, s as u64, f as u64);
                    let (lo, hi) = coarse.expect("a product of exact ones is a 2⁻⁵³ event");
                    prop_assert!(
                        lo <= exact && exact <= hi,
                        "Be({s}, {f}): {exact} outside the coarse [{lo}, {hi}]"
                    );
                    let (theta, r) = fine.expect("a Gamma(k ≥ 2) sum this small is a 1e-6 event");
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

    /// The coarse bracket, unmargined (widened by `r₀`, not `4·r₀`), and
    /// the fine centre and radius of the `Be(a, b)` draw from the next
    /// `a + b` uniforms, which are consumed; products through this
    /// process's build.
    #[allow(clippy::type_complexity)]
    fn tier_brackets(rng: &mut StdRng, a: u64, b: u64) -> (Option<(f64, f64)>, Option<(f64, f64)>) {
        let mut draws = ThompsonDraws::new();
        // NaNs past the uniforms: an unmasked last row would poison a side.
        draws.buf = vec![f64::NAN; (a + b) as usize + 2 * LANES];
        draws.push(rng, a as f64, b as f64, 0.0).unwrap();
        draws.draw();
        let Slot { x, y, .. } = draws.slots[0];
        let coarse = coarse_bracket(x, y, a + b).map(|(_, _, hi)| {
            let d = (x.e + y.e + 1) as f64;
            let r0 = (hi - (x.e + 1) as f64 / d) / BRACKET_MARGIN;
            (x.e as f64 / d - r0, (x.e + 1) as f64 / d + r0)
        });
        (coarse, fine_bracket(x, y, a + b))
    }

    #[test]
    fn coarse_brackets_hold_the_exact_draw_at_edge_shapes() {
        let edge = [1.0, (1u64 << 19) as f64];
        for seed in 0..3 {
            for s in edge {
                for f in edge {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let exact = Beta::new(s, f).unwrap().sample(&mut rng.clone());
                    let (coarse, _) = tier_brackets(&mut rng, s as u64, f as u64);
                    let (lo, hi) = coarse.expect("not a product of exact ones");
                    assert!(
                        lo <= exact && exact <= hi,
                        "Be({s}, {f}), seed {seed}: {exact} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn product_builds_are_bit_identical() {
        if !tm_types::simd::avx512_detected() {
            eprintln!("product_builds_are_bit_identical: skipped, this CPU has no AVX-512 F/DQ/VL");
            return;
        }
        let ks = [1u64, 2, 7, 8, 15, 16, 17, 127, 128, 129, 10_000, 1 << 19];
        for (seed, &k) in ks.iter().enumerate() {
            // Every k on either side of a draw, in one run of draws that
            // start at every offset modulo 8.
            let shapes = [(k, 1), (1, k), (k, k), (3, k), (k, 5)];
            let mut rngs = [0, 1].map(|_| StdRng::seed_from_u64(seed as u64));
            // Buffers of NaNs: a last row that read past a side without
            // masking would poison the product.
            let [portable, vector] = [ProductBuild::Portable, ProductBuild::Avx512].map(|b| {
                let mut d = ThompsonDraws::with_build(b);
                d.buf = vec![f64::NAN; 1 << 16];
                d
            });
            let mut draws = [portable, vector];
            for (d, rng) in draws.iter_mut().zip(&mut rngs) {
                for &(s, f) in &shapes {
                    d.push(rng, s as f64, f as f64, 0.0).unwrap();
                }
                d.draw();
            }
            for (i, (p, v)) in draws[0].slots.iter().zip(&draws[1].slots).enumerate() {
                let bits = |s: &Slot| [s.x, s.y].map(|q| (q.m.to_bits(), q.e));
                assert_eq!(bits(p), bits(v), "k = {k}, draw {i}");
                assert!((0.5..1.0).contains(&p.x.m) && (0.5..1.0).contains(&p.y.m));
            }
            let [a, b] = &mut rngs;
            assert_eq!(a.next_u64(), b.next_u64(), "k = {k}");
        }
    }

    #[test]
    fn a_product_of_exact_ones_is_exactly_one() {
        // e = −1 and m = ½ encode ΠU = 1; `neg_ln` must give exactly 0.
        let one = Product::ONE;
        assert_eq!(one.neg_ln(), 0.0);
        assert!(coarse_bracket(one, one, 2).is_none());
        assert!(fine_bracket(one, one, 2).is_none());
    }

    /// A round of `Be(3, 5)` draws with hand-set fine brackets. Arm `i`
    /// draws from seed `seed_i` with a bias that puts its draw `d` at
    /// `target_i` (to the ulp), so draws from different seeds can sit 1e-9
    /// apart; its bracket is `[d − width, d + width]` with the centre moved
    /// to `d + shift_i`. Returns the round and the exact draws.
    fn crafted(arms: &[(u64, f64, f64)], width: f64) -> (ThompsonDraws, Vec<f64>) {
        let mut draws = ThompsonDraws::new();
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
                x: Product::ONE,
                y: Product::ONE,
                a: 0,
                k: 0,
                joins: false,
                lo: d - width,
                mid: d + shift,
                hi: d + width,
                tier: Tier::Fine,
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
        let is_exact = |s: &Slot| s.tier == Tier::Exact;
        for (i, slot) in draws.slots.iter().enumerate().filter(|(_, s)| is_exact(s)) {
            let d = exact[i];
            assert_eq!((slot.lo, slot.mid, slot.hi), (d, d, d), "arm {i}");
        }
        draws.slots.iter().map(is_exact).collect()
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
    fn a_coarse_bracket_overlapping_a_fine_one_refines_only_the_coarse_arm() {
        // Two Be(20, 30) draws from seeds 21 and 22. Arm 0 is refined to
        // its fine bracket by hand and biased to draw 1e-9 below arm 1,
        // whose coarse bracket covers that gap; the fine brackets do not
        // overlap. Only arm 1 may be refined, and only to its fine tier.
        let (s, f) = (20.0, 30.0);
        let fine_centre = |seed| {
            let mut draws = ThompsonDraws::new();
            draws
                .push(&mut StdRng::seed_from_u64(seed), s, f, 0.0)
                .unwrap();
            draws.draw();
            draws.slots[0].refine();
            draws.slots[0].mid
        };
        let bias = fine_centre(22) - fine_centre(21) - 1e-9;
        let mut draws = ThompsonDraws::new();
        draws
            .push(&mut StdRng::seed_from_u64(21), s, f, bias)
            .unwrap();
        draws
            .push(&mut StdRng::seed_from_u64(22), s, f, 0.0)
            .unwrap();
        draws.draw();
        draws.slots[0].refine();
        let tiers = |d: &ThompsonDraws| d.slots.iter().map(|s| s.tier).collect::<Vec<_>>();
        assert_eq!(tiers(&draws), [Tier::Fine, Tier::Coarse]);
        let (fine, coarse) = (&draws.slots[0], &draws.slots[1]);
        assert!(
            coarse.lo < fine.hi && fine.lo < coarse.hi,
            "the brackets must overlap"
        );
        let exact = |seed, bias| {
            Beta::new(s, f)
                .unwrap()
                .sample(&mut StdRng::seed_from_u64(seed))
                + bias
        };
        assert!(exact(21, bias) < exact(22, 0.0));
        assert_eq!(draws.smallest(1), &[0]);
        assert_eq!(tiers(&draws), [Tier::Fine, Tier::Fine]);
    }

    #[test]
    fn runs_break_at_exact_draws_and_at_another_rng() {
        // Integer arms from `rng`, a non-integer arm, more integer arms, an
        // arm from a second RNG and one more from `rng`: five runs. The
        // whole order must match the exact draws, and both RNGs must end
        // where the exact sampler leaves them.
        let arms = [
            (0, 3.0, 9.0),
            (0, 40.0, 2.0),
            (0, 2.5, 4.0),
            (0, 7.0, 7.0),
            (0, 1.0, 130.0),
            (1, 12.0, 5.0),
            (0, 6.0, 6.0),
        ];
        let seeds = [31, 32];
        let mut rngs = seeds.map(StdRng::seed_from_u64);
        let mut exact_rngs = rngs.clone();
        let mut draws = ThompsonDraws::new();
        let mut exact = Vec::new();
        for &(r, s, f) in &arms {
            draws.push(&mut rngs[r], s, f, 0.0).unwrap();
            exact.push(Beta::new(s, f).unwrap().sample(&mut exact_rngs[r]));
        }
        assert_eq!(
            draws.smallest(arms.len()),
            &exact_order(&exact, arms.len())[..]
        );
        let joins: Vec<bool> = draws.slots.iter().map(|s| s.joins).collect();
        assert_eq!(joins, [false, true, false, false, true, false, false]);
        for (rng, exact_rng) in rngs.iter_mut().zip(&mut exact_rngs) {
            assert_eq!(rng.next_u64(), exact_rng.next_u64());
        }
    }

    #[test]
    fn non_integer_shapes_take_the_exact_draw() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut exact_rng = rng.clone();
        let mut draws = ThompsonDraws::new();
        draws.push(&mut rng, 2.5, 3.0, 0.25).unwrap();
        let d = Beta::new(2.5, 3.0).unwrap().sample(&mut exact_rng) + 0.25;
        let slot = &draws.slots[0];
        assert_eq!(slot.tier, Tier::Exact);
        assert_eq!((slot.lo, slot.mid, slot.hi), (d, d, d));
        assert_eq!(rng.next_u64(), exact_rng.next_u64());
    }

    #[test]
    fn invalid_shapes_are_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut draws = ThompsonDraws::new();
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
        let mut draws = ThompsonDraws::new();
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
