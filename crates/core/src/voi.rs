//! Query-driven value-of-information (VoI) hints for candidate selection.
//!
//! The anytime query layer (`tm-query::anytime`) analyses a query against
//! the current track set and scores every admissible pair by how much the
//! query answer could move if that pair turned out to be polyonymous —
//! TRACER's idea of pushing query-level value down into which inferences to
//! run. `tm-core` stays query-agnostic: it only consumes the resulting
//! per-pair weights through [`VoiHints`], and only when the pipeline or
//! stream is explicitly switched into [`VoiMode::Reweight`].
//!
//! Semantics inside the selectors (TMerge / LCB):
//!
//! * weight `0.0` — **deferred**: the pair provably cannot change the
//!   answer. The selector never plays the arm and never emits it as a
//!   candidate; the distance charges it would have cost become headroom,
//!   exactly like PR 7's gating (`reid.gate.saved_charges`).
//! * weight in `(0.0, 1.0]` — a soft priority. The selector adds
//!   `1.0 - weight` to every Thompson draw (or LCB index; both rank
//!   ascending, lower first), so low-weight arms only win a round when
//!   every high-weight arm drew badly — exploration concentrates on the
//!   pairs that can move the answer, without ever starving the rest.
//! * an absent pair defaults to weight `1.0` — full priority, no deferral —
//!   so hints are always sound to drop.

use std::collections::HashMap;
use tm_types::TrackPair;

/// Whether (and how) a pipeline or stream consumes [`VoiHints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VoiMode {
    /// Query-agnostic selection (the historical behavior; default).
    #[default]
    Off,
    /// Reweight bandit arm selection by the attached [`VoiHints`] and
    /// defer weight-0 pairs entirely.
    Reweight,
}

impl VoiMode {
    /// Stable encoding for checkpoints (a merger checkpoint's config word).
    pub fn to_word(self) -> u64 {
        match self {
            VoiMode::Off => 0,
            VoiMode::Reweight => 1,
        }
    }

    /// Inverse of [`VoiMode::to_word`]; `None` on an unknown word.
    pub fn from_word(w: u64) -> Option<Self> {
        match w {
            0 => Some(VoiMode::Off),
            1 => Some(VoiMode::Reweight),
            _ => None,
        }
    }
}

/// Per-pair value-of-information weights, computed by the query layer.
///
/// Weights are clamped to `[0, 1]` on insertion. Pairs without an entry
/// default to full weight `1.0` (select as usual).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VoiHints {
    weights: HashMap<TrackPair, f64>,
}

impl VoiHints {
    /// An empty hint set (every pair at full weight).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the weight of `pair` (clamped to `[0, 1]`; NaN becomes 1.0).
    pub fn set(&mut self, pair: TrackPair, weight: f64) {
        let w = if weight.is_nan() {
            1.0
        } else {
            weight.clamp(0.0, 1.0)
        };
        self.weights.insert(pair, w);
    }

    /// The weight of `pair` (1.0 when unhinted).
    pub fn weight(&self, pair: &TrackPair) -> f64 {
        self.weights.get(pair).copied().unwrap_or(1.0)
    }

    /// True when `pair` is provably irrelevant to the query and must be
    /// skipped entirely.
    pub fn deferred(&self, pair: &TrackPair) -> bool {
        self.weight(pair) == 0.0
    }

    /// The additive rank bias for `pair`: `1.0 - weight`, so higher-value
    /// pairs sort first under the selectors' ascending-score ranking.
    pub fn bias(&self, pair: &TrackPair) -> f64 {
        1.0 - self.weight(pair)
    }

    /// Number of explicitly hinted pairs.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no pair is hinted.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Count of hinted pairs with weight 0 among `pairs`.
    pub fn deferred_among(&self, pairs: &[TrackPair]) -> u64 {
        pairs.iter().filter(|p| self.deferred(p)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::TrackId;

    fn pair(a: u64, b: u64) -> TrackPair {
        TrackPair::new(TrackId(a), TrackId(b)).unwrap()
    }

    #[test]
    fn unhinted_pairs_have_full_weight() {
        let h = VoiHints::new();
        assert_eq!(h.weight(&pair(1, 2)), 1.0);
        assert!(!h.deferred(&pair(1, 2)));
        assert_eq!(h.bias(&pair(1, 2)), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn weights_clamp_and_bias_inverts() {
        let mut h = VoiHints::new();
        h.set(pair(1, 2), 0.25);
        h.set(pair(3, 4), -2.0);
        h.set(pair(5, 6), 7.0);
        h.set(pair(7, 8), f64::NAN);
        assert_eq!(h.weight(&pair(1, 2)), 0.25);
        assert_eq!(h.bias(&pair(1, 2)), 0.75);
        assert_eq!(h.weight(&pair(3, 4)), 0.0);
        assert!(h.deferred(&pair(3, 4)));
        assert_eq!(h.weight(&pair(5, 6)), 1.0);
        assert_eq!(h.weight(&pair(7, 8)), 1.0);
        assert_eq!(h.len(), 4);
        assert_eq!(h.deferred_among(&[pair(1, 2), pair(3, 4), pair(9, 10)]), 1);
    }

    #[test]
    fn mode_words_round_trip() {
        for mode in [VoiMode::Off, VoiMode::Reweight] {
            assert_eq!(VoiMode::from_word(mode.to_word()), Some(mode));
        }
        assert_eq!(VoiMode::from_word(99), None);
        assert_eq!(VoiMode::default(), VoiMode::Off);
    }
}
