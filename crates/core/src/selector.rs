//! The shared interface of the candidate-selection algorithms.
//!
//! Every algorithm compared in the paper (§V-B) — BL, PS, LCB, TMerge, and
//! their batched `-B` variants — consumes a window's pair set plus the
//! budget parameter `K` and produces the estimated top-`⌈K·|P_c|⌉`
//! polyonymous track-pair candidates, `P̂*_{c|K}`.

use crate::voi::VoiHints;
use std::collections::HashMap;
use tm_reid::ReidSession;
use tm_types::{Result, TrackPair, TrackSet};

/// Input to a selection run: one window's pair set.
#[derive(Debug, Clone, Copy)]
pub struct SelectionInput<'a> {
    /// The pair set `P_c`.
    pub pairs: &'a [TrackPair],
    /// The tracks referenced by the pairs (with their boxes).
    pub tracks: &'a TrackSet,
    /// The budget fraction `K ∈ [0, 1]`.
    pub k: f64,
    /// Query-driven value-of-information weights ([`crate::voi`]). `None`
    /// (the historical default) selects query-agnostically; `Some` makes
    /// the bandit selectors prioritize high-weight pairs and skip
    /// weight-0 (deferred) pairs entirely.
    pub voi: Option<&'a VoiHints>,
}

impl SelectionInput<'_> {
    /// The candidate-set size `m = ⌈K·|P_c|⌉` (at most `|P_c|`).
    pub fn m(&self) -> usize {
        ((self.k.clamp(0.0, 1.0) * self.pairs.len() as f64).ceil() as usize).min(self.pairs.len())
    }
}

/// Output of a selection run.
#[derive(Debug, Clone, Default)]
pub struct SelectionResult {
    /// The estimated top-`m` polyonymous candidates `P̂*_{c|K}`.
    pub candidates: Vec<TrackPair>,
    /// The algorithm's final (normalized) score estimate per pair; lower
    /// means more likely polyonymous. Exact for BL, sampled means for
    /// PS/LCB, posterior means for TMerge.
    pub scores: HashMap<TrackPair, f64>,
    /// Number of BBox-pair distance evaluations performed (the paper's
    /// iteration count `τ`).
    pub distance_evals: u64,
    /// The normalized distances observed per iteration, when the algorithm
    /// was asked to record them (used for the regret analysis, §IV-E).
    pub history: Vec<f64>,
}

/// A candidate-selection algorithm. The [`ReidSession`] provides distances
/// and carries all cost accounting; selectors must route every model
/// invocation through it.
///
/// Selectors are `Send + Sync` so the experiment engine can share one
/// selector across its per-video workers and a fleet can advance its
/// shards, selectors included, on worker threads. All mutable
/// per-run state (RNGs, posteriors) lives inside `select`, which seeds a
/// fresh RNG from the configured seed per call — so a shared selector is
/// indistinguishable from a per-thread instance. That statelessness is also
/// what makes degraded-mode recovery possible: re-running `select` on a
/// stashed window after a backend outage reproduces exactly the result a
/// healthy run would have produced.
pub trait CandidateSelector: Send + Sync {
    /// Display name for tables/figures (e.g. "TMerge", "BL").
    fn name(&self) -> String;

    /// Short lowercase slug for counter names — the same slug each
    /// selector already uses for its `selector.<slug>.selections`
    /// counter. Labels per-selector gate attribution
    /// (`reid.gate.saved_charges.<slug>`).
    fn obs_slug(&self) -> &'static str {
        "selector"
    }

    /// Runs selection on one window's pair set.
    ///
    /// Errors surface problems the selector cannot make progress past:
    /// pairs referencing tracks absent from the set
    /// ([`tm_types::TmError::UnknownTrack`]) or a ReID backend that stayed
    /// down through every retry ([`tm_types::TmError::ReidBackend`]). On
    /// error the session's clock retains whatever work was charged before
    /// the failure — callers that retry must snapshot/restore the session
    /// if they need the failed attempt rolled back.
    fn select(
        &self,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
    ) -> Result<SelectionResult>;
}

/// Ranks pairs by ascending score (ties broken by pair order for
/// determinism) and returns the top-`m` — Eq. (6)/(7) of the paper.
pub fn top_m_by_score(scores: &[(TrackPair, f64)], m: usize) -> Vec<TrackPair> {
    let mut ranked: Vec<(TrackPair, f64)> = scores.to_vec();
    ranked.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked.into_iter().take(m).map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::TrackId;

    fn pair(a: u64, b: u64) -> TrackPair {
        TrackPair::new(TrackId(a), TrackId(b)).unwrap()
    }

    #[test]
    fn m_is_ceil_of_fraction() {
        let pairs: Vec<TrackPair> = (0..10).map(|i| pair(i, i + 100)).collect();
        let tracks = TrackSet::new();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 0.05,
            voi: None,
        };
        assert_eq!(input.m(), 1); // ⌈0.5⌉
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 0.25,
            voi: None,
        };
        assert_eq!(input.m(), 3); // ⌈2.5⌉
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 1.0,
            voi: None,
        };
        assert_eq!(input.m(), 10);
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 0.0,
            voi: None,
        };
        assert_eq!(input.m(), 0);
    }

    #[test]
    fn m_clamps_out_of_range_k() {
        let pairs: Vec<TrackPair> = (0..4).map(|i| pair(i, i + 100)).collect();
        let tracks = TrackSet::new();
        let input = SelectionInput {
            pairs: &pairs,
            tracks: &tracks,
            k: 2.0,
            voi: None,
        };
        assert_eq!(input.m(), 4);
    }

    #[test]
    fn top_m_sorts_ascending_with_deterministic_ties() {
        let scores = vec![
            (pair(1, 2), 0.5),
            (pair(3, 4), 0.1),
            (pair(5, 6), 0.5),
            (pair(7, 8), 0.3),
        ];
        let top = top_m_by_score(&scores, 3);
        assert_eq!(top, vec![pair(3, 4), pair(7, 8), pair(1, 2)]);
    }

    #[test]
    fn top_m_with_m_zero_is_empty() {
        assert!(top_m_by_score(&[(pair(1, 2), 0.1)], 0).is_empty());
    }
}
