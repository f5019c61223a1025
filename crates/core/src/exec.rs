//! Shared window-execution plumbing.
//!
//! There is one window walk, [`crate::StreamingMerger`]: the offline
//! pipeline (`crate::run_pipeline_with_backend`) and the multi-stream
//! fleet (`crate::fleet`) drive it, and the cross-camera
//! [`crate::GlobalMerger`] runs its rounds on the same helpers. This
//! module is the single home of the window protocol — build a session,
//! select (or degrade behind the breaker), re-verify after recovery, and
//! emit the same observability signals;
//! `crates/core/tests/path_equivalence.rs` pins the offline, streaming
//! and fleet paths equal on fixture videos.
//!
//! Every helper preserves the exact counter/event emission order of the
//! code it replaced — the recorder's aggregates are commutative, but the
//! per-stream clocks and decisions those emissions bracket are compared
//! bit-for-bit across paths, so nothing here may charge or reorder work.

use crate::resilience::{degraded_candidates, Breaker, RobustnessConfig, RobustnessReport};
use crate::selector::{CandidateSelector, SelectionInput, SelectionResult};
use tm_obs::{Obs, Value};
use tm_reid::{AppearanceModel, CostModel, Device, GatePolicy, ReidSession, RetryPolicy};
use tm_types::{Result, TrackPair, TrackSet};

/// Builds the per-stream (or per-overlay) [`ReidSession`]: retry policy
/// and extraction gate — the construction every execution path shares, so
/// all of them run one [`GatePolicy`]. A fallible backend is installed
/// afterwards with [`ReidSession::with_backend`].
pub(crate) fn window_session<'m>(
    model: &'m AppearanceModel,
    cost: CostModel,
    device: Device,
    retry: RetryPolicy,
    gate: GatePolicy,
) -> ReidSession<'m> {
    ReidSession::new(model, cost, device)
        .with_retry_policy(retry)
        .with_gate(gate)
}

/// Flushes the session's gate decision counters (once per decided window,
/// the `AssignStats` cadence) and attributes the saved charges to the
/// selector that ran (`reid.gate.saved_charges.<slug>`). No-op — no
/// counters, no allocation — for ungated sessions.
pub(crate) fn flush_gate_obs(session: &mut ReidSession<'_>, obs: &Obs, selector_slug: &str) {
    let delta = session.flush_gate_obs();
    if obs.enabled() && delta.saved_charges() > 0 {
        obs.counter(
            &format!("reid.gate.saved_charges.{selector_slug}"),
            delta.saved_charges(),
        );
    }
}

/// How one window was decided.
pub(crate) enum WindowVerdict {
    /// The selector ran with real ReID.
    Normal(SelectionResult),
    /// The breaker (already open, or tripped by this window's failure)
    /// forced spatio-temporal-only candidates; the caller must stash the
    /// window for re-verification.
    Degraded(Vec<TrackPair>),
}

/// Selects a non-empty window's candidates, or degrades it: breaker open →
/// degrade immediately; selector success → record it on the breaker;
/// backend failure → count a possible trip, then degrade; any other error
/// propagates. Emission order: the trip counter/event precede the
/// degraded counter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_or_degrade(
    selector: &dyn CandidateSelector,
    input: &SelectionInput<'_>,
    session: &mut ReidSession<'_>,
    breaker: &mut Breaker,
    report: &mut RobustnessReport,
    robustness: &RobustnessConfig,
    obs: &Obs,
    window_index: u64,
) -> Result<WindowVerdict> {
    if breaker.is_open() {
        return Ok(WindowVerdict::Degraded(degrade_window(
            input, report, robustness, obs,
        )?));
    }
    let outcome = selector.select(input, session);
    // Gate decisions accumulated during selection flush here whether the
    // window succeeded or failed — failed extractions still made (and
    // charged) their decisions.
    flush_gate_obs(session, obs, selector.obs_slug());
    match outcome {
        Ok(result) => {
            breaker.record_success();
            Ok(WindowVerdict::Normal(result))
        }
        Err(e) if e.is_backend() => {
            note_breaker_failure(breaker, report, obs, window_index);
            Ok(WindowVerdict::Degraded(degrade_window(
                input, report, robustness, obs,
            )?))
        }
        Err(e) => Err(e),
    }
}

/// Decides one window on spatio-temporal evidence only, counting it as
/// degraded. Shared by the breaker path above and the streaming merger's
/// serve-level shed-load mode, which forces this path without consulting
/// the breaker at all.
pub(crate) fn degrade_window(
    input: &SelectionInput<'_>,
    report: &mut RobustnessReport,
    robustness: &RobustnessConfig,
    obs: &Obs,
) -> Result<Vec<TrackPair>> {
    let provisional =
        degraded_candidates(input.pairs, input.tracks, input.m(), &robustness.degraded)?;
    report.degraded_windows += 1;
    obs.counter("pipeline.windows_degraded", 1);
    Ok(provisional)
}

/// Records a window's backend failure on the breaker, counting the trip if
/// this one opened it.
pub(crate) fn note_breaker_failure(
    breaker: &mut Breaker,
    report: &mut RobustnessReport,
    obs: &Obs,
    window_index: u64,
) {
    if breaker.record_failure() {
        report.breaker_trips += 1;
        obs.counter("pipeline.breaker_trips", 1);
        obs.event("breaker_trip", &[("window", Value::U64(window_index))]);
    }
}

/// Records one stashed window successfully re-scored with real ReID.
pub(crate) fn note_reverified(report: &mut RobustnessReport, obs: &Obs) {
    report.reverified_windows += 1;
    obs.counter("pipeline.windows_reverified", 1);
}

/// Announces a breaker recovery observed at `epoch`.
pub(crate) fn emit_breaker_recovery(obs: &Obs, epoch: u64) {
    obs.counter("pipeline.breaker_recoveries", 1);
    obs.event("breaker_recovery", &[("window", Value::U64(epoch))]);
}

/// Emits one decided window's lifecycle counters and event.
pub(crate) fn emit_window_obs(
    obs: &Obs,
    window_index: u64,
    n_pairs: usize,
    candidates: &[TrackPair],
    degraded: bool,
) {
    if !obs.enabled() {
        return;
    }
    obs.counter("pipeline.windows", 1);
    obs.counter("pipeline.pairs", n_pairs as u64);
    obs.counter("pipeline.candidates", candidates.len() as u64);
    obs.event(
        "window",
        &[
            ("id", Value::U64(window_index)),
            ("pairs", Value::U64(n_pairs as u64)),
            ("candidates", Value::U64(candidates.len() as u64)),
            (
                "mode",
                Value::Str(if degraded { "degraded" } else { "normal" }),
            ),
        ],
    );
}

/// One stashed window queued for re-verification.
#[derive(Clone, Copy)]
pub(crate) struct ReverifyItem<'w> {
    /// The window's index, used for the `breaker_trip` event on renewed
    /// failure.
    pub(crate) window_index: u64,
    /// The window's full pair set.
    pub(crate) pairs: &'w [TrackPair],
}

/// Re-scores degraded windows with the (recovered) backend, in window
/// order. `commit` receives each successfully re-scored window's result
/// (emission order: commit, then the reverified counter). Returns how many
/// windows were committed: on a renewed backend failure the caller
/// re-stashes `pending[committed..]`; other errors propagate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reverify_windows(
    pending: &[ReverifyItem<'_>],
    tracks: &TrackSet,
    k: f64,
    selector: &dyn CandidateSelector,
    session: &mut ReidSession<'_>,
    breaker: &mut Breaker,
    report: &mut RobustnessReport,
    obs: &Obs,
    mut commit: impl FnMut(SelectionResult),
) -> Result<usize> {
    for (i, item) in pending.iter().enumerate() {
        let input = SelectionInput {
            pairs: item.pairs,
            tracks,
            k,
            voi: None,
        };
        let outcome = selector.select(&input, session);
        flush_gate_obs(session, obs, selector.obs_slug());
        match outcome {
            Ok(result) => {
                commit(result);
                note_reverified(report, obs);
            }
            Err(e) if e.is_backend() => {
                note_breaker_failure(breaker, report, obs, item.window_index);
                return Ok(i);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(pending.len())
}
