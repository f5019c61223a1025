//! The fallible inference seam.
//!
//! [`crate::AppearanceModel`] is a pure function — it cannot fail. Real
//! ReID backends can: the model server drops a request, a GPU worker goes
//! away for a few seconds, a truncated tensor comes back full of NaNs.
//! [`InferenceBackend`] is the seam where those failures enter the system:
//! a session extracts every feature through its backend, and the default
//! backend is simply the appearance model itself (infallible, zero extra
//! latency), so the zero-fault path is byte-identical to the historical
//! direct-model path. Fault injectors (the `tm-chaos` crate) implement this
//! trait to wrap the model with deterministic, seeded failures.
//!
//! Failure handling lives in [`crate::ReidSession`]: each extraction is
//! retried under a [`RetryPolicy`] with capped exponential backoff, every
//! attempt's latency (backend-reported `extra_ms` plus backoff sleeps) is
//! charged to the simulated clock, and exhaustion surfaces as
//! [`tm_types::TmError::ReidBackend`] for the merging layer's circuit
//! breaker to act on.

use crate::appearance::AppearanceModel;
use crate::feature::Feature;
use crate::session::BoxKey;
use tm_types::TrackBox;

/// Context for one extraction attempt, handed to the backend so fault
/// injectors can make **deterministic** decisions: the triple
/// `(epoch, key, attempt)` fully identifies an attempt, independent of
/// thread scheduling or wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// The processing epoch (the merging layer sets this to the window
    /// cursor), so fault plans can schedule outages per window.
    pub epoch: u64,
    /// Zero-based retry ordinal within this extraction.
    pub attempt: u32,
    /// The box being extracted.
    pub key: BoxKey,
}

/// Why a backend attempt produced no usable feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendFault {
    /// A one-off failure (timeout, dropped request); retrying may succeed.
    Transient(&'static str),
    /// The backend is hard-down for this epoch; retries within the epoch
    /// are futile. Sessions still retry (the outage may be shorter than
    /// the plan claims), but the merging layer's breaker uses
    /// [`InferenceBackend::available`] to stop sending work.
    Unavailable,
}

impl BackendFault {
    /// Human-readable reason carried into [`tm_types::TmError::ReidBackend`].
    pub fn reason(&self) -> &'static str {
        match self {
            BackendFault::Transient(r) => r,
            BackendFault::Unavailable => "backend unavailable",
        }
    }
}

/// One attempt's outcome plus the simulated latency it consumed **beyond**
/// the cost model's nominal inference charge (latency spikes, time wasted
/// on a failed call). The session charges `extra_ms` unconditionally, so a
/// zero here keeps the clock byte-identical to the fault-free run.
#[derive(Debug, Clone)]
pub struct BackendReply {
    /// The feature, or why there isn't one. An `Ok` feature with non-finite
    /// components is treated by the session as a corrupted reply and
    /// retried like a transient fault.
    pub outcome: Result<Feature, BackendFault>,
    /// Extra simulated milliseconds this attempt consumed.
    pub extra_ms: f64,
}

impl BackendReply {
    /// A clean reply: the feature, no extra latency.
    pub fn ok(feature: Feature) -> Self {
        Self {
            outcome: Ok(feature),
            extra_ms: 0.0,
        }
    }

    /// A failed attempt.
    pub fn fault(fault: BackendFault, extra_ms: f64) -> Self {
        Self {
            outcome: Err(fault),
            extra_ms,
        }
    }
}

/// A (possibly unreliable) feature-extraction service.
///
/// `Sync` because fleet shards hold a `&dyn InferenceBackend` while they
/// advance on worker threads, and streams may share one backend exactly as
/// they share the appearance model.
pub trait InferenceBackend: std::fmt::Debug + Sync {
    /// Runs the model on one box. Implementations must be deterministic in
    /// `(tb, at)` — same attempt, same reply — or cross-run reproducibility
    /// guarantees (thread-count identity, checkpoint resume) break.
    fn try_observe(&self, tb: &TrackBox, at: &Attempt) -> BackendReply;

    /// Whether the backend is accepting work during `epoch`. The merging
    /// layer probes this to trip / reset its circuit breaker without
    /// burning a full retry ladder. Defaults to always-up.
    fn available(&self, _epoch: u64) -> bool {
        true
    }

    /// Advisory look-ahead: the session announces the full miss list of an
    /// inference round before extracting box-by-box, so batching backends
    /// (`crate::BatchScheduler`) can accumulate cross-stream batches.
    ///
    /// A prefetch MUST NOT change any subsequent [`Self::try_observe`]
    /// reply — it may only move *when* a clean feature gets computed, never
    /// what it is or what it costs the announcing session. The default is a
    /// no-op, so plain backends are untouched.
    fn prefetch(&self, _requests: &[(&TrackBox, Attempt)]) {}
}

/// What a backend would do with one attempt, with the clean-compute part
/// split out. See [`SplitBackend`].
#[derive(Debug, Clone)]
pub enum AttemptClass {
    /// The attempt succeeds with the wrapped model's true feature.
    Clean {
        /// Extra simulated latency of the (successful) call.
        extra_ms: f64,
    },
    /// The attempt "succeeds" with a corrupted (non-finite) feature. The
    /// payload is carried here because it is *not* the model's output and
    /// must never be cached or shared.
    Corrupt {
        /// The corrupted feature exactly as `try_observe` would return it.
        feature: Feature,
        /// Extra simulated latency of the call.
        extra_ms: f64,
    },
    /// The attempt fails outright.
    Fault {
        /// The fault exactly as `try_observe` would return it.
        fault: BackendFault,
        /// Extra simulated latency of the failed call.
        extra_ms: f64,
    },
}

/// A backend whose fault decision is separable from its clean compute.
///
/// Contract: for every `(tb, at)`, `try_observe(tb, at)` must equal the
/// reply assembled from `classify(at)` — `Clean { extra_ms }` means
/// `Ok(model.observe_track_box(tb))` with that `extra_ms`, where `model`
/// is the pure [`AppearanceModel`] the backend wraps; `Corrupt` / `Fault`
/// carry their reply verbatim. This is what lets a batching layer answer
/// `Clean` attempts from a shared cross-stream cache (the model is pure,
/// so the cached feature IS the reply) while passing faults through
/// per-stream untouched. `classify` must be deterministic in `at`, and —
/// like `try_observe` — must not depend on the box beyond its key.
pub trait SplitBackend: InferenceBackend {
    /// Classifies one attempt without computing a clean feature.
    fn classify(&self, at: &Attempt) -> AttemptClass;
}

/// The appearance model is the canonical infallible backend.
impl InferenceBackend for AppearanceModel {
    fn try_observe(&self, tb: &TrackBox, _at: &Attempt) -> BackendReply {
        BackendReply::ok(self.observe_track_box(tb))
    }
}

/// Every attempt against the pure model is clean with zero extra latency.
impl SplitBackend for AppearanceModel {
    fn classify(&self, _at: &Attempt) -> AttemptClass {
        AttemptClass::Clean { extra_ms: 0.0 }
    }
}

/// Capped exponential backoff for failed extraction attempts. Backoff is
/// *simulated* time — charged to the session clock, never slept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per extraction (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff charged after the first failed attempt.
    pub base_backoff_ms: f64,
    /// Multiplier applied per further failure.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff charge.
    pub max_backoff_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 10.0,
            backoff_factor: 2.0,
            max_backoff_ms: 80.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged after failed attempt number `attempt` (zero-based):
    /// `min(base · factor^attempt, max)`.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        (self.base_backoff_ms * self.backoff_factor.powi(attempt as i32)).min(self.max_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appearance::AppearanceConfig;
    use tm_types::{BBox, FrameIdx, GtObjectId, TrackId};

    #[test]
    fn appearance_model_is_a_clean_backend() {
        let m = AppearanceModel::new(AppearanceConfig::default());
        let tb = tm_types::TrackBox::new(FrameIdx(3), BBox::new(0.0, 0.0, 10.0, 10.0))
            .with_provenance(GtObjectId(1));
        let at = Attempt {
            epoch: 0,
            attempt: 0,
            key: BoxKey::new(TrackId(1), FrameIdx(3)),
        };
        let reply = m.try_observe(&tb, &at);
        assert_eq!(reply.extra_ms, 0.0);
        let f = reply.outcome.expect("model backend cannot fail");
        assert_eq!(f, m.observe_track_box(&tb));
        assert!(m.available(0) && m.available(u64::MAX));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0), 10.0);
        assert_eq!(p.backoff_ms(1), 20.0);
        assert_eq!(p.backoff_ms(2), 40.0);
        assert_eq!(p.backoff_ms(3), 80.0);
        assert_eq!(p.backoff_ms(10), 80.0, "cap binds");
    }

    #[test]
    fn fault_reasons_are_stable() {
        assert_eq!(BackendFault::Transient("timeout").reason(), "timeout");
        assert_eq!(BackendFault::Unavailable.reason(), "backend unavailable");
    }
}
