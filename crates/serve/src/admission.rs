//! Bounded per-tenant admission: queue caps, byte quotas, token-bucket
//! rate limits.
//!
//! Every control here is **typed and deterministic**. A submission that
//! cannot be admitted gets a [`Rejected`] with a machine-readable
//! [`RejectReason`] and a `retry_after_ms` hint — never a panic, never an
//! unbounded buffer. All time is the caller's simulated clock (`now_ms`
//! arguments), so the whole admission state machine replays identically
//! under test, across thread counts, and across kill-and-resume (the
//! bucket and quota states ride the serve envelope bit-exactly as f64
//! bit patterns).

/// Per-tenant admission tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum submissions queued awaiting the next daemon cycle; a full
    /// queue rejects with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Payload-byte budget per quota window; exceeding it rejects with
    /// [`RejectReason::OverQuota`] until the window rolls.
    pub bytes_per_window: u64,
    /// Length of one quota window, in (simulated) milliseconds.
    pub quota_window_ms: f64,
    /// Token-bucket burst capacity, in submissions.
    pub rate_capacity: f64,
    /// Token refill rate, in submissions per (simulated) millisecond.
    pub rate_per_ms: f64,
    /// Fallback retry hint when no better estimate exists (queue full, or
    /// a bucket that never refills).
    pub retry_hint_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_queue: 8,
            bytes_per_window: 1 << 20,
            quota_window_ms: 1_000.0,
            rate_capacity: 16.0,
            rate_per_ms: 0.05,
            retry_hint_ms: 100,
        }
    }
}

/// Why a submission was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's pending queue is at `max_queue`.
    QueueFull,
    /// The tenant exhausted `bytes_per_window` for the current window.
    OverQuota,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// No such tenant is registered.
    UnknownTenant,
    /// The tenant owns no such stream index.
    UnknownStream,
    /// `frames` moved backwards relative to the stream's watermark.
    FrameRegression,
    /// The payload failed `TrackSet::validate`.
    InvalidPayload,
}

/// A typed refusal: what went wrong and when retrying might succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// The refusal class.
    pub reason: RejectReason,
    /// Hint: simulated milliseconds after which a retry may be admitted.
    /// Zero means "after the next daemon cycle".
    pub retry_after_ms: u64,
}

/// The outcome of a submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued for the next daemon cycle.
    Admitted,
    /// Turned away; see the reason and retry hint.
    Rejected(Rejected),
}

impl Admission {
    /// True for [`Admission::Admitted`].
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted)
    }
}

/// A deterministic token bucket over the caller's simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TokenBucket {
    pub(crate) tokens: f64,
    pub(crate) last_ms: f64,
}

impl TokenBucket {
    pub(crate) fn full(config: &AdmissionConfig) -> Self {
        Self {
            tokens: config.rate_capacity,
            last_ms: 0.0,
        }
    }

    /// Refills for elapsed time, then tries to take one token. On refusal
    /// returns the milliseconds until one token will be available.
    pub(crate) fn try_take(&mut self, now_ms: f64, config: &AdmissionConfig) -> Result<(), u64> {
        if now_ms > self.last_ms {
            self.tokens = (self.tokens + (now_ms - self.last_ms) * config.rate_per_ms)
                .min(config.rate_capacity);
            self.last_ms = now_ms;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if config.rate_per_ms > 0.0 {
            Err(((1.0 - self.tokens) / config.rate_per_ms).ceil() as u64)
        } else {
            Err(config.retry_hint_ms)
        }
    }
}

/// A rolling byte-quota window over the caller's simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuotaWindow {
    pub(crate) window_start_ms: f64,
    pub(crate) used: u64,
}

impl QuotaWindow {
    pub(crate) fn fresh() -> Self {
        Self {
            window_start_ms: 0.0,
            used: 0,
        }
    }

    /// Rolls the window if it elapsed, then tries to charge `bytes`. On
    /// refusal returns the milliseconds until the window rolls.
    pub(crate) fn try_charge(
        &mut self,
        now_ms: f64,
        bytes: u64,
        config: &AdmissionConfig,
    ) -> Result<(), u64> {
        if config.quota_window_ms > 0.0 && now_ms - self.window_start_ms >= config.quota_window_ms {
            // Deterministic roll to the window containing `now`.
            let elapsed = ((now_ms - self.window_start_ms) / config.quota_window_ms).floor();
            self.window_start_ms += elapsed * config.quota_window_ms;
            self.used = 0;
        }
        if self.used.saturating_add(bytes) <= config.bytes_per_window {
            self.used += bytes;
            Ok(())
        } else {
            let until = self.window_start_ms + config.quota_window_ms - now_ms;
            Err(until.max(0.0).ceil() as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AdmissionConfig {
        AdmissionConfig {
            max_queue: 2,
            bytes_per_window: 100,
            quota_window_ms: 50.0,
            rate_capacity: 2.0,
            rate_per_ms: 0.1,
            retry_hint_ms: 33,
        }
    }

    #[test]
    fn bucket_limits_bursts_and_refills_deterministically() {
        let c = config();
        let mut b = TokenBucket::full(&c);
        assert!(b.try_take(0.0, &c).is_ok());
        assert!(b.try_take(0.0, &c).is_ok());
        let wait = b.try_take(0.0, &c).unwrap_err();
        assert_eq!(wait, 10, "1 token at 0.1/ms is 10ms away");
        // Refilled exactly after the hinted wait.
        assert!(b.try_take(10.0, &c).is_ok());
        // Replaying the same clock gives the same decisions.
        let mut b2 = TokenBucket::full(&c);
        for (t, want) in [(0.0, true), (0.0, true), (0.0, false), (10.0, true)] {
            assert_eq!(b2.try_take(t, &c).is_ok(), want);
        }
    }

    #[test]
    fn zero_refill_bucket_falls_back_to_the_hint() {
        let c = AdmissionConfig {
            rate_capacity: 1.0,
            rate_per_ms: 0.0,
            ..config()
        };
        let mut b = TokenBucket::full(&c);
        assert!(b.try_take(0.0, &c).is_ok());
        assert_eq!(b.try_take(1_000.0, &c).unwrap_err(), 33);
    }

    #[test]
    fn quota_window_charges_rolls_and_hints() {
        let c = config();
        let mut q = QuotaWindow::fresh();
        assert!(q.try_charge(0.0, 60, &c).is_ok());
        assert!(q.try_charge(10.0, 40, &c).is_ok());
        let wait = q.try_charge(20.0, 1, &c).unwrap_err();
        assert_eq!(wait, 30, "window rolls at 50ms");
        // After the roll the budget is back, aligned to window boundaries.
        assert!(q.try_charge(55.0, 100, &c).is_ok());
        assert_eq!(q.window_start_ms, 50.0);
        // An oversized single payload is refused even on a fresh window.
        let mut q2 = QuotaWindow::fresh();
        assert!(q2.try_charge(0.0, 101, &c).is_err());
    }
}
