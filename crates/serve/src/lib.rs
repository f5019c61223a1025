//! # tm-serve
//!
//! A crash-safe, multi-tenant ingestion daemon over the fleet layer
//! (DESIGN.md §15). Trackers `submit` snapshots; a deterministic
//! [`TmServe::run_once`] cycle admits, merges, and answers queries — all
//! on the caller's simulated clock, with zero threads, zero RNG, and zero
//! unbounded buffers of its own:
//!
//! - **Bounded admission** ([`AdmissionConfig`]): per-tenant queue caps,
//!   byte quotas, and token-bucket rate limits. Every refusal is a typed
//!   [`Rejected`] with a `retry_after_ms` hint — never a panic.
//! - **Backpressure**: SLO breaches and breaker-open backends flip a
//!   tenant to shed-load mode, which reuses the resilience layer's
//!   degraded spatio-temporal path and its stash-and-reverify recovery.
//! - **Tiered retention** ([`ServeConfig::retention_horizon_windows`]):
//!   old windows compact to their accepted merges, bounding resident
//!   state under indefinite soak.
//! - **Crash recovery**: the sealed serve envelope ([`TmServe::checkpoint`]
//!   / [`TmServe::resume`]) wraps every tenant's fleet checkpoint plus the
//!   daemon's own registry, queues, and admission clocks; kill-and-resume
//!   is byte-identical to never having died.
//! - **Live queries** ([`TmServe::query`]): `tm-query` Count and
//!   Co-occurrence answered against the in-flight merged state,
//!   provisional merges included.
//!
//! ```
//! use tm_serve::{AdmissionConfig, ServeConfig, TenantSpec, TmServe};
//! use tm_core::{StreamConfig, TMerge, TMergeConfig};
//! use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device, InferenceBackend};
//! use tm_types::TrackSet;
//!
//! let model = AppearanceModel::new(AppearanceConfig::default());
//! let mut serve = TmServe::new(
//!     &model,
//!     CostModel::calibrated(),
//!     Device::Cpu,
//!     ServeConfig::default(),
//!     |_tenant, _stream| TMerge::new(TMergeConfig::default()),
//! );
//! let backends: [&dyn InferenceBackend; 1] = [&model];
//! serve
//!     .register(
//!         TenantSpec { id: 1, streams: 1, admission: AdmissionConfig::default() },
//!         &backends,
//!     )
//!     .unwrap();
//! assert!(serve.submit(0.0, 1, 0, TrackSet::default(), 100).is_admitted());
//! serve.run_once(1.0).unwrap();
//! let envelope = serve.checkpoint(); // sealed: survives a crash
//! assert!(!envelope.is_empty());
//! ```

pub mod admission;
pub mod codec;
pub mod server;

pub use admission::{Admission, AdmissionConfig, RejectReason, Rejected};
pub use server::{ServeConfig, TenantFootprint, TenantSpec, TenantStats, TmServe};
