//! # tm-reid
//!
//! A simulated re-identification (ReID) model plus an explicit inference
//! **cost model** — the stand-in for the paper's retrained OSNet running on
//! CPU / GPU (DESIGN.md §1 explains the substitution).
//!
//! ## Appearance simulation
//!
//! Every ground-truth actor owns a latent appearance vector on the unit
//! sphere. Latents are built from a pool of *archetypes* so that distinct
//! objects can look alike (the red-sedan-vs-red-sedan hard negatives a real
//! ReID model struggles with). "Running the model" on a bounding box returns
//! the actor's latent perturbed by observation noise whose magnitude grows
//! as visibility drops — occluded or truncated crops yield worse features,
//! exactly as with a real ReID network. Features are deterministic in
//! (actor, frame), so repeated extraction is idempotent and cacheable.
//!
//! Distances are Euclidean (the paper's choice); because features are
//! unit-norm the distance lies in `[0, 2]` and the paper's *normalized*
//! distance is `d / 2` ([`feature::NORMALIZER`]).
//!
//! ## Cost accounting
//!
//! The paper's runtime results are dominated by ReID invocations. The
//! [`CostModel`] charges a simulated clock for every feature inference and
//! distance evaluation, with CPU per-item costs and GPU batch amortization
//! (per-call overhead + small marginal cost), letting the experiment
//! harness reproduce the paper's Runtime/FPS comparisons deterministically,
//! independent of the host machine. A [`ReidSession`] bundles model + cache
//! + clock and is what the merging algorithms in `tm-core` consume.

pub mod appearance;
pub mod backend;
pub mod batch;
pub mod cost;
pub mod feature;
pub mod gate;
pub mod session;

pub use appearance::{AppearanceConfig, AppearanceModel};
pub use backend::{
    Attempt, AttemptClass, BackendFault, BackendReply, InferenceBackend, RetryPolicy, SplitBackend,
};
pub use batch::{BatchConfig, BatchScheduler, BatchStats, BatchingBackend, FeatureKey};
pub use cost::{CostModel, Device, ReidStats, SimClock};
pub use feature::{Feature, NORMALIZER};
pub use gate::{GateConfig, GateDecision, GatePlan, GatePolicy, GateStats, TrackPlan};
pub use session::{BoxKey, BoxPairRef, GateSnapshot, ReidSession, SessionSnapshot};
