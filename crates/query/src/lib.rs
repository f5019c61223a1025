//! # tm-query
//!
//! A small declarative query layer over track metadata — the downstream
//! consumer TMerge exists to serve (§V-H of the paper). It implements the
//! two query classes of the paper's end-to-end evaluation, in the style of
//! the temporal query framework of Chen et al. [13]:
//!
//! * **Count** — objects (individual tracks) visible across more than a
//!   given number of frames ("find congestion", "find loiterers"),
//! * **Co-occurring objects** — clips longer than a given number of frames
//!   in which the same `k` objects appear jointly.
//!
//! Both depend entirely on track *identity*: a fragmented track either
//! fails the duration predicate or breaks the joint-appearance group, which
//! is why polyonymous tracks depress recall (Fig. 13) and why merging them
//! restores it.
//!
//! Recall evaluation compares tracker answers with ground-truth answers
//! through a caller-supplied track → GT-actor attribution (in this
//! workspace, `tm_metrics::Correspondence`).

pub mod anytime;
pub mod queries;
pub mod recall;
pub mod region;

pub use anytime::{
    voi_hints, AnytimeAnswer, AnytimeConfig, AnytimeQuery, AnytimeStream, IntervalPoint,
};
pub use queries::{
    co_occurrence_query, count_query, evaluate, evaluate_merged, Query, QueryAnswer,
};
pub use recall::{co_occurrence_recall, count_recall};
pub use region::{region_transit_query, region_transit_recall};
