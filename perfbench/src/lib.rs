//! End-to-end and per-layer benchmark of the Heimdall loop.
//!
//! Each workload is generated from a seed, set up, and then measured for a
//! fixed wall time. The untraced run reports the end-to-end metrics; the
//! traced run times each layer from outside, through the public functions
//! of the repository's crates, and reports the per-layer metrics. See
//! `README.md` next to this crate for the workloads and the metric map.

mod common;
pub mod host;
pub mod report;
mod span;
mod stages;
pub mod workloads;

pub use report::{Outcome, END_TO_END, PER_LAYER};
pub use workloads::{run, Opts, Scale, Workload};
