//! The repository benchmark: four workloads from the paper's batch
//! protocol to a 256-chip fleet, gated end-to-end metrics, and a traced
//! per-layer breakdown. See `README.md` in this crate for the workloads,
//! metrics, bounds, and how to read a trace.
//!
//! The crate calls only the public APIs of `vasched`, `cmpsim` and
//! `vastats`; the `benchmark` binary wraps [`run::run`] in a command
//! line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet_loop;
pub mod host;
pub mod metrics;
pub mod outcome;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::{run, Metric, RunOptions, RunReport, WORKERS};
pub use workload::{Kind, Sizing};
