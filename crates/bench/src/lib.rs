//! Benchmark harness regenerating every table and figure of the
//! paper's evaluation.
//!
//! [`figures`] defines each figure once: it runs the corresponding
//! functions from [`vasched::experiments`], prints the series the paper
//! plots, writes CSVs under `results/` and returns its rows of
//! `results/REPORT.md`. The `all` binary runs every figure; each figure
//! binary (`fig04` … `faults`) runs one, so both write the same bytes.
//! The other binaries time kernels (`kernel`), serve fleets and
//! tournaments, or export traces.
//!
//! All binaries accept the same arguments (see [`harness::Harness`]):
//!
//! ```text
//! --scale smoke|quick|paper    experiment fidelity (default: quick)
//! --seed <u64>                 master seed (default: 20080621)
//! --threads <n>                trial-runner workers (default: all cores)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod json_report;
pub mod timing;

/// Default master seed (ISCA 2008's opening day).
pub const DEFAULT_SEED: u64 = 20_080_621;
