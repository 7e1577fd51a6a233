//! CMP power models.
//!
//! The paper estimates dynamic power with Wattch, leakage with
//! HotLeakage, and scales both to 32 nm with ITRS projections (§6.2).
//! This crate provides the equivalent models:
//!
//! * [`dynamic`] — per-structure effective-capacitance dynamic power,
//!   `P = Σ_s C_s · a_s · V² · f`, driven by per-application activity
//!   vectors (the Wattch substitute);
//! * [`leakage`] — subthreshold leakage with exponential Vth and
//!   temperature dependence plus DIBL, evaluated over a core's
//!   variation-map cells (the HotLeakage substitute).
//!
//! All models are calibrated at the paper's operating point: 32 nm,
//! nominal 4 GHz at 1 V (Table 4), with per-application dynamic powers
//! matching the paper's Table 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod fastexp;
pub mod leakage;

pub use dynamic::{ActivityVector, DynamicPower, Structure, STRUCTURE_COUNT};
pub use fastexp::fast_exp;
pub use leakage::{BlockLeakage, IsothermalLeakage, LeakageParams, LeakagePower};
