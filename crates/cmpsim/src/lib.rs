//! CMP performance simulator.
//!
//! The paper drives its evaluation with the SESC cycle-accurate
//! simulator running SPEC CPU2000 binaries. The scheduling and power
//! management algorithms, however, consume only *sensor readings*:
//! per-thread IPC, per-core power, and total chip power (paper Table 3).
//! This crate provides the simulation substrate that produces those
//! readings:
//!
//! * [`apps`] — models of the paper's fourteen SPEC applications,
//!   calibrated so each one's dynamic power and IPC at 4 GHz / 1 V match
//!   the paper's Table 5 exactly, with a first-order CPI decomposition
//!   (`CPI = core + L2 + DRAM·f`) that reproduces the weak,
//!   memory-boundedness-dependent frequency sensitivity of IPC;
//! * [`thread`] — runtime thread state, including multi-phase behavior
//!   that forces the on-line power managers to re-optimize;
//! * [`workload`] — multiprogrammed workload construction (1–20 apps
//!   drawn from the pool, 20 trials per experiment, as in §6.4);
//! * [`machine`] — the simulated 20-core CMP: per-core variation cells,
//!   manufacturer (V, f) tables, dynamic/leakage power, block-level
//!   temperatures, and the power/IPC sensors the algorithms read;
//! * [`faults`] — deterministic, seeded sensor/core fault injection
//!   applied at the sensor boundary: Gaussian noise and drift, stuck
//!   sensors, transient budget drops, and permanent core failures.

#![forbid(unsafe_code)]
// Index loops over core indices mirror the paper's formulations.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod apps;
pub mod cache;
pub mod faults;
pub mod machine;
pub mod telemetry;
pub mod thread;
pub mod workload;

pub use apps::{app_pool, AppClass, AppSpec};
pub use cache::CacheConfig;
pub use faults::{
    BudgetDrop, CoreFailure, FaultConfigError, FaultEvent, FaultPlan, FaultState, StuckSensor,
};
pub use machine::{
    DvfsTransition, Machine, MachineConfig, MachineState, StateMismatch, StepPhaseTimes, StepStats,
};
pub use telemetry::Telemetry;
pub use thread::Thread;
pub use workload::{Mix, Workload};
