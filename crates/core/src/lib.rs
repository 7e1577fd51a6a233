//! Variation-aware application scheduling and power management for
//! chip multiprocessors.
//!
//! This crate is the paper's contribution (Teodorescu & Torrellas,
//! ISCA 2008): within-die process variation makes the cores of a CMP
//! heterogeneous in leakage power and maximum frequency, and both the
//! OS scheduler and the DVFS power manager should exploit that.
//!
//! * [`profile`] — the profiling support of Table 3: manufacturer data
//!   (per-core static power per voltage, rated frequencies, (V, f)
//!   tables) and run-time sensor profiles (per-thread dynamic power and
//!   IPC measured on one random core).
//! * [`sched`] — the scheduling algorithms of Table 1: `Random`,
//!   `VarP`, `VarP&AppP` (minimize power), `VarF`, `VarF&AppIPC`
//!   (maximize performance).
//! * [`manager`] — the power-management algorithms of Table 1:
//!   `Foxton*` (round-robin step-down), **`LinOpt`** (the paper's
//!   linear-programming manager), `SAnn` (simulated annealing), and
//!   exhaustive search.
//! * [`runtime`] — the execution timeline of Figure 2: the OS revisits
//!   the thread-to-core mapping every scheduling interval while the
//!   power manager runs every DVFS interval (10 ms). A batch trial
//!   ([`runtime::run_trial`]) is the closed run of the online loop.
//! * [`metrics`] — throughput (MIPS), weighted throughput, and the
//!   `ED²` index used throughout the evaluation.
//! * [`engine`] — the trial engine: declarative [`engine::TrialSpec`]
//!   batches executed by a deterministic, optionally parallel
//!   [`engine::TrialRunner`] with per-trial observability.
//! * [`online`] — the one tick loop: a deterministic discrete-event
//!   simulation (job arrivals, FIFO admission, completions,
//!   migration-aware rescheduling) over the scheduler and
//!   power-manager traits, with per-job latency percentiles. Batch
//!   ([`runtime::run_trial`]), online ([`online::run_online`]) and
//!   thermal ([`extensions::run_thermal_trial`]) trials all run on it.
//! * [`fleet`] — fleet-scale serving (beyond the paper): hundreds of
//!   chips behind one deterministic cluster loop, with variation-aware
//!   dispatch, a datacenter → rack → chip budget hierarchy, and
//!   sharded parallel execution that is bit-identical across worker
//!   counts.
//! * [`experiments`] — one function per figure/table of the paper's
//!   evaluation (§7), each a thin spec over the engine returning the
//!   data series the figure plots.
//!
//! # Quickstart
//!
//! ```
//! use vasched::prelude::*;
//!
//! // Manufacture one die and build the machine around it.
//! let cfg = VariationConfig { grid: 20, ..VariationConfig::paper_default() };
//! let die = DieGenerator::new(cfg).unwrap().generate(&mut SimRng::seed_from(7));
//! let fp = paper_20_core();
//! let mut machine = Machine::new(&die, &fp, MachineConfig::paper_default());
//!
//! // Draw an 8-app workload and run it under VarF&AppIPC + LinOpt.
//! let pool = app_pool(&machine.config().dynamic);
//! let mut rng = SimRng::seed_from(1);
//! let workload = Workload::draw(&pool, 8, &mut rng);
//! let budget = PowerBudget::cost_performance(8);
//! let config = RuntimeConfig::builder()
//!     .os_interval_ms(50.0)
//!     .duration_ms(100.0)
//!     .build()
//!     .unwrap();
//! let outcome = run_trial(
//!     &mut machine,
//!     &workload,
//!     SchedulerSpec::VarFAppIpc,
//!     ManagerSpec::LinOpt,
//!     budget,
//!     &config,
//!     &FaultPlan::none(),
//!     &mut rng,
//!     &mut NullObserver,
//! )
//! .unwrap();
//! assert!(outcome.mips > 0.0);
//! assert!(outcome.avg_power_w <= budget.chip_w * 1.15);
//! ```

#![forbid(unsafe_code)]
// Index loops over core indices mirror the paper's formulations.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod abb;
pub mod engine;
pub mod experiments;
pub mod extensions;
pub mod fleet;
pub mod manager;
pub mod metrics;
pub mod obs;
pub mod online;
pub mod order;
pub mod profile;
pub mod runtime;
pub mod sched;

/// Convenient re-exports for end-to-end use.
pub mod prelude {
    pub use crate::engine::{
        OnlineArm, OnlineTrialResult, OnlineTrialSpec, SeedPlan, TrialArm, TrialResult,
        TrialRunner, TrialSpec,
    };
    pub use crate::extensions::{run_thermal_trial, MigrationConfig, ThermalOutcome};
    pub use crate::fleet::{
        run_fleet, BudgetHierarchy, ChipSummary, DispatchPolicy, Dispatcher, FleetConfig,
        FleetOutcome, FleetSpec, TierReport,
    };
    pub use crate::manager::{
        DegradationEvent, HardenedManager, ManagerSpec, PowerBudget, PowerManager, SolverError,
    };
    pub use crate::metrics::{ed2_index, weighted_mips};
    pub use crate::obs::{MetricsRegistry, TraceObserver};
    pub use crate::online::{run_online, ArrivalConfig, LatencyStats, OnlineConfig, OnlineOutcome};
    pub use crate::profile::{CoreProfile, ThreadProfile};
    pub use crate::runtime::{
        run_trial, ConfigError, NullObserver, RuntimeConfig, TrialError, TrialObserver,
        TrialOutcome,
    };
    pub use crate::sched::{Scheduler, SchedulerSpec};
    pub use cmpsim::{
        app_pool, FaultConfigError, FaultEvent, FaultPlan, Machine, MachineConfig, Mix, Thread,
        Workload,
    };
    pub use floorplan::paper_20_core;
    pub use varius::{DieGenerator, VariationConfig, VariationConfigError, VariusError};
    pub use vastats::SimRng;
}
