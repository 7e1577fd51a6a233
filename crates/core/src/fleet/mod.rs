//! Fleet-scale serving: a variation-aware multi-chip cluster with
//! hierarchical power budgeting.
//!
//! The paper manages one chip: schedule threads onto variation-affected
//! cores, regulate the chip against a power budget. This module asks
//! the same two questions one level up, for a cluster of hundreds of
//! such chips serving one job stream under one *datacenter* power cap:
//!
//! * **Where should a job run?** Process variation makes whole chips
//!   faster or slower at the same power, so a dispatcher that routes on
//!   each chip's *capability* (the summed effective frequency of its
//!   live cores divided by one plus the backlog a new job would queue
//!   behind, read from its [`ChipSummary`]) completes more jobs than
//!   one that balances queue lengths. [`DispatchPolicy`] selects
//!   round-robin, least-loaded or variation-aware routing; one
//!   [`Dispatcher`] per run indexes the chips once per epoch.
//! * **Where should the watts go?** [`BudgetHierarchy`] splits the
//!   datacenter cap down a datacenter → rack → chip tree with an
//!   integral controller per upper tier (after Chen, Wardi &
//!   Yalamanchili), re-apportioned every epoch from observed power;
//!   the chip-level residual feeds each chip's existing LinOpt manager
//!   unchanged.
//!
//! [`run_fleet`] ties it together: one deterministic cluster event loop in
//! which routing and budget decisions happen sequentially at epoch
//! boundaries and the chips themselves execute their epochs in parallel
//! shards. A chip ([`ChipSim`]) is the online serving loop
//! ([`crate::online::OnlineSim`]) owning its machine and RNG, fed by
//! injected arrivals instead of a pre-drawn schedule, so it shares the
//! loop's admission, rescheduling, fault handling and observer hooks.
//! Because every chip's stochastic state derives from its own
//! [`crate::engine::SeedPlan::chip_seed`] sub-stream and the merge is
//! in chip order, [`run_fleet`] is bit-identical across worker counts —
//! the property `tests/fleet.rs` pins.

mod budget;
mod chip;
mod dispatch;
mod sim;

pub use budget::{BudgetHierarchy, IntegralController, TierReport, CORRECTION_CAP};
pub use chip::{ChipSim, EpochStats, FleetJob};
pub use dispatch::{ChipSummary, DispatchPolicy, Dispatcher};
pub use sim::{build_fleet_chips, run_fleet, FleetOutcome, FleetSpec};

use crate::online::{ArrivalConfig, OnlineConfig, ServicePolicy};
use crate::runtime::{ConfigError, RuntimeConfig};

/// Everything that shapes a fleet run except the fleet's size and
/// policies (those live on [`FleetSpec`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-chip timeline (tick, DVFS interval, OS interval, duration).
    pub runtime: RuntimeConfig,
    /// Fleet epoch (ms): the cadence of dispatch batching and budget
    /// re-apportionment. Must cover at least one tick.
    pub epoch_ms: f64,
    /// The fleet-wide arrival process (jobs/s across the whole
    /// cluster).
    pub arrivals: ArrivalConfig,
    /// The datacenter power cap (watts) the hierarchy splits.
    pub datacenter_budget_w: f64,
    /// Integral gain of the datacenter- and rack-tier controllers.
    pub budget_gain: f64,
    /// Cost of moving a thread between cores within a chip (ms of
    /// stall charged to the destination core).
    pub migration_penalty_ms: f64,
    /// Per-chip reschedule window (ms); `0` reschedules on every
    /// membership change (see the SLO experiment for why nonzero wins
    /// under churn).
    pub reschedule_window_ms: f64,
    /// Routed jobs a chip will hold beyond its cores; the dispatcher
    /// sheds arrivals routed to a chip whose queue is at this cap.
    pub max_queue_per_chip: usize,
}

impl FleetConfig {
    /// The serving defaults the fleet experiments start from: paper
    /// timeline, 10 ms epochs (one DVFS interval), 20 ms reschedule
    /// windows, a 1 ms migration penalty, and a queue cap of twice a
    /// chip's core count at the paper's 20-core grid.
    pub fn serving_default() -> Self {
        Self {
            runtime: RuntimeConfig::paper_default(),
            epoch_ms: 10.0,
            arrivals: ArrivalConfig::poisson(1_000.0, 3.0e6),
            datacenter_budget_w: 320.0,
            budget_gain: 0.4,
            migration_penalty_ms: 1.0,
            reschedule_window_ms: 20.0,
            max_queue_per_chip: 40,
        }
    }

    /// The configuration of each chip's serving loop: the fleet
    /// timeline, the migration penalty and the reschedule window, with
    /// no residents and no arrival process of its own (the dispatcher
    /// injects every job).
    pub(crate) fn chip_config(&self) -> OnlineConfig {
        OnlineConfig {
            runtime: self.runtime,
            arrivals: ArrivalConfig::closed(),
            initial_jobs: 0,
            migration_penalty_ms: self.migration_penalty_ms,
            service: ServicePolicy::windowed(self.reschedule_window_ms),
        }
    }

    /// Validates the per-chip loop configuration
    /// ([`OnlineConfig::validate`]) and the fleet-wide arrival process,
    /// then the fleet-specific knobs under [`ConfigError::BadFleet`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.chip_config().validate()?;
        self.arrivals.validate()?;
        let epoch_ok = self.epoch_ms.is_finite() && self.epoch_ms >= self.runtime.tick_ms;
        let budget_ok = self.datacenter_budget_w.is_finite() && self.datacenter_budget_w > 0.0;
        let gain_ok = self.budget_gain.is_finite() && self.budget_gain > 0.0;
        if !epoch_ok || !budget_ok || !gain_ok || self.max_queue_per_chip == 0 {
            return Err(ConfigError::BadFleet);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_default_validates() {
        assert_eq!(FleetConfig::serving_default().validate(), Ok(()));
    }

    #[test]
    fn degenerate_fleet_knobs_are_rejected() {
        let base = FleetConfig::serving_default();
        let cases: Vec<(FleetConfig, ConfigError)> = vec![
            (
                FleetConfig {
                    epoch_ms: 0.5,
                    ..base.clone()
                },
                ConfigError::BadFleet,
            ),
            (
                FleetConfig {
                    datacenter_budget_w: 0.0,
                    ..base.clone()
                },
                ConfigError::BadFleet,
            ),
            (
                FleetConfig {
                    budget_gain: -0.1,
                    ..base.clone()
                },
                ConfigError::BadFleet,
            ),
            (
                FleetConfig {
                    max_queue_per_chip: 0,
                    ..base.clone()
                },
                ConfigError::BadFleet,
            ),
            (
                FleetConfig {
                    arrivals: ArrivalConfig::poisson(-1.0, 3.0e6),
                    ..base.clone()
                },
                ConfigError::BadArrivalProcess,
            ),
            (
                FleetConfig {
                    migration_penalty_ms: -1.0,
                    ..base.clone()
                },
                ConfigError::NegativeMigrationPenalty,
            ),
            (
                FleetConfig {
                    reschedule_window_ms: f64::NAN,
                    ..base
                },
                ConfigError::BadServicePolicy,
            ),
        ];
        for (cfg, err) in cases {
            assert_eq!(cfg.validate(), Err(err));
        }
    }
}
