//! Power-management algorithms (paper §4.3, Table 1).
//!
//! All managers solve the same problem: given the current
//! thread-to-core mapping, pick a (V, f) level for every *active* core
//! that maximizes throughput subject to a chip power budget `Ptarget`
//! and a per-core cap `Pcoremax`. They differ in how they search:
//!
//! * [`foxton`] — **Foxton\***: round-robin single-step reductions from
//!   the maximum levels until the budget holds (the paper's baseline, a
//!   small extension of the Itanium II's Foxton controller).
//! * [`linopt`] — **LinOpt**: the paper's contribution; linearizes
//!   throughput and power in voltage and solves a linear program with
//!   the Simplex method every DVFS interval.
//! * [`sann`] — **SAnn**: simulated annealing with exact per-level
//!   power; near-optimal but orders of magnitude slower.
//! * [`exhaustive`] — the exact optimum, by a Pareto-frontier search
//!   instead of brute force; validates SAnn as in §6.5, at any size.
//!
//! All of them consume only the sensor snapshot in [`PmView`], never
//! the simulator's internals.

pub mod chipwide;
pub mod exhaustive;
pub mod foxton;
pub mod harden;
pub mod linopt;
pub mod regulator;
pub mod sann;
pub mod thermal_map;
mod view;

pub use harden::{
    ConditionStats, ConditionerState, DegradationEvent, HardenedManager, HardenedState,
    SensorConditioner,
};
pub use regulator::IntegralRegulator;
pub use thermal_map::ThermalMapper;
pub use view::{greedy_fill, repair_to_budget, synthetic_core, CoreView, PmView};

use crate::runtime::{ConfigError, RuntimeConfig};
use std::fmt;
use vastats::SimRng;

/// Why a manager's solver could not produce a level assignment.
///
/// Only managers with a real failure mode report these — LinOpt's
/// linear program can be infeasible (the all-minimum floor already
/// exceeds the budget, e.g. during an injected budget drop) or its
/// Simplex solve can break down on degenerate fitted coefficients
/// (e.g. a stuck power sensor flattens a core's power curve). The
/// legacy [`PowerManager::levels`] path hides these by pinning minimum
/// levels; the hardened control path surfaces them and falls back to
/// the chip-wide manager instead (see [`harden`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// Even the all-minimum operating point exceeds the chip budget.
    Infeasible,
    /// The underlying numerical solve failed (degenerate or cycling
    /// Simplex, non-finite coefficients).
    NumericalFailure,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SolverError::Infeasible => "budget infeasible even at minimum levels",
            SolverError::NumericalFailure => "numerical solve failed",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SolverError {}

/// How a manager arrived at its level assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// A mathematical optimum from a real solver (LinOpt's LP,
    /// Exhaustive's frontier search).
    Optimal,
    /// A search heuristic's best-effort assignment (Foxton*, SAnn,
    /// chip-wide stepping, …).
    Heuristic,
    /// The primary solver failed and the assignment came from a
    /// degraded path (minimum-level pinning or a fallback manager).
    Fallback(SolverError),
}

/// Warm-start disposition of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// A cached basis installed successfully and seeded the solve.
    Hit,
    /// A cached basis was offered but was stale and got discarded.
    Miss,
    /// No cached basis existed (first interval of a trial, or the
    /// cache was invalidated).
    Cold,
    /// The algorithm has no warm-start mechanism.
    NotApplicable,
}

/// What one manager invocation cost and how it went: the solver-side
/// record the observability layer attaches to each DVFS interval.
///
/// Reports are plain `Copy` data so collecting them stays allocation
/// free; managers that don't implement [`PowerManager::last_solve`]
/// simply report nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveReport {
    /// [`PowerManager::name`] of the manager that produced the levels.
    pub manager: &'static str,
    /// Outcome of the solve.
    pub status: SolveStatus,
    /// Simplex pivots performed (0 for non-LP managers).
    pub pivots: usize,
    /// Warm-start disposition.
    pub warm: WarmStart,
}

impl SolveReport {
    /// The report for a manager without solver instrumentation: a
    /// heuristic that always produces an assignment.
    pub fn heuristic(manager: &'static str) -> Self {
        Self {
            manager,
            status: SolveStatus::Heuristic,
            pivots: 0,
            warm: WarmStart::NotApplicable,
        }
    }
}

/// The cross-interval state of a [`PowerManager`], captured for a
/// checkpoint (schedulers keep none).
///
/// Managers are rebuilt from their serializable [`ManagerSpec`] on
/// restore; this enum carries only what the spec cannot: the mutable
/// state a live instance accumulated across intervals. Every shipped
/// manager's state is one of these small shapes, so the snapshot codec
/// stays closed over a fixed vocabulary instead of growing a
/// per-algorithm serialization surface.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ControlState {
    /// No cross-interval state (stateless algorithms).
    #[default]
    Stateless,
    /// A round-robin cursor ([`foxton::FoxtonStar`]).
    Cursor(usize),
    /// A cached Simplex basis for warm-starting ([`linopt::LinOpt`]),
    /// `None` when no solve has succeeded yet.
    Basis(Option<Vec<usize>>),
    /// An integral controller's accumulated correction plus the level
    /// choices of the previous interval ([`regulator::IntegralRegulator`]).
    Regulator {
        /// Accumulated integral correction (watts).
        correction_w: f64,
        /// `(core, level)` pairs chosen at the previous interval.
        last: Vec<(usize, usize)>,
    },
}

/// A DVFS power-management policy, invoked once per DVFS interval.
///
/// Managers are *stateful*: the runtime builds one per trial (via
/// [`ManagerSpec::build`]) and invokes it repeatedly, so implementations
/// can carry information across intervals — [`foxton::FoxtonStar`]
/// keeps its round-robin cursor, [`linopt::LinOpt`] warm-starts each
/// Simplex solve from the previous interval's optimal basis. Stateless
/// algorithms simply ignore the `&mut self`.
///
/// Implementations must guarantee that the returned levels are within
/// each core's table and respect both budget constraints whenever the
/// all-minimum point does (the `tests/property.rs` sweep enforces this
/// for every shipped manager).
pub trait PowerManager: Send {
    /// Name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Picks a level for every active core in `view`.
    fn levels(&mut self, view: &PmView, budget: &PowerBudget, rng: &mut SimRng) -> Vec<usize>;

    /// Like [`PowerManager::levels`], but surfaces solver failure
    /// instead of silently degrading. The default wraps `levels` (the
    /// search heuristics always produce *some* assignment); managers
    /// with a real failure mode — LinOpt's LP can be infeasible —
    /// override this so the hardened control path can fall back and
    /// log the degradation.
    fn try_levels(
        &mut self,
        view: &PmView,
        budget: &PowerBudget,
        rng: &mut SimRng,
    ) -> Result<Vec<usize>, SolverError> {
        Ok(self.levels(view, budget, rng))
    }

    /// The [`SolveReport`] of the most recent `levels`/`try_levels`
    /// call, for managers that instrument their solver (LinOpt counts
    /// Simplex pivots and warm-start hits). The default reports
    /// nothing; observers treat that as a plain heuristic solve.
    fn last_solve(&self) -> Option<SolveReport> {
        None
    }

    /// Captures the manager's cross-interval state for a checkpoint.
    /// The default reports [`ControlState::Stateless`]; stateful
    /// managers override it so a restored run resumes with the same
    /// warm state (cursor position, cached basis) and therefore the
    /// same downstream decisions, bit for bit.
    fn snapshot(&self) -> ControlState {
        ControlState::Stateless
    }

    /// Restores state captured by [`PowerManager::snapshot`] onto a
    /// freshly built instance of the same algorithm. Implementations
    /// ignore state shapes they did not produce (the default ignores
    /// everything, which is correct for stateless managers).
    fn restore(&mut self, _state: &ControlState) {}
}

/// Chip and per-core power constraints (paper §4.3: `Ptarget` and
/// `Pcoremax`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Chip-wide power target (watts).
    pub chip_w: f64,
    /// Per-core power cap (watts).
    pub per_core_w: f64,
}

impl PowerBudget {
    /// Default per-core cap used throughout the evaluation. Chosen
    /// above the hottest single-core draw at maximum voltage so that
    /// the *chip* budget — not the per-core cap — is the binding
    /// constraint, as in the paper's experiments (the cap exists to
    /// protect the per-core power grid, not to ration throughput).
    pub const DEFAULT_PER_CORE_W: f64 = 12.0;

    /// The *Low Power* environment: 50 W at 20 threads, scaled
    /// proportionally for fewer threads (§7.5).
    pub fn low_power(threads: usize) -> Self {
        Self::scaled(50.0, threads)
    }

    /// The *Cost-Performance* environment: 75 W at 20 threads.
    pub fn cost_performance(threads: usize) -> Self {
        Self::scaled(75.0, threads)
    }

    /// The *High Performance* environment: 100 W at 20 threads.
    pub fn high_performance(threads: usize) -> Self {
        Self::scaled(100.0, threads)
    }

    /// A budget of `base_w` at 20 threads scaled proportionally to
    /// `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn scaled(base_w: f64, threads: usize) -> Self {
        assert!(threads > 0, "budget needs at least one thread");
        Self {
            chip_w: base_w * threads as f64 / 20.0,
            per_core_w: Self::DEFAULT_PER_CORE_W,
        }
    }
}

/// Which power manager to run (Table 1's lower section, plus the
/// related-work contenders the tournament fields).
///
/// `ManagerSpec` is the *declarative spec* side of the control plane:
/// it names an algorithm and its parameters with a stable
/// [`ManagerSpec::name`] that appears verbatim in traces and reports,
/// and [`ManagerSpec::build`] is the single registry that turns a spec
/// into a boxed stateful [`PowerManager`] instance. The enum is
/// `#[non_exhaustive]`: downstream matches must carry a wildcard so new
/// contenders can join the zoo without breaking them.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManagerSpec {
    /// No power management: every core stays at its maximum level.
    None,
    /// The Foxton* round-robin baseline.
    FoxtonStar,
    /// The paper's linear-programming manager.
    LinOpt,
    /// Simulated annealing with the given evaluation budget.
    SAnn {
        /// Cost-function evaluations per invocation.
        evaluations: usize,
    },
    /// The exact per-interval optimum ([`exhaustive`]), for validation:
    /// milliseconds per 20-core interval.
    Exhaustive,
    /// One (V, f) level for the whole chip (Li & Martinez-style global
    /// DVFS; Table 2's `UniFreq+DVFS` quadrant).
    ChipWide,
    /// LinOpt over voltage domains of the given size (Herbert &
    /// Marculescu's granularity study; 1 = per-core).
    DomainLinOpt {
        /// Cores per voltage domain.
        cores_per_domain: usize,
    },
    /// Solver-free integral-gain chip power regulator (after "Power
    /// Regulation in High Performance Multicore Processors"): tracks
    /// the chip budget with an anti-windup integral controller and
    /// scales per-core levels proportionally to measured headroom.
    IntegralRegulator {
        /// Integral gain per paper-default (10 ms) DVFS interval,
        /// in watts of accumulated correction per watt of error.
        gain: f64,
    },
}

impl ManagerSpec {
    /// The integral gain [`ManagerSpec::integral_regulator`] defaults
    /// to: aggressive enough to settle within a few DVFS intervals,
    /// conservative enough not to oscillate against the leakage
    /// feedback loop.
    pub const DEFAULT_REGULATOR_GAIN: f64 = 0.3;

    /// A SAnn configuration sized for on-line experiment runs (the
    /// paper-faithful 1M-evaluation budget is [`ManagerSpec::sann_paper`]).
    pub fn sann_fast() -> Self {
        ManagerSpec::SAnn {
            evaluations: 20_000,
        }
    }

    /// SAnn with the paper's 1-million-evaluation budget.
    pub fn sann_paper() -> Self {
        ManagerSpec::SAnn {
            evaluations: 1_000_000,
        }
    }

    /// The integral regulator at its default gain
    /// ([`ManagerSpec::DEFAULT_REGULATOR_GAIN`]).
    pub fn integral_regulator() -> Self {
        ManagerSpec::IntegralRegulator {
            gain: Self::DEFAULT_REGULATOR_GAIN,
        }
    }

    /// Name as used in the paper's figures and in every trace/report
    /// this spec's manager appears in. Stable across releases.
    pub fn name(&self) -> &'static str {
        match self {
            ManagerSpec::None => "None",
            ManagerSpec::FoxtonStar => "Foxton*",
            ManagerSpec::LinOpt => "LinOpt",
            ManagerSpec::SAnn { .. } => "SAnn",
            ManagerSpec::Exhaustive => "Exhaustive",
            ManagerSpec::ChipWide => "ChipWide",
            ManagerSpec::DomainLinOpt { .. } => "DomainLinOpt",
            ManagerSpec::IntegralRegulator { .. } => "IntReg",
        }
    }

    /// Validates the spec's parameters against the runtime it will run
    /// under, returning [`ConfigError::BadManager`] for degenerate
    /// combinations (zero-evaluation SAnn, zero-size voltage domains,
    /// non-finite or non-positive regulator gain).
    pub fn validate(&self, _rt: &RuntimeConfig) -> Result<(), ConfigError> {
        let ok = match self {
            ManagerSpec::SAnn { evaluations } => *evaluations > 0,
            ManagerSpec::DomainLinOpt { cores_per_domain } => *cores_per_domain > 0,
            ManagerSpec::IntegralRegulator { gain } => gain.is_finite() && *gain > 0.0,
            _ => true,
        };
        if ok {
            Ok(())
        } else {
            Err(ConfigError::BadManager)
        }
    }

    /// The single registry from spec to instance: constructs the boxed
    /// [`PowerManager`] this spec describes, or `Ok(None)` for
    /// [`ManagerSpec::None`] (the runtime then pins every core to its
    /// maximum level instead of invoking a manager).
    ///
    /// `rt` supplies the runtime parameters algorithms are defined
    /// against — the regulator's gain is specified per paper-default
    /// 10 ms DVFS interval and rescaled to `rt.dvfs_interval_ms` here,
    /// so a spec means the same control behavior per unit time at any
    /// interval length. Invalid specs (see [`ManagerSpec::validate`])
    /// return [`ConfigError::BadManager`].
    pub fn build(&self, rt: &RuntimeConfig) -> Result<Option<Box<dyn PowerManager>>, ConfigError> {
        self.validate(rt)?;
        Ok(match self {
            ManagerSpec::None => None,
            ManagerSpec::FoxtonStar => Some(Box::new(foxton::FoxtonStar::new())),
            ManagerSpec::LinOpt => Some(Box::new(linopt::LinOpt::new())),
            ManagerSpec::SAnn { evaluations } => Some(Box::new(sann::SAnn::new(*evaluations))),
            ManagerSpec::Exhaustive => Some(Box::<exhaustive::Exhaustive>::default()),
            ManagerSpec::ChipWide => Some(Box::new(chipwide::ChipWide)),
            ManagerSpec::DomainLinOpt { cores_per_domain } => {
                Some(Box::new(chipwide::DomainLinOpt::new(*cores_per_domain)))
            }
            ManagerSpec::IntegralRegulator { gain } => {
                let per_interval = gain * rt.dvfs_interval_ms / 10.0;
                Some(Box::new(regulator::IntegralRegulator::new(per_interval)))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_threads() {
        let full = PowerBudget::cost_performance(20);
        let half = PowerBudget::cost_performance(10);
        assert!((full.chip_w - 75.0).abs() < 1e-12);
        assert!((half.chip_w - 37.5).abs() < 1e-12);
        assert_eq!(full.per_core_w, half.per_core_w);
    }

    #[test]
    fn environments_ordered() {
        let n = 20;
        assert!(PowerBudget::low_power(n).chip_w < PowerBudget::cost_performance(n).chip_w);
        assert!(PowerBudget::cost_performance(n).chip_w < PowerBudget::high_performance(n).chip_w);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ManagerSpec::FoxtonStar.name(), "Foxton*");
        assert_eq!(ManagerSpec::LinOpt.name(), "LinOpt");
        assert_eq!(ManagerSpec::sann_fast().name(), "SAnn");
    }

    #[test]
    fn build_round_trips_names() {
        let rt = RuntimeConfig::paper_default();
        let kinds = [
            ManagerSpec::FoxtonStar,
            ManagerSpec::LinOpt,
            ManagerSpec::sann_fast(),
            ManagerSpec::Exhaustive,
            ManagerSpec::ChipWide,
            ManagerSpec::DomainLinOpt {
                cores_per_domain: 4,
            },
            ManagerSpec::integral_regulator(),
        ];
        for kind in kinds {
            let manager = kind.build(&rt).expect("valid spec").expect("buildable");
            assert_eq!(manager.name(), kind.name());
        }
        assert!(ManagerSpec::None.build(&rt).expect("valid spec").is_none());
    }

    #[test]
    fn bad_specs_are_rejected() {
        let rt = RuntimeConfig::paper_default();
        let bad = [
            ManagerSpec::SAnn { evaluations: 0 },
            ManagerSpec::DomainLinOpt {
                cores_per_domain: 0,
            },
            ManagerSpec::IntegralRegulator { gain: 0.0 },
            ManagerSpec::IntegralRegulator { gain: -0.5 },
            ManagerSpec::IntegralRegulator { gain: f64::NAN },
        ];
        for kind in bad {
            assert!(matches!(kind.build(&rt), Err(ConfigError::BadManager)));
        }
    }

    #[test]
    fn built_managers_match_free_functions_on_first_call() {
        // A freshly built trait object and the one-shot free function
        // must agree (state only diverges from the second interval on).
        let view = PmView::from_cores(
            (0..5)
                .map(|i| synthetic_core(i, 0.2 + 0.25 * i as f64, 9, 1.0))
                .collect(),
        );
        let min_p = view.total_power(&view.min_levels());
        let max_p = view.total_power(&view.max_levels());
        let budget = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let rt = RuntimeConfig::paper_default();
        let mut rng = SimRng::seed_from(3);
        let mut fox = ManagerSpec::FoxtonStar.build(&rt).unwrap().unwrap();
        assert_eq!(
            fox.levels(&view, &budget, &mut rng),
            foxton::foxton_star_levels(&view, &budget)
        );
        let mut lin = ManagerSpec::LinOpt.build(&rt).unwrap().unwrap();
        assert_eq!(
            lin.levels(&view, &budget, &mut rng),
            linopt::linopt_levels(&view, &budget)
        );
    }
}
