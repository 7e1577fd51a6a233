//! Deterministic sensor/core fault injection.
//!
//! The paper's control plane (§5) steers entirely off run-time sensor
//! readings — per-core power, per-thread IPC, total chip power — and
//! assumes every reading is exact and every core stays up. Silicon is
//! less polite: thermal sensors drift and stick, power telemetry is
//! noisy, and cores fail in the field. A [`FaultPlan`] describes such
//! an environment as pure data — timed, seeded, reproducible — and the
//! [`Machine`](crate::Machine) applies it *at the sensor boundary*:
//! the physics stays truthful (real power is drawn, real instructions
//! retire), but every sensor getter the managers read returns the
//! faulted view.
//!
//! Determinism contract: all noise is drawn counter-style from the
//! plan's own seed — `hash(seed, tick, core, channel)` — never from
//! the simulation's RNG stream. A zero-fault plan therefore perturbs
//! *nothing*: no RNG draws, no arithmetic on the sensor path, and
//! byte-identical traces with runs that never heard of fault plans.

use vastats::{normal, SimRng};

/// A permanent core failure at a fixed simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreFailure {
    /// The core that dies.
    pub core: usize,
    /// Failure time, milliseconds after the plan is installed.
    pub at_ms: f64,
}

/// A sensor that freezes ("sticks") at its last reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckSensor {
    /// The core whose power/IPC sensors stick.
    pub core: usize,
    /// Stick time, milliseconds after the plan is installed.
    pub at_ms: f64,
}

/// A transient dip in the chip power budget (e.g. a rack-level power
/// cap or a PSU brown-out), expressed as a multiplicative factor the
/// runtime applies to the nominal budget while the window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetDrop {
    /// Window start, milliseconds after the plan is installed.
    pub start_ms: f64,
    /// Window end (exclusive), milliseconds after the plan is installed.
    pub end_ms: f64,
    /// Budget multiplier in `(0, 1]` while the window is open.
    pub factor: f64,
}

/// An invalid [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// Noise σ or drift is negative or non-finite.
    BadNoise {
        /// The offending value.
        value: f64,
    },
    /// A timed event names a core the machine does not have.
    CoreOutOfRange {
        /// The offending core index.
        core: usize,
        /// The machine's core count.
        cores: usize,
    },
    /// A budget-drop window is empty, reversed, or its factor is not
    /// in `(0, 1]`.
    BadBudgetDrop {
        /// The offending window.
        drop: BudgetDrop,
    },
    /// An event time is negative or non-finite.
    BadEventTime {
        /// The offending time (ms).
        at_ms: f64,
    },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadNoise { value } => {
                write!(f, "sensor noise/drift must be finite and >= 0, got {value}")
            }
            Self::CoreOutOfRange { core, cores } => {
                write!(f, "fault plan names core {core}, machine has {cores}")
            }
            Self::BadBudgetDrop { drop } => write!(
                f,
                "budget drop [{}, {}) x{} is not a forward window with factor in (0, 1]",
                drop.start_ms, drop.end_ms, drop.factor
            ),
            Self::BadEventTime { at_ms } => {
                write!(
                    f,
                    "fault event time must be finite and >= 0, got {at_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// A deterministic, seeded description of everything that goes wrong
/// during a run. Build one with the chained setters and hand it to the
/// trial engine; [`FaultPlan::none`] (the default) is the guaranteed
/// no-op.
///
/// ```
/// use cmpsim::FaultPlan;
/// let plan = FaultPlan::none()
///     .with_seed(7)
///     .with_sensor_noise(0.05)
///     .with_stuck_sensor(3, 50.0)
///     .with_core_failure(11, 100.0)
///     .with_budget_drop(150.0, 200.0, 0.6);
/// assert!(plan.is_active());
/// plan.validate(20).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's private noise stream (independent of the
    /// simulation RNG). The trial engine XORs the per-trial seed in so
    /// trials see different noise but all arms of one trial see the
    /// same faults.
    pub seed: u64,
    /// Multiplicative Gaussian noise σ applied to every power/IPC
    /// sensor reading (0 = clean sensors).
    pub sensor_noise_sigma: f64,
    /// Linear multiplicative sensor drift per simulated second
    /// (readings scale by `1 + drift · t`).
    pub sensor_drift_per_s: f64,
    /// Sensors that freeze at their last reading.
    pub stuck_sensors: Vec<StuckSensor>,
    /// Permanent core failures.
    pub core_failures: Vec<CoreFailure>,
    /// Transient chip-budget dips.
    pub budget_drops: Vec<BudgetDrop>,
}

impl FaultPlan {
    /// The empty plan: no faults, and a guaranteed bit-identical no-op
    /// when installed.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns a copy with the noise-stream seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with multiplicative Gaussian sensor noise σ.
    pub fn with_sensor_noise(mut self, sigma: f64) -> Self {
        self.sensor_noise_sigma = sigma;
        self
    }

    /// Returns a copy with linear sensor drift per simulated second.
    pub fn with_sensor_drift(mut self, per_s: f64) -> Self {
        self.sensor_drift_per_s = per_s;
        self
    }

    /// Returns a copy where `core`'s sensors stick at `at_ms`.
    pub fn with_stuck_sensor(mut self, core: usize, at_ms: f64) -> Self {
        self.stuck_sensors.push(StuckSensor { core, at_ms });
        self
    }

    /// Returns a copy where `core` fails permanently at `at_ms`.
    pub fn with_core_failure(mut self, core: usize, at_ms: f64) -> Self {
        self.core_failures.push(CoreFailure { core, at_ms });
        self
    }

    /// Returns a copy with a budget dip to `factor` over
    /// `[start_ms, end_ms)`.
    pub fn with_budget_drop(mut self, start_ms: f64, end_ms: f64, factor: f64) -> Self {
        self.budget_drops.push(BudgetDrop {
            start_ms,
            end_ms,
            factor,
        });
        self
    }

    /// Whether the plan injects anything at all. Inactive plans are
    /// never installed, which is what guarantees bit-identity.
    pub fn is_active(&self) -> bool {
        self.sensor_noise_sigma != 0.0
            || self.sensor_drift_per_s != 0.0
            || !self.stuck_sensors.is_empty()
            || !self.core_failures.is_empty()
            || !self.budget_drops.is_empty()
    }

    /// Checks the plan against a machine with `cores` cores.
    pub fn validate(&self, cores: usize) -> Result<(), FaultConfigError> {
        for &value in &[self.sensor_noise_sigma, self.sensor_drift_per_s] {
            if !value.is_finite() || value < 0.0 {
                return Err(FaultConfigError::BadNoise { value });
            }
        }
        for s in &self.stuck_sensors {
            if !s.at_ms.is_finite() || s.at_ms < 0.0 {
                return Err(FaultConfigError::BadEventTime { at_ms: s.at_ms });
            }
            if s.core >= cores {
                return Err(FaultConfigError::CoreOutOfRange {
                    core: s.core,
                    cores,
                });
            }
        }
        for c in &self.core_failures {
            if !c.at_ms.is_finite() || c.at_ms < 0.0 {
                return Err(FaultConfigError::BadEventTime { at_ms: c.at_ms });
            }
            if c.core >= cores {
                return Err(FaultConfigError::CoreOutOfRange {
                    core: c.core,
                    cores,
                });
            }
        }
        for &d in &self.budget_drops {
            let ok = d.start_ms.is_finite()
                && d.end_ms.is_finite()
                && d.start_ms >= 0.0
                && d.end_ms > d.start_ms
                && d.factor > 0.0
                && d.factor <= 1.0;
            if !ok {
                return Err(FaultConfigError::BadBudgetDrop { drop: d });
            }
        }
        Ok(())
    }
}

/// A fault transition that fired during a simulation step; the runtime
/// drains these (via
/// [`Machine::take_fault_events`](crate::Machine::take_fault_events))
/// to log degradation and react (reschedule off dead cores, rescale
/// the budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A core failed permanently; any thread it ran was unscheduled.
    CoreFailed {
        /// The dead core.
        core: usize,
    },
    /// A core's sensors froze at their last reading.
    SensorStuck {
        /// The affected core.
        core: usize,
    },
    /// A budget-drop window opened (or deepened).
    BudgetDropBegan {
        /// The effective budget multiplier now in force.
        factor: f64,
    },
    /// All budget-drop windows closed; the nominal budget is restored.
    BudgetRestored,
}

/// The progress of an installed [`FaultPlan`]: everything about the fault
/// timeline that changes as the machine steps. A
/// [`Machine`](crate::Machine) keeps it in its
/// [`MachineState`](crate::MachineState), so a checkpoint stores it as
/// it is.
///
/// The plan itself is *not* part of this state: it is configuration,
/// installed beside it, and a restore first reinstalls the original plan
/// and then imports this progress on top of it via
/// [`Machine::import_state`](crate::Machine::import_state). The timeline
/// runs relative to the install point, so arms that reuse a warm machine
/// each get the plan's schedule from t = 0.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultState {
    /// Relative simulated seconds since the plan was installed.
    pub now_s: f64,
    /// Step counter since install (salts the counter-mode noise).
    pub tick: u64,
    /// Per-core liveness.
    pub alive: Vec<bool>,
    /// Frozen `(power_w, ipc)` readings for stuck sensors.
    pub stuck: Vec<Option<(f64, f64)>>,
    /// Which planned core failures have already fired.
    pub fired_failures: Vec<bool>,
    /// Which planned sensor sticks have already fired.
    pub fired_stuck: Vec<bool>,
    /// Budget multiplier currently in force.
    pub budget_factor: f64,
}

impl FaultState {
    /// The progress of `plan` at the instant it is installed on a
    /// machine with `cores` cores.
    pub(crate) fn start(plan: &FaultPlan, cores: usize) -> Self {
        Self {
            now_s: 0.0,
            tick: 0,
            alive: vec![true; cores],
            stuck: vec![None; cores],
            fired_failures: vec![false; plan.core_failures.len()],
            fired_stuck: vec![false; plan.stuck_sensors.len()],
            budget_factor: 1.0,
        }
    }

    /// Whether this is progress of a plan shaped like `plan` (same event
    /// lists) on a machine with `cores` cores, so stepping it cannot
    /// index out of range.
    pub(crate) fn fits(&self, plan: &FaultPlan, cores: usize) -> bool {
        self.alive.len() == cores
            && self.stuck.len() == cores
            && self.fired_failures.len() == plan.core_failures.len()
            && self.fired_stuck.len() == plan.stuck_sensors.len()
    }

    /// Advances `plan`'s timeline across one step of `dt_s` seconds.
    /// Events with `at_ms` inside the window `[now, now + dt)` fire and
    /// are appended to `events`; the caller applies core deaths itself
    /// (it owns the assignment).
    ///
    /// Returns the cores that died during this step.
    pub(crate) fn advance(
        &mut self,
        plan: &FaultPlan,
        dt_s: f64,
        read_power: impl Fn(usize) -> f64,
        read_ipc: impl Fn(usize) -> f64,
        events: &mut Vec<FaultEvent>,
    ) -> Vec<usize> {
        let window_end_ms = (self.now_s + dt_s) * 1e3;
        let mut died = Vec::new();
        for (fired, ev) in self.fired_failures.iter_mut().zip(&plan.core_failures) {
            if !*fired && ev.at_ms < window_end_ms {
                *fired = true;
                if self.alive[ev.core] {
                    self.alive[ev.core] = false;
                    died.push(ev.core);
                    events.push(FaultEvent::CoreFailed { core: ev.core });
                }
            }
        }
        for (fired, ev) in self.fired_stuck.iter_mut().zip(&plan.stuck_sensors) {
            if !*fired && ev.at_ms < window_end_ms {
                *fired = true;
                if self.stuck[ev.core].is_none() {
                    self.stuck[ev.core] = Some((read_power(ev.core), read_ipc(ev.core)));
                    events.push(FaultEvent::SensorStuck { core: ev.core });
                }
            }
        }
        self.now_s += dt_s;
        self.tick += 1;

        let now_ms = self.now_s * 1e3;
        let factor = plan
            .budget_drops
            .iter()
            .filter(|d| d.start_ms <= now_ms && now_ms < d.end_ms)
            .map(|d| d.factor)
            .fold(1.0, f64::min);
        if factor != self.budget_factor {
            events.push(if factor < 1.0 {
                FaultEvent::BudgetDropBegan { factor }
            } else {
                FaultEvent::BudgetRestored
            });
            self.budget_factor = factor;
        }
        died
    }

    /// One standard-normal draw from `plan`'s private counter-mode
    /// stream, salted by (tick, core, channel). Independent of the
    /// simulation RNG by construction.
    fn gauss(&self, plan: &FaultPlan, core: usize, channel: u64) -> f64 {
        let salt = self.tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (core as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ channel.wrapping_mul(0x1656_67B1_9E37_79F9);
        let mut rng = SimRng::seed_from(plan.seed ^ salt);
        normal::standard_sample(&mut rng)
    }

    /// Noise/drift factor for one reading, clamped non-negative.
    fn distort(&self, plan: &FaultPlan, core: usize, channel: u64) -> f64 {
        let mut factor = 1.0 + plan.sensor_drift_per_s * self.now_s;
        if plan.sensor_noise_sigma > 0.0 {
            factor += plan.sensor_noise_sigma * self.gauss(plan, core, channel);
        }
        factor.max(0.0)
    }

    /// The faulted view of one core's power sensor.
    pub(crate) fn power_reading(&self, plan: &FaultPlan, core: usize, raw: f64) -> f64 {
        if let Some((power_w, _)) = self.stuck[core] {
            return power_w;
        }
        raw * self.distort(plan, core, 0)
    }

    /// The faulted view of one core's IPC sensor.
    pub(crate) fn ipc_reading(&self, plan: &FaultPlan, core: usize, raw: f64) -> f64 {
        if let Some((_, ipc)) = self.stuck[core] {
            return ipc;
        }
        raw * self.distort(plan, core, 1)
    }

    /// The faulted view of the per-level power-sensor history (the
    /// manager's "what would this core draw at level ℓ" readings).
    /// A stuck sensor reports its frozen value at every level, which
    /// flattens the manager's power model for that core.
    pub(crate) fn predicted_power_reading(
        &self,
        plan: &FaultPlan,
        core: usize,
        level: usize,
        raw: f64,
    ) -> f64 {
        if let Some((power_w, _)) = self.stuck[core] {
            return power_w;
        }
        raw * self.distort(plan, core, 2 + level as u64)
    }

    /// The faulted view of the chip-level power meter (its own noise
    /// channel; stuck per-core sensors do not affect it).
    pub(crate) fn total_power_reading(&self, plan: &FaultPlan, raw: f64, cores: usize) -> f64 {
        raw * self.distort(plan, cores, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        plan.validate(20).unwrap();
    }

    #[test]
    fn setters_activate_the_plan() {
        assert!(FaultPlan::none().with_sensor_noise(0.01).is_active());
        assert!(FaultPlan::none().with_sensor_drift(0.1).is_active());
        assert!(FaultPlan::none().with_stuck_sensor(0, 1.0).is_active());
        assert!(FaultPlan::none().with_core_failure(0, 1.0).is_active());
        assert!(FaultPlan::none()
            .with_budget_drop(0.0, 1.0, 0.5)
            .is_active());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(matches!(
            FaultPlan::none().with_sensor_noise(-0.1).validate(20),
            Err(FaultConfigError::BadNoise { .. })
        ));
        assert!(matches!(
            FaultPlan::none().with_core_failure(20, 1.0).validate(20),
            Err(FaultConfigError::CoreOutOfRange { .. })
        ));
        assert!(matches!(
            FaultPlan::none().with_stuck_sensor(0, -1.0).validate(20),
            Err(FaultConfigError::BadEventTime { .. })
        ));
        assert!(matches!(
            FaultPlan::none()
                .with_budget_drop(5.0, 5.0, 0.5)
                .validate(20),
            Err(FaultConfigError::BadBudgetDrop { .. })
        ));
        assert!(matches!(
            FaultPlan::none()
                .with_budget_drop(0.0, 5.0, 1.5)
                .validate(20),
            Err(FaultConfigError::BadBudgetDrop { .. })
        ));
    }

    /// A plan, its progress and the fired events, stepped the way
    /// `Machine::step` steps them.
    struct Timeline {
        plan: FaultPlan,
        state: FaultState,
        events: Vec<FaultEvent>,
    }

    impl Timeline {
        fn new(plan: FaultPlan, cores: usize) -> Self {
            let state = FaultState::start(&plan, cores);
            Self {
                plan,
                state,
                events: Vec::new(),
            }
        }

        fn advance(
            &mut self,
            read_power: impl Fn(usize) -> f64,
            read_ipc: impl Fn(usize) -> f64,
        ) -> Vec<usize> {
            self.state
                .advance(&self.plan, 1e-3, read_power, read_ipc, &mut self.events)
        }

        fn idle_tick(&mut self) -> Vec<usize> {
            self.advance(|_| 0.0, |_| 0.0)
        }

        fn take_events(&mut self) -> Vec<FaultEvent> {
            std::mem::take(&mut self.events)
        }

        fn power_reading(&self, core: usize, raw: f64) -> f64 {
            self.state.power_reading(&self.plan, core, raw)
        }

        fn ipc_reading(&self, core: usize, raw: f64) -> f64 {
            self.state.ipc_reading(&self.plan, core, raw)
        }
    }

    #[test]
    fn noise_is_deterministic_per_tick_and_channel() {
        let plan = FaultPlan::none().with_seed(9).with_sensor_noise(0.05);
        let a = Timeline::new(plan.clone(), 4);
        let b = Timeline::new(plan, 4);
        assert_eq!(a.power_reading(2, 10.0), b.power_reading(2, 10.0));
        // Different channels and cores decorrelate.
        assert_ne!(a.power_reading(2, 10.0), a.ipc_reading(2, 10.0) * 10.0);
        assert_ne!(a.power_reading(2, 10.0), a.power_reading(3, 10.0));
    }

    #[test]
    fn noise_advances_with_the_tick_counter() {
        let plan = FaultPlan::none().with_seed(9).with_sensor_noise(0.05);
        let mut t = Timeline::new(plan, 4);
        let before = t.power_reading(1, 10.0);
        t.idle_tick();
        assert_ne!(before, t.power_reading(1, 10.0));
    }

    #[test]
    fn core_failure_fires_once_inside_its_window() {
        let plan = FaultPlan::none().with_core_failure(3, 2.0);
        let mut t = Timeline::new(plan, 4);
        assert!(t.idle_tick().is_empty()); // [0, 1) ms
        assert!(t.idle_tick().is_empty()); // [1, 2) ms
        assert_eq!(t.idle_tick(), vec![3]); // [2, 3) ms
        assert!(!t.state.alive[3]);
        assert!(t.idle_tick().is_empty());
        assert_eq!(t.take_events(), vec![FaultEvent::CoreFailed { core: 3 }]);
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn stuck_sensor_freezes_last_reading() {
        let plan = FaultPlan::none().with_stuck_sensor(1, 1.0);
        let mut t = Timeline::new(plan, 4);
        t.idle_tick();
        t.advance(|c| (c as f64) * 2.0, |_| 0.9);
        assert_eq!(t.power_reading(1, 55.0), 2.0);
        assert_eq!(t.ipc_reading(1, 3.0), 0.9);
        assert_eq!(t.state.predicted_power_reading(&t.plan, 1, 7, 55.0), 2.0);
        // Other cores unaffected (no noise in this plan).
        assert_eq!(t.power_reading(0, 55.0), 55.0);
        assert_eq!(t.take_events(), vec![FaultEvent::SensorStuck { core: 1 }]);
    }

    #[test]
    fn budget_drop_opens_and_closes() {
        let plan = FaultPlan::none().with_budget_drop(1.0, 3.0, 0.5);
        let mut t = Timeline::new(plan, 4);
        assert_eq!(t.state.budget_factor, 1.0);
        t.idle_tick(); // now 1 ms: window open
        assert_eq!(t.state.budget_factor, 0.5);
        t.idle_tick(); // now 2 ms
        assert_eq!(t.state.budget_factor, 0.5);
        t.idle_tick(); // now 3 ms: closed
        assert_eq!(t.state.budget_factor, 1.0);
        assert_eq!(
            t.take_events(),
            vec![
                FaultEvent::BudgetDropBegan { factor: 0.5 },
                FaultEvent::BudgetRestored
            ]
        );
    }

    #[test]
    fn drift_grows_over_time() {
        let plan = FaultPlan::none().with_sensor_drift(1.0);
        let mut t = Timeline::new(plan, 2);
        for _ in 0..100 {
            t.idle_tick();
        }
        // 100 ms at 1/s drift: +10%.
        assert!((t.power_reading(0, 10.0) - 11.0).abs() < 1e-9);
    }
}
