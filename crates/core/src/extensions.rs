//! The paper's §8 future-work extensions, implemented.
//!
//! * **Temperature-aware migration** — "aggressive migration of
//!   applications from active to inactive cores as in [Heo et al.]":
//!   when the machine is under-subscribed, periodically move the thread
//!   on the hottest active core to the coolest idle core, spreading
//!   heat (and, through the leakage-temperature loop, saving power).
//! * **Wearout tracking** — "understanding how our variation-aware
//!   algorithms affect CMP wearout": an Arrhenius aging model with
//!   voltage acceleration integrates each core's stress over a run, so
//!   policies can be compared on aging spread as well as throughput.

use crate::manager::{ManagerSpec, PowerBudget};
use crate::online::OnlineSim;
use crate::runtime::{RuntimeConfig, TrialObserver};
use crate::sched::SchedulerSpec;
use cmpsim::{FaultPlan, Machine, StepStats, Workload};
use vastats::SimRng;

/// Configuration of temperature-triggered thread migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// How often migration is considered (milliseconds).
    pub interval_ms: f64,
    /// Minimum temperature gap (kelvin) between the hottest active core
    /// and the coolest idle core before a migration fires.
    pub trigger_k: f64,
}

impl MigrationConfig {
    /// Check every 10 ms, migrate on a 5 K gap.
    pub fn default_policy() -> Self {
        Self {
            interval_ms: 10.0,
            trigger_k: 5.0,
        }
    }
}

/// Arrhenius wearout model with voltage acceleration:
///
/// ```text
/// rate(T, V) = exp(−Ea/k · (1/T − 1/T_ref)) · (V / V_ref)^γ
/// ```
///
/// A rate of 1 means aging at nominal conditions (95 °C, 1 V); hotter
/// and higher-voltage operation ages faster. The tracker integrates
/// each core's rate over time.
#[derive(Debug, Clone, PartialEq)]
pub struct WearoutTracker {
    /// Activation energy over Boltzmann constant (kelvin).
    ea_over_k: f64,
    /// Voltage acceleration exponent.
    gamma: f64,
    /// Reference temperature (kelvin).
    t_ref: f64,
    /// Reference voltage (volts).
    v_ref: f64,
    /// Integrated aging (in nominal-equivalent seconds) per core.
    aging_s: Vec<f64>,
    elapsed_s: f64,
}

impl WearoutTracker {
    /// Default electromigration/NBTI-flavored parameters:
    /// Ea = 0.5 eV, γ = 3, referenced at 95 °C / 1 V.
    pub fn new(cores: usize) -> Self {
        Self {
            ea_over_k: 0.5 / 8.617e-5,
            gamma: 3.0,
            t_ref: 368.15,
            v_ref: 1.0,
            aging_s: vec![0.0; cores],
            elapsed_s: 0.0,
        }
    }

    /// Instantaneous aging rate at `(temp_k, v)` relative to reference.
    pub fn rate(&self, temp_k: f64, v: f64) -> f64 {
        let thermal = (self.ea_over_k * (1.0 / self.t_ref - 1.0 / temp_k)).exp();
        let voltage = (v / self.v_ref).powf(self.gamma);
        thermal * voltage
    }

    /// Integrates one machine tick into the per-core aging totals.
    /// Idle (powered-off) cores do not age.
    pub fn observe(&mut self, machine: &Machine, dt_s: f64) {
        for core in 0..machine.core_count() {
            if machine.thread_of(core).is_none() {
                continue;
            }
            let temp = machine.core_temperature(core);
            let v = machine.vf_table(core).voltage_at(machine.level(core));
            self.aging_s[core] += self.rate(temp, v) * dt_s;
        }
        self.elapsed_s += dt_s;
    }

    /// Per-core aging in nominal-equivalent seconds.
    pub fn aging_s(&self) -> &[f64] {
        &self.aging_s
    }

    /// Maximum aging across cores — the chip wears out when its most
    /// stressed core does.
    pub fn max_aging_s(&self) -> f64 {
        self.aging_s.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean aging over cores that aged at all.
    pub fn mean_active_aging_s(&self) -> f64 {
        let active: Vec<f64> = self.aging_s.iter().cloned().filter(|&a| a > 0.0).collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

/// Outcome of a thermal-extension trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalOutcome {
    /// Average chip throughput (MIPS).
    pub mips: f64,
    /// Average chip power (watts).
    pub avg_power_w: f64,
    /// Hottest block temperature observed during the run (kelvin).
    pub peak_temp_k: f64,
    /// Temperature-triggered migrations performed (threads the OS
    /// reschedules move are not counted).
    pub migrations: usize,
    /// Maximum per-core aging (nominal-equivalent seconds).
    pub max_aging_s: f64,
    /// Mean aging over cores that ran (nominal-equivalent seconds).
    pub mean_aging_s: f64,
}

/// The thermal trial's observer: integrates wearout and the peak
/// block temperature tick by tick, and counts temperature-triggered
/// migrations (reschedules are not migrations here).
struct ThermalProbe {
    tracker: WearoutTracker,
    dt_s: f64,
    peak_temp_k: f64,
    migrations: usize,
}

impl TrialObserver for ThermalProbe {
    fn on_step(&mut self, machine: &Machine, _stats: &StepStats) {
        self.tracker.observe(machine, self.dt_s);
        self.peak_temp_k = machine
            .temperatures()
            .iter()
            .cloned()
            .fold(self.peak_temp_k, f64::max);
    }

    fn on_migration(&mut self, _tick: usize) {
        self.migrations += 1;
    }
}

/// [`crate::runtime::run_trial`] with optional temperature-triggered
/// migration and wearout tracking: the same closed run of the serving
/// loop, fault-free, with `migration` switched on in the loop and a
/// wearout/peak-temperature observer attached.
///
/// # Panics
///
/// Panics if the workload is larger than the machine, the runtime
/// configuration is invalid, or a control-plane spec is degenerate.
#[allow(clippy::too_many_arguments)] // mirrors run_trial + migration knob
pub fn run_thermal_trial(
    machine: &mut Machine,
    workload: &Workload,
    policy: SchedulerSpec,
    manager: ManagerSpec,
    budget: PowerBudget,
    config: &RuntimeConfig,
    migration: Option<MigrationConfig>,
    rng: &mut SimRng,
) -> ThermalOutcome {
    let mut probe = ThermalProbe {
        tracker: WearoutTracker::new(machine.core_count()),
        dt_s: config.tick_ms / 1e3,
        peak_temp_k: 0.0,
        migrations: 0,
    };
    let mut sim = OnlineSim::closed(
        machine,
        workload,
        policy,
        manager,
        budget,
        config,
        &FaultPlan::none(),
        rng,
    )
    .unwrap_or_else(|e| panic!("thermal trial failed: {e}"));
    if let Some(m) = migration {
        sim = sim.with_thermal_migration(m);
    }
    sim.run(&mut probe);
    let chip = sim.finish().chip;
    ThermalOutcome {
        mips: chip.mips,
        avg_power_w: chip.avg_power_w,
        peak_temp_k: probe.peak_temp_k,
        migrations: probe.migrations,
        max_aging_s: probe.tracker.max_aging_s(),
        mean_aging_s: probe.tracker.mean_active_aging_s(),
    }
}

/// Moves the thread on the hottest active core to the coolest idle
/// core if the temperature gap exceeds `trigger_k`. Returns whether a
/// migration happened.
pub(crate) fn try_migrate(machine: &mut Machine, trigger_k: f64) -> bool {
    let n = machine.core_count();
    let mut hottest: Option<(usize, f64)> = None;
    let mut coolest_idle: Option<(usize, f64)> = None;
    for core in 0..n {
        let temp = machine.core_temperature(core);
        if machine.thread_of(core).is_some() {
            if hottest.is_none_or(|(_, t)| temp > t) {
                hottest = Some((core, temp));
            }
        } else if coolest_idle.is_none_or(|(_, t)| temp < t) {
            coolest_idle = Some((core, temp));
        }
    }
    let (Some((hot, hot_t)), Some((cold, cold_t))) = (hottest, coolest_idle) else {
        return false;
    };
    if hot_t - cold_t < trigger_k {
        return false;
    }
    // Move the thread and carry the (V, f) level across.
    let mut mapping: Vec<Option<usize>> = machine.assignment().to_vec();
    mapping[cold] = mapping[hot].take();
    let level = machine.level(hot);
    machine.assign(&mapping);
    machine.set_level(cold, level.min(machine.vf_table(cold).max_level()));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::{app_pool, MachineConfig};
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};

    fn machine(seed: u64) -> Machine {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(seed));
        Machine::new(&die, &paper_20_core(), MachineConfig::paper_default())
    }

    fn runtime() -> RuntimeConfig {
        RuntimeConfig {
            duration_ms: 200.0,
            os_interval_ms: 100.0,
            ..RuntimeConfig::paper_default()
        }
    }

    #[test]
    fn wearout_rate_reference_point() {
        let t = WearoutTracker::new(1);
        assert!((t.rate(368.15, 1.0) - 1.0).abs() < 1e-12);
        assert!(t.rate(388.15, 1.0) > 1.5, "hotter ages faster");
        assert!(t.rate(368.15, 0.8) < 0.6, "lower voltage ages slower");
    }

    #[test]
    fn wearout_accumulates_only_on_active_cores() {
        let mut m = machine(1);
        let pool = app_pool(&m.config().dynamic);
        let mut rng = SimRng::seed_from(2);
        let w = Workload::draw(&pool, 3, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        let mut mapping = vec![None; 20];
        for t in 0..3 {
            mapping[t] = Some(t);
        }
        m.assign(&mapping);
        let mut tracker = WearoutTracker::new(20);
        for _ in 0..10 {
            m.step(0.001);
            tracker.observe(&m, 0.001);
        }
        for core in 0..3 {
            assert!(tracker.aging_s()[core] > 0.0);
        }
        for core in 3..20 {
            assert_eq!(tracker.aging_s()[core], 0.0);
        }
        assert!(tracker.max_aging_s() >= tracker.mean_active_aging_s());
    }

    #[test]
    fn migration_fires_and_lowers_peak_temperature() {
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        // Hot workload on a half-loaded machine so idle cores exist.
        let w = Workload::draw(&pool, 8, &mut SimRng::seed_from(3));
        let budget = PowerBudget::high_performance(8);
        let run = |migration| {
            let mut m = machine(4);
            run_thermal_trial(
                &mut m,
                &w,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::None,
                budget,
                &runtime(),
                migration,
                &mut SimRng::seed_from(5),
            )
        };
        let fixed = run(None);
        let migrated = run(Some(MigrationConfig {
            interval_ms: 10.0,
            trigger_k: 1.0,
        }));
        assert_eq!(fixed.migrations, 0);
        assert!(migrated.migrations > 0, "migration never fired");
        assert!(
            migrated.peak_temp_k <= fixed.peak_temp_k + 0.5,
            "migrated {} vs fixed {}",
            migrated.peak_temp_k,
            fixed.peak_temp_k
        );
    }

    #[test]
    fn migration_spreads_aging() {
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        let w = Workload::draw(&pool, 6, &mut SimRng::seed_from(6));
        let budget = PowerBudget::high_performance(6);
        let run = |migration| {
            let mut m = machine(7);
            run_thermal_trial(
                &mut m,
                &w,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::None,
                budget,
                &runtime(),
                migration,
                &mut SimRng::seed_from(8),
            )
        };
        let fixed = run(None);
        let migrated = run(Some(MigrationConfig {
            interval_ms: 10.0,
            trigger_k: 0.5,
        }));
        assert!(migrated.migrations > 0);
        // Chip lifetime is set by the most-aged core: spreading work
        // over more cores must not increase the worst core's aging.
        assert!(
            migrated.max_aging_s <= fixed.max_aging_s * 1.05,
            "migrated {} vs fixed {}",
            migrated.max_aging_s,
            fixed.max_aging_s
        );
    }

    /// Pins every [`ThermalOutcome`] field (as raw bits) and the end
    /// state of the caller's RNG across managers, migration settings
    /// and dies: rewriting the thermal trial must reproduce all of it
    /// bit for bit. Each case is pinned as (migrations, FNV-style fold
    /// of the bit patterns).
    #[test]
    fn thermal_trial_outputs_are_pinned() {
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        let w = Workload::draw(&pool, 8, &mut SimRng::seed_from(3));
        let migrations = [
            None,
            Some(MigrationConfig::default_policy()),
            Some(MigrationConfig {
                interval_ms: 10.0,
                trigger_k: 1.0,
            }),
        ];
        let mut got = Vec::new();
        for die in [4u64, 7] {
            for manager in [
                ManagerSpec::None,
                ManagerSpec::LinOpt,
                ManagerSpec::FoxtonStar,
            ] {
                for migration in migrations {
                    let mut rng = SimRng::seed_from(die + 1);
                    let out = run_thermal_trial(
                        &mut machine(die),
                        &w,
                        SchedulerSpec::VarFAppIpc,
                        manager,
                        PowerBudget::low_power(8),
                        &runtime(),
                        migration,
                        &mut rng,
                    );
                    let words = [
                        out.mips.to_bits(),
                        out.avg_power_w.to_bits(),
                        out.peak_temp_k.to_bits(),
                        out.migrations as u64,
                        out.max_aging_s.to_bits(),
                        out.mean_aging_s.to_bits(),
                    ];
                    let fold = words
                        .into_iter()
                        .chain(rng.state())
                        .fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
                            (h ^ word).wrapping_mul(0x0100_0000_01b3)
                        });
                    got.push((out.migrations, fold));
                }
            }
        }
        // Captured before the thermal trial moved onto the online loop.
        let pinned: [(usize, u64); 18] = [
            (0, 0x0e6ea70a44ee0cff),
            (0, 0x0e6ea70a44ee0cff),
            (13, 0x885ee09054d5047f),
            (0, 0x1c94b44de302ad69),
            (0, 0x1c94b44de302ad69),
            (9, 0x552cb713db62d79f),
            (0, 0xcbbf4ccbf435b6df),
            (0, 0xcbbf4ccbf435b6df),
            (3, 0x7bd711617c6d39ad),
            (0, 0xe67887d91abaf7b9),
            (0, 0xe67887d91abaf7b9),
            (15, 0x7a1d39f036bf05f5),
            (0, 0xd6c59d47548f966a),
            (0, 0xd6c59d47548f966a),
            (4, 0x56908d14a4c5277d),
            (0, 0x060836c38f1c44be),
            (0, 0x060836c38f1c44be),
            (4, 0x932ab23b1e530b82),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn full_machine_cannot_migrate() {
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        let w = Workload::draw(&pool, 20, &mut SimRng::seed_from(9));
        let budget = PowerBudget::high_performance(20);
        let mut m = machine(10);
        let out = run_thermal_trial(
            &mut m,
            &w,
            SchedulerSpec::Random,
            ManagerSpec::None,
            budget,
            &runtime(),
            Some(MigrationConfig::default_policy()),
            &mut SimRng::seed_from(11),
        );
        assert_eq!(out.migrations, 0, "no idle cores to migrate to");
    }
}
