//! Profiling support (paper §5.2 and Table 3).
//!
//! The scheduling and power-management algorithms never see the
//! simulator's internals — only the profile information the paper
//! allows them:
//!
//! * **Manufacturer data** ([`CoreProfile`]): per-core static power at
//!   each voltage level (measured under zero load), the maximum
//!   frequency supported at the maximum voltage, and the (V, f) table.
//! * **Run-time profiles** ([`ThreadProfile`]): per-thread dynamic
//!   power and IPC, each measured while the thread runs *on one random
//!   core*, then normalized to reference conditions so threads profiled
//!   on different cores can be ranked against each other.

use cmpsim::Machine;
use vastats::SimRng;

/// Manufacturer-provided data for one core (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProfile {
    /// Core index.
    pub core: usize,
    /// Static power at each table voltage, ascending by voltage (watts).
    pub static_power_w: Vec<f64>,
    /// Maximum frequency supported at the maximum voltage (Hz).
    pub max_freq_hz: f64,
}

impl CoreProfile {
    /// Static power at the maximum voltage (the `VarP` ranking key).
    pub fn static_at_max_voltage(&self) -> f64 {
        *self
            .static_power_w
            .last()
            .expect("profile has at least one voltage level")
    }
}

/// Run-time profile of one thread, measured on one (random) core and
/// normalized to reference conditions (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadProfile {
    /// Thread index in the workload.
    pub thread: usize,
    /// Dynamic power scaled to 1 V / reference frequency (watts).
    pub dynamic_power_w: f64,
    /// IPC (assumed frequency-independent).
    pub ipc: f64,
    /// The core the thread was profiled on.
    pub profiled_on: usize,
}

/// Collects the manufacturer profiles of every core.
pub fn core_profiles(machine: &Machine) -> Vec<CoreProfile> {
    (0..machine.core_count())
        .map(|core| {
            let vf = machine.vf_table(core);
            let static_power_w = (0..vf.len())
                .map(|l| machine.manufacturer_static_power(core, vf.voltage_at(l)))
                .collect();
            CoreProfile {
                core,
                static_power_w,
                max_freq_hz: machine.rated_max_freq(core),
            }
        })
        .collect()
}

/// Profiles every thread of the loaded workload by briefly running each
/// one on a random core of a *scratch copy* of the machine and reading
/// its power and performance counters.
///
/// The measured total power has the manufacturer static power (at the
/// profiling core's voltage) subtracted, and the remainder is scaled by
/// `1/V²` and `f_ref/f` so that threads profiled on different cores can
/// be compared (§5.2: "the power measured is scaled according to the
/// frequency and voltage of the particular core used").
///
/// # Panics
///
/// Panics if the machine has no threads loaded or every core has
/// failed.
pub fn thread_profiles(machine: &Machine, rng: &mut SimRng) -> Vec<ThreadProfile> {
    let n_threads = machine.threads().len();
    assert!(n_threads > 0, "no threads loaded to profile");
    let n_cores = machine.core_count();
    let f_ref = machine.config().dynamic.f_ref_hz();

    // Probe on a scratch machine so profiling does not perturb the real
    // run. One copy serves every thread: before each later probe it is
    // reset to the real machine's run-time state, which is all a probe
    // changes, so each probe sees exactly what a fresh clone would.
    let mut probe = machine.clone();
    let mut mapping = vec![None; n_cores];
    let mut profiles = Vec::with_capacity(n_threads);
    for thread in 0..n_threads {
        if thread > 0 {
            probe.copy_state_from(machine);
        }
        let mut core = rng.index(n_cores);
        // Failed cores cannot host a probe; walk forward to the next
        // live one without consuming further randomness, so fault-free
        // runs and faulted runs draw identical RNG streams.
        if !machine.core_alive(core) {
            core = (1..n_cores)
                .map(|d| (core + d) % n_cores)
                .find(|&c| machine.core_alive(c))
                .expect("all cores have failed; nothing left to profile on");
        }
        mapping[core] = Some(thread);
        probe.assign(&mapping);
        mapping[core] = None;
        let level = probe.vf_table(core).max_level();
        probe.set_level(core, level);
        // A couple of ticks to populate the sensors.
        probe.step(0.001);
        probe.step(0.001);

        let v = probe.vf_table(core).voltage_at(level);
        let f = probe.vf_table(core).freq_at(level);
        let total = probe.sensor_core_power(core);
        let static_w = probe.manufacturer_static_power(core, v);
        let dynamic = (total - static_w).max(0.0);
        // Scale to reference conditions: dynamic power ~ V^2 * f.
        let scaled = if f > 0.0 {
            dynamic / (v * v) * (f_ref / f)
        } else {
            0.0
        };
        profiles.push(ThreadProfile {
            thread,
            dynamic_power_w: scaled,
            ipc: probe.sensor_core_ipc(core),
            profiled_on: core,
        });
    }
    profiles
}

/// The clone-per-thread [`thread_profiles`], retained verbatim as the
/// bit-identity oracle for the reused probe machine.
#[cfg(test)]
fn thread_profiles_reference(machine: &Machine, rng: &mut SimRng) -> Vec<ThreadProfile> {
    let n_threads = machine.threads().len();
    assert!(n_threads > 0, "no threads loaded to profile");
    let n_cores = machine.core_count();
    let f_ref = machine.config().dynamic.f_ref_hz();

    let mut profiles = Vec::with_capacity(n_threads);
    for thread in 0..n_threads {
        // Probe on a scratch machine so profiling does not perturb the
        // real run.
        let mut probe = machine.clone();
        let mut core = rng.index(n_cores);
        // Failed cores cannot host a probe; walk forward to the next
        // live one without consuming further randomness, so fault-free
        // runs and faulted runs draw identical RNG streams.
        if !machine.core_alive(core) {
            core = (1..n_cores)
                .map(|d| (core + d) % n_cores)
                .find(|&c| machine.core_alive(c))
                .expect("all cores have failed; nothing left to profile on");
        }
        let mut mapping = vec![None; n_cores];
        mapping[thread] = None; // no-op, clarity only
        mapping[core] = Some(thread);
        probe.assign(&mapping);
        let level = probe.vf_table(core).max_level();
        probe.set_level(core, level);
        // A couple of ticks to populate the sensors.
        probe.step(0.001);
        probe.step(0.001);

        let v = probe.vf_table(core).voltage_at(level);
        let f = probe.vf_table(core).freq_at(level);
        let total = probe.sensor_core_power(core);
        let static_w = probe.manufacturer_static_power(core, v);
        let dynamic = (total - static_w).max(0.0);
        // Scale to reference conditions: dynamic power ~ V^2 * f.
        let scaled = if f > 0.0 {
            dynamic / (v * v) * (f_ref / f)
        } else {
            0.0
        };
        profiles.push(ThreadProfile {
            thread,
            dynamic_power_w: scaled,
            ipc: probe.sensor_core_ipc(core),
            profiled_on: core,
        });
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::{app_pool, FaultEvent, FaultPlan, MachineConfig, Workload};
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};

    fn machine_with(n: usize, seed: u64) -> Machine {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(seed));
        let fp = paper_20_core();
        let mut m = Machine::new(&die, &fp, MachineConfig::paper_default());
        let pool = app_pool(&m.config().dynamic);
        let mut rng = SimRng::seed_from(seed + 1);
        let w = Workload::draw(&pool, n, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        m
    }

    /// Profiles `m` with the reused probe and with the clone-per-thread
    /// reference from the same RNG state; both the profiles and the RNG
    /// state they leave behind must agree bit for bit.
    fn assert_matches_reference(m: &Machine, seed: u64, case: &str) {
        let mut fast_rng = SimRng::seed_from(seed);
        let mut ref_rng = SimRng::seed_from(seed);
        let fast = thread_profiles(m, &mut fast_rng);
        let reference = thread_profiles_reference(m, &mut ref_rng);
        assert_eq!(fast.len(), reference.len(), "{case}");
        for (a, b) in fast.iter().zip(&reference) {
            assert_eq!(a.thread, b.thread, "{case}");
            assert_eq!(a.profiled_on, b.profiled_on, "{case}: thread {}", a.thread);
            assert_eq!(
                a.dynamic_power_w.to_bits(),
                b.dynamic_power_w.to_bits(),
                "{case}: thread {} power",
                a.thread
            );
            assert_eq!(
                a.ipc.to_bits(),
                b.ipc.to_bits(),
                "{case}: thread {} IPC",
                a.thread
            );
        }
        assert_eq!(fast_rng.state(), ref_rng.state(), "{case}: RNG diverged");
    }

    #[test]
    fn reused_probe_matches_clone_per_thread_reference() {
        for seed in 0..3u64 {
            for n in [1usize, 4, 20] {
                let mut m = machine_with(n, 100 + seed);
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, fresh"));

                // Threads placed (in reverse, so probes displace them)
                // and a few ticks of thermal and phase history.
                let cores = m.core_count();
                let mapping: Vec<Option<usize>> = (0..cores)
                    .map(|c| (cores - 1 - c < n).then(|| cores - 1 - c))
                    .collect();
                m.assign(&mapping);
                for _ in 0..7 {
                    m.step(0.001);
                }
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, warm"));

                // Migration stalls pending on every occupied core.
                for c in (0..cores).filter(|&c| mapping[c].is_some()) {
                    m.charge_stall(c, 0.003);
                }
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, stalled"));

                // An active plan that has already killed a core and
                // stuck a sensor, with noise on every reading.
                let plan = FaultPlan::none()
                    .with_seed(seed)
                    .with_sensor_noise(0.05)
                    .with_sensor_drift(0.1)
                    .with_core_failure(5, 1.0)
                    .with_stuck_sensor(6, 1.0)
                    .with_budget_drop(0.0, 50.0, 0.7);
                m.install_faults(&plan).unwrap();
                for _ in 0..3 {
                    m.step(0.001);
                }
                m.take_fault_events();
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, faulted"));
            }
        }
    }

    #[test]
    fn faults_firing_inside_a_probe_match_reference_and_spare_the_plan() {
        let mut m = machine_with(20, 11);
        let mapping: Vec<Option<usize>> = (0..m.core_count()).map(Some).collect();
        m.assign(&mapping);
        for _ in 0..5 {
            m.step(0.001);
        }
        // Faults do not change which cores are drawn while every core is
        // still alive, so a fault-free pass names the probes' cores.
        let probed = thread_profiles(&m, &mut SimRng::seed_from(12));
        let (dying, sticking) = (probed[0].profiled_on, probed[1].profiled_on);
        assert_ne!(dying, sticking);

        // Both events fall inside the probes' two ticks, 0.5 ms and
        // 1.5 ms after the plan goes in; noise distorts every reading.
        let plan = FaultPlan::none()
            .with_seed(13)
            .with_sensor_noise(0.05)
            .with_core_failure(dying, 0.5)
            .with_stuck_sensor(sticking, 1.5);
        m.install_faults(&plan).unwrap();
        let untouched = m.clone();
        assert_matches_reference(&m, 12, "faults inside the probe");
        let mut fast_rng = SimRng::seed_from(12);
        let _ = thread_profiles(&m, &mut fast_rng);
        assert_eq!(m.export_state(), untouched.export_state());

        // The real machine still owns the whole plan: both events fire
        // on its own steps, with the same noisy readings as a machine
        // that was never profiled.
        let mut reference = untouched;
        let mut events = Vec::new();
        for _ in 0..2 {
            m.step(0.001);
            reference.step(0.001);
            let fired = m.take_fault_events();
            assert_eq!(fired, reference.take_fault_events());
            events.extend(fired);
            assert_eq!(
                m.sensor_total_power().to_bits(),
                reference.sensor_total_power().to_bits()
            );
            for c in 0..m.core_count() {
                assert_eq!(
                    m.sensor_core_power(c).to_bits(),
                    reference.sensor_core_power(c).to_bits(),
                    "core {c}"
                );
                assert_eq!(
                    m.sensor_core_ipc(c).to_bits(),
                    reference.sensor_core_ipc(c).to_bits(),
                    "core {c}"
                );
            }
        }
        assert!(events.contains(&FaultEvent::CoreFailed { core: dying }));
        assert!(events.contains(&FaultEvent::SensorStuck { core: sticking }));
    }

    #[test]
    fn core_profiles_cover_all_cores() {
        let m = machine_with(4, 1);
        let profiles = core_profiles(&m);
        assert_eq!(profiles.len(), 20);
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(p.core, i);
            assert_eq!(p.static_power_w.len(), m.vf_table(i).len());
            // Static power grows with voltage.
            for w in p.static_power_w.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(p.max_freq_hz > 0.0);
        }
    }

    #[test]
    fn profiles_differ_across_cores() {
        let m = machine_with(4, 2);
        let profiles = core_profiles(&m);
        let p0 = profiles[0].static_at_max_voltage();
        assert!(
            profiles
                .iter()
                .any(|p| (p.static_at_max_voltage() - p0).abs() > 0.01),
            "variation should differentiate core static power"
        );
    }

    #[test]
    fn thread_profiles_rank_power_correctly() {
        // vortex (4.4 W) must profile above mcf (1.5 W) even when they
        // are measured on different random cores.
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(3));
        let fp = paper_20_core();
        let mut m = Machine::new(&die, &fp, MachineConfig::paper_default());
        let pool = app_pool(&m.config().dynamic);
        let vortex = pool.iter().find(|a| a.name == "vortex").unwrap().clone();
        let mcf = pool.iter().find(|a| a.name == "mcf").unwrap().clone();
        let w = Workload::from_specs(vec![vortex, mcf]);
        let mut rng = SimRng::seed_from(4);
        m.load_threads(w.spawn_threads(&mut rng));
        let profiles = thread_profiles(&m, &mut rng);
        assert!(profiles[0].dynamic_power_w > profiles[1].dynamic_power_w);
        assert!(profiles[0].ipc > profiles[1].ipc);
    }

    #[test]
    fn profiling_does_not_perturb_machine() {
        let m = machine_with(6, 5);
        let energy_before = m.energy_j();
        let mut rng = SimRng::seed_from(6);
        let _ = thread_profiles(&m, &mut rng);
        assert_eq!(m.energy_j(), energy_before);
        assert!(m.assignment().iter().all(|a| a.is_none()));
    }

    #[test]
    fn profile_count_matches_threads() {
        let m = machine_with(9, 7);
        let mut rng = SimRng::seed_from(8);
        let profiles = thread_profiles(&m, &mut rng);
        assert_eq!(profiles.len(), 9);
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(p.thread, i);
            assert!(p.ipc > 0.0);
            assert!(p.dynamic_power_w > 0.0);
        }
    }
}
