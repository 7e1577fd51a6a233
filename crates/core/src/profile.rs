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
/// one on a random core and reading its power and performance counters
/// ([`Machine::probe_thread`]: two 1 ms ticks alone on the core, at its
/// top level, as a copy of the machine would run them), so profiling
/// does not perturb the real run.
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

    // One block-power buffer serves every probe.
    let mut block_power = Vec::new();
    let mut profiles = Vec::with_capacity(n_threads);
    for thread in 0..n_threads {
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
        let (total, ipc) = machine.probe_thread(thread, core, &mut block_power);

        let vf = machine.vf_table(core);
        let level = vf.max_level();
        let (v, f) = (vf.voltage_at(level), vf.freq_at(level));
        let static_w = machine.manufacturer_static_power(core, v);
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
            ipc,
            profiled_on: core,
        });
    }
    profiles
}

/// The clone-per-thread [`thread_profiles`], retained verbatim as the
/// bit-identity oracle for the one-core probe.
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
    use cmpsim::{app_pool, FaultEvent, FaultPlan, MachineConfig, Thread, Workload};
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};

    fn machine_with(n: usize, seed: u64) -> Machine {
        machine_on(MachineConfig::paper_default(), n, seed)
    }

    /// A machine under `config` on a grid-24 die of `seed`, loaded with
    /// `n` threads that are not yet placed; it has never stepped.
    fn machine_on(config: MachineConfig, n: usize, seed: u64) -> Machine {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(seed));
        let fp = paper_20_core();
        let mut m = Machine::new(&die, &fp, config);
        let pool = app_pool(&m.config().dynamic);
        let mut rng = SimRng::seed_from(seed + 1);
        let w = Workload::draw(&pool, n, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        m
    }

    /// Places thread `i` on core `cores − 1 − i`, in reverse, so probes
    /// displace the threads.
    fn place_reversed(m: &mut Machine) {
        let (cores, n) = (m.core_count(), m.threads().len());
        let mapping: Vec<Option<usize>> = (0..cores)
            .map(|c| (cores - 1 - c < n).then(|| cores - 1 - c))
            .collect();
        m.assign(&mapping);
    }

    fn step_ms(m: &mut Machine, ticks: usize) {
        for _ in 0..ticks {
            m.step(0.001);
        }
    }

    /// The (thread, core) pairs the profile of `m` from RNG `seed`
    /// probes.
    fn probes(m: &Machine, seed: u64) -> Vec<(usize, usize)> {
        thread_profiles(m, &mut SimRng::seed_from(seed))
            .iter()
            .map(|p| (p.thread, p.profiled_on))
            .collect()
    }

    /// Whether hardware DTM demotes `core` in each of the two ticks of
    /// the probe of `thread` on it, read off a copy that runs them.
    fn dtm_in_probe(m: &Machine, thread: usize, core: usize) -> [bool; 2] {
        let mut copy = m.clone();
        let mut mapping = vec![None; copy.core_count()];
        mapping[core] = Some(thread);
        copy.assign(&mapping);
        copy.set_level(core, copy.vf_table(core).max_level());
        [0, 1].map(|_| {
            let before = copy.dtm_events();
            copy.step(0.001);
            copy.dtm_events() > before
        })
    }

    /// Profiles `m` with the one-core probe and with the clone-per-thread
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
    fn one_core_probe_matches_clone_per_thread_reference() {
        for seed in 0..3u64 {
            for n in [1usize, 4, 20] {
                // Never stepped: the first probe builds the 1 ms thermal
                // operator itself.
                let mut m = machine_with(n, 100 + seed);
                assert_eq!(m.elapsed_s(), 0.0);
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, fresh"));

                // Threads placed and a few ticks of thermal and phase
                // history.
                place_reversed(&mut m);
                step_ms(&mut m, 7);
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, warm"));

                // Migration stalls pending on every occupied core.
                let occupied: Vec<usize> = (0..m.core_count())
                    .filter(|&c| m.thread_of(c).is_some())
                    .collect();
                for c in occupied {
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
                step_ms(&mut m, 3);
                m.take_fault_events();
                assert_matches_reference(&m, seed, &format!("seed {seed}, {n}t, faulted"));
            }
        }
    }

    /// The branches of a probe tick that a warm paper-default chip never
    /// takes: DTM in either tick, a UniFreq cap kept or dropped, no L2
    /// model, and a stall that decides the second tick's phase. Each
    /// case first checks that its probes really take the branch.
    #[test]
    fn one_core_probe_matches_reference_through_dtm_caps_and_no_l2_model() {
        let ambient = MachineConfig::paper_default().thermal.ambient_k;
        let hot = MachineConfig {
            dtm_limit_k: ambient + 1.0,
            ..MachineConfig::paper_default()
        };

        // A warm chip above the lowered limit: DTM demotes probe cores
        // in the first tick.
        let mut m = machine_on(hot.clone(), 20, 31);
        place_reversed(&mut m);
        step_ms(&mut m, 30);
        assert!(probes(&m, 1)
            .iter()
            .any(|&(t, c)| dtm_in_probe(&m, t, c)[0]));
        assert_matches_reference(&m, 1, "DTM in tick 1");

        // A chip at ambient with the limit just above it: the probe core
        // crosses it only during the first tick.
        let edge = MachineConfig {
            dtm_limit_k: ambient + 0.05,
            ..MachineConfig::paper_default()
        };
        let m = machine_on(edge, 20, 32);
        assert!(probes(&m, 2)
            .iter()
            .any(|&(t, c)| dtm_in_probe(&m, t, c) == [false, true]));
        assert_matches_reference(&m, 2, "DTM in tick 2 only");

        // UniFreq on every core: each probe core is already at its top
        // level, so the probe keeps its cap.
        let mut m = machine_on(MachineConfig::paper_default(), 20, 33);
        place_reversed(&mut m);
        let chip_f = m.set_uniform_frequency();
        step_ms(&mut m, 10);
        for (_, c) in probes(&m, 3) {
            assert_eq!(m.level(c), m.vf_table(c).max_level());
            assert_eq!(m.export_state().freq_caps[c], Some(chip_f));
        }
        assert_matches_reference(&m, 3, "UniFreq cap kept");

        // UniFreq, then DTM demotes the capped cores: the probe moves
        // each back to its top level, which drops the cap and charges a
        // stall.
        let mut m = machine_on(hot, 20, 34);
        place_reversed(&mut m);
        m.set_uniform_frequency();
        step_ms(&mut m, 30);
        let state = m.export_state();
        assert!(probes(&m, 4).iter().any(|&(_, c)| {
            state.levels[c] < m.vf_table(c).max_level() && state.freq_caps[c].is_some()
        }));
        assert_matches_reference(&m, 4, "UniFreq cap dropped");

        // No L2 model: each thread keeps the share it had, here the
        // one it ended a contended run with.
        let mut contended = machine_with(12, 35);
        place_reversed(&mut contended);
        step_ms(&mut contended, 10);
        let threads = contended.threads().to_vec();
        assert!(threads.iter().all(|t| t.l2_alloc_mb() < 8.0));
        let no_l2 = MachineConfig {
            cache: None,
            ..MachineConfig::paper_default()
        };
        let mut m = machine_on(no_l2, 12, 35);
        m.load_threads(threads);
        place_reversed(&mut m);
        step_ms(&mut m, 10);
        assert_matches_reference(&m, 5, "no L2 model");

        // Every core at its bottom level with no stall pending, and
        // every thread 0.7 ms short of its next phase: the stall of the
        // probe's move to the top level (at least 0.3 V, so 0.32 ms)
        // decides which phase the second tick runs in.
        let mut m = machine_with(20, 36);
        place_reversed(&mut m);
        for c in 0..m.core_count() {
            m.set_level(c, 0);
            let vf = m.vf_table(c);
            assert!(vf.voltage_at(vf.max_level()) - vf.voltage_at(0) >= 0.3);
        }
        step_ms(&mut m, 1);
        let specs: Vec<_> = m.threads().iter().map(|t| t.spec().clone()).collect();
        while !m.threads().is_empty() {
            m.remove_thread(0);
        }
        for spec in specs {
            let offset = spec.phases[0].duration_ms - 0.7;
            m.add_thread(Thread::with_phase_offset(spec, offset));
        }
        assert!((0..m.core_count()).all(|c| m.transition_stall_s(c) == 0.0));
        assert_matches_reference(&m, 6, "stall decides the phase");
    }

    /// 40 seeded random states: thread counts, placements, warm-up,
    /// levels, stalls, UniFreq caps, DTM limits and L2 models, under
    /// fault plans with a core failure and a stuck sensor before the
    /// profile and more of each inside the probes' two ticks.
    #[test]
    fn one_core_probe_matches_reference_over_random_states() {
        let mut draw = SimRng::seed_from(0x5EED);
        let mut hit_in_window = 0;
        for case in 0..40u64 {
            let n = 1 + draw.index(20);
            let config = MachineConfig {
                dtm_limit_k: if draw.index(2) == 0 {
                    378.15
                } else {
                    draw.uniform(318.2, 322.0)
                },
                cache: (draw.index(4) != 0).then(cmpsim::CacheConfig::paper_default),
                ..MachineConfig::paper_default()
            };
            let mut m = machine_on(config, n, 200 + case);
            let cores = m.core_count();
            let mut slots: Vec<usize> = (0..cores).collect();
            draw.shuffle(&mut slots);
            let placed = draw.index(n + 1);
            let mut mapping = vec![None; cores];
            for (thread, &core) in slots.iter().enumerate().take(placed) {
                mapping[core] = Some(thread);
            }
            m.assign(&mapping);
            if draw.index(3) == 0 {
                m.set_uniform_frequency();
            }

            // The plan's clock starts now; its in-window events fall
            // inside the probes' ticks after `warm` ticks of warm-up.
            let warm = draw.index(12);
            let profile_seed = 1000 + case;
            let drawn = probes(&m, profile_seed);
            let mut in_window = Vec::new();
            if draw.index(4) != 0 {
                let mut plan = FaultPlan::none()
                    .with_seed(case)
                    .with_sensor_noise(if draw.index(2) == 0 { 0.0 } else { 0.05 })
                    .with_sensor_drift(if draw.index(2) == 0 { 0.0 } else { 0.2 });
                if warm > 0 {
                    plan = plan
                        .with_core_failure(draw.index(cores), draw.uniform(0.0, warm as f64))
                        .with_stuck_sensor(draw.index(cores), draw.uniform(0.0, warm as f64));
                }
                for _ in 0..2 {
                    let (core, at_ms) =
                        (drawn[draw.index(n)].1, warm as f64 + draw.uniform(0.0, 2.0));
                    plan = if draw.index(2) == 0 {
                        plan.with_core_failure(core, at_ms)
                    } else {
                        plan.with_stuck_sensor(core, at_ms)
                    };
                    in_window.push(core);
                }
                if draw.index(2) == 0 {
                    plan = plan.with_budget_drop(warm as f64 + 0.5, warm as f64 + 5.0, 0.8);
                }
                m.install_faults(&plan).unwrap();
            }
            for _ in 0..warm {
                m.step(0.001);
                m.take_fault_events();
            }
            for core in 0..cores {
                match draw.index(4) {
                    0 => m.set_level(core, draw.index(m.vf_table(core).len())),
                    1 => m.charge_stall(core, draw.uniform(0.0, 0.003)),
                    _ => {}
                }
            }

            let case_name = format!("case {case}: {n}t, {warm} warm ticks");
            assert_matches_reference(&m, profile_seed, &case_name);
            hit_in_window += probes(&m, profile_seed)
                .iter()
                .filter(|(_, c)| in_window.contains(c))
                .count();
        }
        assert!(
            hit_in_window >= 20,
            "only {hit_in_window} probes met an event inside their ticks"
        );
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
