//! End-to-end integration: die manufacturing → machine → profiling →
//! scheduling → power management → metrics, across all crates.

use vasp::vasched::manager::{ManagerSpec, PmView, PowerBudget};
use vasp::vasched::prelude::*;
use vasp::vasched::profile::{core_profiles, thread_profiles};
use vasp::vasched::runtime::FreqMode;

fn make_machine(seed: u64) -> Machine {
    let cfg = VariationConfig {
        grid: 24,
        ..VariationConfig::paper_default()
    };
    let die = DieGenerator::new(cfg)
        .unwrap()
        .generate(&mut SimRng::seed_from(seed));
    Machine::new(&die, &paper_20_core(), MachineConfig::paper_default())
}

/// One DVFS interval of a freshly built `kind` manager: read the
/// sensors, pick levels, apply them.
fn manage(
    kind: ManagerSpec,
    machine: &mut Machine,
    budget: &PowerBudget,
    rng: &mut SimRng,
) -> Vec<usize> {
    let mut manager = kind
        .build(&RuntimeConfig::paper_default())
        .expect("valid spec")
        .expect("a managed spec");
    let view = PmView::from_machine(machine);
    let levels = manager.levels(&view, budget, rng);
    view.apply(machine, &levels);
    levels
}

fn var_f_app_ipc(
    cores: &[CoreProfile],
    threads: &[ThreadProfile],
    rng: &mut SimRng,
) -> Vec<Option<usize>> {
    SchedulerSpec::VarFAppIpc
        .build(&RuntimeConfig::paper_default())
        .expect("valid spec")
        .assign(cores, threads, rng)
}

#[test]
fn full_pipeline_produces_consistent_state() {
    let mut machine = make_machine(1);
    let pool = app_pool(&machine.config().dynamic);
    let mut rng = SimRng::seed_from(2);
    let workload = Workload::draw(&pool, 10, &mut rng);
    machine.load_threads(workload.spawn_threads(&mut rng));

    // Profile.
    let cores = core_profiles(&machine);
    let threads = thread_profiles(&machine, &mut rng);
    assert_eq!(cores.len(), 20);
    assert_eq!(threads.len(), 10);

    // Schedule.
    let mapping = var_f_app_ipc(&cores, &threads, &mut rng);
    machine.assign(&mapping);
    let active = mapping.iter().flatten().count();
    assert_eq!(active, 10);

    // Manage.
    let budget = PowerBudget::cost_performance(10);
    let levels = manage(ManagerSpec::LinOpt, &mut machine, &budget, &mut rng);
    assert_eq!(levels.len(), 10);

    // Simulate 50 ms; power stays near/below target, throughput flows.
    for _ in 0..50 {
        machine.step(0.001);
    }
    assert!(machine.total_instructions() > 0.0);
    assert!(machine.average_power() > 0.0);
    assert!(machine.average_power() < budget.chip_w * 1.3);
}

#[test]
fn varf_appipc_places_high_ipc_threads_on_fast_cores() {
    let mut machine = make_machine(3);
    let pool = app_pool(&machine.config().dynamic);
    // One clearly fast thread (vortex) and one clearly slow (mcf).
    let vortex = pool.iter().find(|a| a.name == "vortex").unwrap().clone();
    let mcf = pool.iter().find(|a| a.name == "mcf").unwrap().clone();
    let workload = Workload::from_specs(vec![mcf, vortex]);
    let mut rng = SimRng::seed_from(4);
    machine.load_threads(workload.spawn_threads(&mut rng));

    let cores = core_profiles(&machine);
    let threads = thread_profiles(&machine, &mut rng);
    let mapping = var_f_app_ipc(&cores, &threads, &mut rng);

    let core_of = |tid: usize| {
        mapping
            .iter()
            .position(|&m| m == Some(tid))
            .expect("thread scheduled")
    };
    // Thread 1 is vortex (high IPC): its core must be at least as fast
    // as mcf's.
    let f_vortex = cores[core_of(1)].max_freq_hz;
    let f_mcf = cores[core_of(0)].max_freq_hz;
    assert!(
        f_vortex >= f_mcf,
        "vortex on {f_vortex} Hz, mcf on {f_mcf} Hz"
    );
}

#[test]
fn all_managers_respect_budget_on_real_machine() {
    let mut machine = make_machine(5);
    let pool = app_pool(&machine.config().dynamic);
    let mut rng = SimRng::seed_from(6);
    let workload = Workload::draw(&pool, 8, &mut rng);
    machine.load_threads(workload.spawn_threads(&mut rng));
    let mapping: Vec<Option<usize>> = (0..20).map(|c| (c < 8).then_some(c)).collect();
    machine.assign(&mapping);
    machine.step(0.001); // populate sensors

    let budget = PowerBudget::cost_performance(8);
    for kind in [
        ManagerSpec::FoxtonStar,
        ManagerSpec::LinOpt,
        ManagerSpec::SAnn { evaluations: 5_000 },
    ] {
        let mut m = machine.clone();
        let levels = manage(kind, &mut m, &budget, &mut rng);
        let view = PmView::from_machine(&m);
        let total = view.total_power(&levels);
        assert!(
            total <= budget.chip_w + 1e-6,
            "{}: {total} W over {} W",
            kind.name(),
            budget.chip_w
        );
    }
}

#[test]
fn manager_quality_ordering_holds() {
    // On the same view: exhaustive >= SAnn >= greedy, LinOpt close to
    // SAnn — §6.5's validation chain, end to end on real machine state.
    let mut machine = make_machine(7);
    let pool = app_pool(&machine.config().dynamic);
    let mut rng = SimRng::seed_from(8);
    let workload = Workload::draw(&pool, 4, &mut rng);
    machine.load_threads(workload.spawn_threads(&mut rng));
    let mapping: Vec<Option<usize>> = (0..20).map(|c| (c < 4).then_some(c)).collect();
    machine.assign(&mapping);
    machine.step(0.001);

    let view = PmView::from_machine(&machine);
    let budget = PowerBudget::cost_performance(4);
    use vasp::vasched::manager::{exhaustive, linopt, sann};

    let best = exhaustive::exhaustive_levels(&view, &budget);
    let sann_levels = sann::sann_levels(&view, &budget, 30_000, &mut rng);
    let lin = linopt::linopt_levels(&view, &budget);

    let tp_best = view.throughput_mips(&best);
    let tp_sann = view.throughput_mips(&sann_levels);
    let tp_lin = view.throughput_mips(&lin);

    assert!(tp_sann <= tp_best + 1e-9);
    assert!(tp_sann >= 0.99 * tp_best, "SAnn at {}", tp_sann / tp_best);
    assert!(tp_lin >= 0.90 * tp_sann, "LinOpt at {}", tp_lin / tp_sann);
}

#[test]
fn uniform_and_nonuniform_regimes_differ_as_expected() {
    let pool = app_pool(&MachineConfig::paper_default().dynamic);
    let workload = Workload::draw(&pool, 10, &mut SimRng::seed_from(9));
    let budget = PowerBudget::high_performance(10);
    let run = |mode| {
        let mut machine = make_machine(10);
        let runtime = RuntimeConfig::builder()
            .freq_mode(mode)
            .duration_ms(100.0)
            .build()
            .unwrap();
        run_trial(
            &mut machine,
            &workload,
            SchedulerSpec::Random,
            ManagerSpec::None,
            budget,
            &runtime,
            &FaultPlan::none(),
            &mut SimRng::seed_from(11),
            &mut NullObserver,
        )
        .expect("valid trial")
    };
    let uni = run(FreqMode::Uniform);
    let non = run(FreqMode::NonUniform);
    // NUniFreq raises both frequency and throughput (paper: ~15% freq).
    assert!(non.avg_freq_hz > uni.avg_freq_hz * 1.02);
    assert!(non.mips > uni.mips);
    // And burns more power for it.
    assert!(non.avg_power_w > uni.avg_power_w);
}

#[test]
fn trials_are_reproducible_across_machine_rebuilds() {
    let pool = app_pool(&MachineConfig::paper_default().dynamic);
    let workload = Workload::draw(&pool, 6, &mut SimRng::seed_from(12));
    let budget = PowerBudget::cost_performance(6);
    let runtime = RuntimeConfig::builder().duration_ms(100.0).build().unwrap();
    let run = || {
        let mut machine = make_machine(13);
        run_trial(
            &mut machine,
            &workload,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            budget,
            &runtime,
            &FaultPlan::none(),
            &mut SimRng::seed_from(14),
            &mut NullObserver,
        )
        .expect("valid trial")
    };
    assert_eq!(run(), run());
}
