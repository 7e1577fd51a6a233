//! Scenario integration tests for the beyond-the-paper features:
//! chip-wide/domain DVFS, thermal migration, wearout, ABB, workload
//! mixes, shared-L2 contention, and telemetry — each exercised
//! end-to-end through the public API.

use vasp::cmpsim::{app_pool, Machine, MachineConfig, Mix, Telemetry, Workload};
use vasp::floorplan::paper_20_core;
use vasp::varius::{DieGenerator, VariationConfig};
use vasp::vasched::abb::{equalize_frequencies, BodyBiasConfig};
use vasp::vasched::extensions::{run_thermal_trial, MigrationConfig, WearoutTracker};
use vasp::vasched::manager::{ManagerSpec, PmView, PowerBudget};
use vasp::vasched::prelude::*;
use vasp::vastats::SimRng;

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

fn loaded(seed: u64, threads: usize) -> Machine {
    let mut m = make_machine(seed);
    let pool = app_pool(&m.config().dynamic);
    let mut rng = SimRng::seed_from(seed + 1);
    let w = Workload::draw(&pool, threads, &mut rng);
    m.load_threads(w.spawn_threads(&mut rng));
    let mapping: Vec<Option<usize>> = (0..20).map(|c| (c < threads).then_some(c)).collect();
    m.assign(&mapping);
    m.step(0.001);
    m
}

#[test]
fn chip_wide_dvfs_loses_to_per_core() {
    let mut machine = loaded(100, 16);
    let budget = PowerBudget::cost_performance(16);
    let mut rng = SimRng::seed_from(101);

    let mut per_core_machine = machine.clone();
    let per_core = manage(
        ManagerSpec::LinOpt,
        &mut per_core_machine,
        &budget,
        &mut rng,
    );
    let chip_wide = manage(ManagerSpec::ChipWide, &mut machine, &budget, &mut rng);

    let view = PmView::from_machine(&machine);
    assert!(
        chip_wide.windows(2).all(|w| w[0] == w[1]),
        "chip-wide must use one level"
    );
    assert!(view.feasible(&chip_wide, &budget));
    assert!(
        view.throughput_mips(&per_core) >= view.throughput_mips(&chip_wide),
        "per-core DVFS must not lose to chip-wide"
    );
}

#[test]
fn domain_granularity_is_monotone_in_throughput() {
    let machine = loaded(102, 20);
    let budget = PowerBudget::cost_performance(20);
    let view = PmView::from_machine(&machine);
    use vasp::vasched::manager::chipwide::domain_linopt_levels;
    let tp = |d: usize| view.throughput_mips(&domain_linopt_levels(&view, &budget, d));
    let fine = tp(1);
    let coarse = tp(20);
    assert!(fine >= coarse * 0.99, "fine {fine} vs coarse {coarse}");
}

#[test]
fn migration_and_wearout_integrate() {
    let mut machine = make_machine(103);
    let pool = app_pool(&machine.config().dynamic);
    let mut rng = SimRng::seed_from(104);
    let workload = Workload::draw(&pool, 8, &mut rng);
    let outcome = run_thermal_trial(
        &mut machine,
        &workload,
        SchedulerSpec::VarFAppIpc,
        ManagerSpec::LinOpt,
        PowerBudget::cost_performance(8),
        &RuntimeConfig::builder().duration_ms(200.0).build().unwrap(),
        Some(MigrationConfig::default_policy()),
        &mut rng,
    );
    assert!(outcome.mips > 0.0);
    assert!(outcome.max_aging_s > 0.0);
    assert!(outcome.max_aging_s >= outcome.mean_aging_s);
    assert!(outcome.peak_temp_k > 318.15);
}

#[test]
fn wearout_rates_order_by_stress() {
    let tracker = WearoutTracker::new(1);
    let cool_low_v = tracker.rate(338.15, 0.7);
    let hot_high_v = tracker.rate(378.15, 1.0);
    assert!(hot_high_v > 3.0 * cool_low_v);
}

#[test]
fn abb_trades_leakage_for_uniformity() {
    let machine = make_machine(105);
    let out = equalize_frequencies(&machine, &BodyBiasConfig::typical());
    assert!(out.spread_after() < out.spread_before());
    assert!(
        out.static_after_w > out.static_before_w,
        "FBB on slow cores must cost leakage"
    );
}

#[test]
fn homogeneous_mix_reduces_appipc_advantage() {
    // VarF&AppIPC's edge over VarF comes from IPC spread; a
    // compute-only mix (all high IPC) should shrink it.
    let pool = app_pool(&MachineConfig::paper_default().dynamic);
    let budget = PowerBudget::high_performance(8);
    let runtime = RuntimeConfig::builder().duration_ms(100.0).build().unwrap();
    let gain_for = |mix: Mix, seed: u64| {
        let workload = Workload::draw_mix(&pool, 8, mix, &mut SimRng::seed_from(seed));
        let run = |policy| {
            let mut m = make_machine(106);
            run_trial(
                &mut m,
                &workload,
                policy,
                ManagerSpec::None,
                budget,
                &runtime,
                &FaultPlan::none(),
                &mut SimRng::seed_from(seed + 1),
                &mut NullObserver,
            )
            .expect("valid trial")
        };
        run(SchedulerSpec::VarFAppIpc).mips / run(SchedulerSpec::VarF).mips
    };
    // Average over a few draws to tame noise.
    let balanced: f64 = (0..3)
        .map(|s| gain_for(Mix::Balanced, 300 + s))
        .sum::<f64>()
        / 3.0;
    let compute: f64 = (0..3)
        .map(|s| gain_for(Mix::ComputeHeavy, 400 + s))
        .sum::<f64>()
        / 3.0;
    assert!(
        compute <= balanced + 0.02,
        "compute-only gain {compute} should not exceed balanced {balanced}"
    );
}

#[test]
fn l2_contention_shapes_scheduling_landscape() {
    // A cache-hungry co-runner (mcf) must hurt a cache-sensitive app
    // more than a cache-light co-runner does.
    let pool = app_pool(&MachineConfig::paper_default().dynamic);
    let swim = pool.iter().find(|a| a.name == "swim").unwrap().clone();
    let mcf = pool.iter().find(|a| a.name == "mcf").unwrap().clone();
    let crafty = pool.iter().find(|a| a.name == "crafty").unwrap().clone();

    let mips_of_thread0 = |partner: vasp::cmpsim::AppSpec, seed: u64| {
        let mut m = make_machine(107);
        let w = Workload::from_specs(vec![swim.clone(), partner]);
        let mut rng = SimRng::seed_from(seed);
        m.load_threads(w.spawn_threads(&mut rng));
        let mut mapping = vec![None; 20];
        mapping[0] = Some(0);
        mapping[10] = Some(1);
        m.assign(&mapping);
        for _ in 0..100 {
            m.step(0.001);
        }
        m.threads()[0].average_mips()
    };
    let with_mcf = mips_of_thread0(mcf, 1);
    let with_crafty = mips_of_thread0(crafty, 1);
    assert!(
        with_mcf < with_crafty,
        "swim next to mcf {with_mcf} should run slower than next to crafty {with_crafty}"
    );
}

#[test]
fn telemetry_captures_a_dvfs_run() {
    let mut machine = loaded(108, 10);
    let budget = PowerBudget::cost_performance(10);
    let mut rng = SimRng::seed_from(109);
    let mut telemetry = Telemetry::new();
    for tick in 0..50 {
        if tick % 10 == 0 {
            manage(ManagerSpec::LinOpt, &mut machine, &budget, &mut rng);
        }
        let stats = machine.step(0.001);
        telemetry.record(&machine, &stats);
    }
    assert_eq!(telemetry.len(), 50);
    assert!(telemetry.peak_power_w() > 0.0);
    let csv = telemetry.to_core_csv();
    assert_eq!(csv.lines().count(), 1 + 50 * 20);
}
