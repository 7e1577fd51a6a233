//! Consolidation scenario: a partially-loaded server CMP.
//!
//! Datacenter nodes spend most of their life below full occupancy.
//! With 6 jobs on a 20-core variation-affected CMP, the scheduler gets
//! to *choose* which six cores burn power — the paper's §7.3/§7.4
//! scenario. This example compares every scheduling policy at the same
//! load, in both frequency regimes, on the same die and job mix.
//!
//! ```text
//! cargo run --release --example datacenter_consolidation
//! ```

use vasp::vasched::prelude::*;
use vasp::vasched::runtime::FreqMode;

const JOBS: usize = 6;

fn main() {
    let variation = VariationConfig {
        grid: 30,
        ..VariationConfig::paper_default()
    };
    let mut rng = SimRng::seed_from(911);
    let die = DieGenerator::new(variation)
        .expect("valid configuration")
        .generate(&mut rng);
    let floorplan = paper_20_core();
    let machine = Machine::new(&die, &floorplan, MachineConfig::paper_default());
    let pool = app_pool(&machine.config().dynamic);
    let workload = Workload::draw(&pool, JOBS, &mut rng);

    println!("Job mix:");
    for (i, spec) in workload.specs().iter().enumerate() {
        println!(
            "  job {i}: {:>8}  ({:.1} W dynamic, IPC {:.1})",
            spec.name, spec.dynamic_power_w, spec.ipc
        );
    }

    let budget = PowerBudget::high_performance(JOBS); // non-binding: no DVFS here
    for (mode, mode_name) in [
        (
            FreqMode::Uniform,
            "UniFreq (all cores at the slowest active core's clock)",
        ),
        (
            FreqMode::NonUniform,
            "NUniFreq (each core at its own maximum)",
        ),
    ] {
        println!("\n=== {mode_name} ===");
        println!(
            "{:<14} {:>10} {:>10} {:>12}",
            "policy", "MIPS", "power (W)", "MIPS/W"
        );
        let policies = [
            SchedulerSpec::Random,
            SchedulerSpec::VarP,
            SchedulerSpec::VarPAppP,
            SchedulerSpec::VarF,
            SchedulerSpec::VarFAppIpc,
        ];
        for policy in policies {
            let runtime = RuntimeConfig::builder()
                .freq_mode(mode)
                .build()
                .expect("paper timeline is valid");
            let mut m = machine.clone();
            let mut trial_rng = SimRng::seed_from(5);
            // The batch entry point (run_online and run_thermal_trial
            // are the other two): a clean, unobserved run passes
            // FaultPlan::none() and NullObserver.
            let out = run_trial(
                &mut m,
                &workload,
                policy,
                ManagerSpec::None,
                budget,
                &runtime,
                &FaultPlan::none(),
                &mut trial_rng,
                &mut NullObserver,
            )
            .expect("valid trial");
            println!(
                "{:<14} {:>10.0} {:>10.1} {:>12.1}",
                policy.name(),
                out.mips,
                out.avg_power_w,
                out.mips / out.avg_power_w
            );
        }
    }

    println!("\nReading guide: under UniFreq, VarP/VarP&AppP cut power at equal");
    println!("throughput; under NUniFreq, VarF/VarF&AppIPC buy throughput, and");
    println!("VarF&AppIPC pairs the high-IPC jobs with the fast cores.");
}
