//! Live DVFS trace: watch LinOpt re-solve as application phases shift.
//!
//! Runs a full 20-thread load under VarF&AppIPC + LinOpt at the
//! Cost-Performance budget and prints a per-10 ms trace: chip power vs
//! target, throughput, and the voltage histogram LinOpt chose — the
//! microscope view behind Figures 11 and 14.
//!
//! ```text
//! cargo run --release --example live_dvfs_trace
//! ```

use vasp::cmpsim::{app_pool, Machine, MachineConfig, Workload};
use vasp::floorplan::paper_20_core;
use vasp::varius::{DieGenerator, VariationConfig};
use vasp::vasched::manager::{linopt::LinOpt, PmView, PowerBudget, PowerManager};
use vasp::vasched::profile::{core_profiles, thread_profiles};
use vasp::vasched::runtime::RuntimeConfig;
use vasp::vasched::sched::SchedulerSpec;
use vasp::vastats::SimRng;

const THREADS: usize = 20;
const DVFS_INTERVAL_MS: usize = 10;
const TRACE_MS: usize = 200;

fn main() {
    let variation = VariationConfig {
        grid: 30,
        ..VariationConfig::paper_default()
    };
    let mut rng = SimRng::seed_from(31);
    let die = DieGenerator::new(variation)
        .expect("valid configuration")
        .generate(&mut rng);
    let floorplan = paper_20_core();
    let mut machine = Machine::new(&die, &floorplan, MachineConfig::paper_default());

    let pool = app_pool(&machine.config().dynamic);
    let workload = Workload::draw(&pool, THREADS, &mut rng);
    machine.load_threads(workload.spawn_threads(&mut rng));

    // One scheduling pass (VarF&AppIPC), then LinOpt every 10 ms.
    let cores = core_profiles(&machine);
    let threads = thread_profiles(&machine, &mut rng);
    let mapping = SchedulerSpec::VarFAppIpc
        .build(&RuntimeConfig::paper_default())
        .expect("valid spec")
        .assign(&cores, &threads, &mut rng);
    machine.assign(&mapping);

    let budget = PowerBudget::cost_performance(THREADS);
    println!(
        "Ptarget = {:.0} W, Pcoremax = {:.0} W, {THREADS} threads\n",
        budget.chip_w, budget.per_core_w
    );
    println!(
        "{:>6} {:>9} {:>9} {:>9}  levels chosen (count per voltage step 0.6->1.0V)",
        "t(ms)", "power(W)", "dev(%)", "GIPS"
    );

    let mut linopt = LinOpt::new();
    let mut window_power = 0.0;
    for ms in 0..TRACE_MS {
        if ms % DVFS_INTERVAL_MS == 0 {
            let view = PmView::from_machine(&machine);
            let levels = linopt.levels(&view, &budget, &mut rng);
            view.apply(&mut machine, &levels);
            if ms > 0 {
                let avg = window_power / DVFS_INTERVAL_MS as f64;
                let dev = (avg - budget.chip_w) / budget.chip_w * 100.0;
                let mut histogram = [0usize; 9];
                for &l in &levels {
                    histogram[l] += 1;
                }
                let bars: String = histogram
                    .iter()
                    .map(|&c| char::from_digit(c.min(9) as u32, 10).expect("digit"))
                    .collect();
                println!(
                    "{:>6} {:>9.1} {:>+9.2} {:>9.1}  [{bars}]",
                    ms,
                    avg,
                    dev,
                    machine.average_mips() / 1e3,
                );
                window_power = 0.0;
            }
        }
        let stats = machine.step(0.001);
        window_power += stats.total_power_w;
    }

    println!("\nThe level histogram shifts as phases change: LinOpt slows cores");
    println!("whose threads entered memory-bound phases and spends the freed");
    println!("watts on compute-bound ones, keeping power pinned to Ptarget.");
}
