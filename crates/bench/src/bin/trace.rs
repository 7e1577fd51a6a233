//! Exports JSONL run traces: one paper-style trial per manager, each
//! observed by [`vasched::obs::TraceObserver`], written to
//! `results/trace_<manager>.jsonl`.
//!
//! ```text
//! cargo run --release -p vasp-bench --bin trace -- --scale smoke
//! ```
//!
//! The trace schema is `vasp.trace.v1` (see `DESIGN.md` §3e): a header
//! line followed by one record per DVFS interval with per-core
//! V/f/power/temperature/IPC, chip power and throughput, the solver
//! outcome, and any degradation events. Traces are deterministic in
//! the seed, so two runs with the same arguments produce byte-identical
//! files.

use vasched::engine::{SeedPlan, TrialArm, TrialRunner, TrialSpec};
use vasched::experiments::Context;
use vasched::manager::{ManagerSpec, PowerBudget};
use vasched::obs::TraceObserver;
use vasched::runtime::RuntimeConfig;
use vasched::sched::SchedulerSpec;
use vasp_bench::harness::{slug, Harness};

fn main() {
    let h = Harness::from_args();
    let threads = 20;
    let runtime = RuntimeConfig::builder()
        .duration_ms(h.scale.duration_ms)
        .build()
        .expect("scale duration is a valid timeline");
    let arm = |label: &str, manager: ManagerSpec| TrialArm {
        label: label.to_string(),
        policy: SchedulerSpec::VarFAppIpc,
        manager,
        budget: PowerBudget::cost_performance(threads),
        runtime,
        rng_salt: None,
    };

    let ctx = Context::new(h.scale.grid);
    let pool = cmpsim::app_pool(&ctx.machine_config().dynamic);
    let spec = TrialSpec::builder(&ctx, &pool)
        .threads(threads)
        .trials(1)
        .seed(h.seed)
        .plan(SeedPlan::default())
        .arm(arm("LinOpt", ManagerSpec::LinOpt))
        .arm(arm("Foxton*", ManagerSpec::FoxtonStar))
        .build()
        .expect("trace spec is valid");

    let mut results = TrialRunner::new().run_observed(&spec, |_| TraceObserver::new());
    let (_, observers) = results.remove(0);

    for (arm, observer) in spec.arms.iter().zip(observers) {
        let name = format!("trace_{}.jsonl", slug(&arm.label));
        println!(
            "{name}: {} records, metrics {}",
            observer.jsonl().lines().count().saturating_sub(1),
            observer.metrics().to_json()
        );
        h.artifact(&name, &observer.into_jsonl());
    }
}
