//! Property-style tests over cross-crate invariants.
//!
//! The build environment has no crates.io access, so instead of
//! proptest these sweep deterministic seed grids with [`SimRng`]
//! driving the case generation. Every case is reproducible from its
//! loop indices; failures print enough context to replay one case.

use vasp::cmpsim::cache::solve_occupancy;
use vasp::critpath::{FreqModel, TimingParams};
use vasp::linprog::Problem;
use vasp::varius::CoreCells;
use vasp::vasched::extensions::WearoutTracker;
use vasp::vasched::manager::{
    foxton::foxton_star_levels, linopt::linopt_levels, sann::greedy_levels, synthetic_core,
    ManagerSpec, PmView, PowerBudget, SolveStatus,
};
use vasp::vasched::metrics::ed2_index;
use vasp::vasched::profile::{CoreProfile, ThreadProfile};
use vasp::vasched::sched::SchedulerSpec;
use vasp::vastats::{LineFit, SimRng};

/// Simplex: on random feasible, bounded LPs, the solution is feasible
/// and the objective equals c.x.
#[test]
fn simplex_solution_is_feasible() {
    for seed in 0u64..60 {
        let mut rng = SimRng::seed_from(seed);
        let n = 2 + (seed as usize % 4);
        let m = 1 + (seed as usize % 4);
        let c: Vec<f64> = (0..n).map(|_| rng.uniform(0.1, 3.0)).collect();
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.uniform(0.05, 1.0)).collect())
            .collect();
        let rhs: Vec<f64> = (0..m).map(|_| rng.uniform(0.5, 4.0)).collect();
        let mut lp = Problem::maximize(c.clone());
        for (row, &b) in rows.iter().zip(&rhs) {
            lp = lp.constraint_le(row.clone(), b);
        }
        let s = lp.solve().expect("bounded and feasible");
        for (row, &b) in rows.iter().zip(&rhs) {
            let lhs: f64 = row.iter().zip(&s.x).map(|(a, x)| a * x).sum();
            assert!(lhs <= b + 1e-7, "seed {seed}: constraint violated");
        }
        assert!(s.x.iter().all(|&x| x >= -1e-9), "seed {seed}");
        let cx: f64 = c.iter().zip(&s.x).map(|(a, x)| a * x).sum();
        assert!((cx - s.objective).abs() < 1e-6, "seed {seed}");
    }
}

/// Schedulers: every policy maps each thread to exactly one core.
#[test]
fn schedulers_produce_valid_assignments() {
    let rt = vasp::vasched::runtime::RuntimeConfig::paper_default();
    let policies = [
        SchedulerSpec::Random,
        SchedulerSpec::VarP,
        SchedulerSpec::VarPAppP,
        SchedulerSpec::VarF,
        SchedulerSpec::VarFAppIpc,
    ];
    for seed in 0u64..40 {
        for &policy in &policies {
            let mut rng = SimRng::seed_from(seed);
            let n_threads = 1 + (seed as usize % 19);
            let cores: Vec<CoreProfile> = (0..20)
                .map(|i| CoreProfile {
                    core: i,
                    static_power_w: vec![rng.uniform(0.2, 1.0), rng.uniform(1.0, 4.0)],
                    max_freq_hz: rng.uniform(2.5e9, 4.5e9),
                })
                .collect();
            let threads: Vec<ThreadProfile> = (0..n_threads)
                .map(|j| ThreadProfile {
                    thread: j,
                    dynamic_power_w: rng.uniform(1.0, 5.0),
                    ipc: rng.uniform(0.05, 1.3),
                    profiled_on: 0,
                })
                .collect();
            let mapping = policy
                .build(&rt)
                .expect("valid spec")
                .assign(&cores, &threads, &mut rng);
            let mut seen = vec![false; n_threads];
            for t in mapping.iter().flatten() {
                assert!(*t < n_threads, "seed {seed} {policy:?}");
                assert!(!seen[*t], "seed {seed} {policy:?}: thread placed twice");
                seen[*t] = true;
            }
            assert!(seen.iter().all(|&s| s), "seed {seed} {policy:?}");
        }
    }
}

/// Random synthetic sensor view of `n` cores drawn from `rng`.
fn random_view(n: usize, rng: &mut SimRng) -> PmView {
    PmView::from_cores(
        (0..n)
            .map(|i| synthetic_core(i, rng.uniform(0.05, 1.3), 9, rng.uniform(0.7, 1.4)))
            .collect(),
    )
}

/// Power managers: results are always within table bounds and never
/// exceed the chip budget when the all-minimum point is feasible.
#[test]
fn managers_never_exceed_feasible_budget() {
    for seed in 0u64..40 {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + (seed as usize % 11);
        let budget_frac = 0.05 + 0.9 * (seed as f64 / 40.0);
        let view = random_view(n, &mut rng);
        let min_p = view.total_power(&view.min_levels());
        let max_p = view.total_power(&view.max_levels());
        let budget = PowerBudget {
            chip_w: min_p + budget_frac * (max_p - min_p),
            per_core_w: 1e9,
        };
        for levels in [
            foxton_star_levels(&view, &budget),
            linopt_levels(&view, &budget),
            greedy_levels(&view, &budget),
        ] {
            assert_eq!(levels.len(), n, "seed {seed}");
            for (c, &l) in view.cores().iter().zip(&levels) {
                assert!(l < c.level_count(), "seed {seed}: level out of table");
            }
            assert!(
                view.total_power(&levels) <= budget.chip_w + 1e-6,
                "seed {seed}: chip budget exceeded"
            );
        }
    }
}

/// Every shipped manager except the exact solver.
fn shipped_managers() -> [ManagerSpec; 6] {
    [
        ManagerSpec::FoxtonStar,
        ManagerSpec::LinOpt,
        ManagerSpec::sann_fast(),
        ManagerSpec::ChipWide,
        ManagerSpec::DomainLinOpt {
            cores_per_domain: 2,
        },
        ManagerSpec::integral_regulator(),
    ]
}

/// The sweep of the manager properties: random views of 2–10 cores
/// under chip budgets from 10% to 86% of the way from the all-minimum
/// to the all-maximum power, and per-core caps that may bind. Yields
/// each case's seed, view, budget and the stream the managers draw
/// from.
fn manager_sweep() -> impl Iterator<Item = (u64, PmView, PowerBudget, SimRng)> {
    (0u64..20).map(|seed| {
        let mut rng = SimRng::seed_from(0x9_11C0 + seed);
        let n = 2 + (seed as usize % 9);
        let view = random_view(n, &mut rng);
        let min_p = view.total_power(&view.min_levels());
        let max_p = view.total_power(&view.max_levels());
        let budget = PowerBudget {
            chip_w: min_p + (0.1 + 0.8 * (seed as f64 / 20.0)) * (max_p - min_p),
            per_core_w: rng.uniform(4.0, 12.0),
        };
        (seed, view, budget, rng)
    })
}

/// The edge cases of LinOpt's LP on random views of 2–10 cores: chip
/// budgets below zero, just below, at and just above the all-minimum
/// power, and above the all-maximum power, each under a generous
/// per-core cap, a 0 W cap (every core's fitted floor is over it, so
/// LinOpt bounds its row at 0), and a cap just under the largest
/// minimum-level core power. Yields each case's label, view, budget and
/// the stream the managers draw from.
fn manager_edge_cases() -> impl Iterator<Item = (String, PmView, PowerBudget, SimRng)> {
    (0u64..4).flat_map(|seed| {
        let mut rng = SimRng::seed_from(0xED_6E + seed);
        let view = random_view([2, 5, 8, 10][seed as usize], &mut rng);
        let min_p = view.total_power(&view.min_levels());
        let max_p = view.total_power(&view.max_levels());
        let floor_core = view
            .cores()
            .iter()
            .map(|c| c.power_w[0])
            .fold(0.0f64, f64::max);
        let mut cases = Vec::new();
        for chip_w in [-1.0, min_p - 1e-6, min_p, min_p + 1e-6, max_p + 1.0] {
            for per_core_w in [1e9, 0.0, floor_core - 1e-6] {
                let label = format!("edge seed {seed} chip {chip_w} W cap {per_core_w} W");
                let budget = PowerBudget { chip_w, per_core_w };
                cases.push((label, view.clone(), budget, rng.clone()));
            }
        }
        cases
    })
}

/// Every `PowerManager` implementation (built from its `ManagerSpec`
/// spec) keeps its levels inside the table and, whenever the
/// all-minimum point meets both budget constraints, respects the
/// per-core cap and the chip budget after repair, across random views,
/// budgets, the LP's edge cases, and repeated invocations — repeated
/// because stateful managers (Foxton* cursor, LinOpt warm-start) must
/// hold the invariant from any carried state, and the
/// `repair_to_budget`/`greedy_fill` pipeline must never overshoot.
#[test]
fn trait_managers_respect_budgets_post_repair() {
    let rt = vasp::vasched::runtime::RuntimeConfig::paper_default();
    let sweep = manager_sweep().map(|(seed, view, budget, rng)| {
        // The sweep's floor always fits, so none of its checks is
        // skipped below.
        assert!(view.feasible(&view.min_levels(), &budget), "seed {seed}");
        (format!("seed {seed}"), view, budget, rng)
    });
    for (case, view, budget, mut rng) in sweep.chain(manager_edge_cases()) {
        let floor_fits = view.feasible(&view.min_levels(), &budget);
        for kind in shipped_managers().iter().chain([&ManagerSpec::Exhaustive]) {
            let mut manager = kind
                .build(&rt)
                .expect("valid spec")
                .expect("not ManagerSpec::None");
            for round in 0..3 {
                let levels = manager.levels(&view, &budget, &mut rng);
                assert_eq!(
                    levels.len(),
                    view.len(),
                    "{case} {} round {round}",
                    kind.name()
                );
                for (c, &l) in view.cores().iter().zip(&levels) {
                    assert!(
                        l < c.level_count(),
                        "{case} {} round {round}: level out of table",
                        kind.name()
                    );
                    assert!(
                        !floor_fits || c.power_w[l] <= budget.per_core_w + 1e-6,
                        "{case} {} round {round}: per-core cap exceeded",
                        kind.name()
                    );
                }
                assert!(
                    !floor_fits || view.total_power(&levels) <= budget.chip_w + 1e-6,
                    "{case} {} round {round}: chip budget exceeded",
                    kind.name()
                );
            }
        }
    }
}

/// No shipped manager finds a feasible point with more throughput than
/// the exact solver's optimum of the same view.
#[test]
fn no_manager_beats_the_exact_optimum() {
    let rt = vasp::vasched::runtime::RuntimeConfig::paper_default();
    for (seed, view, budget, mut rng) in manager_sweep() {
        let mut exact = ManagerSpec::Exhaustive
            .build(&rt)
            .expect("valid spec")
            .expect("a manager");
        let optimum = view.throughput_mips(&exact.levels(&view, &budget, &mut rng));
        assert_eq!(
            exact.last_solve().map(|r| r.status),
            Some(SolveStatus::Optimal),
            "seed {seed}"
        );
        for kind in shipped_managers() {
            let mut manager = kind
                .build(&rt)
                .expect("valid spec")
                .expect("not ManagerSpec::None");
            for round in 0..3 {
                let levels = manager.levels(&view, &budget, &mut rng);
                let mips = view.throughput_mips(&levels);
                assert!(
                    !view.feasible(&levels, &budget) || mips <= optimum,
                    "seed {seed} {} round {round}: {mips} MIPS beats the optimum {optimum}",
                    kind.name()
                );
            }
        }
    }
}

/// LinOpt stays competitive with Foxton* on arbitrary views: the true
/// power curve is convex, so Foxton*'s near-uniform allocation can
/// occasionally edge out the LP's linearized solution by a hair, but
/// LinOpt must never collapse below it (its average advantage is
/// asserted by the reproduction tests).
#[test]
fn linopt_never_collapses_below_foxton() {
    for seed in 0u64..30 {
        let mut rng = SimRng::seed_from(seed);
        let n = 2 + (seed as usize % 8);
        let view = PmView::from_cores(
            (0..n)
                .map(|i| synthetic_core(i, rng.uniform(0.05, 1.3), 9, 1.0))
                .collect(),
        );
        let min_p = view.total_power(&view.min_levels());
        let max_p = view.total_power(&view.max_levels());
        let budget = PowerBudget {
            chip_w: min_p + 0.5 * (max_p - min_p),
            per_core_w: 1e9,
        };
        let lin = linopt_levels(&view, &budget);
        let fox = foxton_star_levels(&view, &budget);
        assert!(
            view.throughput_mips(&lin) >= 0.95 * view.throughput_mips(&fox),
            "seed {seed}: LinOpt {} far below Foxton* {}",
            view.throughput_mips(&lin),
            view.throughput_mips(&fox)
        );
    }
}

/// Frequency model: Fmax is monotone in voltage and anti-monotone in
/// Vth for arbitrary cells.
#[test]
fn fmax_monotonicity() {
    let model = FreqModel::new(TimingParams::paper_default());
    for i in 0..5 {
        for j in 0..5 {
            for k in 0..5 {
                let vth = 0.15 + 0.05 * i as f64;
                let leff = 0.8 + 0.1 * j as f64;
                let v = 0.65 + 0.075 * k as f64;
                let cells = CoreCells {
                    vth: vec![vth],
                    leff: vec![leff],
                };
                let f_lo = model.fmax_hz(&cells, v);
                let f_hi = model.fmax_hz(&cells, v + 0.05);
                assert!(f_hi > f_lo, "vth {vth} leff {leff} v {v}");
                let slower = CoreCells {
                    vth: vec![vth + 0.02],
                    leff: vec![leff],
                };
                assert!(
                    model.fmax_hz(&slower, v) < f_lo,
                    "vth {vth} leff {leff} v {v}"
                );
            }
        }
    }
}

/// Line fits: the fitted line minimizes RMS error no worse than the
/// chord through the endpoints.
#[test]
fn line_fit_beats_endpoint_chord() {
    for i in 0..9 {
        for j in 0..5 {
            for k in 0..5 {
                // Quadratic data y = a + b x + c x^2 on three points.
                let a = -2.0 + 0.5 * i as f64;
                let b = -1.0 + 0.5 * j as f64;
                let c = 0.01 + 0.24 * k as f64;
                let xs = [0.6, 0.8, 1.0];
                let pts: Vec<(f64, f64)> = xs.iter().map(|&x| (x, a + b * x + c * x * x)).collect();
                let fit = LineFit::fit(&pts).unwrap();
                // Chord through endpoints.
                let slope = (pts[2].1 - pts[0].1) / (pts[2].0 - pts[0].0);
                let intercept = pts[0].1 - slope * pts[0].0;
                let rms = |s: f64, i: f64| {
                    (pts.iter()
                        .map(|&(x, y)| (y - (s * x + i)).powi(2))
                        .sum::<f64>()
                        / 3.0)
                        .sqrt()
                };
                assert!(
                    fit.rms_error <= rms(slope, intercept) + 1e-12,
                    "a {a} b {b} c {c}"
                );
            }
        }
    }
}

/// Cache occupancy: shares always tile the capacity, are positive, and
/// a uniformly heavier misser never ends up with less cache.
#[test]
fn occupancy_invariants() {
    for seed in 0u64..40 {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + (seed as usize % 15);
        let capacity = 1.0 + 31.0 * (seed as f64 / 40.0);
        let weights: Vec<f64> = (0..n).map(|_| rng.uniform(1.0, 100.0)).collect();
        let shares = solve_occupancy(n, capacity, &[], |i, s| weights[i] / s.max(0.05).sqrt());
        assert_eq!(shares.len(), n, "seed {seed}");
        assert!(
            (shares.iter().sum::<f64>() - capacity).abs() < 1e-6,
            "seed {seed}"
        );
        assert!(shares.iter().all(|&s| s > 0.0), "seed {seed}");
        for i in 0..n {
            for j in 0..n {
                if weights[i] > weights[j] * 1.05 {
                    assert!(
                        shares[i] >= shares[j] - 1e-6,
                        "seed {seed}: heavier misser got less cache"
                    );
                }
            }
        }
    }
}

/// Wearout rate: monotone in both temperature and voltage, and exactly
/// 1 at the reference point.
#[test]
fn wearout_rate_monotone() {
    let tracker = WearoutTracker::new(1);
    for i in 0..8 {
        for j in 0..6 {
            for k in 0..5 {
                let t1 = 320.0 + 10.0 * i as f64;
                let dt = 1.0 + 5.0 * j as f64;
                let v = 0.6 + 0.08 * k as f64;
                assert!(tracker.rate(t1 + dt, v) > tracker.rate(t1, v));
                assert!(tracker.rate(t1, v) > tracker.rate(t1, v - 0.05));
            }
        }
    }
    assert!((tracker.rate(368.15, 1.0) - 1.0).abs() < 1e-12);
}

/// ED² index: monotone in power, anti-monotone (cubically) in
/// throughput.
#[test]
fn ed2_monotonicity() {
    for i in 0..10 {
        for j in 0..10 {
            let p = 1.0 + 20.0 * i as f64;
            let tp = 100.0 + 5_000.0 * j as f64;
            assert!(ed2_index(p * 1.1, tp) > ed2_index(p, tp));
            assert!(ed2_index(p, tp * 1.1) < ed2_index(p, tp));
            let ratio = ed2_index(p, tp) / ed2_index(p, 2.0 * tp);
            assert!((ratio - 8.0).abs() < 1e-6);
        }
    }
}

/// Fault injection: across a seed grid of random fault plans (noise,
/// failures at random times, budget drops), a faulted trial (a) never
/// leaves a thread on a dead core for even one tick, (b) is exactly
/// reproducible from its seed, and (c) completes with positive
/// throughput as long as at least one core survives.
#[test]
fn random_fault_plans_keep_threads_off_dead_cores() {
    use vasp::cmpsim::{app_pool, FaultPlan, Machine, MachineConfig, Workload};
    use vasp::floorplan::paper_20_core;
    use vasp::varius::{DieGenerator, VariationConfig};
    use vasp::vasched::manager::{DegradationEvent, ManagerSpec};
    use vasp::vasched::runtime::{run_trial, RuntimeConfig, TrialObserver};

    #[derive(Default)]
    struct Audit {
        dead: Vec<usize>,
        violations: usize,
    }
    impl TrialObserver for Audit {
        fn on_degradation(&mut self, _tick: usize, event: DegradationEvent) {
            if let DegradationEvent::CoreFailed { core } = event {
                self.dead.push(core);
            }
        }
        fn on_step(&mut self, machine: &Machine, _stats: &vasp::cmpsim::StepStats) {
            self.violations += self
                .dead
                .iter()
                .filter(|&&c| machine.thread_of(c).is_some())
                .count();
        }
    }

    let cfg = VariationConfig {
        grid: 20,
        ..VariationConfig::paper_default()
    };
    let generator = DieGenerator::new(cfg).expect("valid config");
    let runtime = RuntimeConfig::builder()
        .duration_ms(50.0)
        .os_interval_ms(25.0)
        .build()
        .unwrap();
    for seed in 0u64..12 {
        let mut gen_rng = SimRng::seed_from(0xFA_0157 + seed);
        let n_failures = (seed as usize) % 4;
        let mut plan = FaultPlan::none()
            .with_seed(seed)
            .with_sensor_noise(gen_rng.uniform(0.0, 0.1));
        let mut victims = Vec::new();
        for _ in 0..n_failures {
            // Distinct victims: a re-killed core would be a no-op.
            let core = loop {
                let c = gen_rng.index(20);
                if !victims.contains(&c) {
                    break c;
                }
            };
            victims.push(core);
            plan = plan.with_core_failure(core, gen_rng.uniform(1.0, 45.0));
        }
        if seed % 3 == 0 {
            plan = plan.with_budget_drop(gen_rng.uniform(0.0, 20.0), 45.0, 0.5);
        }
        plan.validate(20).expect("generated plan is valid");

        let die = generator.generate(&mut SimRng::seed_from(500 + seed));
        let machine = Machine::new(&die, &paper_20_core(), MachineConfig::paper_default());
        let pool = app_pool(&machine.config().dynamic);
        let threads = 1 + (seed as usize) % 20;
        let workload = Workload::draw(&pool, threads, &mut SimRng::seed_from(600 + seed));
        let budget = PowerBudget::cost_performance(threads);

        let run = |observer: &mut Audit| {
            let mut m = machine.clone();
            run_trial(
                &mut m,
                &workload,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                budget,
                &runtime,
                &plan,
                &mut SimRng::seed_from(700 + seed),
                observer,
            )
            .expect("faulted trial completes")
        };
        let mut audit = Audit::default();
        let outcome = run(&mut audit);
        assert_eq!(
            audit.violations, 0,
            "seed {seed}: thread left on a dead core"
        );
        assert_eq!(audit.dead.len(), n_failures, "seed {seed}");
        assert!(outcome.mips > 0.0, "seed {seed}: throughput must flow");
        // Reproducible bit for bit from the same seeds.
        let rerun = run(&mut Audit::default());
        assert_eq!(outcome, rerun, "seed {seed}: faulted run not reproducible");
    }
}

/// The thermal mapper places by floorplan geometry and temperature —
/// neither of which marks a core dead — so this pins that the fault
/// machinery (profiles of dead cores are filtered before `assign`)
/// still keeps every thread off failed cores when `ThermalMap` is the
/// placement policy, under randomized kill sets, and that the mapper's
/// RNG-free `observe` hook keeps faulted runs bit-reproducible.
#[test]
fn thermal_mapper_keeps_threads_off_dead_cores() {
    use vasp::cmpsim::{app_pool, FaultPlan, Machine, MachineConfig, Workload};
    use vasp::floorplan::paper_20_core;
    use vasp::varius::{DieGenerator, VariationConfig};
    use vasp::vasched::manager::{DegradationEvent, ManagerSpec};
    use vasp::vasched::runtime::{run_trial, RuntimeConfig, TrialObserver};

    #[derive(Default)]
    struct Audit {
        dead: Vec<usize>,
        violations: usize,
    }
    impl TrialObserver for Audit {
        fn on_degradation(&mut self, _tick: usize, event: DegradationEvent) {
            if let DegradationEvent::CoreFailed { core } = event {
                self.dead.push(core);
            }
        }
        fn on_step(&mut self, machine: &Machine, _stats: &vasp::cmpsim::StepStats) {
            self.violations += self
                .dead
                .iter()
                .filter(|&&c| machine.thread_of(c).is_some())
                .count();
        }
    }

    let cfg = VariationConfig {
        grid: 20,
        ..VariationConfig::paper_default()
    };
    let generator = DieGenerator::new(cfg).expect("valid config");
    let runtime = RuntimeConfig::builder()
        .duration_ms(50.0)
        .os_interval_ms(10.0) // frequent reschedules: many assign calls
        .build()
        .unwrap();
    for seed in 0u64..12 {
        let mut gen_rng = SimRng::seed_from(0x7E_1107 + seed);
        // Always at least one failure — the property under test — and
        // up to four, early enough that many epochs run degraded.
        let n_failures = 1 + (seed as usize) % 4;
        let mut plan = FaultPlan::none().with_seed(seed);
        let mut victims = Vec::new();
        for _ in 0..n_failures {
            let core = loop {
                let c = gen_rng.index(20);
                if !victims.contains(&c) {
                    break c;
                }
            };
            victims.push(core);
            plan = plan.with_core_failure(core, gen_rng.uniform(1.0, 25.0));
        }
        plan.validate(20).expect("generated plan is valid");

        let die = generator.generate(&mut SimRng::seed_from(800 + seed));
        let machine = Machine::new(&die, &paper_20_core(), MachineConfig::paper_default());
        let pool = app_pool(&machine.config().dynamic);
        // Enough threads that survivors get crowded, never more than
        // the surviving cores can hold.
        let threads = (20 - n_failures).min(8 + (seed as usize) % 12);
        let workload = Workload::draw(&pool, threads, &mut SimRng::seed_from(900 + seed));
        let budget = PowerBudget::cost_performance(threads);

        let run = |observer: &mut Audit| {
            let mut m = machine.clone();
            run_trial(
                &mut m,
                &workload,
                SchedulerSpec::ThermalMap,
                ManagerSpec::LinOpt,
                budget,
                &runtime,
                &plan,
                &mut SimRng::seed_from(1000 + seed),
                observer,
            )
            .expect("faulted thermal-map trial completes")
        };
        let mut audit = Audit::default();
        let outcome = run(&mut audit);
        assert_eq!(
            audit.violations, 0,
            "seed {seed}: thermal mapper left a thread on a dead core"
        );
        assert_eq!(audit.dead.len(), n_failures, "seed {seed}");
        assert!(outcome.mips > 0.0, "seed {seed}: throughput must flow");
        let rerun = run(&mut Audit::default());
        assert_eq!(outcome, rerun, "seed {seed}: faulted run not reproducible");
    }
}

/// Online loop, closed system: with arrivals disabled and free
/// migration, `run_online` must reproduce the batch `run_trial`
/// outcome exactly — same RNG stream, same epochs, same metrics —
/// across a grid of seeds, occupancies, and control policies.
#[test]
fn zero_arrival_online_equals_batch_trial() {
    use vasp::cmpsim::{app_pool, FaultPlan, Machine, MachineConfig, Mix, Workload};
    use vasp::floorplan::paper_20_core;
    use vasp::varius::{DieGenerator, VariationConfig};
    use vasp::vasched::manager::ManagerSpec;
    use vasp::vasched::online::{run_online, ArrivalConfig, OnlineConfig, ServicePolicy};
    use vasp::vasched::runtime::{run_trial, NullObserver, RuntimeConfig};

    let cfg = VariationConfig {
        grid: 20,
        ..VariationConfig::paper_default()
    };
    let generator = DieGenerator::new(cfg).expect("valid config");
    let runtime = RuntimeConfig::builder()
        .duration_ms(40.0)
        .os_interval_ms(20.0)
        .build()
        .unwrap();
    let cases = [
        (2usize, SchedulerSpec::VarFAppIpc, ManagerSpec::LinOpt),
        (6, SchedulerSpec::VarP, ManagerSpec::FoxtonStar),
        (11, SchedulerSpec::VarFAppIpc, ManagerSpec::ChipWide),
        (20, SchedulerSpec::Random, ManagerSpec::LinOpt),
    ];
    for seed in 0u64..6 {
        for &(threads, policy, manager) in &cases {
            let die = generator.generate(&mut SimRng::seed_from(900 + seed));
            let machine = Machine::new(&die, &paper_20_core(), MachineConfig::paper_default());
            let pool = app_pool(&machine.config().dynamic);
            let budget = PowerBudget::cost_performance(threads);

            let mut batch_rng = SimRng::seed_from(31 * seed + 7);
            let workload = Workload::draw_mix(&pool, threads, Mix::Balanced, &mut batch_rng);
            let mut batch_machine = machine.clone();
            let batch = run_trial(
                &mut batch_machine,
                &workload,
                policy,
                manager,
                budget,
                &runtime,
                &FaultPlan::none(),
                &mut batch_rng,
                &mut NullObserver,
            )
            .expect("valid trial");

            let config = OnlineConfig {
                runtime,
                arrivals: ArrivalConfig::closed(),
                initial_jobs: threads,
                migration_penalty_ms: 0.0,
                service: ServicePolicy::default(),
            };
            let mut online_machine = machine.clone();
            let online = run_online(
                &mut online_machine,
                &pool,
                Mix::Balanced,
                policy,
                manager,
                budget,
                &config,
                &FaultPlan::none(),
                &mut SimRng::seed_from(31 * seed + 7),
                &mut NullObserver,
            )
            .expect("valid trial");

            assert_eq!(
                online.chip, batch,
                "seed {seed}, {threads} threads, {policy:?}, {manager:?}"
            );
            assert_eq!(online.arrived, threads, "seed {seed}");
            assert_eq!(online.completed, 0, "closed jobs never complete");
        }
    }
}

/// A random JSON document, depth-bounded so generation terminates:
/// scalars get likelier as `depth` falls.
fn arbitrary_json(rng: &mut SimRng, depth: usize) -> vasp::vasched::obs::JsonValue {
    use vasp::vasched::obs::JsonValue;
    let container_odds = if depth == 0 { 0.0 } else { 0.4 };
    if rng.uniform(0.0, 1.0) < container_odds {
        let len = rng.uniform(0.0, 4.0) as usize;
        if rng.uniform(0.0, 1.0) < 0.5 {
            JsonValue::Arr((0..len).map(|_| arbitrary_json(rng, depth - 1)).collect())
        } else {
            JsonValue::Obj(
                (0..len)
                    .map(|i| (arbitrary_string(rng, i), arbitrary_json(rng, depth - 1)))
                    .collect(),
            )
        }
    } else {
        match rng.uniform(0.0, 4.0) as usize {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.uniform(0.0, 1.0) < 0.5),
            2 => JsonValue::Num(arbitrary_number(rng)),
            _ => JsonValue::Str(arbitrary_string(rng, 7)),
        }
    }
}

/// Numbers across the magnitudes traces actually carry: exact
/// integers, unit-scale reals, large/tiny magnitudes, negative zero.
fn arbitrary_number(rng: &mut SimRng) -> f64 {
    match rng.uniform(0.0, 5.0) as usize {
        0 => rng.uniform(-100.0, 100.0).round(),
        1 => rng.uniform(-1.0, 1.0),
        2 => rng.uniform(-1.0, 1.0) * 4.0e9,
        3 => rng.uniform(-1.0, 1.0) * 1.0e-9,
        _ => -0.0,
    }
}

/// Strings exercising every escape class the writer knows: quotes,
/// backslashes, named escapes, other control characters, non-ASCII.
fn arbitrary_string(rng: &mut SimRng, salt: usize) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '3', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'µ', '€',
    ];
    let len = rng.uniform(0.0, 8.0) as usize;
    let mut s = format!("k{salt}");
    for _ in 0..len {
        s.push(ALPHABET[rng.uniform(0.0, ALPHABET.len() as f64) as usize]);
    }
    s
}

/// `obs::json`: writing any nested value and parsing it back yields an
/// equal value, and re-writing the parse is byte-identical (the writer
/// is a fixed point) — the property the snapshot codec and the trace
/// goldens lean on.
#[test]
fn json_writer_parser_round_trip_on_arbitrary_documents() {
    use vasp::vasched::obs::parse_json;
    for seed in 0u64..200 {
        let mut rng = SimRng::seed_from(0x15_0000 + seed);
        let value = arbitrary_json(&mut rng, 4);
        let text = value.to_json();
        let parsed = parse_json(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: writer output must parse ({e}): {text}"));
        assert_eq!(parsed, value, "seed {seed}: round trip changed the value");
        assert_eq!(
            parsed.to_json(),
            text,
            "seed {seed}: writer is not a fixed point"
        );
    }
}
