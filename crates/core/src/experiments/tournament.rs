//! The standing manager tournament (beyond the paper): every
//! registered contender — a ([`SchedulerSpec`], [`ManagerSpec`]) pair —
//! crossed against every scenario on four axes (batch vs. online
//! serving, clean vs. faulty silicon, tight vs. generous budget,
//! paper 20-core vs. small 12-core die), scored per scenario on
//! throughput, `ED²`, budget-tracking error, and (online) p99 latency,
//! and ranked into one report.
//!
//! The single-figure experiments each compare two or three algorithms
//! on one axis at a time; the tournament is the *standing* cross
//! product, so a new manager lands in every cell the day it registers
//! a spec. Scenarios use common random numbers — within a scenario,
//! every contender replays the identical dies and workloads — so a
//! score gap is the control policy, not sampling luck.
//!
//! Determinism contract: the report is a pure function of
//! (scale, seed). Jobs fan out through [`TrialRunner::map`], which is
//! bit-identical at any worker count, and every emitted artifact
//! ([`TournamentReport::csv`], [`TournamentReport::to_jsonl`]) formats
//! floats through the shortest-roundtrip writer — the smoke report is
//! pinned byte-for-byte at `tests/golden/tournament_smoke.jsonl` by
//! `tests/tournament.rs`.

use super::{Context, Scale};
use crate::engine::{SeedPlan, TrialRunner};
use crate::manager::{ManagerSpec, PowerBudget};
use crate::obs::json::{push_json_f64, push_json_str};
use crate::obs::MetricsRegistry;
use crate::online::{run_online, ArrivalConfig, OnlineConfig, ServicePolicy};
use crate::runtime::{run_trial, NullObserver, RuntimeConfig};
use crate::sched::SchedulerSpec;
use cmpsim::{app_pool, AppSpec, FaultPlan, Mix, Workload};
use floorplan::{paper_20_core, Floorplan, FloorplanBuilder};
use std::fmt::Write as _;
use varius::VariationConfig;
use vastats::SimRng;

/// Master seed of the committed smoke report. Regenerate the golden
/// with `UPDATE_GOLDENS=1 cargo test --test tournament`.
pub const TOURNAMENT_GOLDEN_SEED: u64 = 20_080_915;

/// Schema tag of the JSONL report.
pub const SCHEMA: &str = "vasp.tournament.v1";

/// Offered serving load per core (jobs/s) in the online scenarios —
/// the fleet experiments' near-saturation point expressed per core, so
/// both chip sizes run equally hot.
pub const ARRIVAL_RATE_PER_CORE_PER_S: f64 = 75.0;

/// Mean online job size (instructions), matching the fleet stream.
pub const MEAN_JOB_INSTRUCTIONS: f64 = 3.0e6;

/// One entrant: a stable display name over a scheduler × manager pair.
/// The name is the identity the reports and metrics key on — changing
/// one invalidates the committed golden.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contender {
    /// Stable report/trace name.
    pub name: &'static str,
    /// Thread-placement policy.
    pub policy: SchedulerSpec,
    /// Power-management algorithm.
    pub manager: ManagerSpec,
}

/// The standing roster, strongest-prior first: the paper's algorithms,
/// the integral regulator, and the thermal mapper (which varies the
/// *scheduler* while holding the paper's best manager fixed).
pub fn contenders() -> Vec<Contender> {
    let entry = |name, policy, manager| Contender {
        name,
        policy,
        manager,
    };
    vec![
        entry("LinOpt", SchedulerSpec::VarFAppIpc, ManagerSpec::LinOpt),
        entry("IntReg", SchedulerSpec::VarFAppIpc, {
            ManagerSpec::integral_regulator()
        }),
        entry(
            "Foxton*",
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::FoxtonStar,
        ),
        entry("ChipWide", SchedulerSpec::VarFAppIpc, ManagerSpec::ChipWide),
        entry("ThermalMap", SchedulerSpec::ThermalMap, ManagerSpec::LinOpt),
    ]
}

/// Execution mode axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fixed workload over the whole horizon ([`run_trial`]).
    Batch,
    /// Poisson arrivals with windowed rescheduling and deadline
    /// shedding ([`run_online`]).
    Online,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Batch => "batch",
            Mode::Online => "online",
        }
    }
}

/// Chip-size axis: core grid plus die area (scaled so power density
/// matches the paper die).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSize {
    /// Core-array columns.
    pub cols: usize,
    /// Core-array rows.
    pub rows: usize,
}

impl ChipSize {
    /// The paper's 20-core, 340 mm² die.
    pub fn paper() -> Self {
        Self { cols: 5, rows: 4 }
    }

    /// A 12-core die at the paper's area per core.
    pub fn small() -> Self {
        Self { cols: 4, rows: 3 }
    }

    /// Number of cores.
    pub fn cores(self) -> usize {
        self.cols * self.rows
    }

    /// The floorplan: the exact paper layout at 20 cores, otherwise
    /// the generalized grid at the paper's 17 mm²/core area.
    pub fn floorplan(self) -> Floorplan {
        if self.cols == 5 && self.rows == 4 {
            return paper_20_core();
        }
        let side = (340.0 * self.cores() as f64 / 20.0).sqrt();
        FloorplanBuilder::new(side, side)
            .core_grid(self.cols, self.rows)
            .build()
    }
}

/// One cell of the cross product: a named combination of the four
/// scenario axes every contender runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable report name, e.g. `batch/faulty/50W/12c`.
    pub name: String,
    /// Batch or online serving.
    pub mode: Mode,
    /// Whether the fault plan is active.
    pub faulty: bool,
    /// Budget base (watts per 20 threads; [`PowerBudget::scaled`]).
    pub base_w: f64,
    /// Die size.
    pub chip: ChipSize,
}

/// The full scenario grid: mode × faults × budget × chip size
/// (16 scenarios), in fixed report order.
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::with_capacity(16);
    for mode in [Mode::Batch, Mode::Online] {
        for faulty in [false, true] {
            for base_w in [50.0, 100.0] {
                for chip in [ChipSize::paper(), ChipSize::small()] {
                    out.push(Scenario {
                        name: format!(
                            "{}/{}/{:.0}W/{}c",
                            mode.name(),
                            if faulty { "faulty" } else { "clean" },
                            base_w,
                            chip.cores()
                        ),
                        mode,
                        faulty,
                        base_w,
                        chip,
                    });
                }
            }
        }
    }
    out
}

/// The fault plan faulty scenarios inject: one mid-horizon core
/// failure, mild sensor noise, and a transient budget dip — every
/// degradation path the hardened wrapper handles, scaled to the
/// horizon so smoke and paper runs exercise the same phases.
pub fn fault_plan(duration_ms: f64, cores: usize) -> FaultPlan {
    FaultPlan::none()
        .with_core_failure(cores / 2, 0.3 * duration_ms)
        .with_sensor_noise(0.05)
        .with_budget_drop(0.5 * duration_ms, 0.8 * duration_ms, 0.75)
}

/// Per-trial measurements one job returns.
#[derive(Debug, Clone, Copy)]
struct TrialSample {
    mips: f64,
    ed2: f64,
    budget_err_frac: f64,
    p99_ms: Option<f64>,
}

/// One (scenario, contender) cell: metric means over the trials plus
/// the normalized scenario score.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Contender name ([`Contender::name`]).
    pub contender: &'static str,
    /// Mean chip throughput (MIPS).
    pub mips: f64,
    /// Mean `ED²` index (may be non-finite if nothing retired).
    pub ed2: f64,
    /// Mean absolute budget-tracking error as a fraction of the chip
    /// budget ([`crate::runtime::TrialOutcome::power_deviation_frac`]).
    pub budget_err_frac: f64,
    /// Mean p99 arrival-to-completion latency (ms); `None` in batch
    /// scenarios or when nothing completed.
    pub p99_ms: Option<f64>,
    /// Normalized score in [0, 1]: mean over the scenario's available
    /// metrics of this cell's ratio to the scenario's best.
    pub score: f64,
}

/// Final standing of one contender.
#[derive(Debug, Clone)]
pub struct Ranking {
    /// Contender name.
    pub contender: &'static str,
    /// Mean scenario score (the ranking key, higher is better).
    pub score: f64,
    /// Scenarios this contender scored highest in.
    pub wins: usize,
}

/// The ranked tournament report.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// Scenario names, in [`scenarios`] order.
    pub scenarios: Vec<String>,
    /// `cells[scenario][contender]` in [`contenders`] order.
    pub cells: Vec<Vec<CellResult>>,
    /// Contenders sorted by descending score (ties broken by name).
    pub ranking: Vec<Ranking>,
    /// Trials behind every cell mean.
    pub trials: usize,
}

/// Runs the tournament at the process-default worker count.
pub fn run(scale: &Scale, seed: u64) -> TournamentReport {
    run_with_workers(scale, seed, TrialRunner::new().workers())
}

/// The committed smoke scale: one trial over the full grid at 40 ms,
/// seconds of wall clock — determinism fidelity, not model fidelity.
pub fn golden_scale() -> Scale {
    Scale {
        trials: 1,
        duration_ms: 40.0,
        ..Scale::smoke()
    }
}

/// Runs the committed smoke scenario whose JSONL report is pinned at
/// `tests/golden/tournament_smoke.jsonl`.
pub fn run_golden_scenario() -> TournamentReport {
    run(&golden_scale(), TOURNAMENT_GOLDEN_SEED)
}

/// Runs the tournament with an explicit worker count; the report is
/// byte-identical across worker counts (the determinism gate runs this
/// at 1, 2, and 8 workers).
pub fn run_with_workers(scale: &Scale, seed: u64, workers: usize) -> TournamentReport {
    let roster = contenders();
    let grid = scenarios();
    let trials = scale.trials.max(1);

    // One context per die size, shared by every job (covariance is
    // factorized once per context).
    let ctx_of = |chip: ChipSize| {
        Context::with_floorplan(
            chip.floorplan(),
            VariationConfig {
                grid: scale.grid,
                ..VariationConfig::paper_default()
            },
        )
    };
    let ctx_paper = ctx_of(ChipSize::paper());
    let ctx_small = ctx_of(ChipSize::small());
    let pool = app_pool(&ctx_paper.machine_config().dynamic);

    let plan = SeedPlan::default();
    let runner = TrialRunner::with_workers(workers);
    let per_contender = trials;
    let per_scenario = roster.len() * per_contender;
    let samples: Vec<TrialSample> = runner.map(grid.len() * per_scenario, |i| {
        let scenario = &grid[i / per_scenario];
        let contender = &roster[(i % per_scenario) / per_contender];
        let trial = i % per_contender;
        let ctx = if scenario.chip == ChipSize::paper() {
            &ctx_paper
        } else {
            &ctx_small
        };
        // The trial seed depends on (scenario, trial) only, so every
        // contender in a scenario replays the identical die, workload,
        // faults, and RNG stream — common random numbers.
        let scenario_idx = i / per_scenario;
        let trial_seed = plan.derive(seed, scenario_idx * trials + trial);
        run_cell(ctx, &pool, scenario, contender, scale, trial_seed)
    });

    // Aggregate trials into cell means, then normalize per scenario.
    let mut cells: Vec<Vec<CellResult>> = Vec::with_capacity(grid.len());
    for (s, _) in grid.iter().enumerate() {
        let mut row: Vec<CellResult> = roster
            .iter()
            .enumerate()
            .map(|(c, contender)| {
                let base = s * per_scenario + c * per_contender;
                mean_cell(contender.name, &samples[base..base + per_contender])
            })
            .collect();
        score_scenario(&mut row);
        cells.push(row);
    }

    let ranking = rank(&roster, &cells);
    TournamentReport {
        scenarios: grid.into_iter().map(|s| s.name).collect(),
        cells,
        ranking,
        trials,
    }
}

/// Runs one (scenario, contender, trial) job.
fn run_cell(
    ctx: &Context,
    pool: &[AppSpec],
    scenario: &Scenario,
    contender: &Contender,
    scale: &Scale,
    trial_seed: u64,
) -> TrialSample {
    let cores = scenario.chip.cores();
    let threads = cores * 4 / 5;
    let budget = PowerBudget::scaled(scenario.base_w, threads);
    let runtime = RuntimeConfig {
        duration_ms: scale.duration_ms,
        os_interval_ms: scale.duration_ms.min(100.0),
        ..RuntimeConfig::paper_default()
    };
    let faults = if scenario.faulty {
        fault_plan(scale.duration_ms, cores)
    } else {
        FaultPlan::none()
    };

    let mut rng = SimRng::seed_from(trial_seed);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);

    match scenario.mode {
        Mode::Batch => {
            let workload = Workload::draw(pool, threads, &mut rng);
            let outcome = run_trial(
                &mut machine,
                &workload,
                contender.policy,
                contender.manager,
                budget,
                &runtime,
                &faults,
                &mut rng,
                &mut NullObserver,
            )
            .expect("tournament cell is a valid trial");
            TrialSample {
                mips: outcome.mips,
                ed2: outcome.ed2,
                budget_err_frac: outcome.power_deviation_frac,
                p99_ms: None,
            }
        }
        Mode::Online => {
            let config = OnlineConfig {
                runtime,
                arrivals: ArrivalConfig::poisson(
                    ARRIVAL_RATE_PER_CORE_PER_S * cores as f64,
                    MEAN_JOB_INSTRUCTIONS,
                ),
                initial_jobs: threads,
                migration_penalty_ms: 1.0,
                service: ServicePolicy {
                    reschedule_window_ms: 20.0,
                    deadline_slack: 1.5,
                },
            };
            let outcome = run_online(
                &mut machine,
                pool,
                Mix::Balanced,
                contender.policy,
                contender.manager,
                budget,
                &config,
                &faults,
                &mut rng,
                &mut NullObserver,
            )
            .expect("tournament cell is a valid online run");
            TrialSample {
                mips: outcome.chip.mips,
                ed2: outcome.chip.ed2,
                budget_err_frac: outcome.chip.power_deviation_frac,
                p99_ms: outcome.latency.map(|l| l.p99_ms),
            }
        }
    }
}

/// Averages one cell's trials. `p99` is `None` unless every trial
/// produced a latency summary (a single starved trial voids the
/// metric rather than skewing the mean).
fn mean_cell(name: &'static str, samples: &[TrialSample]) -> CellResult {
    let n = samples.len() as f64;
    let mean = |f: &dyn Fn(&TrialSample) -> f64| samples.iter().map(f).sum::<f64>() / n;
    let p99 = samples
        .iter()
        .map(|s| s.p99_ms)
        .sum::<Option<f64>>()
        .map(|total| total / n);
    CellResult {
        contender: name,
        mips: mean(&|s| s.mips),
        ed2: mean(&|s| s.ed2),
        budget_err_frac: mean(&|s| s.budget_err_frac),
        p99_ms: p99,
        score: 0.0,
    }
}

/// Scores one scenario row in place: each metric normalizes to the
/// row's best (1.0 = best in scenario), the cell score is the mean of
/// its available metrics.
fn score_scenario(row: &mut [CellResult]) {
    const EPS: f64 = 1e-9;
    // Higher is better.
    let best_mips = row.iter().map(|c| c.mips).fold(0.0, f64::max);
    // Lower is better; non-finite values never set the bar.
    let best_lo = |f: &dyn Fn(&CellResult) -> f64| {
        row.iter()
            .map(f)
            .filter(|v| v.is_finite())
            .fold(f64::INFINITY, f64::min)
    };
    let best_ed2 = best_lo(&|c| c.ed2);
    let best_err = best_lo(&|c| c.budget_err_frac);
    let best_p99 = best_lo(&|c| c.p99_ms.unwrap_or(f64::INFINITY));
    let lo_score = |v: f64, best: f64| {
        if v.is_finite() && best.is_finite() {
            (best + EPS) / (v + EPS)
        } else {
            0.0
        }
    };
    for cell in row.iter_mut() {
        let mut parts = vec![
            if best_mips > 0.0 {
                cell.mips / best_mips
            } else {
                1.0
            },
            lo_score(cell.ed2, best_ed2),
            lo_score(cell.budget_err_frac, best_err),
        ];
        if let Some(p99) = cell.p99_ms {
            parts.push(lo_score(p99, best_p99));
        }
        cell.score = parts.iter().sum::<f64>() / parts.len() as f64;
    }
}

/// Ranks contenders by mean scenario score, descending; ties break by
/// name so the order is total and the report deterministic.
fn rank(roster: &[Contender], cells: &[Vec<CellResult>]) -> Vec<Ranking> {
    let mut out: Vec<Ranking> = roster
        .iter()
        .enumerate()
        .map(|(c, contender)| {
            let score =
                cells.iter().map(|row| row[c].score).sum::<f64>() / cells.len().max(1) as f64;
            let wins = cells
                .iter()
                .filter(|row| row.iter().all(|other| other.score <= row[c].score))
                .count();
            Ranking {
                contender: contender.name,
                score,
                wins,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        // Descending score; a NaN score ranks last instead of panicking
        // the whole tournament.
        crate::order::desc_nan_worst(a.score, b.score).then_with(|| a.contender.cmp(b.contender))
    });
    out
}

impl TournamentReport {
    /// The winner's name.
    pub fn winner(&self) -> &'static str {
        self.ranking[0].contender
    }

    /// The ranked report as CSV: one row per (scenario, contender)
    /// cell, then one `overall` row per contender in rank order.
    pub fn csv(&self) -> String {
        let mut out = String::from("scenario,contender,mips,ed2,budget_err_frac,p99_ms,score\n");
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                String::new()
            }
        };
        for (name, row) in self.scenarios.iter().zip(&self.cells) {
            for cell in row {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{}",
                    name,
                    cell.contender,
                    num(cell.mips),
                    num(cell.ed2),
                    num(cell.budget_err_frac),
                    cell.p99_ms.map(num).unwrap_or_default(),
                    num(cell.score),
                );
            }
        }
        for r in &self.ranking {
            let _ = writeln!(out, "overall,{},,,,,{}", r.contender, num(r.score));
        }
        out
    }

    /// The ranked report as JSONL (schema [`SCHEMA`]): a header line,
    /// one `cell` record per (scenario, contender), and one `rank`
    /// record per contender in final order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{}\",\"scenarios\":{},\"contenders\":{},\"trials\":{}}}",
            SCHEMA,
            self.scenarios.len(),
            self.cells.first().map_or(0, Vec::len),
            self.trials
        );
        for (name, row) in self.scenarios.iter().zip(&self.cells) {
            for cell in row {
                out.push_str("{\"kind\":\"cell\",\"scenario\":");
                push_json_str(&mut out, name);
                out.push_str(",\"contender\":");
                push_json_str(&mut out, cell.contender);
                out.push_str(",\"mips\":");
                push_json_f64(&mut out, cell.mips);
                out.push_str(",\"ed2\":");
                push_json_f64(&mut out, cell.ed2);
                out.push_str(",\"budget_err_frac\":");
                push_json_f64(&mut out, cell.budget_err_frac);
                out.push_str(",\"p99_ms\":");
                match cell.p99_ms {
                    Some(v) => push_json_f64(&mut out, v),
                    None => out.push_str("null"),
                }
                out.push_str(",\"score\":");
                push_json_f64(&mut out, cell.score);
                out.push_str("}\n");
            }
        }
        for (i, r) in self.ranking.iter().enumerate() {
            out.push_str("{\"kind\":\"rank\",\"rank\":");
            let _ = write!(out, "{}", i + 1);
            out.push_str(",\"contender\":");
            push_json_str(&mut out, r.contender);
            out.push_str(",\"score\":");
            push_json_f64(&mut out, r.score);
            let _ = writeln!(out, ",\"wins\":{}}}", r.wins);
        }
        out
    }

    /// Records the tournament's summary metrics: grid dimensions as
    /// counters plus one score gauge per contender (static names, so
    /// the registry stays `&'static str`-keyed).
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        registry.inc("tournament.scenarios", self.scenarios.len() as u64);
        registry.inc(
            "tournament.cells",
            self.cells.iter().map(Vec::len).sum::<usize>() as u64,
        );
        registry.inc(
            "tournament.trials",
            (self.scenarios.len() * self.trials * self.cells.first().map_or(0, Vec::len)) as u64,
        );
        for r in &self.ranking {
            if let Some(name) = score_gauge(r.contender) {
                registry.set_gauge(name, r.score);
            }
        }
        registry.set_gauge("tournament.top_score", self.ranking[0].score);
    }
}

/// Static gauge name for a roster contender (`None` for names outside
/// the standing roster — a private fork's extra entrant simply gets no
/// gauge).
fn score_gauge(contender: &str) -> Option<&'static str> {
    Some(match contender {
        "LinOpt" => "tournament.score.linopt",
        "IntReg" => "tournament.score.intreg",
        "Foxton*" => "tournament.score.foxton_star",
        "ChipWide" => "tournament.score.chip_wide",
        "ThermalMap" => "tournament.score.thermal_map",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_scale() -> Scale {
        Scale {
            trials: 1,
            duration_ms: 40.0,
            ..Scale::smoke()
        }
    }

    /// A NaN cell score (e.g. a degenerate `ED²`) must rank last, not
    /// panic the whole tournament or win the table.
    #[test]
    fn nan_score_ranks_last_instead_of_panicking() {
        let roster: Vec<Contender> = contenders().into_iter().take(2).collect();
        let cell = |contender: &'static str, score: f64| CellResult {
            contender,
            mips: 1.0,
            ed2: 1.0,
            budget_err_frac: 0.0,
            p99_ms: None,
            score,
        };
        let cells = vec![vec![
            cell(roster[0].name, f64::NAN),
            cell(roster[1].name, 0.5),
        ]];
        let ranking = rank(&roster, &cells);
        assert_eq!(ranking[0].contender, roster[1].name);
        assert!(ranking[1].score.is_nan());
    }

    #[test]
    fn grid_covers_all_four_axes() {
        let grid = scenarios();
        assert_eq!(grid.len(), 16);
        let count = |f: &dyn Fn(&Scenario) -> bool| grid.iter().filter(|s| f(s)).count();
        assert_eq!(count(&|s| s.mode == Mode::Batch), 8);
        assert_eq!(count(&|s| s.faulty), 8);
        assert_eq!(count(&|s| s.base_w == 50.0), 8);
        assert_eq!(count(&|s| s.chip.cores() == 12), 8);
        // Names are unique — they key the report.
        let mut names: Vec<_> = grid.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn report_is_complete_and_scored() {
        let report = run(&smoke_scale(), 3);
        let n = contenders().len();
        assert_eq!(report.scenarios.len(), 16);
        assert_eq!(report.cells.len(), 16);
        assert_eq!(report.ranking.len(), n);
        for row in &report.cells {
            assert_eq!(row.len(), n);
            let best = row.iter().map(|c| c.score).fold(0.0, f64::max);
            assert!(
                (best - 1.0).abs() < 0.35,
                "someone should be near the per-scenario frontier, best {best}"
            );
            for cell in row {
                assert!(cell.mips > 0.0, "every cell must retire work");
                assert!((0.0..=1.0 + 1e-9).contains(&cell.score));
            }
        }
        // Online rows carry p99, batch rows do not.
        for (name, row) in report.scenarios.iter().zip(&report.cells) {
            let online = name.starts_with("online");
            for cell in row {
                assert_eq!(cell.p99_ms.is_some(), online, "{name}/{}", cell.contender);
            }
        }
        // Rank order is by descending score.
        for pair in report.ranking.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn artifacts_and_metrics_are_consistent() {
        let report = run(&smoke_scale(), 3);
        let n = contenders().len();
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1 + 16 * n + n);
        assert!(jsonl.starts_with("{\"schema\":\"vasp.tournament.v1\""));
        // Every line parses.
        for line in jsonl.lines() {
            crate::obs::parse_json(line).expect("valid JSON record");
        }
        let csv = report.csv();
        assert_eq!(csv.lines().count(), 1 + 16 * n + n);
        let mut registry = MetricsRegistry::new();
        report.record_metrics(&mut registry);
        assert_eq!(registry.counter("tournament.scenarios"), 16);
        assert_eq!(
            registry.gauge("tournament.top_score"),
            Some(report.ranking[0].score)
        );
    }
}
