//! One benchmark run: set-up timings, measured rounds for a fixed host
//! time, correctness checks, and the metrics derived from them.

use crate::host;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::outcome::{value, Round, Values};
use crate::stats::{median, percentile, sorted, tail};
use crate::workload::{Kind, SetupTiming, Sizing, Trace, Workload};
use std::time::Instant;
use vasched::obs::JsonValue;

/// Set-ups timed per run at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Share of the run's measuring time spent timing set-ups at least
/// (small set-ups repeat), capped at [`SETUP_MAX_S`].
pub const SETUP_SHARE: f64 = 0.06;
/// Host seconds of set-up timing a run never needs to exceed.
pub const SETUP_MAX_S: f64 = 1.5;
/// Set-ups timed per run at most.
pub const SETUP_MAX_REPS: usize = 50;
/// Untraced rounds a run makes at least, however long they take.
pub const MIN_ROUNDS: usize = 3;
/// Worker threads of every engine runner and fleet shard set.
pub const WORKERS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub kind: Kind,
    /// Master seed: every input is derived from it.
    pub seed: u64,
    /// Host seconds to keep running rounds for.
    pub seconds: f64,
    /// Report per-layer metrics from traced rounds instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Workload sizes.
    pub sizing: Sizing,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Digest of the simulated outputs (identical in every round).
    pub digest: u64,
    /// Rounds run.
    pub attempted: usize,
    /// Rounds that failed a check.
    pub failed: usize,
    /// Named failed checks (empty when the run is correct).
    pub failures: Vec<String>,
    /// The catalog metrics of this mode, in catalog order: end-to-end
    /// when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Catalog metrics this workload does not measure (a layer it never
    /// runs, or a percentile with too few samples beyond it), reported
    /// as 0.
    pub not_applicable: Vec<&'static str>,
    /// Context printed beside the metrics (round-time spread, the
    /// percentile each tail reports, secondary simulated outputs).
    pub info: Vec<Metric>,
}

impl RunReport {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The final output line: `correct`, `attempted`, `failed`, and
    /// every catalog metric with its unit.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".to_string(), JsonValue::Num(m.value)),
                        ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::Num(self.attempted as f64),
            ),
            ("failed".to_string(), JsonValue::Num(self.failed as f64)),
            ("metrics".to_string(), JsonValue::Obj(metrics)),
        ])
        .to_json()
    }
}

/// Runs one workload: times the set-up [`SETUP_REPS`] times or more,
/// then runs rounds (alternating untraced and traced ones when
/// tracing), each followed by a host-speed reference timing, until
/// `seconds` have passed and at least [`MIN_ROUNDS`] untraced rounds
/// are done; then checks and summarizes them.
pub fn run(opts: &RunOptions) -> RunReport {
    let mut refs: Vec<f64> = (0..3).map(|_| host::reference_s(WORKERS)).collect();
    let setups = time_setups(opts);
    let wl = Workload::new(opts.kind, opts.sizing.clone(), opts.seed);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<(Round, Trace)> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        rounds.push(wl.round(WORKERS));
        refs.push(host::reference_s(WORKERS));
        if opts.trace {
            traced.push(wl.traced_round(WORKERS));
        }
    }

    let mut failures = Vec::new();
    let reference = rounds[0].digest;
    let mut failed = 0;
    let all = rounds
        .iter()
        .map(|r| ("untraced", r))
        .chain(traced.iter().map(|(r, _)| ("traced", r)));
    for (i, (label, round)) in all.enumerate() {
        let mut bad = false;
        if round.digest != reference {
            bad = true;
            failures.push(format!(
                "digest: {label} round {i} gave {:016x}, round 0 gave {reference:016x}",
                round.digest
            ));
        }
        for p in &round.problems {
            bad = true;
            failures.push(format!("{label} round {i}: {p}"));
        }
        for (name, v) in round.values.iter().filter(|(_, v)| !v.is_finite()) {
            bad = true;
            failures.push(format!("finite: {label} round {i}: {name} is {v}"));
        }
        failed += usize::from(bad);
    }

    // How much slower than the development host this run's host was at
    // its best (> 1: slower); see `host`.
    let host_factor = min(&refs) / host::NOMINAL_S;
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let sim_ms_per_s = wl.sim_chip_ms() / min(&walls);
    let mut info = vec![
        metric("rounds", rounds.len() as f64, "count"),
        metric("round_s_min", min(&walls), "s"),
        metric("round_s_median", median(&walls), "s"),
        metric(
            "round_s_max",
            walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        metric("sim_chip_ms_per_round", wl.sim_chip_ms(), "chip-ms"),
        metric("sim_ms_per_s.raw", sim_ms_per_s, "chip-ms/s"),
        metric("setup_s.raw", setup_s, "s"),
        metric("setup.reps", setups.len() as f64, "count"),
        metric("host.reference_s_min", min(&refs), "s"),
        metric("host.factor", host_factor, "ratio"),
    ];
    let catalog: &[MetricDef] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, v) in &rounds[0].values {
        if !catalog.iter().any(|d| d.name == name) {
            info.push(metric(name, v, unit_of(name)));
        }
    }

    let measured: Values = if opts.trace {
        let (layers, notes) = per_layer(&wl, &setups, &rounds, &traced);
        info.extend(notes);
        layers
    } else {
        vec![
            ("setup_s", setup_s / host_factor),
            ("sim_ms_per_s", sim_ms_per_s * host_factor),
            (
                "throughput_ratio",
                value(&rounds[0].values, "throughput_ratio"),
            ),
        ]
    };
    let mut not_applicable = Vec::new();
    let metrics: Vec<Metric> = catalog
        .iter()
        .map(|d| {
            let found = measured.iter().find(|(n, _)| *n == d.name);
            if found.is_none() {
                not_applicable.push(d.name);
            }
            metric(d.name, found.map_or(0.0, |&(_, v)| v), d.unit)
        })
        .collect();
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("finite: metric {} is {}", m.name, m.value));
        }
    }
    RunReport {
        digest: reference,
        attempted: rounds.len() + traced.len(),
        failed,
        failures,
        metrics,
        not_applicable,
        info,
    }
}

/// Times set-ups until at least [`SETUP_REPS`] are done and they took
/// [`SETUP_SHARE`] of the run's seconds (at most [`SETUP_MAX_S`])
/// together, or [`SETUP_MAX_REPS`] are done: small set-ups are
/// repeated more, so their median is as steady as a large one's.
fn time_setups(opts: &RunOptions) -> Vec<SetupTiming> {
    let budget_s = (SETUP_SHARE * opts.seconds).min(SETUP_MAX_S);
    let mut setups = Vec::new();
    let mut total = 0.0;
    while setups.len() < SETUP_MAX_REPS && (setups.len() < SETUP_REPS || total < budget_s) {
        let s = Workload::time_setup(opts.kind, &opts.sizing, opts.seed);
        total += s.total_s;
        setups.push(s);
    }
    setups
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Units of the secondary simulated outputs printed as info.
fn unit_of(name: &str) -> &'static str {
    match name {
        "throughput_ratio" | "ed2_ratio" => "ratio",
        "power.budget_err_pct" => "%",
        "serve.jobs_per_s" => "1/s",
        n if n.starts_with("serve.latency_ms") => "ms",
        n if n.ends_with("_frac") => "frac",
        _ => "count",
    }
}

/// The per-layer metrics: per traced round, then the median across
/// traced rounds, plus the run-level ones (construction, profiling
/// micro-timing, memory, tracing overhead). Also returns the
/// percentile each `_tail` metric reports.
fn per_layer(
    wl: &Workload,
    setups: &[SetupTiming],
    rounds: &[Round],
    traced: &[(Round, Trace)],
) -> (Values, Vec<Metric>) {
    let per_die = |f: fn(&SetupTiming) -> f64| {
        let v: Vec<f64> = setups
            .iter()
            .map(|s| {
                if s.dies > 0 {
                    f(s) / s.dies as f64
                } else {
                    0.0
                }
            })
            .collect();
        median(&v)
    };
    let die_s = per_die(|s| s.make_die_s);
    let machine_s = per_die(|s| s.make_machine_s);

    let per_round: Vec<(Values, Vec<Metric>)> = traced
        .iter()
        .map(|(round, trace)| layer_round(wl, round, trace))
        .collect();
    let mut out: Values = per_round[0]
        .0
        .iter()
        .map(|&(name, _)| {
            let v: Vec<f64> = per_round.iter().map(|(m, _)| value(m, name)).collect();
            (name, median(&v))
        })
        .collect();

    // Each traced round runs right after an untraced one; the median of
    // their ratios cancels host drift that spans more than a pair.
    let overhead: Vec<f64> = rounds
        .iter()
        .zip(traced)
        .map(|(u, (t, _))| t.wall_s / u.wall_s)
        .collect();
    out.extend([
        ("varius.make_die_ms", die_s * 1e3),
        ("cmpsim.make_machine_ms", machine_s * 1e3),
        (
            "fleet.build_chips_s",
            median(&setups.iter().map(|s| s.build_chips_s).collect::<Vec<_>>()),
        ),
        ("profile.thread_profiles_us", wl.time_thread_profiles(200)),
        ("mem.peak_rss_mb", peak_rss_mb()),
        ("trace.overhead_frac", median(&overhead) - 1.0),
    ]);
    (
        out,
        per_round
            .into_iter()
            .next()
            .map(|p| p.1)
            .unwrap_or_default(),
    )
}

/// Per-layer metrics of one traced round: the engine's spans for the
/// batch and serving workloads, the epoch-loop phases for the fleet.
fn layer_round(wl: &Workload, round: &Round, trace: &Trace) -> (Values, Vec<Metric>) {
    let mut out: Values = round
        .values
        .iter()
        .copied()
        .filter(|(name, _)| {
            ["serve.", "online.", "power."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .collect();
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    if let Some(f) = &trace.fleet {
        // The epoch loop is one sequential timeline (only the chip
        // epochs fan out), so fleet shares are of wall time.
        let wall = round.wall_s;
        out.extend([
            ("construct.share", f.build_s / wall),
            (
                "fleet.route_us_per_job",
                frac(f.route_s * 1e6, f.jobs as f64),
            ),
            ("fleet.route_share", f.route_s / wall),
            ("fleet.summary_share", f.summary_s / wall),
            ("fleet.epoch_share", f.epoch_s / wall),
            ("fleet.merge_share", f.merge_s / wall),
            (
                "fleet.budget_us_per_epoch",
                frac(f.budget_s * 1e6, f.epochs as f64),
            ),
            (
                "fleet.chip_tick_ns",
                frac(f.epoch_s * f.shards as f64 * 1e9, f.chip_ticks as f64),
            ),
            ("trace.coverage", f.total_s() / wall),
        ]);
        return (out, Vec::new());
    }

    // Engine workloads: shares are of the round's CPU time.
    let cpu_s = WORKERS as f64 * round.wall_s;
    let l = &trace.layers;
    let mut notes = Vec::new();
    let mut spans = |[p50, tail_name, pct_name]: [&'static str; 3], samples: &[f64]| {
        let s = sorted(samples.to_vec());
        if s.is_empty() {
            return;
        }
        out.push((p50, percentile(&s, 50.0)));
        if let Some(t) = tail(&s) {
            out.push((tail_name, t.value));
            notes.push(metric(pct_name, t.pct, "percentile"));
        }
    };
    spans(
        [
            "manager.invoke_us_p50",
            "manager.invoke_us_tail",
            "manager.invoke_us_tail.pct",
        ],
        &l.manager_us,
    );
    spans(
        [
            "sched.reschedule_us_p50",
            "sched.reschedule_us_tail",
            "sched.reschedule_us_tail.pct",
        ],
        &l.sched_us,
    );
    spans(
        [
            "interval.us_p50",
            "interval.us_tail",
            "interval.us_tail.pct",
        ],
        &l.interval_us,
    );

    let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e6;
    let construct = trace.between_arms_s;
    out.extend([
        ("construct.share", construct / cpu_s),
        ("cmpsim.tick_ns", frac(l.tick_s * 1e9, l.ticks as f64)),
        ("cmpsim.share", l.tick_s / cpu_s),
        ("manager.share", sum_s(&l.manager_us) / cpu_s),
        ("manager.calls", l.manager_us.len() as f64),
        (
            "manager.fallback_frac",
            frac(l.fallbacks as f64, l.solves as f64),
        ),
        (
            "linprog.pivots_per_solve",
            frac(l.pivots as f64, l.lp_solves as f64),
        ),
        (
            "linprog.warm_hit_frac",
            frac(l.warm_hits as f64, l.lp_solves as f64),
        ),
        ("sched.share", sum_s(&l.sched_us) / cpu_s),
        ("sched.calls", l.sched_us.len() as f64),
        ("interval.samples", l.interval_us.len() as f64),
        ("engine.busy_frac", round.busy_s / cpu_s),
        ("trace.coverage", (l.total_s() + construct) / cpu_s),
    ]);
    let sann = &trace.sann.manager_us;
    if !sann.is_empty() {
        let mean_ns = sum_s(sann) * 1e9 / sann.len() as f64;
        out.push((
            "anneal.eval_ns",
            mean_ns / wl.sizing().sann_evaluations as f64,
        ));
    }
    (out, notes)
}

/// Peak resident set of this process (`VmHWM`, MB); 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
