//! Checkpoint/restore for the online serving loop.
//!
//! A [`Snapshot`] captures everything that evolves during an
//! [`super::OnlineSim`] run — the machine's mutable state, the event
//! queue, job lifecycle records, the control plane's cross-interval
//! state, the RNG position, and the run counters — so a run can be
//! suspended at any tick boundary and resumed later (in the same
//! process or from a serialized file) with **bit-identical** subsequent
//! behaviour. Everything *configured* rather than *accumulated* (the
//! die, the fault plan, the scheduling policy, the arrival process) is
//! deliberately not captured: the caller re-supplies the same
//! configuration to [`super::OnlineSim::resume`], exactly as it would
//! re-supply the binary itself.
//!
//! The wire format is JSON through the same dependency-free
//! [`crate::obs::json`] helpers the trace writer uses. Two encoding
//! rules keep the round trip exact where plain JSON would lose
//! information:
//!
//! * **`u64` values are encoded as decimal strings** — RNG state words
//!   use all 64 bits, and a JSON number (an `f64` after parsing) is
//!   only exact up to 2⁵³.
//! * **Non-finite `f64` values are encoded as the strings** `"inf"`,
//!   `"-inf"`, `"nan"` — a resident job's instruction budget is `∞`,
//!   and the JSON writer would otherwise flatten it to `null`.
//!
//! Finite `f64` values rely on Rust's shortest-roundtrip formatting,
//! which parses back to the identical bits.

use super::queue::EventKind;
use super::sim::{EventRecord, JobRecord, OnlineEvent};
use crate::manager::{
    ConditionStats, ConditionerState, ControlState, DegradationEvent, HardenedState, SolverError,
};
use crate::obs::json::{parse_json, push_json_f64, push_json_str, JsonError, JsonValue};
use cmpsim::{AppSpec, FaultState, MachineState, StateMismatch, Thread};
use std::fmt;
use std::fmt::Write as _;

/// Schema tag written into every serialized snapshot.
pub const SNAPSHOT_SCHEMA: &str = "vasp.snapshot.v1";

/// The scalar accumulators of one online run (sums, counts, peaks the
/// final [`super::OnlineOutcome`] is assembled from).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimCounters {
    /// Sum over ticks of the mean active-core frequency (Hz).
    pub freq_time_sum: f64,
    /// Sum over post-warmup ticks of |power − budget| (W).
    pub deviation_sum: f64,
    /// Post-warmup ticks counted into `deviation_sum`.
    pub deviation_ticks: usize,
    /// Power-manager invocations so far.
    pub manager_runs: usize,
    /// Sum over ticks of the active-core fraction.
    pub util_sum: f64,
    /// Largest run-queue depth observed.
    pub queue_peak: usize,
    /// Thread moves across all reschedules.
    pub migrations_total: usize,
    /// Jobs that have entered the system (residents included).
    pub arrived: usize,
    /// Jobs that have completed.
    pub completed: usize,
}

/// Full mutable state of an online run at a tick boundary.
///
/// Produced by [`super::OnlineSim::checkpoint`]; consumed by
/// [`super::OnlineSim::resume`]. Serialize with [`Snapshot::to_json`]
/// and revive with [`Snapshot::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The tick the run is suspended at (the next tick to execute).
    pub tick: usize,
    /// Total ticks of the run's timeline (restore guard).
    pub total_ticks: usize,
    /// Core count of the machine (restore guard).
    pub core_count: usize,
    /// Number of initial resident jobs (job ids below this are
    /// residents; arrival `i` is job `initial_count + i`).
    pub initial_count: usize,
    /// The machine's mutable state (threads, temperatures, DVFS
    /// levels, accumulated energy, fault timeline progress).
    pub machine: MachineState,
    /// The caller-stream RNG position.
    pub rng: [u64; 4],
    /// The arrival-fork RNG's *initial* state, captured before the
    /// schedule was drawn (`None` for a closed system). Restore
    /// regenerates the identical schedule instead of serializing it.
    pub arrival_rng: Option<[u64; 4]>,
    /// The scheduler's cross-interval state.
    pub scheduler: ControlState,
    /// The hardened power manager's cross-interval state.
    pub manager: HardenedState,
    /// Pending event-queue entries as `(tick, seq, kind)` triples.
    pub queue_events: Vec<(usize, u64, EventKind)>,
    /// The event queue's next sequence number.
    pub queue_next_seq: u64,
    /// Per-job lifecycle records so far.
    pub jobs: Vec<JobRecord>,
    /// Thread index → job id under the machine's swap-remove order.
    pub thread_job: Vec<usize>,
    /// Queued (arrived, not yet admitted) jobs, front first.
    pub run_queue: Vec<usize>,
    /// The event trace so far, in processing order.
    pub events: Vec<EventRecord>,
    /// Whether a core failure is forcing a reschedule next tick.
    pub fault_dirty: bool,
    /// Whether a membership change is awaiting a window-boundary
    /// reschedule (windowed serving mode only).
    pub window_dirty: bool,
    /// Jobs shed by admission control so far.
    pub shed: usize,
    /// The run's scalar accumulators.
    pub counters: SimCounters,
}

/// Why a serialized snapshot could not be revived.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document parses but a field is missing or has the wrong
    /// shape.
    Schema {
        /// Dotted path of the offending field.
        field: String,
        /// What the decoder expected there.
        expected: &'static str,
    },
    /// A job references an application absent from the supplied pool.
    UnknownApp(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::Schema { field, expected } => {
                write!(f, "snapshot field '{field}': expected {expected}")
            }
            SnapshotError::UnknownApp(name) => {
                write!(f, "snapshot references unknown application '{name}'")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Json(e)
    }
}

/// The structural guard a snapshot failed in [`super::OnlineSim::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotGuard {
    /// The snapshot was taken on a machine with another core count.
    CoreCount,
    /// The snapshot belongs to a timeline of another length.
    TimelineLength,
    /// The snapshot's tick lies beyond the configured horizon.
    TickBeyondHorizon,
    /// The snapshot's job tables disagree with each other or with the
    /// regenerated arrival schedule.
    JobTables,
    /// The machine state does not fit the supplied machine or fault
    /// plan ([`cmpsim::Machine::import_state`]).
    Machine(StateMismatch),
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// `u64` as a decimal string (all 64 bits survive the JSON round trip).
fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "\"{v}\"");
}

/// `f64` that may be non-finite: finite values use the shortest
/// roundtrip form, `±∞`/NaN become the strings `"inf"`/`"-inf"`/`"nan"`.
fn push_f64_exact(out: &mut String, v: f64) {
    if v.is_finite() {
        push_json_f64(out, v);
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn push_f64_arr(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64_exact(out, *v);
    }
    out.push(']');
}

fn push_bool_arr(out: &mut String, vs: &[bool]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if *v { "true" } else { "false" });
    }
    out.push(']');
}

fn push_usize_arr(out: &mut String, vs: &[usize]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_opt_usize_arr(out: &mut String, vs: &[Option<usize>]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            Some(x) => {
                let _ = write!(out, "{x}");
            }
            None => out.push_str("null"),
        }
    }
    out.push(']');
}

fn push_rng_state(out: &mut String, state: &[u64; 4]) {
    out.push('[');
    for (i, w) in state.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, *w);
    }
    out.push(']');
}

fn push_control_state(out: &mut String, state: &ControlState) {
    match state {
        ControlState::Stateless => out.push_str("{\"kind\":\"stateless\"}"),
        ControlState::Cursor(c) => {
            let _ = write!(out, "{{\"kind\":\"cursor\",\"cursor\":{c}}}");
        }
        ControlState::Basis(basis) => {
            out.push_str("{\"kind\":\"basis\",\"basis\":");
            match basis {
                None => out.push_str("null"),
                Some(b) => push_usize_arr(out, b),
            }
            out.push('}');
        }
        ControlState::Regulator { correction_w, last } => {
            out.push_str("{\"kind\":\"regulator\",\"correction_w\":");
            push_f64_exact(out, *correction_w);
            out.push_str(",\"last\":[");
            for (i, (core, level)) in last.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{core},{level}]");
            }
            out.push_str("]}");
        }
    }
}

fn push_degradation(out: &mut String, event: &DegradationEvent) {
    match event {
        DegradationEvent::SolverFallback { error } => {
            out.push_str("{\"kind\":\"solver_fallback\",\"error\":");
            out.push_str(match error {
                SolverError::Infeasible => "\"infeasible\"",
                SolverError::NumericalFailure => "\"numerical\"",
            });
            out.push('}');
        }
        DegradationEvent::CoreFailed { core } => {
            let _ = write!(out, "{{\"kind\":\"core_failed\",\"core\":{core}}}");
        }
        DegradationEvent::SensorStuck { core } => {
            let _ = write!(out, "{{\"kind\":\"sensor_stuck\",\"core\":{core}}}");
        }
        DegradationEvent::BudgetDropBegan { factor } => {
            out.push_str("{\"kind\":\"budget_drop_began\",\"factor\":");
            push_f64_exact(out, *factor);
            out.push('}');
        }
        DegradationEvent::BudgetRestored => out.push_str("{\"kind\":\"budget_restored\"}"),
        DegradationEvent::ThreadsParked { parked } => {
            let _ = write!(out, "{{\"kind\":\"threads_parked\",\"parked\":{parked}}}");
        }
    }
}

fn push_online_event(out: &mut String, event: &OnlineEvent) {
    match event {
        OnlineEvent::Arrival { job } => {
            let _ = write!(out, "{{\"kind\":\"arrival\",\"job\":{job}}}");
        }
        OnlineEvent::Admit { job } => {
            let _ = write!(out, "{{\"kind\":\"admit\",\"job\":{job}}}");
        }
        OnlineEvent::Shed { job } => {
            let _ = write!(out, "{{\"kind\":\"shed\",\"job\":{job}}}");
        }
        OnlineEvent::Complete { job } => {
            let _ = write!(out, "{{\"kind\":\"complete\",\"job\":{job}}}");
        }
        OnlineEvent::Reschedule { moved, resident } => {
            let _ = write!(
                out,
                "{{\"kind\":\"reschedule\",\"moved\":{moved},\"resident\":{resident}}}"
            );
        }
        OnlineEvent::ManagerRun => out.push_str("{\"kind\":\"manager\"}"),
        OnlineEvent::Degraded { event } => {
            out.push_str("{\"kind\":\"degraded\",\"degradation\":");
            push_degradation(out, event);
            out.push('}');
        }
    }
}

fn push_fault_state(out: &mut String, fs: &FaultState) {
    out.push_str("{\"now_s\":");
    push_f64_exact(out, fs.now_s);
    out.push_str(",\"tick\":");
    push_u64(out, fs.tick);
    out.push_str(",\"alive\":");
    push_bool_arr(out, &fs.alive);
    out.push_str(",\"stuck\":[");
    for (i, s) in fs.stuck.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match s {
            None => out.push_str("null"),
            Some((power_w, ipc)) => {
                out.push('[');
                push_f64_exact(out, *power_w);
                out.push(',');
                push_f64_exact(out, *ipc);
                out.push(']');
            }
        }
    }
    out.push_str("],\"fired_failures\":");
    push_bool_arr(out, &fs.fired_failures);
    out.push_str(",\"fired_stuck\":");
    push_bool_arr(out, &fs.fired_stuck);
    out.push_str(",\"budget_factor\":");
    push_f64_exact(out, fs.budget_factor);
    out.push('}');
}

fn push_machine_state(out: &mut String, ms: &MachineState) {
    out.push_str("{\"temps\":");
    push_f64_arr(out, &ms.temps);
    out.push_str(",\"threads\":[");
    for (i, t) in ms.threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (l2_alloc_mb, elapsed_ms, instructions, elapsed_s) = t.state();
        out.push_str("{\"app\":");
        push_json_str(out, t.spec().name);
        out.push_str(",\"l2_alloc_mb\":");
        push_f64_exact(out, l2_alloc_mb);
        out.push_str(",\"elapsed_ms\":");
        push_f64_exact(out, elapsed_ms);
        out.push_str(",\"instructions\":");
        push_f64_exact(out, instructions);
        out.push_str(",\"elapsed_s\":");
        push_f64_exact(out, elapsed_s);
        out.push('}');
    }
    out.push_str("],\"assignment\":");
    push_opt_usize_arr(out, &ms.assignment);
    out.push_str(",\"levels\":");
    push_usize_arr(out, &ms.levels);
    out.push_str(",\"freq_caps\":[");
    for (i, c) in ms.freq_caps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match c {
            None => out.push_str("null"),
            Some(f) => push_f64_exact(out, *f),
        }
    }
    out.push_str("],\"stall_s\":");
    push_f64_arr(out, &ms.stall_s);
    out.push_str(",\"last_core_power\":");
    push_f64_arr(out, &ms.last_core_power);
    out.push_str(",\"last_core_ipc\":");
    push_f64_arr(out, &ms.last_core_ipc);
    out.push_str(",\"last_total_power\":");
    push_f64_exact(out, ms.last_total_power);
    let _ = write!(out, ",\"dtm_events\":{}", ms.dtm_events);
    out.push_str(",\"energy_j\":");
    push_f64_exact(out, ms.energy_j);
    out.push_str(",\"elapsed_s\":");
    push_f64_exact(out, ms.elapsed_s);
    out.push_str(",\"total_instructions\":");
    push_f64_exact(out, ms.total_instructions);
    out.push_str(",\"faults\":");
    match &ms.faults {
        None => out.push_str("null"),
        Some(fs) => push_fault_state(out, fs),
    }
    out.push('}');
}

impl Snapshot {
    /// Serializes the snapshot as a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        push_json_str(&mut out, SNAPSHOT_SCHEMA);
        let _ = write!(
            out,
            ",\"tick\":{},\"total_ticks\":{},\"core_count\":{},\"initial_count\":{}",
            self.tick, self.total_ticks, self.core_count, self.initial_count
        );
        out.push_str(",\"machine\":");
        push_machine_state(&mut out, &self.machine);
        out.push_str(",\"rng\":");
        push_rng_state(&mut out, &self.rng);
        out.push_str(",\"arrival_rng\":");
        match &self.arrival_rng {
            None => out.push_str("null"),
            Some(state) => push_rng_state(&mut out, state),
        }
        out.push_str(",\"scheduler\":");
        push_control_state(&mut out, &self.scheduler);
        out.push_str(",\"manager\":{\"primary\":");
        match &self.manager.primary {
            None => out.push_str("null"),
            Some(state) => push_control_state(&mut out, state),
        }
        let cond = &self.manager.conditioner;
        out.push_str(",\"conditioner\":{\"cores\":[");
        for (i, c) in cond.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match c {
                None => out.push_str("null"),
                Some((ipc, power_w)) => {
                    out.push('[');
                    push_f64_exact(&mut out, *ipc);
                    out.push(',');
                    push_f64_arr(&mut out, power_w);
                    out.push(']');
                }
            }
        }
        out.push_str("],\"residents\":");
        push_opt_usize_arr(&mut out, &cond.residents);
        out.push_str(",\"uncore_w\":");
        match cond.uncore_w {
            None => out.push_str("null"),
            Some(w) => push_f64_exact(&mut out, w),
        }
        let s = &cond.stats;
        out.push_str(",\"stats\":{\"clamped\":");
        push_u64(&mut out, s.clamped);
        out.push_str(",\"saturated\":");
        push_u64(&mut out, s.saturated);
        out.push_str(",\"monotone_repairs\":");
        push_u64(&mut out, s.monotone_repairs);
        out.push_str(",\"migration_resets\":");
        push_u64(&mut out, s.migration_resets);
        out.push_str("}}}");

        out.push_str(",\"queue\":{\"next_seq\":");
        push_u64(&mut out, self.queue_next_seq);
        out.push_str(",\"events\":[");
        for (i, (tick, seq, kind)) in self.queue_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{tick},");
            push_u64(&mut out, *seq);
            match kind {
                EventKind::Completion(job) => {
                    let _ = write!(out, ",\"completion\",{job}]");
                }
                EventKind::Arrival(i) => {
                    let _ = write!(out, ",\"arrival\",{i}]");
                }
                EventKind::OsTick => out.push_str(",\"os\"]"),
                EventKind::DvfsTick => out.push_str(",\"dvfs\"]"),
            }
        }
        out.push_str("]}");

        out.push_str(",\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"job\":{},\"app\":", j.job);
            push_json_str(&mut out, j.app);
            out.push_str(",\"arrival_ms\":");
            push_f64_exact(&mut out, j.arrival_ms);
            out.push_str(",\"admit_ms\":");
            match j.admit_ms {
                None => out.push_str("null"),
                Some(v) => push_f64_exact(&mut out, v),
            }
            out.push_str(",\"completion_ms\":");
            match j.completion_ms {
                None => out.push_str("null"),
                Some(v) => push_f64_exact(&mut out, v),
            }
            out.push_str(",\"instructions\":");
            push_f64_exact(&mut out, j.instructions);
            let _ = write!(out, ",\"migrations\":{}}}", j.migrations);
        }
        out.push(']');

        out.push_str(",\"thread_job\":");
        push_usize_arr(&mut out, &self.thread_job);
        out.push_str(",\"run_queue\":");
        push_usize_arr(&mut out, &self.run_queue);

        out.push_str(",\"events\":[");
        for (i, r) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"tick\":{},\"event\":", r.tick);
            push_online_event(&mut out, &r.event);
            out.push('}');
        }
        out.push(']');

        out.push_str(",\"fault_dirty\":");
        out.push_str(if self.fault_dirty { "true" } else { "false" });
        out.push_str(",\"window_dirty\":");
        out.push_str(if self.window_dirty { "true" } else { "false" });
        let _ = write!(out, ",\"shed\":{}", self.shed);

        let c = &self.counters;
        out.push_str(",\"counters\":{\"freq_time_sum\":");
        push_f64_exact(&mut out, c.freq_time_sum);
        out.push_str(",\"deviation_sum\":");
        push_f64_exact(&mut out, c.deviation_sum);
        let _ = write!(
            out,
            ",\"deviation_ticks\":{},\"manager_runs\":{}",
            c.deviation_ticks, c.manager_runs
        );
        out.push_str(",\"util_sum\":");
        push_f64_exact(&mut out, c.util_sum);
        let _ = write!(
            out,
            ",\"queue_peak\":{},\"migrations_total\":{},\"arrived\":{},\"completed\":{}}}",
            c.queue_peak, c.migrations_total, c.arrived, c.completed
        );

        out.push('}');
        out
    }

    /// Parses a snapshot serialized by [`Snapshot::to_json`].
    ///
    /// `pool` must contain every application the snapshot references
    /// (the same pool the original run was launched with): threads and
    /// job records are stored by application name and reconnected to
    /// their [`AppSpec`] here.
    pub fn from_json(text: &str, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        let doc = parse_json(text)?;
        let schema = str_field(&doc, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::Schema {
                field: "schema".into(),
                expected: "\"vasp.snapshot.v1\"",
            });
        }

        let machine = parse_machine_state(field(&doc, "machine")?, pool)?;

        let queue = field(&doc, "queue")?;
        let mut queue_events = Vec::new();
        for (i, entry) in arr_field(queue, "events")?.iter().enumerate() {
            queue_events.push(parse_queue_event(entry, i)?);
        }

        let mut jobs = Vec::new();
        for (i, entry) in arr_field(&doc, "jobs")?.iter().enumerate() {
            jobs.push(parse_job(entry, i, pool)?);
        }

        let mut events = Vec::new();
        for (i, entry) in arr_field(&doc, "events")?.iter().enumerate() {
            events.push(EventRecord {
                tick: usize_field(entry, "tick")?,
                event: parse_online_event(field(entry, "event")?, i)?,
            });
        }

        let counters_v = field(&doc, "counters")?;
        let counters = SimCounters {
            freq_time_sum: f64_field(counters_v, "freq_time_sum")?,
            deviation_sum: f64_field(counters_v, "deviation_sum")?,
            deviation_ticks: usize_field(counters_v, "deviation_ticks")?,
            manager_runs: usize_field(counters_v, "manager_runs")?,
            util_sum: f64_field(counters_v, "util_sum")?,
            queue_peak: usize_field(counters_v, "queue_peak")?,
            migrations_total: usize_field(counters_v, "migrations_total")?,
            arrived: usize_field(counters_v, "arrived")?,
            completed: usize_field(counters_v, "completed")?,
        };

        Ok(Snapshot {
            tick: usize_field(&doc, "tick")?,
            total_ticks: usize_field(&doc, "total_ticks")?,
            core_count: usize_field(&doc, "core_count")?,
            initial_count: usize_field(&doc, "initial_count")?,
            machine,
            rng: parse_rng_state(field(&doc, "rng")?, "rng")?,
            arrival_rng: match field(&doc, "arrival_rng")? {
                JsonValue::Null => None,
                v => Some(parse_rng_state(v, "arrival_rng")?),
            },
            scheduler: parse_control_state(field(&doc, "scheduler")?)?,
            manager: parse_hardened_state(field(&doc, "manager")?)?,
            queue_events,
            queue_next_seq: u64_field(queue, "next_seq")?,
            jobs,
            thread_job: usize_arr_field(&doc, "thread_job")?,
            run_queue: usize_arr_field(&doc, "run_queue")?,
            events,
            fault_dirty: bool_field(&doc, "fault_dirty")?,
            window_dirty: bool_field(&doc, "window_dirty")?,
            shed: usize_field(&doc, "shed")?,
            counters,
        })
    }
}

// ---------------------------------------------------------------------
// Reader helpers
// ---------------------------------------------------------------------

fn schema_err(field: &str, expected: &'static str) -> SnapshotError {
    SnapshotError::Schema {
        field: field.into(),
        expected,
    }
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SnapshotError> {
    obj.get(key).ok_or_else(|| schema_err(key, "a value"))
}

fn as_f64(v: &JsonValue, name: &str) -> Result<f64, SnapshotError> {
    match v {
        JsonValue::Num(x) => Ok(*x),
        JsonValue::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            _ => Err(schema_err(name, "a number or \"inf\"/\"-inf\"/\"nan\"")),
        },
        _ => Err(schema_err(name, "a number")),
    }
}

fn as_usize(v: &JsonValue, name: &str) -> Result<usize, SnapshotError> {
    let x = v.as_f64().ok_or_else(|| schema_err(name, "an integer"))?;
    if x < 0.0 || x.fract() != 0.0 || x > 2f64.powi(53) {
        return Err(schema_err(name, "a non-negative integer"));
    }
    Ok(x as usize)
}

fn as_u64(v: &JsonValue, name: &str) -> Result<u64, SnapshotError> {
    v.as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| schema_err(name, "a u64 decimal string"))
}

fn as_bool(v: &JsonValue, name: &str) -> Result<bool, SnapshotError> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(schema_err(name, "a boolean")),
    }
}

fn f64_field(obj: &JsonValue, key: &str) -> Result<f64, SnapshotError> {
    as_f64(field(obj, key)?, key)
}

fn usize_field(obj: &JsonValue, key: &str) -> Result<usize, SnapshotError> {
    as_usize(field(obj, key)?, key)
}

fn u64_field(obj: &JsonValue, key: &str) -> Result<u64, SnapshotError> {
    as_u64(field(obj, key)?, key)
}

fn bool_field(obj: &JsonValue, key: &str) -> Result<bool, SnapshotError> {
    as_bool(field(obj, key)?, key)
}

fn str_field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, SnapshotError> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| schema_err(key, "a string"))
}

fn arr_field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], SnapshotError> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| schema_err(key, "an array"))
}

fn f64_arr_field(obj: &JsonValue, key: &str) -> Result<Vec<f64>, SnapshotError> {
    arr_field(obj, key)?
        .iter()
        .map(|v| as_f64(v, key))
        .collect()
}

fn usize_arr_field(obj: &JsonValue, key: &str) -> Result<Vec<usize>, SnapshotError> {
    arr_field(obj, key)?
        .iter()
        .map(|v| as_usize(v, key))
        .collect()
}

fn bool_arr_field(obj: &JsonValue, key: &str) -> Result<Vec<bool>, SnapshotError> {
    arr_field(obj, key)?
        .iter()
        .map(|v| as_bool(v, key))
        .collect()
}

fn opt_usize_arr_field(obj: &JsonValue, key: &str) -> Result<Vec<Option<usize>>, SnapshotError> {
    arr_field(obj, key)?
        .iter()
        .map(|v| match v {
            JsonValue::Null => Ok(None),
            v => as_usize(v, key).map(Some),
        })
        .collect()
}

fn lookup_app<'a>(pool: &'a [AppSpec], name: &str) -> Result<&'a AppSpec, SnapshotError> {
    pool.iter()
        .find(|a| a.name == name)
        .ok_or_else(|| SnapshotError::UnknownApp(name.to_string()))
}

fn parse_rng_state(v: &JsonValue, name: &str) -> Result<[u64; 4], SnapshotError> {
    let arr = v.as_arr().ok_or_else(|| schema_err(name, "an array"))?;
    if arr.len() != 4 {
        return Err(schema_err(name, "4 u64 decimal strings"));
    }
    let mut state = [0u64; 4];
    for (i, w) in arr.iter().enumerate() {
        state[i] = as_u64(w, name)?;
    }
    Ok(state)
}

fn parse_control_state(v: &JsonValue) -> Result<ControlState, SnapshotError> {
    match str_field(v, "kind")? {
        "stateless" => Ok(ControlState::Stateless),
        "cursor" => Ok(ControlState::Cursor(usize_field(v, "cursor")?)),
        "basis" => Ok(ControlState::Basis(match field(v, "basis")? {
            JsonValue::Null => None,
            b => Some(
                b.as_arr()
                    .ok_or_else(|| schema_err("basis", "an array"))?
                    .iter()
                    .map(|x| as_usize(x, "basis"))
                    .collect::<Result<_, _>>()?,
            ),
        })),
        "regulator" => {
            let mut last = Vec::new();
            for pair in arr_field(v, "last")? {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| schema_err("last", "an array of [core, level] pairs"))?;
                last.push((as_usize(&pair[0], "last")?, as_usize(&pair[1], "last")?));
            }
            Ok(ControlState::Regulator {
                correction_w: f64_field(v, "correction_w")?,
                last,
            })
        }
        _ => Err(schema_err(
            "kind",
            "\"stateless\", \"cursor\", \"basis\", or \"regulator\"",
        )),
    }
}

fn parse_hardened_state(v: &JsonValue) -> Result<HardenedState, SnapshotError> {
    let primary = match field(v, "primary")? {
        JsonValue::Null => None,
        p => Some(parse_control_state(p)?),
    };
    let cond = field(v, "conditioner")?;
    let mut cores = Vec::new();
    for c in arr_field(cond, "cores")? {
        cores.push(match c {
            JsonValue::Null => None,
            c => {
                let pair = c
                    .as_arr()
                    .ok_or_else(|| schema_err("conditioner.cores", "[ipc, [power...]]"))?;
                if pair.len() != 2 {
                    return Err(schema_err("conditioner.cores", "[ipc, [power...]]"));
                }
                let ipc = as_f64(&pair[0], "conditioner.cores.ipc")?;
                let power: Vec<f64> = pair[1]
                    .as_arr()
                    .ok_or_else(|| schema_err("conditioner.cores.power", "an array"))?
                    .iter()
                    .map(|x| as_f64(x, "conditioner.cores.power"))
                    .collect::<Result<_, _>>()?;
                Some((ipc, power))
            }
        });
    }
    let stats_v = field(cond, "stats")?;
    Ok(HardenedState {
        primary,
        conditioner: ConditionerState {
            cores,
            residents: opt_usize_arr_field(cond, "residents")?,
            uncore_w: match field(cond, "uncore_w")? {
                JsonValue::Null => None,
                w => Some(as_f64(w, "uncore_w")?),
            },
            stats: ConditionStats {
                clamped: u64_field(stats_v, "clamped")?,
                saturated: u64_field(stats_v, "saturated")?,
                monotone_repairs: u64_field(stats_v, "monotone_repairs")?,
                migration_resets: u64_field(stats_v, "migration_resets")?,
            },
        },
    })
}

fn parse_fault_state(v: &JsonValue) -> Result<FaultState, SnapshotError> {
    let mut stuck = Vec::new();
    for s in arr_field(v, "stuck")? {
        stuck.push(match s {
            JsonValue::Null => None,
            s => {
                let pair = s
                    .as_arr()
                    .ok_or_else(|| schema_err("faults.stuck", "[power_w, ipc]"))?;
                if pair.len() != 2 {
                    return Err(schema_err("faults.stuck", "[power_w, ipc]"));
                }
                Some((
                    as_f64(&pair[0], "faults.stuck")?,
                    as_f64(&pair[1], "faults.stuck")?,
                ))
            }
        });
    }
    Ok(FaultState {
        now_s: f64_field(v, "now_s")?,
        tick: u64_field(v, "tick")?,
        alive: bool_arr_field(v, "alive")?,
        stuck,
        fired_failures: bool_arr_field(v, "fired_failures")?,
        fired_stuck: bool_arr_field(v, "fired_stuck")?,
        budget_factor: f64_field(v, "budget_factor")?,
    })
}

fn parse_machine_state(v: &JsonValue, pool: &[AppSpec]) -> Result<MachineState, SnapshotError> {
    let mut threads = Vec::new();
    for t in arr_field(v, "threads")? {
        let spec = lookup_app(pool, str_field(t, "app")?)?.clone();
        threads.push(Thread::from_parts(
            spec,
            f64_field(t, "l2_alloc_mb")?,
            f64_field(t, "elapsed_ms")?,
            f64_field(t, "instructions")?,
            f64_field(t, "elapsed_s")?,
        ));
    }
    let mut freq_caps = Vec::new();
    for c in arr_field(v, "freq_caps")? {
        freq_caps.push(match c {
            JsonValue::Null => None,
            c => Some(as_f64(c, "freq_caps")?),
        });
    }
    Ok(MachineState {
        temps: f64_arr_field(v, "temps")?,
        threads,
        assignment: opt_usize_arr_field(v, "assignment")?,
        levels: usize_arr_field(v, "levels")?,
        freq_caps,
        stall_s: f64_arr_field(v, "stall_s")?,
        last_core_power: f64_arr_field(v, "last_core_power")?,
        last_core_ipc: f64_arr_field(v, "last_core_ipc")?,
        last_total_power: f64_field(v, "last_total_power")?,
        dtm_events: usize_field(v, "dtm_events")?,
        energy_j: f64_field(v, "energy_j")?,
        elapsed_s: f64_field(v, "elapsed_s")?,
        total_instructions: f64_field(v, "total_instructions")?,
        faults: match field(v, "faults")? {
            JsonValue::Null => None,
            f => Some(parse_fault_state(f)?),
        },
    })
}

fn parse_queue_event(v: &JsonValue, i: usize) -> Result<(usize, u64, EventKind), SnapshotError> {
    let entry = v
        .as_arr()
        .ok_or_else(|| schema_err(&format!("queue.events[{i}]"), "an array"))?;
    if entry.len() < 3 {
        return Err(schema_err(
            &format!("queue.events[{i}]"),
            "[tick, seq, kind, payload?]",
        ));
    }
    let tick = as_usize(&entry[0], "queue.events.tick")?;
    let seq = as_u64(&entry[1], "queue.events.seq")?;
    let kind = match entry[2].as_str() {
        Some("completion") => EventKind::Completion(as_usize(
            entry
                .get(3)
                .ok_or_else(|| schema_err(&format!("queue.events[{i}]"), "a completion job id"))?,
            "queue.events.job",
        )?),
        Some("arrival") => EventKind::Arrival(as_usize(
            entry
                .get(3)
                .ok_or_else(|| schema_err(&format!("queue.events[{i}]"), "an arrival index"))?,
            "queue.events.arrival",
        )?),
        Some("os") => EventKind::OsTick,
        Some("dvfs") => EventKind::DvfsTick,
        _ => {
            return Err(schema_err(
                &format!("queue.events[{i}]"),
                "\"completion\", \"arrival\", \"os\", or \"dvfs\"",
            ))
        }
    };
    Ok((tick, seq, kind))
}

fn parse_job(v: &JsonValue, i: usize, pool: &[AppSpec]) -> Result<JobRecord, SnapshotError> {
    let app = lookup_app(pool, str_field(v, "app")?)?.name;
    let _ = i;
    Ok(JobRecord {
        job: usize_field(v, "job")?,
        app,
        arrival_ms: f64_field(v, "arrival_ms")?,
        admit_ms: match field(v, "admit_ms")? {
            JsonValue::Null => None,
            x => Some(as_f64(x, "admit_ms")?),
        },
        completion_ms: match field(v, "completion_ms")? {
            JsonValue::Null => None,
            x => Some(as_f64(x, "completion_ms")?),
        },
        instructions: f64_field(v, "instructions")?,
        migrations: usize_field(v, "migrations")?,
    })
}

fn parse_degradation(v: &JsonValue) -> Result<DegradationEvent, SnapshotError> {
    Ok(match str_field(v, "kind")? {
        "solver_fallback" => DegradationEvent::SolverFallback {
            error: match str_field(v, "error")? {
                "infeasible" => SolverError::Infeasible,
                "numerical" => SolverError::NumericalFailure,
                _ => return Err(schema_err("error", "\"infeasible\" or \"numerical\"")),
            },
        },
        "core_failed" => DegradationEvent::CoreFailed {
            core: usize_field(v, "core")?,
        },
        "sensor_stuck" => DegradationEvent::SensorStuck {
            core: usize_field(v, "core")?,
        },
        "budget_drop_began" => DegradationEvent::BudgetDropBegan {
            factor: f64_field(v, "factor")?,
        },
        "budget_restored" => DegradationEvent::BudgetRestored,
        "threads_parked" => DegradationEvent::ThreadsParked {
            parked: usize_field(v, "parked")?,
        },
        _ => return Err(schema_err("degradation.kind", "a degradation kind")),
    })
}

fn parse_online_event(v: &JsonValue, i: usize) -> Result<OnlineEvent, SnapshotError> {
    let _ = i;
    Ok(match str_field(v, "kind")? {
        "arrival" => OnlineEvent::Arrival {
            job: usize_field(v, "job")?,
        },
        "admit" => OnlineEvent::Admit {
            job: usize_field(v, "job")?,
        },
        "shed" => OnlineEvent::Shed {
            job: usize_field(v, "job")?,
        },
        "complete" => OnlineEvent::Complete {
            job: usize_field(v, "job")?,
        },
        "reschedule" => OnlineEvent::Reschedule {
            moved: usize_field(v, "moved")?,
            resident: usize_field(v, "resident")?,
        },
        "manager" => OnlineEvent::ManagerRun,
        "degraded" => OnlineEvent::Degraded {
            event: parse_degradation(field(v, "degradation")?)?,
        },
        _ => return Err(schema_err("event.kind", "an online event kind")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_f64_encoding_round_trips_non_finite_values() {
        for v in [1.5, 0.0, -2.25e-300, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            push_f64_exact(&mut out, v);
            let parsed = as_f64(&parse_json(&out).unwrap(), "x").unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "value {v}");
        }
        let mut out = String::new();
        push_f64_exact(&mut out, f64::NAN);
        assert!(as_f64(&parse_json(&out).unwrap(), "x").unwrap().is_nan());
    }

    #[test]
    fn u64_encoding_keeps_all_bits() {
        for v in [0u64, 1, u64::MAX, 1 << 63, 0x9E3779B97F4A7C15] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(as_u64(&parse_json(&out).unwrap(), "x").unwrap(), v);
        }
    }

    #[test]
    fn control_state_round_trips() {
        for state in [
            ControlState::Stateless,
            ControlState::Cursor(7),
            ControlState::Basis(None),
            ControlState::Basis(Some(vec![3, 1, 4, 1, 5])),
        ] {
            let mut out = String::new();
            push_control_state(&mut out, &state);
            let parsed = parse_control_state(&parse_json(&out).unwrap()).unwrap();
            assert_eq!(parsed, state);
        }
    }

    #[test]
    fn garbage_is_rejected_with_a_field_path() {
        let err = Snapshot::from_json("{\"schema\":\"vasp.snapshot.v1\"}", &[]).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema { .. }));
        assert!(Snapshot::from_json("not json", &[]).is_err());
        let err = Snapshot::from_json("{\"schema\":\"other.v9\"}", &[]).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Schema {
                field: "schema".into(),
                expected: "\"vasp.snapshot.v1\"",
            }
        );
    }
}
