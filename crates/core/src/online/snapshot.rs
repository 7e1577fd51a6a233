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
//! The wire format (`vasp.snapshot.v2`) is stated once: a private
//! `Wire` trait, implemented once per type, maps a value to and from a
//! [`JsonValue`], and plain structs list their keys once for both
//! directions. [`JsonValue::write`] renders the text and
//! [`crate::obs::json::parse_json`] reads it back. Two encoding rules
//! keep the round trip exact where plain JSON would lose information:
//!
//! * **`u64` values are encoded as decimal strings** — RNG state words
//!   use all 64 bits, and a JSON number (an `f64` after parsing) is
//!   only exact up to 2⁵³.
//! * **Non-finite `f64` values are encoded as the strings** `"inf"`,
//!   `"-inf"`, `"nan"` — a resident job's instruction budget is `∞`,
//!   and the JSON writer would otherwise flatten it to `null`.
//!
//! Finite `f64` values rely on Rust's shortest-roundtrip formatting,
//! which parses back to the identical bits. A decode error names the
//! full path of the offending value, such as `jobs[3].admit_ms`.

use super::queue::EventKind;
use super::sim::{EventRecord, JobRecord, OnlineEvent};
use crate::manager::{
    ConditionStats, ConditionerState, ControlState, DegradationEvent, HardenedState, SolverError,
};
use crate::obs::json::{parse_json, JsonError, JsonValue};
use cmpsim::{AppSpec, FaultState, MachineState, StateMismatch, Thread};
use std::fmt;

/// Schema tag written into every serialized snapshot.
pub const SNAPSHOT_SCHEMA: &str = "vasp.snapshot.v2";

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
    /// The power manager's sensor-conditioner state was taken for
    /// another core count ([`crate::manager::HardenedManager::import_state`]).
    Conditioner,
}

impl Snapshot {
    /// Serializes the snapshot as a single-line JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a snapshot serialized by [`Snapshot::to_json`].
    ///
    /// `pool` must contain every application the snapshot references
    /// (the same pool the original run was launched with): threads and
    /// job records are stored by application name and reconnected to
    /// their [`AppSpec`] here.
    pub fn from_json(text: &str, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        Self::from_value(&parse_json(text)?, pool)
    }
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// One type's wire shape: how a value maps to a [`JsonValue`] and back.
/// A decode error's `field` is the path below the value being decoded
/// (empty when the value itself is malformed); each enclosing key or
/// index prefixes it on the way out.
trait Wire: Sized {
    fn to_value(&self) -> JsonValue;
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError>;
}

fn schema_err(field: impl Into<String>, expected: &'static str) -> SnapshotError {
    SnapshotError::Schema {
        field: field.into(),
        expected,
    }
}

/// A malformed value, located by the callers' [`within`] prefixes.
fn mismatch(expected: &'static str) -> SnapshotError {
    schema_err("", expected)
}

/// Prefixes a nested decode error's path with `seg` (a key or `[i]`).
fn within(seg: impl fmt::Display, e: SnapshotError) -> SnapshotError {
    match e {
        SnapshotError::Schema { field, expected } => {
            let dot = if field.is_empty() || field.starts_with('[') {
                ""
            } else {
                "."
            };
            schema_err(format!("{seg}{dot}{field}"), expected)
        }
        e => e,
    }
}

fn at<'v>(obj: &'v JsonValue, key: &str) -> Result<&'v JsonValue, SnapshotError> {
    obj.get(key).ok_or_else(|| schema_err(key, "a value"))
}

/// Decodes `obj[key]`.
fn field<T: Wire>(obj: &JsonValue, key: &str, pool: &[AppSpec]) -> Result<T, SnapshotError> {
    T::from_value(at(obj, key)?, pool).map_err(|e| within(key, e))
}

/// Decodes `items[i]`.
fn item<T: Wire>(items: &[JsonValue], i: usize, pool: &[AppSpec]) -> Result<T, SnapshotError> {
    let v = items
        .get(i)
        .ok_or_else(|| schema_err(format!("[{i}]"), "a value"))?;
    T::from_value(v, pool).map_err(|e| within(format_args!("[{i}]"), e))
}

/// An object with these keys, in this order.
fn obj<const N: usize>(entries: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An enum variant: an object whose first key, `kind`, names it.
fn tagged<const N: usize>(kind: &str, fields: [(&str, JsonValue); N]) -> JsonValue {
    let mut entries = vec![("kind".to_string(), JsonValue::Str(kind.into()))];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Obj(entries)
}

fn kind(v: &JsonValue) -> Result<&str, SnapshotError> {
    at(v, "kind")?
        .as_str()
        .ok_or_else(|| schema_err("kind", "a string"))
}

impl Wire for f64 {
    fn to_value(&self) -> JsonValue {
        match self {
            v if v.is_finite() => JsonValue::Num(*v),
            v if v.is_nan() => JsonValue::Str("nan".into()),
            v if *v > 0.0 => JsonValue::Str("inf".into()),
            _ => JsonValue::Str("-inf".into()),
        }
    }
    fn from_value(v: &JsonValue, _: &[AppSpec]) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Num(x) => Ok(*x),
            JsonValue::Str(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err(mismatch("a number or \"inf\"/\"-inf\"/\"nan\"")),
            },
            _ => Err(mismatch("a number")),
        }
    }
}

impl Wire for usize {
    fn to_value(&self) -> JsonValue {
        JsonValue::Num(*self as f64)
    }
    fn from_value(v: &JsonValue, _: &[AppSpec]) -> Result<Self, SnapshotError> {
        let x = v.as_f64().ok_or_else(|| mismatch("an integer"))?;
        if x < 0.0 || x.fract() != 0.0 || x > 2f64.powi(53) {
            return Err(mismatch("a non-negative integer"));
        }
        Ok(x as usize)
    }
}

impl Wire for u64 {
    fn to_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
    fn from_value(v: &JsonValue, _: &[AppSpec]) -> Result<Self, SnapshotError> {
        v.as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| mismatch("a u64 decimal string"))
    }
}

impl Wire for bool {
    fn to_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn from_value(v: &JsonValue, _: &[AppSpec]) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(mismatch("a boolean")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn to_value(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Wire::to_value)
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::from_value(v, pool).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Wire::to_value).collect())
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        let items = v.as_arr().ok_or_else(|| mismatch("an array"))?;
        (0..items.len()).map(|i| item(items, i, pool)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn to_value(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.to_value(), self.1.to_value()])
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        match v.as_arr() {
            Some(pair) if pair.len() == 2 => Ok((item(pair, 0, pool)?, item(pair, 1, pool)?)),
            _ => Err(mismatch("a 2-element array")),
        }
    }
}

/// An RNG state: four `u64` words.
impl Wire for [u64; 4] {
    fn to_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Wire::to_value).collect())
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        Vec::from_value(v, pool)?
            .try_into()
            .map_err(|_| mismatch("4 u64 decimal strings"))
    }
}

/// An application is stored by name and revived from the caller's pool.
fn app<'p>(v: &JsonValue, pool: &'p [AppSpec]) -> Result<&'p AppSpec, SnapshotError> {
    let name = v.as_str().ok_or_else(|| mismatch("an application name"))?;
    pool.iter()
        .find(|a| a.name == name)
        .ok_or_else(|| SnapshotError::UnknownApp(name.to_string()))
}

/// A job's application name.
impl Wire for &'static str {
    fn to_value(&self) -> JsonValue {
        JsonValue::Str((*self).into())
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        app(v, pool).map(|a| a.name)
    }
}

/// Implements [`Wire`] for plain structs: one object key per field,
/// named after the field, in the listed order.
macro_rules! wire_struct {
    ($($ty:ty { $($field:ident),+ $(,)? })+) => {$(
        impl Wire for $ty {
            fn to_value(&self) -> JsonValue {
                obj([$((stringify!($field), self.$field.to_value())),+])
            }
            fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
                Ok(Self {
                    $($field: field(v, stringify!($field), pool)?),+
                })
            }
        }
    )+};
}

wire_struct! {
    SimCounters {
        freq_time_sum, deviation_sum, deviation_ticks, manager_runs, util_sum, queue_peak,
        migrations_total, arrived, completed,
    }
    MachineState {
        temps, threads, assignment, levels, freq_caps, stall_s, last_core_power,
        last_core_ipc, last_total_power, dtm_events, energy_j, elapsed_s, total_instructions,
        faults,
    }
    FaultState { now_s, tick, alive, stuck, fired_failures, fired_stuck, budget_factor }
    HardenedState { primary, conditioner }
    ConditionerState { cores, residents, uncore_w, stats }
    ConditionStats { clamped, saturated, monotone_repairs, migration_resets }
    JobRecord { job, app, arrival_ms, admit_ms, completion_ms, instructions, migrations }
    EventRecord { tick, event }
}

impl Wire for Thread {
    fn to_value(&self) -> JsonValue {
        let (l2_alloc_mb, elapsed_ms, instructions, elapsed_s) = self.state();
        obj([
            ("app", self.spec().name.to_value()),
            ("l2_alloc_mb", l2_alloc_mb.to_value()),
            ("elapsed_ms", elapsed_ms.to_value()),
            ("instructions", instructions.to_value()),
            ("elapsed_s", elapsed_s.to_value()),
        ])
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        let spec = app(at(v, "app")?, pool).map_err(|e| within("app", e))?;
        Ok(Thread::from_parts(
            spec.clone(),
            field(v, "l2_alloc_mb", pool)?,
            field(v, "elapsed_ms", pool)?,
            field(v, "instructions", pool)?,
            field(v, "elapsed_s", pool)?,
        ))
    }
}

impl Wire for ControlState {
    fn to_value(&self) -> JsonValue {
        match self {
            ControlState::Stateless => tagged("stateless", []),
            ControlState::Cursor(c) => tagged("cursor", [("cursor", c.to_value())]),
            ControlState::Basis(b) => tagged("basis", [("basis", b.to_value())]),
            ControlState::Regulator { correction_w, last } => tagged(
                "regulator",
                [
                    ("correction_w", correction_w.to_value()),
                    ("last", last.to_value()),
                ],
            ),
        }
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        Ok(match kind(v)? {
            "stateless" => ControlState::Stateless,
            "cursor" => ControlState::Cursor(field(v, "cursor", pool)?),
            "basis" => ControlState::Basis(field(v, "basis", pool)?),
            "regulator" => ControlState::Regulator {
                correction_w: field(v, "correction_w", pool)?,
                last: field(v, "last", pool)?,
            },
            _ => {
                return Err(schema_err(
                    "kind",
                    "\"stateless\", \"cursor\", \"basis\", or \"regulator\"",
                ))
            }
        })
    }
}

impl Wire for SolverError {
    fn to_value(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                SolverError::Infeasible => "infeasible",
                SolverError::NumericalFailure => "numerical",
            }
            .into(),
        )
    }
    fn from_value(v: &JsonValue, _: &[AppSpec]) -> Result<Self, SnapshotError> {
        match v.as_str() {
            Some("infeasible") => Ok(SolverError::Infeasible),
            Some("numerical") => Ok(SolverError::NumericalFailure),
            _ => Err(mismatch("\"infeasible\" or \"numerical\"")),
        }
    }
}

impl Wire for DegradationEvent {
    fn to_value(&self) -> JsonValue {
        match self {
            DegradationEvent::SolverFallback { error } => {
                tagged("solver_fallback", [("error", error.to_value())])
            }
            DegradationEvent::CoreFailed { core } => {
                tagged("core_failed", [("core", core.to_value())])
            }
            DegradationEvent::SensorStuck { core } => {
                tagged("sensor_stuck", [("core", core.to_value())])
            }
            DegradationEvent::BudgetDropBegan { factor } => {
                tagged("budget_drop_began", [("factor", factor.to_value())])
            }
            DegradationEvent::BudgetRestored => tagged("budget_restored", []),
            DegradationEvent::ThreadsParked { parked } => {
                tagged("threads_parked", [("parked", parked.to_value())])
            }
        }
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        Ok(match kind(v)? {
            "solver_fallback" => DegradationEvent::SolverFallback {
                error: field(v, "error", pool)?,
            },
            "core_failed" => DegradationEvent::CoreFailed {
                core: field(v, "core", pool)?,
            },
            "sensor_stuck" => DegradationEvent::SensorStuck {
                core: field(v, "core", pool)?,
            },
            "budget_drop_began" => DegradationEvent::BudgetDropBegan {
                factor: field(v, "factor", pool)?,
            },
            "budget_restored" => DegradationEvent::BudgetRestored,
            "threads_parked" => DegradationEvent::ThreadsParked {
                parked: field(v, "parked", pool)?,
            },
            _ => return Err(schema_err("kind", "a degradation kind")),
        })
    }
}

impl Wire for OnlineEvent {
    fn to_value(&self) -> JsonValue {
        match self {
            OnlineEvent::Arrival { job } => tagged("arrival", [("job", job.to_value())]),
            OnlineEvent::Admit { job } => tagged("admit", [("job", job.to_value())]),
            OnlineEvent::Shed { job } => tagged("shed", [("job", job.to_value())]),
            OnlineEvent::Complete { job } => tagged("complete", [("job", job.to_value())]),
            OnlineEvent::Reschedule { moved, resident } => tagged(
                "reschedule",
                [
                    ("moved", moved.to_value()),
                    ("resident", resident.to_value()),
                ],
            ),
            OnlineEvent::ManagerRun => tagged("manager", []),
            OnlineEvent::Degraded { event } => {
                tagged("degraded", [("degradation", event.to_value())])
            }
        }
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        Ok(match kind(v)? {
            "arrival" => OnlineEvent::Arrival {
                job: field(v, "job", pool)?,
            },
            "admit" => OnlineEvent::Admit {
                job: field(v, "job", pool)?,
            },
            "shed" => OnlineEvent::Shed {
                job: field(v, "job", pool)?,
            },
            "complete" => OnlineEvent::Complete {
                job: field(v, "job", pool)?,
            },
            "reschedule" => OnlineEvent::Reschedule {
                moved: field(v, "moved", pool)?,
                resident: field(v, "resident", pool)?,
            },
            "manager" => OnlineEvent::ManagerRun,
            "degraded" => OnlineEvent::Degraded {
                event: field(v, "degradation", pool)?,
            },
            _ => return Err(schema_err("kind", "an online event kind")),
        })
    }
}

/// A pending queue entry: `[tick, seq, kind]`, plus the job id or
/// arrival index for the two job events.
impl Wire for (usize, u64, EventKind) {
    fn to_value(&self) -> JsonValue {
        let (tick, seq, kind) = self;
        let mut entry = vec![tick.to_value(), seq.to_value()];
        let tag = |s: &str| JsonValue::Str(s.into());
        match kind {
            EventKind::Completion(job) => entry.extend([tag("completion"), job.to_value()]),
            EventKind::Arrival(i) => entry.extend([tag("arrival"), i.to_value()]),
            EventKind::OsTick => entry.push(tag("os")),
            EventKind::DvfsTick => entry.push(tag("dvfs")),
        }
        JsonValue::Arr(entry)
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        let entry = v
            .as_arr()
            .ok_or_else(|| mismatch("[tick, seq, kind, payload?]"))?;
        let kind = match entry.get(2).and_then(JsonValue::as_str) {
            Some("completion") => EventKind::Completion(item(entry, 3, pool)?),
            Some("arrival") => EventKind::Arrival(item(entry, 3, pool)?),
            Some("os") => EventKind::OsTick,
            Some("dvfs") => EventKind::DvfsTick,
            _ => return Err(mismatch("\"completion\", \"arrival\", \"os\", or \"dvfs\"")),
        };
        Ok((item(entry, 0, pool)?, item(entry, 1, pool)?, kind))
    }
}

impl Wire for Snapshot {
    fn to_value(&self) -> JsonValue {
        obj([
            ("schema", JsonValue::Str(SNAPSHOT_SCHEMA.into())),
            ("tick", self.tick.to_value()),
            ("total_ticks", self.total_ticks.to_value()),
            ("core_count", self.core_count.to_value()),
            ("initial_count", self.initial_count.to_value()),
            ("machine", self.machine.to_value()),
            ("rng", self.rng.to_value()),
            ("arrival_rng", self.arrival_rng.to_value()),
            ("manager", self.manager.to_value()),
            (
                "queue",
                obj([
                    ("next_seq", self.queue_next_seq.to_value()),
                    ("events", self.queue_events.to_value()),
                ]),
            ),
            ("jobs", self.jobs.to_value()),
            ("thread_job", self.thread_job.to_value()),
            ("run_queue", self.run_queue.to_value()),
            ("events", self.events.to_value()),
            ("fault_dirty", self.fault_dirty.to_value()),
            ("window_dirty", self.window_dirty.to_value()),
            ("shed", self.shed.to_value()),
            ("counters", self.counters.to_value()),
        ])
    }
    fn from_value(v: &JsonValue, pool: &[AppSpec]) -> Result<Self, SnapshotError> {
        if v.get("schema").and_then(JsonValue::as_str) != Some(SNAPSHOT_SCHEMA) {
            return Err(schema_err("schema", SNAPSHOT_SCHEMA));
        }
        let queue = at(v, "queue")?;
        Ok(Snapshot {
            tick: field(v, "tick", pool)?,
            total_ticks: field(v, "total_ticks", pool)?,
            core_count: field(v, "core_count", pool)?,
            initial_count: field(v, "initial_count", pool)?,
            machine: field(v, "machine", pool)?,
            rng: field(v, "rng", pool)?,
            arrival_rng: field(v, "arrival_rng", pool)?,
            manager: field(v, "manager", pool)?,
            queue_next_seq: field(queue, "next_seq", pool).map_err(|e| within("queue", e))?,
            queue_events: field(queue, "events", pool).map_err(|e| within("queue", e))?,
            jobs: field(v, "jobs", pool)?,
            thread_job: field(v, "thread_job", pool)?,
            run_queue: field(v, "run_queue", pool)?,
            events: field(v, "events", pool)?,
            fault_dirty: field(v, "fault_dirty", pool)?,
            window_dirty: field(v, "window_dirty", pool)?,
            shed: field(v, "shed", pool)?,
            counters: field(v, "counters", pool)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire>(v: &T) -> T {
        T::from_value(&parse_json(&v.to_value().to_json()).unwrap(), &[]).unwrap()
    }

    #[test]
    fn exact_f64_encoding_round_trips_non_finite_values() {
        for v in [1.5, 0.0, -2.25e-300, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(round_trip(&v).to_bits(), v.to_bits(), "value {v}");
        }
        assert!(round_trip(&f64::NAN).is_nan());
    }

    #[test]
    fn u64_encoding_keeps_all_bits() {
        for v in [0u64, 1, u64::MAX, 1 << 63, 0x9E3779B97F4A7C15] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn control_state_round_trips() {
        for state in [
            ControlState::Stateless,
            ControlState::Cursor(7),
            ControlState::Basis(None),
            ControlState::Basis(Some(vec![3, 1, 4, 1, 5])),
            ControlState::Regulator {
                correction_w: -1.25,
                last: vec![(0, 3), (5, 0), (19, 8)],
            },
        ] {
            assert_eq!(round_trip(&state), state);
        }
    }

    #[test]
    fn garbage_is_rejected_with_a_field_path() {
        let doc = format!("{{\"schema\":\"{SNAPSHOT_SCHEMA}\"}}");
        let err = Snapshot::from_json(&doc, &[]).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema { .. }));
        assert!(Snapshot::from_json("not json", &[]).is_err());
        let err = Snapshot::from_json("{\"schema\":\"other.v9\"}", &[]).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Schema {
                field: "schema".into(),
                expected: SNAPSHOT_SCHEMA,
            }
        );
    }
}
