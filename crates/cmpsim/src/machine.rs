//! The simulated 20-core CMP.
//!
//! A [`Machine`] binds together one manufactured [`varius::Die`], the
//! floorplan, the frequency/power/thermal models, and a set of running
//! [`Thread`]s. It advances in discrete time steps (the runtime uses
//! 1 ms ticks) and exposes exactly the observables the paper's
//! algorithms are allowed to use (Table 3):
//!
//! * manufacturer data: per-core (V, f) tables, rated maximum
//!   frequencies, and zero-load static-power profiles per voltage;
//! * run-time sensors: per-core power, per-thread IPC, total chip
//!   power, and block temperatures.
//!
//! Cores that have no thread assigned are powered off (the paper's
//! assumption in §7.3). The L2 strips stay on a fixed voltage rail and
//! contribute leakage plus access-driven dynamic power.

use crate::cache::OccupancyScratch;
use crate::faults::{FaultConfigError, FaultEvent, FaultPlan, FaultState};
use crate::thread::Thread;
use critpath::{FreqModel, TimingParams, VfTable};
use floorplan::{BlockKind, Floorplan};
use powermodel::{BlockLeakage, DynamicPower, LeakageParams, LeakagePower};
use std::cell::RefCell;
use thermal::{ThermalModel, ThermalParams, ThermalScratch};
use varius::{CoreCells, Die};

/// Voltage/frequency transition costs (paper §5.1: "we conservatively
/// assume that the voltage and frequency transition speeds are those of
/// current systems such as Xscale").
///
/// A level change stalls the core for the voltage ramp plus a fixed
/// PLL-relock overhead; the core burns power but retires nothing while
/// it waits. On-chip regulators (Kim et al.) would make `s_per_volt`
/// orders of magnitude smaller — model that by lowering the knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsTransition {
    /// Voltage ramp time per volt of change (seconds/volt).
    pub s_per_volt: f64,
    /// Fixed re-lock overhead per transition (seconds).
    pub overhead_s: f64,
}

impl DvfsTransition {
    /// XScale-class board regulator: 1 mV/µs ramp + 20 µs relock.
    pub fn xscale() -> Self {
        Self {
            s_per_volt: 1.0e-3,
            overhead_s: 20.0e-6,
        }
    }

    /// Stall incurred for a voltage change of `dv` volts.
    pub fn stall_s(&self, dv: f64) -> f64 {
        if dv == 0.0 {
            0.0
        } else {
            self.s_per_volt * dv.abs() + self.overhead_s
        }
    }
}

/// Configuration of the simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Discrete supply-voltage levels, ascending (volts).
    pub voltages: Vec<f64>,
    /// Frequency quantization step for the (V, f) tables (Hz).
    pub f_step_hz: f64,
    /// Timing model parameters.
    pub timing: TimingParams,
    /// Core leakage parameters.
    pub core_leakage: LeakageParams,
    /// L2 leakage parameters.
    pub l2_leakage: LeakageParams,
    /// Thermal model parameters.
    pub thermal: ThermalParams,
    /// Dynamic power model.
    pub dynamic: DynamicPower,
    /// Energy per L2 access (joules); L2 accesses are L1 misses.
    pub l2_access_energy_j: f64,
    /// Fixed L2 supply rail (volts).
    pub l2_voltage: f64,
    /// Temperature at which manufacturer zero-load static profiles are
    /// measured (kelvin).
    pub profile_temp_k: f64,
    /// Voltage/frequency transition cost model.
    pub transition: DvfsTransition,
    /// Shared-L2 contention model; `None` gives every thread the whole
    /// cache (no contention).
    pub cache: Option<crate::cache::CacheConfig>,
    /// Hardware dynamic thermal management: when a core's block exceeds
    /// this junction temperature (kelvin), the core is forced down one
    /// (V, f) level per tick until it cools. Foxton-class controllers
    /// manage temperature as well as power (§2); without this guard the
    /// leakage-temperature feedback loop can run away on leaky dies
    /// left unmanaged for long stretches.
    pub dtm_limit_k: f64,
}

impl MachineConfig {
    /// The paper's machine: VDD 0.6–1 V in 50 mV steps, 100 MHz
    /// frequency quantization, and the paper-calibrated component
    /// models.
    pub fn paper_default() -> Self {
        let voltages = (0..9).map(|i| 0.6 + 0.05 * i as f64).collect();
        Self {
            voltages,
            f_step_hz: 100.0e6,
            timing: TimingParams::paper_default(),
            core_leakage: LeakageParams::core_default(),
            l2_leakage: LeakageParams::l2_default(),
            thermal: ThermalParams::paper_default(),
            dynamic: DynamicPower::paper_default(),
            l2_access_energy_j: 1.0e-9,
            l2_voltage: 1.0,
            profile_temp_k: 333.15,
            transition: DvfsTransition::xscale(),
            dtm_limit_k: 378.15,
            cache: Some(crate::cache::CacheConfig::paper_default()),
        }
    }
}

/// Per-core immutable data derived from the die.
#[derive(Debug, Clone)]
struct CoreInfo {
    cells: CoreCells,
    vf: VfTable,
    area_mm2: f64,
    block_idx: usize,
    /// Center of the core's floorplan block, normalized die coordinates.
    center: (f64, f64),
}

/// Per-L2-strip immutable data.
#[derive(Debug, Clone)]
struct L2Info {
    cells: CoreCells,
    area_mm2: f64,
    block_idx: usize,
}

/// Generation-stamped memo of the leakage term of the power sensors.
///
/// Managers sweep [`Machine::predicted_core_power`] over every level of
/// every core — often several times within one DVFS interval. The
/// leakage part of a reading depends only on the core, the level's
/// voltage, and the core's temperature, and temperatures change only
/// when the simulation advances — so the exact `block_static` result is
/// cached per (core, level) under a generation that `step` and
/// `load_threads` bump. The dynamic part tracks the thread's phase and
/// is always recomputed. Entries are reused verbatim (no re-derivation),
/// so memoized readings are bit-identical to fresh ones.
#[derive(Debug, Clone)]
struct LeakMemo {
    /// Generation the cached entries belong to.
    generation: u64,
    /// Cached leakage (watts), indexed `core * levels + level`.
    values: Vec<f64>,
    /// Per-entry generation stamp; an entry is valid iff its stamp
    /// equals `generation`.
    stamp: Vec<u64>,
}

impl LeakMemo {
    fn new() -> Self {
        Self {
            // Start above the zeroed stamps so nothing is spuriously
            // valid before the first fill.
            generation: 1,
            values: Vec::new(),
            stamp: Vec::new(),
        }
    }

    /// Drops every cached entry (O(1): bumps the generation).
    fn invalidate(&mut self) {
        self.generation += 1;
    }
}

/// The complete mutable state of a [`Machine`]: the machine keeps its
/// run-time state in this struct, a checkpoint stores it as it is
/// ([`Machine::export_state`]), and a probe reset copies it
/// ([`Machine::copy_state_from`]).
///
/// Everything that evolves as the simulation steps is here; everything
/// that is configuration (the die, the floorplan, the models, the
/// installed [`FaultPlan`]) is not — a restore rebuilds the machine
/// from the same configuration and then imports this state on top via
/// [`Machine::import_state`]. Scratch buffers and the leakage memo are
/// deliberately excluded: they are rebuilt lazily and never affect
/// results bit-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Per-block temperatures (kelvin).
    pub temps: Vec<f64>,
    /// The running threads, with their full progress counters.
    pub threads: Vec<Thread>,
    /// Per core: index of the thread it runs, if any.
    pub assignment: Vec<Option<usize>>,
    /// Per core: current (V, f) level index.
    pub levels: Vec<usize>,
    /// Per core: optional frequency cap below the table frequency
    /// (used by the UniFreq configuration, where all cores cycle at the
    /// slowest active core's frequency while staying at their level's
    /// voltage).
    pub freq_caps: Vec<Option<f64>>,
    /// Per core: remaining DVFS-transition stall (seconds).
    pub stall_s: Vec<f64>,
    /// Per-core power sensors from the last step (watts).
    pub last_core_power: Vec<f64>,
    /// Per-core IPC sensors from the last step (0 when idle).
    pub last_core_ipc: Vec<f64>,
    /// Chip power meter from the last step (watts).
    pub last_total_power: f64,
    /// DTM throttle events since the last thread load.
    pub dtm_events: usize,
    /// Accumulated energy (joules).
    pub energy_j: f64,
    /// Accumulated simulated time (seconds).
    pub elapsed_s: f64,
    /// Accumulated instructions retired chip-wide.
    pub total_instructions: f64,
    /// Fault timeline progress, when a plan is installed. `None` means
    /// truthful sensors and an untouched simulation — the fast path
    /// every fault-free run takes, bit for bit.
    pub faults: Option<FaultState>,
}

impl MachineState {
    /// The state of a machine that has not run yet: `threads` loaded
    /// and none assigned, each core at its entry of `levels` with no cap
    /// and no stall, every one of `blocks` blocks at `ambient_k`, zeroed
    /// sensors and statistics, and no fault progress.
    fn initial(blocks: usize, ambient_k: f64, threads: Vec<Thread>, levels: Vec<usize>) -> Self {
        let n = levels.len();
        Self {
            temps: vec![ambient_k; blocks],
            threads,
            assignment: vec![None; n],
            levels,
            freq_caps: vec![None; n],
            stall_s: vec![0.0; n],
            last_core_power: vec![0.0; n],
            last_core_ipc: vec![0.0; n],
            last_total_power: 0.0,
            dtm_events: 0,
            energy_j: 0.0,
            elapsed_s: 0.0,
            total_instructions: 0.0,
            faults: None,
        }
    }

    /// Overwrites this state with `src` field by field through
    /// `clone_from`, so this state's vectors are reused (the derived
    /// `Clone::clone_from` would reallocate them all).
    fn copy_from(&mut self, src: &Self) {
        // Exhaustive on purpose: a new field does not compile until it
        // is copied here.
        let Self {
            temps,
            threads,
            assignment,
            levels,
            freq_caps,
            stall_s,
            last_core_power,
            last_core_ipc,
            last_total_power,
            dtm_events,
            energy_j,
            elapsed_s,
            total_instructions,
            faults,
        } = self;
        temps.clone_from(&src.temps);
        threads.clone_from(&src.threads);
        assignment.clone_from(&src.assignment);
        levels.clone_from(&src.levels);
        freq_caps.clone_from(&src.freq_caps);
        stall_s.clone_from(&src.stall_s);
        last_core_power.clone_from(&src.last_core_power);
        last_core_ipc.clone_from(&src.last_core_ipc);
        *last_total_power = src.last_total_power;
        *dtm_events = src.dtm_events;
        *energy_j = src.energy_j;
        *elapsed_s = src.elapsed_s;
        *total_instructions = src.total_instructions;
        faults.clone_from(&src.faults);
    }
}

/// Why [`Machine::import_state`] rejected a [`MachineState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateMismatch {
    /// A per-core vector's length is not the machine's core count.
    CoreCount,
    /// The temperatures do not match the floorplan's block count.
    Floorplan,
    /// The state holds more threads than the machine has cores, or a
    /// core runs a thread the state does not hold.
    Threads,
    /// Fault progress is present but no plan is installed, the reverse,
    /// or the progress belongs to a plan of another shape.
    FaultPlan,
}

/// Statistics from one simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Wall-clock length of the step (seconds).
    pub dt_s: f64,
    /// Total chip power during the step (watts).
    pub total_power_w: f64,
    /// Instructions retired chip-wide during the step.
    pub instructions: f64,
}

/// Accumulated wall-clock attribution of [`Machine::step_profiled`]
/// across the step's phases, in seconds. Whatever a step spends outside
/// the four phases (fault advance, DTM, accounting) is the difference
/// to the caller's own total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepPhaseTimes {
    /// Shared-L2 occupancy fixed point (`update_l2_shares`).
    pub l2_occupancy_s: f64,
    /// Per-core and per-L2-strip static power evaluation.
    pub leakage_s: f64,
    /// Thread dispatch: phase scan, IPC/dynamic power, retirement.
    pub dispatch_s: f64,
    /// Thermal transient step.
    pub thermal_s: f64,
}

/// The phases [`Machine::step_profiled`] attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepPhase {
    L2Occupancy,
    Leakage,
    Dispatch,
    Thermal,
}

/// Scoped-timer hook monomorphized into `step_inner`: the production
/// [`Machine::step`] instantiates the no-op probe, which the optimizer
/// erases, so profiling support costs the hot path nothing.
trait StepProbe {
    fn begin(&mut self, _phase: StepPhase) {}
    fn end(&mut self, _phase: StepPhase) {}
}

/// The zero-cost probe behind [`Machine::step`].
struct NoProbe;
impl StepProbe for NoProbe {}

/// The `Instant`-based probe behind [`Machine::step_profiled`].
struct TimingProbe<'a> {
    times: &'a mut StepPhaseTimes,
    start: std::time::Instant,
}

impl StepProbe for TimingProbe<'_> {
    fn begin(&mut self, _phase: StepPhase) {
        self.start = std::time::Instant::now();
    }

    fn end(&mut self, phase: StepPhase) {
        let dt = self.start.elapsed().as_secs_f64();
        match phase {
            StepPhase::L2Occupancy => self.times.l2_occupancy_s += dt,
            StepPhase::Leakage => self.times.leakage_s += dt,
            StepPhase::Dispatch => self.times.dispatch_s += dt,
            StepPhase::Thermal => self.times.thermal_s += dt,
        }
    }
}

/// The simulated CMP.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    cores: Vec<CoreInfo>,
    l2: Vec<L2Info>,
    thermal: ThermalModel,
    freq_model: FreqModel,
    /// Per-core precomputed leakage models (SoA alongside `cores`):
    /// each folds its core's whole Vth map into a Chebyshev log-moment
    /// fit, so the per-tick leakage evaluation is O(1) instead of
    /// O(cells). Accuracy vs the per-cell path is the powermodel
    /// crate's 1e-6 corpus contract.
    core_leak_models: Vec<BlockLeakage>,
    /// Per-L2-strip precomputed leakage models (SoA alongside `l2`).
    l2_leak_models: Vec<BlockLeakage>,
    /// Everything the simulation mutates (see [`MachineState`]).
    state: MachineState,
    /// The installed fault plan, [`FaultPlan::none`] when none is.
    /// Configuration: its progress is `state.faults`, which is `None`
    /// exactly when no active plan is installed.
    fault_plan: FaultPlan,
    /// Fault transitions fired since the last
    /// [`Machine::take_fault_events`]: per-step output, not state.
    fault_events: Vec<FaultEvent>,
    /// Scratch: per-block power vector rebuilt by every `step`.
    scratch_block_power: Vec<f64>,
    /// Scratch: per-core static power, evaluated in one pass ahead of
    /// thread dispatch (same inputs, so the same values the inline
    /// evaluation produced) — gives the leakage phase one timeable
    /// boundary.
    scratch_core_leak: Vec<f64>,
    /// Scratch: per-L2-strip static power, same pre-pass.
    scratch_l2_leak: Vec<f64>,
    /// Scratch: thermal stepping buffers reused by every `step`.
    thermal_scratch: ThermalScratch,
    /// Scratch: `update_l2_shares` running-thread list — (thread index,
    /// effective frequency, `ipc_at(f)` hoisted out of the fixed-point
    /// demand loop, where it is share-independent).
    l2_running: Vec<(usize, f64, f64)>,
    /// Scratch: `update_l2_shares` current share vector.
    l2_current: Vec<f64>,
    /// Scratch: `update_l2_shares` solved target shares.
    l2_target: Vec<f64>,
    /// Scratch: occupancy fixed-point work buffer.
    l2_occupancy: OccupancyScratch,
    /// Leakage memo for the power sensors (interior mutability: the
    /// sensors are `&self`). Makes `Machine` non-`Sync`, which is fine —
    /// each trial worker owns its machines outright.
    leak_memo: RefCell<LeakMemo>,
}

impl Machine {
    /// Builds a machine for one manufactured die.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's voltage list is empty or unsorted.
    pub fn new(die: &Die, floorplan: &Floorplan, config: MachineConfig) -> Self {
        assert!(
            !config.voltages.is_empty(),
            "need at least one voltage level"
        );
        assert!(
            config.voltages.windows(2).all(|w| w[0] < w[1]),
            "voltages must be strictly ascending"
        );
        let freq_model = FreqModel::new(config.timing);
        let core_leak = LeakagePower::new(config.core_leakage);
        let l2_leak = LeakagePower::new(config.l2_leakage);

        let mut cores = Vec::new();
        let mut l2 = Vec::new();
        for (block_idx, block) in floorplan.blocks().iter().enumerate() {
            let pts = floorplan.grid_points_in(&block.rect, die.nx(), die.ny());
            assert!(
                !pts.is_empty(),
                "block {:?} has no variation cells at this resolution",
                block.kind
            );
            let cells = CoreCells {
                vth: pts.iter().map(|&p| die.vth()[p]).collect(),
                leff: pts.iter().map(|&p| die.leff()[p]).collect(),
            };
            let area = floorplan.block_area_mm2(block);
            match block.kind {
                BlockKind::Core(idx) => {
                    let vf = freq_model.vf_table(&cells, &config.voltages, config.f_step_hz);
                    cores.push((
                        idx,
                        CoreInfo {
                            cells,
                            vf,
                            area_mm2: area,
                            block_idx,
                            center: block.rect.center(),
                        },
                    ));
                }
                BlockKind::L2(_) => l2.push(L2Info {
                    cells,
                    area_mm2: area,
                    block_idx,
                }),
            }
        }
        cores.sort_by_key(|(idx, _)| *idx);
        let cores: Vec<CoreInfo> = cores.into_iter().map(|(_, c)| c).collect();
        let n = cores.len();
        let core_leak_models: Vec<BlockLeakage> = cores
            .iter()
            .map(|c| core_leak.block_model(&c.cells, c.area_mm2))
            .collect();
        let l2_leak_models: Vec<BlockLeakage> = l2
            .iter()
            .map(|s| l2_leak.block_model(&s.cells, s.area_mm2))
            .collect();

        let thermal = ThermalModel::new(floorplan, config.thermal);
        let thermal_scratch = ThermalScratch::for_model(&thermal);
        let blocks = floorplan.blocks().len();
        let strips = l2.len();
        let state = MachineState::initial(blocks, config.thermal.ambient_k, Vec::new(), vec![0; n]);

        Self {
            config,
            cores,
            l2,
            thermal,
            freq_model,
            core_leak_models,
            l2_leak_models,
            state,
            fault_plan: FaultPlan::none(),
            fault_events: Vec::new(),
            scratch_block_power: vec![0.0; blocks],
            scratch_core_leak: vec![0.0; n],
            scratch_l2_leak: vec![0.0; strips],
            thermal_scratch,
            l2_running: Vec::new(),
            l2_current: Vec::new(),
            l2_target: Vec::new(),
            l2_occupancy: OccupancyScratch::new(),
            leak_memo: RefCell::new(LeakMemo::new()),
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Manufacturer (V, f) table of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn vf_table(&self, core: usize) -> &VfTable {
        &self.cores[core].vf
    }

    /// Rated maximum frequency of a core (Hz): its table frequency at
    /// the maximum voltage, rated at 95 °C as in the paper (§7.1).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn rated_max_freq(&self, core: usize) -> f64 {
        self.cores[core].vf.max_freq()
    }

    /// Manufacturer zero-load static power of a core at voltage `v`
    /// (watts), measured at the profiling temperature (Table 3's
    /// "static power consumption at each voltage level").
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn manufacturer_static_power(&self, core: usize, v: f64) -> f64 {
        self.core_leak_models[core].static_power(v, self.config.profile_temp_k)
    }

    /// The variation cells of a core (for model-level analyses).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_cells(&self, core: usize) -> &CoreCells {
        &self.cores[core].cells
    }

    /// The frequency model the machine was built with.
    pub fn freq_model(&self) -> &FreqModel {
        &self.freq_model
    }

    /// Loads a fresh set of threads, clearing all assignments and
    /// resetting accumulated statistics. Levels reset to each core's
    /// maximum.
    ///
    /// # Panics
    ///
    /// Panics if there are more threads than cores.
    pub fn load_threads(&mut self, threads: Vec<Thread>) {
        assert!(
            threads.len() <= self.cores.len(),
            "more threads ({}) than cores ({})",
            threads.len(),
            self.cores.len()
        );
        let top_levels = self.cores.iter().map(|c| c.vf.max_level()).collect();
        self.state = MachineState::initial(
            self.state.temps.len(),
            self.config.thermal.ambient_k,
            threads,
            top_levels,
        );
        self.fault_plan = FaultPlan::none();
        self.fault_events.clear();
        self.leak_memo.get_mut().invalidate();
    }

    /// Installs a [`FaultPlan`], starting its timeline at the current
    /// instant. An inactive plan installs nothing at all, which is the
    /// bit-identity guarantee: no fault state, no extra arithmetic on
    /// the sensor path, no extra RNG draws.
    ///
    /// [`Machine::load_threads`] clears any installed plan, so trial
    /// arms that reload the machine must re-install.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), FaultConfigError> {
        plan.validate(self.cores.len())?;
        let active = plan.is_active();
        self.fault_plan = if active {
            plan.clone()
        } else {
            FaultPlan::none()
        };
        self.state.faults = active.then(|| FaultState::start(plan, self.cores.len()));
        self.fault_events.clear();
        Ok(())
    }

    /// Whether a fault plan is currently installed.
    pub fn has_active_faults(&self) -> bool {
        self.state.faults.is_some()
    }

    /// Whether `core` is still alive (always true without faults).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_alive(&self, core: usize) -> bool {
        assert!(core < self.cores.len(), "core out of range");
        self.state.faults.as_ref().is_none_or(|f| f.alive[core])
    }

    /// Number of cores still alive.
    pub fn alive_core_count(&self) -> usize {
        (0..self.cores.len())
            .filter(|&c| self.core_alive(c))
            .count()
    }

    /// The multiplicative factor an injected budget drop currently
    /// applies to the nominal chip power budget (1.0 when no drop is
    /// open or no faults are installed).
    pub fn fault_budget_factor(&self) -> f64 {
        self.state.faults.as_ref().map_or(1.0, |f| f.budget_factor)
    }

    /// Drains the fault transitions that fired since the last call.
    /// The runtime logs these as degradation events and reacts — e.g.
    /// rescheduling off a dead core.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.fault_events)
    }

    /// Adds one thread to the running set *without* resetting the
    /// machine's accumulated statistics or thermal state — the online
    /// serving runtime admits arriving jobs this way. The thread starts
    /// unassigned; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if every core already has a thread.
    pub fn add_thread(&mut self, thread: Thread) -> usize {
        assert!(
            self.state.threads.len() < self.cores.len(),
            "cannot add thread: all {} cores are occupied",
            self.cores.len()
        );
        self.state.threads.push(thread);
        self.state.threads.len() - 1
    }

    /// Removes thread `tid` from the running set (a completed job
    /// leaving the system), freeing its core and preserving all
    /// accumulated statistics. Returns the removed [`Thread`] so
    /// callers can read its final counters.
    ///
    /// The last thread takes the removed thread's index
    /// (`swap_remove`); its core assignment is re-pointed accordingly,
    /// so callers holding thread indices must remap the old last index
    /// to `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn remove_thread(&mut self, tid: usize) -> Thread {
        assert!(
            tid < self.state.threads.len(),
            "thread index {tid} out of range"
        );
        let last = self.state.threads.len() - 1;
        for slot in self.state.assignment.iter_mut() {
            if *slot == Some(tid) {
                *slot = None;
            }
        }
        let removed = self.state.threads.swap_remove(tid);
        if tid != last {
            for slot in self.state.assignment.iter_mut() {
                if *slot == Some(last) {
                    *slot = Some(tid);
                }
            }
        }
        removed
    }

    /// Charges an externally-modelled stall to a core: the core burns
    /// power but retires nothing for `stall_s` seconds of subsequent
    /// execution. The online runtime uses this for the migration
    /// penalty when a reschedule moves a thread between cores; it adds
    /// on top of any pending DVFS-transition stall.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `stall_s` is negative or NaN.
    pub fn charge_stall(&mut self, core: usize, stall_s: f64) {
        assert!(core < self.cores.len(), "core out of range");
        assert!(
            stall_s >= 0.0 && !stall_s.is_nan(),
            "stall must be non-negative"
        );
        self.state.stall_s[core] += stall_s;
    }

    /// Sets the core→thread assignment. `mapping[core]` is the thread
    /// index the core runs, or `None` for an idle (powered-off) core.
    ///
    /// # Panics
    ///
    /// Panics if the mapping length mismatches the core count, a thread
    /// index is out of range, a thread appears on two cores, or a
    /// thread is mapped onto a core an installed fault plan has killed.
    pub fn assign(&mut self, mapping: &[Option<usize>]) {
        assert_eq!(mapping.len(), self.cores.len(), "mapping length mismatch");
        let mut seen = vec![false; self.state.threads.len()];
        for (core, m) in mapping.iter().enumerate() {
            let Some(m) = m else { continue };
            assert!(
                *m < self.state.threads.len(),
                "thread index {m} out of range"
            );
            assert!(!seen[*m], "thread {m} assigned to two cores");
            assert!(
                self.core_alive(core),
                "thread {m} assigned to dead core {core}"
            );
            seen[*m] = true;
        }
        self.state.assignment.copy_from_slice(mapping);
    }

    /// Current assignment (core → thread index).
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.state.assignment
    }

    /// Sets one core's (V, f) level.
    ///
    /// # Panics
    ///
    /// Panics if the core or level is out of range.
    pub fn set_level(&mut self, core: usize, level: usize) {
        assert!(core < self.cores.len(), "core out of range");
        assert!(
            level < self.cores[core].vf.len(),
            "level {level} out of range for core {core}"
        );
        if level == self.state.levels[core] {
            return; // no transition, no cost, caps untouched
        }
        let dv = self.cores[core].vf.voltage_at(level)
            - self.cores[core].vf.voltage_at(self.state.levels[core]);
        self.state.stall_s[core] += self.config.transition.stall_s(dv);
        self.state.levels[core] = level;
        self.state.freq_caps[core] = None;
    }

    /// Remaining DVFS-transition stall on a core (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn transition_stall_s(&self, core: usize) -> f64 {
        self.state.stall_s[core]
    }

    /// Current (V, f) level of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn level(&self, core: usize) -> usize {
        self.state.levels[core]
    }

    /// Sets every core to its maximum (V, f) level.
    pub fn set_all_levels_max(&mut self) {
        for c in 0..self.cores.len() {
            self.state.levels[c] = self.cores[c].vf.max_level();
            self.state.freq_caps[c] = None;
        }
    }

    /// Effective frequency of a core: its table frequency at the current
    /// level, reduced by any frequency cap.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn effective_freq(&self, core: usize) -> f64 {
        let f = self.cores[core].vf.freq_at(self.state.levels[core]);
        match self.state.freq_caps[core] {
            Some(cap) => f.min(cap),
            None => f,
        }
    }

    /// Configures the UniFreq mode of §4.1: every active core cycles at
    /// the frequency of the slowest active core. There is *no* DVFS in
    /// this configuration — all cores stay at the nominal (maximum)
    /// voltage and the faster cores are frequency-capped, so the only
    /// inter-core variation left is in power consumption.
    ///
    /// Returns the chosen chip-wide frequency in Hz.
    pub fn set_uniform_frequency(&mut self) -> f64 {
        let active: Vec<usize> = (0..self.cores.len())
            .filter(|&c| self.state.assignment[c].is_some())
            .collect();
        if active.is_empty() {
            return 0.0;
        }
        let chip_f = active
            .iter()
            .map(|&c| self.cores[c].vf.max_freq())
            .fold(f64::INFINITY, f64::min);
        for &c in &active {
            self.state.levels[c] = self.cores[c].vf.max_level();
            self.state.freq_caps[c] = Some(chip_f);
        }
        chip_f
    }

    /// Re-solves the shared-L2 occupancy among the running threads and
    /// pushes each thread's share into its state (no-op when the
    /// contention model is disabled or at most one thread runs).
    fn update_l2_shares(&mut self) {
        let Some(cache) = self.config.cache else {
            return;
        };
        // Collect (thread index, effective frequency) of running threads
        // into a buffer reused across ticks (taken out of `self` so the
        // borrow checker sees the later `self.state.threads` accesses as
        // disjoint; restored on every exit path).
        let mut running = std::mem::take(&mut self.l2_running);
        running.clear();
        for core in 0..self.cores.len() {
            if let Some(tid) = self.state.assignment[core] {
                let f = self.effective_freq(core);
                if f > 0.0 {
                    // The demand loop below multiplies by `ipc_at(f)`
                    // every iteration; it only depends on `f`, so
                    // evaluate the miss-curve `powf` chain once here.
                    let ipc_f = self.state.threads[tid].spec().ipc_at(f);
                    running.push((tid, f, ipc_f));
                }
            }
        }
        if running.is_empty() {
            self.l2_running = running;
            return;
        }
        if running.len() == 1 {
            self.state.threads[running[0].0].set_l2_alloc_mb(cache.capacity_mb);
            self.l2_running = running;
            return;
        }
        let mut current = std::mem::take(&mut self.l2_current);
        current.clear();
        current.extend(
            running
                .iter()
                .map(|&(tid, ..)| self.state.threads[tid].l2_alloc_mb()),
        );
        let mut target = std::mem::take(&mut self.l2_target);
        let threads = &self.state.threads;
        crate::cache::solve_occupancy_into(
            running.len(),
            cache.capacity_mb,
            &current,
            |i, share_mb| {
                let (tid, f, ipc_f) = running[i];
                let t = &threads[tid];
                t.spec().dram_mpi_at_share(share_mb)
                    * ipc_f // ipc_at(f): demand shape only; phase cancels
                    * f
            },
            &mut target,
            &mut self.l2_occupancy,
        );
        for (&(tid, ..), (&old, &new)) in running.iter().zip(current.iter().zip(target.iter())) {
            // Occupancy drifts with the cache's churn rate, not
            // instantly; smooth per tick.
            let s = cache.smoothing;
            self.state.threads[tid].set_l2_alloc_mb(old * (1.0 - s) + new * s);
        }
        // Smoothing breaks the exact tiling; renormalize.
        let sum: f64 = running
            .iter()
            .map(|&(tid, ..)| self.state.threads[tid].l2_alloc_mb())
            .sum();
        if sum > 0.0 {
            for &(tid, ..) in &running {
                let v = self.state.threads[tid].l2_alloc_mb() * cache.capacity_mb / sum;
                self.state.threads[tid].set_l2_alloc_mb(v);
            }
        }
        self.l2_running = running;
        self.l2_current = current;
        self.l2_target = target;
    }

    /// Advances the machine by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive.
    pub fn step(&mut self, dt_s: f64) -> StepStats {
        self.step_inner(dt_s, &mut NoProbe)
    }

    /// [`step`](Self::step) with wall-clock attribution: accumulates
    /// each phase's time into `times` (call it across many steps and
    /// read the sums). Identical simulation semantics — both entry
    /// points monomorphize the same `step_inner`, the profiled one with
    /// an `Instant`-reading probe at the phase boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive.
    pub fn step_profiled(&mut self, dt_s: f64, times: &mut StepPhaseTimes) -> StepStats {
        let mut probe = TimingProbe {
            times,
            start: std::time::Instant::now(),
        };
        self.step_inner(dt_s, &mut probe)
    }

    fn step_inner<P: StepProbe>(&mut self, dt_s: f64, probe: &mut P) -> StepStats {
        assert!(dt_s > 0.0, "time step must be positive");
        let n = self.cores.len();
        // Temperatures (and thus the sensor memo) change this step.
        self.leak_memo.get_mut().invalidate();
        self.scratch_block_power.clear();
        self.scratch_block_power.resize(self.state.temps.len(), 0.0);
        let mut instructions = 0.0;
        let mut l2_accesses_per_s = 0.0;

        // Advance the fault timeline across this step: cores that die
        // inside the window are unscheduled immediately (they retire
        // nothing this step), sticking sensors freeze at their last
        // truthful reading.
        if let Some(fs) = self.state.faults.as_mut() {
            let power = &self.state.last_core_power;
            let ipc = &self.state.last_core_ipc;
            let died = fs.advance(
                &self.fault_plan,
                dt_s,
                |c| power[c],
                |c| ipc[c],
                &mut self.fault_events,
            );
            for core in died {
                self.state.assignment[core] = None;
            }
        }

        probe.begin(StepPhase::L2Occupancy);
        self.update_l2_shares();
        probe.end(StepPhase::L2Occupancy);

        // Hardware DTM: force overheating cores down one level.
        for core in 0..n {
            if self.state.assignment[core].is_some()
                && self.state.temps[self.cores[core].block_idx] > self.config.dtm_limit_k
                && self.state.levels[core] > 0
            {
                let new_level = self.state.levels[core] - 1;
                let vf = &self.cores[core].vf;
                let dv = vf.voltage_at(new_level) - vf.voltage_at(self.state.levels[core]);
                self.state.stall_s[core] += self.config.transition.stall_s(dv);
                self.state.levels[core] = new_level;
                self.state.dtm_events += 1;
            }
        }

        // Static power in one pass ahead of dispatch. The (V, T) inputs
        // are exactly what the dispatch loop would have handed the
        // models inline (levels and temperatures do not move between
        // here and there), so the hoist changes no value — it gives the
        // leakage phase a single timeable boundary.
        probe.begin(StepPhase::Leakage);
        for core in 0..n {
            let info = &self.cores[core];
            let mut leak = 0.0;
            if self.state.assignment[core].is_some() {
                let level = self.state.levels[core];
                let v = info.vf.voltage_at(level);
                let mut f = info.vf.freq_at(level);
                if let Some(cap) = self.state.freq_caps[core] {
                    f = f.min(cap);
                }
                if f > 0.0 {
                    leak = self.core_leak_models[core]
                        .static_power(v, self.state.temps[info.block_idx]);
                }
            }
            self.scratch_core_leak[core] = leak;
        }
        for (leak, (strip, model)) in self
            .scratch_l2_leak
            .iter_mut()
            .zip(self.l2.iter().zip(&self.l2_leak_models))
        {
            *leak = model.static_power(self.config.l2_voltage, self.state.temps[strip.block_idx]);
        }
        probe.end(StepPhase::Leakage);

        probe.begin(StepPhase::Dispatch);
        for core in 0..n {
            let info = &self.cores[core];
            let Some(tid) = self.state.assignment[core] else {
                // Idle cores are powered off.
                self.state.last_core_power[core] = 0.0;
                self.state.last_core_ipc[core] = 0.0;
                continue;
            };
            let level = self.state.levels[core];
            let v = info.vf.voltage_at(level);
            let mut f = info.vf.freq_at(level);
            if let Some(cap) = self.state.freq_caps[core] {
                f = f.min(cap);
            }
            if f <= 0.0 {
                self.state.last_core_power[core] = 0.0;
                self.state.last_core_ipc[core] = 0.0;
                continue;
            }
            let thread = &mut self.state.threads[tid];

            // Consume any pending DVFS-transition stall: the core burns
            // power but retires nothing while the regulator ramps.
            let stall = self.state.stall_s[core].min(dt_s);
            self.state.stall_s[core] -= stall;
            let run_s = dt_s - stall;

            // One phase scan and one miss-curve evaluation per tick:
            // `ipc_now`, `dynamic_power_now`, and `run` each redo the
            // phase lookup (and `run` the whole IPC) internally, so
            // evaluate the shared pieces once. Same expression trees,
            // so the results are bit-identical (pinned by the
            // `step_bit_identical_to_reference` test).
            let (ipc_mult, power_mult) = thread.phase_now();
            let ipc = thread.spec().ipc_at_share(f, thread.l2_alloc_mb()) * ipc_mult;
            let dyn_w = self.config.dynamic.power(thread.activity_now(), v, f) * power_mult;
            let leak_w = self.scratch_core_leak[core];
            let retired = thread.run_at(run_s, f, ipc);

            instructions += retired;
            l2_accesses_per_s += thread.spec().l1_mpi() * ipc * f;
            let total = dyn_w + leak_w;
            self.scratch_block_power[info.block_idx] = total;
            self.state.last_core_power[core] = total;
            self.state.last_core_ipc[core] = ipc;
        }

        // L2: leakage at the fixed rail plus access-driven dynamic power,
        // split evenly between the two strips.
        let l2_dynamic = l2_accesses_per_s * self.config.l2_access_energy_j;
        let strips = self.l2.len().max(1) as f64;
        let mut total_power = 0.0;
        for (strip, leak) in self.l2.iter().zip(&self.scratch_l2_leak) {
            let p = leak + l2_dynamic / strips;
            self.scratch_block_power[strip.block_idx] = p;
        }
        for &p in &self.scratch_block_power {
            total_power += p;
        }
        // A floorplan without L2 strips leaves the access-driven dynamic
        // power with no block to land in; charge it to a die-level sink
        // so chip power and energy still account for it. (The paper
        // floorplan always has strips, so this branch never fires there.)
        if self.l2.is_empty() {
            total_power += l2_dynamic;
        }
        probe.end(StepPhase::Dispatch);

        probe.begin(StepPhase::Thermal);
        self.thermal.transient_step_into(
            &mut self.state.temps,
            &self.scratch_block_power,
            dt_s,
            &mut self.thermal_scratch,
        );
        probe.end(StepPhase::Thermal);

        self.state.last_total_power = total_power;
        self.state.energy_j += total_power * dt_s;
        self.state.elapsed_s += dt_s;
        self.state.total_instructions += instructions;

        StepStats {
            dt_s,
            total_power_w: total_power,
            instructions,
        }
    }

    /// Sensor history: the total power (watts) the thread currently on
    /// `core` would draw at table level `level`, evaluated at the core's
    /// present temperature. Returns `None` for an idle core.
    ///
    /// This models the paper's run-time power sensors (§5.2): IPC and
    /// power profiling "is on all the time", so the manager has recent
    /// power readings for the voltage levels it needs (LinOpt fits its
    /// line to readings at three levels; SAnn "computes the power at
    /// each voltage level accurately").
    ///
    /// # Panics
    ///
    /// Panics if `core` or `level` is out of range.
    pub fn predicted_core_power(&self, core: usize, level: usize) -> Option<f64> {
        let info = &self.cores[core];
        assert!(level < info.vf.len(), "level out of range");
        let tid = self.state.assignment[core]?;
        let v = info.vf.voltage_at(level);
        let mut f = info.vf.freq_at(level);
        if let Some(cap) = self.state.freq_caps[core] {
            f = f.min(cap);
        }
        let temp = self.state.temps[info.block_idx];
        let thread = &self.state.threads[tid];
        let dyn_w = if f > 0.0 {
            thread.dynamic_power_now(&self.config.dynamic, v, f)
        } else {
            0.0
        };
        let leak_w = {
            let mut memo = self.leak_memo.borrow_mut();
            let stride = self.config.voltages.len();
            let len = self.cores.len() * stride;
            if memo.values.len() != len {
                memo.values.resize(len, 0.0);
                memo.stamp.resize(len, 0);
            }
            let idx = core * stride + level;
            if memo.stamp[idx] == memo.generation {
                memo.values[idx]
            } else {
                let w = self.core_leak_models[core].static_power(v, temp);
                let generation = memo.generation;
                memo.values[idx] = w;
                memo.stamp[idx] = generation;
                w
            }
        };
        let raw = dyn_w + leak_w;
        Some(match &self.state.faults {
            Some(fs) => fs.predicted_power_reading(&self.fault_plan, core, level, raw),
            None => raw,
        })
    }

    /// Sensor history: the IPC of the thread currently on `core`
    /// (profiled at its current phase; the paper's algorithms assume IPC
    /// is independent of frequency). Returns `None` for an idle core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn profiled_core_ipc(&self, core: usize) -> Option<f64> {
        let tid = self.state.assignment[core]?;
        let info = &self.cores[core];
        let f = info.vf.freq_at(self.state.levels[core]);
        let f = if f > 0.0 {
            f
        } else {
            info.vf.max_freq().max(1.0)
        };
        let raw = self.state.threads[tid].ipc_now(f);
        Some(match &self.state.faults {
            Some(fs) => fs.ipc_reading(&self.fault_plan, core, raw),
            None => raw,
        })
    }

    /// The thread index currently assigned to `core`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn thread_of(&self, core: usize) -> Option<usize> {
        self.state.assignment[core]
    }

    /// Sensor: total power during the last step (watts). An installed
    /// fault plan distorts this reading via the chip meter's own noise
    /// channel; [`Machine::average_power`] stays truthful.
    pub fn sensor_total_power(&self) -> f64 {
        match &self.state.faults {
            Some(fs) => fs.total_power_reading(
                &self.fault_plan,
                self.state.last_total_power,
                self.cores.len(),
            ),
            None => self.state.last_total_power,
        }
    }

    /// Sensor: one core's total power during the last step (watts).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn sensor_core_power(&self, core: usize) -> f64 {
        match &self.state.faults {
            Some(fs) => fs.power_reading(&self.fault_plan, core, self.state.last_core_power[core]),
            None => self.state.last_core_power[core],
        }
    }

    /// Sensor: one core's IPC during the last step (0 when idle).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn sensor_core_ipc(&self, core: usize) -> f64 {
        match &self.state.faults {
            Some(fs) => fs.ipc_reading(&self.fault_plan, core, self.state.last_core_ipc[core]),
            None => self.state.last_core_ipc[core],
        }
    }

    /// Current block temperatures (kelvin).
    pub fn temperatures(&self) -> &[f64] {
        &self.state.temps
    }

    /// Temperature of a core's block (kelvin).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_temperature(&self, core: usize) -> f64 {
        self.state.temps[self.cores[core].block_idx]
    }

    /// Center of a core's floorplan block, in normalized die
    /// coordinates (`[0, 1] × [0, 1]`). Geometry for thermal-aware
    /// placement: Manhattan distances between these centers are the
    /// spreading metric of PCGov-style mappers.
    pub fn core_center(&self, core: usize) -> (f64, f64) {
        self.cores[core].center
    }

    /// The loaded threads.
    pub fn threads(&self) -> &[Thread] {
        &self.state.threads
    }

    /// Hardware-DTM throttle events since the last thread load.
    pub fn dtm_events(&self) -> usize {
        self.state.dtm_events
    }

    /// Accumulated energy since the last [`Machine::load_threads`]
    /// (joules).
    pub fn energy_j(&self) -> f64 {
        self.state.energy_j
    }

    /// Accumulated simulated time (seconds).
    pub fn elapsed_s(&self) -> f64 {
        self.state.elapsed_s
    }

    /// Accumulated instructions retired chip-wide.
    pub fn total_instructions(&self) -> f64 {
        self.state.total_instructions
    }

    /// Average chip throughput in MIPS since the last load.
    pub fn average_mips(&self) -> f64 {
        if self.state.elapsed_s == 0.0 {
            0.0
        } else {
            self.state.total_instructions / self.state.elapsed_s / 1e6
        }
    }

    /// Average chip power since the last load (watts).
    pub fn average_power(&self) -> f64 {
        if self.state.elapsed_s == 0.0 {
            0.0
        } else {
            self.state.energy_j / self.state.elapsed_s
        }
    }

    /// Captures the machine's complete mutable state for a checkpoint.
    ///
    /// Call after draining [`Machine::take_fault_events`]: pending
    /// fault events are transient per-step output, not state.
    pub fn export_state(&self) -> MachineState {
        debug_assert!(
            self.fault_events.is_empty(),
            "fault events must be drained before checkpointing"
        );
        self.state.clone()
    }

    /// Restores state captured by [`Machine::export_state`] onto a
    /// machine built from the same die, floorplan, and configuration.
    /// The restored machine steps forward bit-identically to the
    /// machine the state was captured from.
    ///
    /// If the state carries fault progress, the original [`FaultPlan`]
    /// must have been re-installed via [`Machine::install_faults`]
    /// first; the plan is configuration and is not part of the state.
    ///
    /// # Errors
    ///
    /// Returns the [`StateMismatch`] the state fails against this
    /// machine and its installed plan, before changing anything.
    pub fn import_state(&mut self, state: &MachineState) -> Result<(), StateMismatch> {
        let n = self.cores.len();
        let per_core = [
            state.assignment.len(),
            state.levels.len(),
            state.freq_caps.len(),
            state.stall_s.len(),
            state.last_core_power.len(),
            state.last_core_ipc.len(),
        ];
        if per_core.iter().any(|&len| len != n) {
            return Err(StateMismatch::CoreCount);
        }
        if state.temps.len() != self.state.temps.len() {
            return Err(StateMismatch::Floorplan);
        }
        let threads = state.threads.len();
        if threads > n || state.assignment.iter().flatten().any(|&t| t >= threads) {
            return Err(StateMismatch::Threads);
        }
        let faults_fit = match (&self.state.faults, &state.faults) {
            (Some(_), Some(st)) => st.fits(&self.fault_plan, n),
            (None, None) => true,
            _ => false,
        };
        if !faults_fit {
            return Err(StateMismatch::FaultPlan);
        }
        self.state.copy_from(state);
        self.fault_events.clear();
        self.leak_memo.get_mut().invalidate();
        Ok(())
    }

    /// Overwrites this machine's run-time state with `src`'s, reusing
    /// this machine's buffers. Afterwards it steps and reads exactly as
    /// a fresh `src.clone()` would: the cheap way to reset a scratch
    /// copy between probes.
    ///
    /// Only the [`MachineState`] and the pending fault events are
    /// copied. The per-die data (cores, L2 strips, thermal model,
    /// frequency and leakage models, configuration) and the installed
    /// fault plan are identical on every clone of one machine, and
    /// scratch buffers are overwritten before every read, so both are
    /// left alone; the leakage memo is dropped, as
    /// [`import_state`](Self::import_state) does. `src` must therefore
    /// be this machine's origin or another clone of it, with the same
    /// plan installed (debug-asserted).
    pub fn copy_state_from(&mut self, src: &Machine) {
        debug_assert!(
            self.core_leak_models == src.core_leak_models
                && self.l2_leak_models == src.l2_leak_models
                && self.cores.iter().zip(&src.cores).all(|(a, b)| a.vf == b.vf)
                && self.fault_plan == src.fault_plan,
            "copy_state_from needs a clone of the same machine and fault plan"
        );
        self.state.copy_from(&src.state);
        self.fault_events.clone_from(&src.fault_events);
        // A cache, not state: memoized readings equal fresh ones.
        self.leak_memo.get_mut().invalidate();
    }
}

#[cfg(test)]
impl Machine {
    /// The pre-optimization `update_l2_shares`, retained verbatim for
    /// the `step` bit-identity test: fresh `Vec`s every call.
    fn update_l2_shares_reference(&mut self) {
        let Some(cache) = self.config.cache else {
            return;
        };
        let mut running: Vec<(usize, f64)> = Vec::new();
        for core in 0..self.cores.len() {
            if let Some(tid) = self.state.assignment[core] {
                let f = self.effective_freq(core);
                if f > 0.0 {
                    running.push((tid, f));
                }
            }
        }
        if running.is_empty() {
            return;
        }
        if running.len() == 1 {
            self.state.threads[running[0].0].set_l2_alloc_mb(cache.capacity_mb);
            return;
        }
        let current: Vec<f64> = running
            .iter()
            .map(|&(tid, _)| self.state.threads[tid].l2_alloc_mb())
            .collect();
        let threads = &self.state.threads;
        let target = crate::cache::solve_occupancy(
            running.len(),
            cache.capacity_mb,
            &current,
            |i, share_mb| {
                let (tid, f) = running[i];
                let t = &threads[tid];
                t.spec().dram_mpi_at_share(share_mb) * t.spec().ipc_at(f) * f
            },
        );
        for (&(tid, _), (&old, &new)) in running.iter().zip(current.iter().zip(target.iter())) {
            let s = cache.smoothing;
            self.state.threads[tid].set_l2_alloc_mb(old * (1.0 - s) + new * s);
        }
        let sum: f64 = running
            .iter()
            .map(|&(tid, _)| self.state.threads[tid].l2_alloc_mb())
            .sum();
        if sum > 0.0 {
            for &(tid, _) in &running {
                let v = self.state.threads[tid].l2_alloc_mb() * cache.capacity_mb / sum;
                self.state.threads[tid].set_l2_alloc_mb(v);
            }
        }
    }

    /// The pre-optimization `step`, retained verbatim as the reference
    /// the scratch-buffer path is pinned against: per-tick allocations,
    /// allocating thermal step, double `vf` lookup in the DTM loop.
    fn step_reference(&mut self, dt_s: f64) -> StepStats {
        assert!(dt_s > 0.0, "time step must be positive");
        let n = self.cores.len();
        let mut block_power = vec![0.0; self.state.temps.len()];
        let mut instructions = 0.0;
        let mut l2_accesses_per_s = 0.0;

        if let Some(fs) = self.state.faults.as_mut() {
            let power = &self.state.last_core_power;
            let ipc = &self.state.last_core_ipc;
            let died = fs.advance(
                &self.fault_plan,
                dt_s,
                |c| power[c],
                |c| ipc[c],
                &mut self.fault_events,
            );
            for core in died {
                self.state.assignment[core] = None;
            }
        }

        self.update_l2_shares_reference();

        for core in 0..n {
            if self.state.assignment[core].is_some()
                && self.state.temps[self.cores[core].block_idx] > self.config.dtm_limit_k
                && self.state.levels[core] > 0
            {
                let new_level = self.state.levels[core] - 1;
                let dv = self.cores[core].vf.voltage_at(new_level)
                    - self.cores[core].vf.voltage_at(self.state.levels[core]);
                self.state.stall_s[core] += self.config.transition.stall_s(dv);
                self.state.levels[core] = new_level;
                self.state.dtm_events += 1;
            }
        }

        for core in 0..n {
            let info = &self.cores[core];
            let Some(tid) = self.state.assignment[core] else {
                self.state.last_core_power[core] = 0.0;
                self.state.last_core_ipc[core] = 0.0;
                continue;
            };
            let level = self.state.levels[core];
            let v = info.vf.voltage_at(level);
            let mut f = info.vf.freq_at(level);
            if let Some(cap) = self.state.freq_caps[core] {
                f = f.min(cap);
            }
            if f <= 0.0 {
                self.state.last_core_power[core] = 0.0;
                self.state.last_core_ipc[core] = 0.0;
                continue;
            }
            let temp = self.state.temps[info.block_idx];
            let thread = &mut self.state.threads[tid];

            let stall = self.state.stall_s[core].min(dt_s);
            self.state.stall_s[core] -= stall;
            let run_s = dt_s - stall;

            let ipc = thread.ipc_now(f);
            let dyn_w = thread.dynamic_power_now(&self.config.dynamic, v, f);
            let leak_w = self.core_leak_models[core].static_power(v, temp);
            let retired = thread.run(run_s, f);

            instructions += retired;
            l2_accesses_per_s += thread.spec().l1_mpi() * ipc * f;
            let total = dyn_w + leak_w;
            block_power[info.block_idx] = total;
            self.state.last_core_power[core] = total;
            self.state.last_core_ipc[core] = ipc;
        }

        let l2_dynamic = l2_accesses_per_s * self.config.l2_access_energy_j;
        let strips = self.l2.len().max(1) as f64;
        let mut total_power = 0.0;
        for (strip, model) in self.l2.iter().zip(&self.l2_leak_models) {
            let temp = self.state.temps[strip.block_idx];
            let leak = model.static_power(self.config.l2_voltage, temp);
            let p = leak + l2_dynamic / strips;
            block_power[strip.block_idx] = p;
        }
        for &p in &block_power {
            total_power += p;
        }

        self.state.temps = self
            .thermal
            .transient_step(&self.state.temps, &block_power, dt_s);

        self.state.last_total_power = total_power;
        self.state.energy_j += total_power * dt_s;
        self.state.elapsed_s += dt_s;
        self.state.total_instructions += instructions;

        StepStats {
            dt_s,
            total_power_w: total_power,
            instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::app_pool;
    use crate::workload::Workload;
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};
    use vastats::SimRng;

    fn test_die() -> (Die, Floorplan) {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let gen = DieGenerator::new(cfg).unwrap();
        let die = gen.generate(&mut SimRng::seed_from(42));
        (die, paper_20_core())
    }

    fn loaded_machine(n_threads: usize, seed: u64) -> Machine {
        let (die, fp) = test_die();
        let mut m = Machine::new(&die, &fp, MachineConfig::paper_default());
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        let mut rng = SimRng::seed_from(seed);
        let w = Workload::draw(&pool, n_threads, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        // Assign thread i to core i.
        let mut mapping = vec![None; m.core_count()];
        for i in 0..n_threads {
            mapping[i] = Some(i);
        }
        m.assign(&mapping);
        m
    }

    /// The fields in which `a` and `b` agree, fault progress field by
    /// field when both carry it.
    fn shared_fields(a: &MachineState, b: &MachineState) -> Vec<&'static str> {
        let mut same = vec![
            ("temps", a.temps == b.temps),
            ("threads", a.threads == b.threads),
            ("assignment", a.assignment == b.assignment),
            ("levels", a.levels == b.levels),
            ("freq_caps", a.freq_caps == b.freq_caps),
            ("stall_s", a.stall_s == b.stall_s),
            ("last_core_power", a.last_core_power == b.last_core_power),
            ("last_core_ipc", a.last_core_ipc == b.last_core_ipc),
            ("last_total_power", a.last_total_power == b.last_total_power),
            ("dtm_events", a.dtm_events == b.dtm_events),
            ("energy_j", a.energy_j == b.energy_j),
            ("elapsed_s", a.elapsed_s == b.elapsed_s),
            (
                "total_instructions",
                a.total_instructions == b.total_instructions,
            ),
        ];
        match (&a.faults, &b.faults) {
            (Some(fa), Some(fb)) => same.extend([
                ("faults.now_s", fa.now_s == fb.now_s),
                ("faults.tick", fa.tick == fb.tick),
                ("faults.alive", fa.alive == fb.alive),
                ("faults.stuck", fa.stuck == fb.stuck),
                (
                    "faults.fired_failures",
                    fa.fired_failures == fb.fired_failures,
                ),
                ("faults.fired_stuck", fa.fired_stuck == fb.fired_stuck),
                ("faults.budget_factor", fa.budget_factor == fb.budget_factor),
            ]),
            (fa, fb) => same.push(("faults", fa == fb)),
        }
        same.into_iter()
            .filter_map(|(name, same)| same.then_some(name))
            .collect()
    }

    /// A scratch copy reset by `copy_state_from` is indistinguishable
    /// from a fresh clone, however far it drifted in between: same
    /// state, same steps, same sensor readings and fault timeline.
    #[test]
    fn copy_state_from_matches_a_fresh_clone() {
        // DTM just above ambient, so throttle events accumulate too.
        let (die, fp) = test_die();
        let config = MachineConfig {
            dtm_limit_k: 318.2,
            ..MachineConfig::paper_default()
        };
        let mut src = Machine::new(&die, &fp, config);
        let pool = app_pool(&src.config().dynamic);
        let mut rng = SimRng::seed_from(5);
        let w = Workload::draw(&pool, 9, &mut rng);
        src.load_threads(w.spawn_threads(&mut rng));
        src.assign(
            &(0..src.core_count())
                .map(|c| (c < 9).then_some(c))
                .collect::<Vec<_>>(),
        );
        let plan = FaultPlan::none()
            .with_seed(4)
            .with_sensor_noise(0.03)
            .with_stuck_sensor(2, 6.0)
            .with_core_failure(5, 12.0)
            .with_budget_drop(8.0, 30.0, 0.7);
        src.install_faults(&plan).unwrap();
        for _ in 0..4 {
            src.step(0.001);
        }
        src.set_level(1, 2);
        src.charge_stall(3, 0.002);
        src.predicted_core_power(0, 3); // fill the leakage memo

        // Drift in every run-time field: new assignment, a capped
        // frequency, a stall on an idle core (never drains), steps past
        // all three fault events (left pending) and through DTM, a memo
        // filled at other temperatures.
        let mut scratch = src.clone();
        let mut mapping = vec![None; scratch.core_count()];
        mapping[7] = Some(0);
        scratch.assign(&mapping);
        scratch.set_uniform_frequency();
        scratch.charge_stall(9, 0.05);
        for _ in 0..12 {
            scratch.step(0.001);
        }
        scratch.predicted_core_power(7, 1);
        assert_eq!(
            shared_fields(&scratch.state, &src.state),
            Vec::<&str>::new(),
            "the probe must differ from its source in every field"
        );
        assert_eq!(scratch.fault_events.len(), 3);
        scratch.copy_state_from(&src);

        let mut fresh = src.clone();
        assert_eq!(scratch.export_state(), fresh.export_state());
        for c in 0..fresh.core_count() {
            for level in 0..fresh.vf_table(c).len() {
                assert_eq!(
                    fresh.predicted_core_power(c, level).map(f64::to_bits),
                    scratch.predicted_core_power(c, level).map(f64::to_bits),
                    "memoized reading of core {c} level {level} before any step"
                );
            }
        }
        for tick in 0..15 {
            let a = fresh.step(0.001);
            let b = scratch.step(0.001);
            assert_eq!(
                a.total_power_w.to_bits(),
                b.total_power_w.to_bits(),
                "tick {tick}"
            );
            assert_eq!(
                a.instructions.to_bits(),
                b.instructions.to_bits(),
                "tick {tick}"
            );
            assert_eq!(fresh.take_fault_events(), scratch.take_fault_events());
            for c in 0..fresh.core_count() {
                assert_eq!(
                    fresh.sensor_core_power(c).to_bits(),
                    scratch.sensor_core_power(c).to_bits()
                );
                assert_eq!(
                    fresh.predicted_core_power(c, 4).map(f64::to_bits),
                    scratch.predicted_core_power(c, 4).map(f64::to_bits)
                );
            }
        }
        assert_eq!(scratch.export_state(), fresh.export_state());
    }

    /// A checkpointed machine restored onto a fresh instance (same die,
    /// floorplan, config, fault plan) must continue bit-identically to
    /// the original — including sensors, faults, and stall state.
    #[test]
    fn state_round_trip_steps_bit_identically() {
        let (die, fp) = test_die();
        let config = MachineConfig::paper_default();
        let plan = FaultPlan::none()
            .with_seed(3)
            .with_sensor_noise(0.03)
            .with_stuck_sensor(2, 20.0)
            .with_core_failure(5, 35.0)
            .with_budget_drop(10.0, 80.0, 0.8);

        let mut original = Machine::new(&die, &fp, config.clone());
        let pool = app_pool(&config.dynamic);
        let mut rng = SimRng::seed_from(17);
        let w = Workload::draw(&pool, 9, &mut rng);
        original.load_threads(w.spawn_threads(&mut rng));
        original.install_faults(&plan).unwrap();
        let mut mapping = vec![None; original.core_count()];
        for i in 0..9 {
            mapping[i] = Some(i);
        }
        original.assign(&mapping);

        for tick in 0..50 {
            if tick == 30 {
                original.set_level(1, 2); // leave a pending DVFS stall
                original.charge_stall(3, 0.004); // and a migration stall
            }
            original.step(0.001);
            original.take_fault_events();
        }

        let state = original.export_state();
        let mut restored = Machine::new(&die, &fp, config);
        restored.install_faults(&plan).unwrap();
        restored.import_state(&state).expect("same die, same plan");

        assert_eq!(restored.export_state(), state, "round trip must be exact");
        for tick in 0..60 {
            let a = original.step(0.001);
            let b = restored.step(0.001);
            assert_eq!(
                a.total_power_w.to_bits(),
                b.total_power_w.to_bits(),
                "power diverges at tick {tick} after restore"
            );
            assert_eq!(a.instructions.to_bits(), b.instructions.to_bits());
            assert_eq!(original.take_fault_events(), restored.take_fault_events());
        }
        for c in 0..original.core_count() {
            assert_eq!(
                original.sensor_core_power(c).to_bits(),
                restored.sensor_core_power(c).to_bits()
            );
            assert_eq!(original.core_alive(c), restored.core_alive(c));
        }
        assert_eq!(
            original.state.energy_j.to_bits(),
            restored.state.energy_j.to_bits()
        );
    }

    #[test]
    fn import_state_rejects_a_mismatched_state() {
        let (die, fp) = test_die();
        let config = MachineConfig::paper_default();
        let plan = FaultPlan::none().with_core_failure(5, 35.0);
        let mut m = Machine::new(&die, &fp, config.clone());
        let pool = app_pool(&config.dynamic);
        let mut rng = SimRng::seed_from(17);
        m.load_threads(Workload::draw(&pool, 3, &mut rng).spawn_threads(&mut rng));
        m.install_faults(&plan).unwrap();
        let good = m.export_state();
        let mut reject = |corrupt: fn(&mut MachineState), err| {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert_eq!(m.import_state(&bad), Err(err));
            assert_eq!(m.export_state(), good, "a rejected state changes nothing");
        };
        reject(|s| s.stall_s.truncate(1), StateMismatch::CoreCount);
        reject(|s| s.temps.truncate(1), StateMismatch::Floorplan);
        reject(|s| s.assignment[0] = Some(3), StateMismatch::Threads);
        reject(|s| s.faults = None, StateMismatch::FaultPlan);
        reject(
            |s| s.faults.as_mut().unwrap().fired_failures.push(false),
            StateMismatch::FaultPlan,
        );
        reject(
            |s| s.faults.as_mut().unwrap().fired_stuck.push(false),
            StateMismatch::FaultPlan,
        );
        reject(
            |s| s.faults.as_mut().unwrap().alive.truncate(1),
            StateMismatch::FaultPlan,
        );
        reject(
            |s| s.faults.as_mut().unwrap().stuck.push(None),
            StateMismatch::FaultPlan,
        );
    }

    /// `step_profiled` must simulate exactly like `step` (same
    /// monomorphized body, probe aside) while attributing wall time to
    /// every phase it claims to cover.
    #[test]
    fn step_profiled_matches_step_and_attributes_time() {
        let mut plain = loaded_machine(12, 21);
        let mut profiled = loaded_machine(12, 21);
        let mut times = StepPhaseTimes::default();
        for tick in 0..40 {
            let a = plain.step(0.001);
            let b = profiled.step_profiled(0.001, &mut times);
            assert_eq!(
                a.total_power_w.to_bits(),
                b.total_power_w.to_bits(),
                "power diverges at tick {tick}"
            );
            assert_eq!(a.instructions.to_bits(), b.instructions.to_bits());
        }
        for i in 0..plain.state.temps.len() {
            assert_eq!(
                plain.state.temps[i].to_bits(),
                profiled.state.temps[i].to_bits()
            );
        }
        assert!(times.l2_occupancy_s > 0.0, "occupancy phase unattributed");
        assert!(times.leakage_s > 0.0, "leakage phase unattributed");
        assert!(times.dispatch_s > 0.0, "dispatch phase unattributed");
        assert!(times.thermal_s > 0.0, "thermal phase unattributed");
    }

    /// Runs `step` and the retained pre-optimization reference in
    /// lockstep across thread counts, tick lengths, mid-run DVFS level
    /// changes, and a DTM-firing configuration; every observable must
    /// match bit for bit.
    #[test]
    fn step_bit_identical_to_reference() {
        for &(threads, seed, dtm_limit) in
            &[(20usize, 5u64, 378.15), (8, 6, 378.15), (16, 7, 320.0)]
        {
            let (die, fp) = test_die();
            let config = MachineConfig {
                dtm_limit_k: dtm_limit,
                ..MachineConfig::paper_default()
            };
            let mut fast = Machine::new(&die, &fp, config.clone());
            let mut reference = Machine::new(&die, &fp, config.clone());
            let pool = app_pool(&config.dynamic);
            let mut rng = Vec::new();
            for _ in 0..2 {
                rng.push(SimRng::seed_from(seed));
            }
            let w_a = Workload::draw(&pool, threads, &mut rng[0]);
            let w_b = Workload::draw(&pool, threads, &mut rng[1]);
            fast.load_threads(w_a.spawn_threads(&mut rng[0]));
            reference.load_threads(w_b.spawn_threads(&mut rng[1]));
            let mut mapping = vec![None; fast.core_count()];
            for i in 0..threads {
                mapping[i] = Some(i);
            }
            fast.assign(&mapping);
            reference.assign(&mapping);

            for tick in 0..120 {
                if tick == 40 {
                    // Exercise the DVFS-transition stall path.
                    fast.set_level(0, 1);
                    reference.set_level(0, 1);
                }
                let dt = if tick % 3 == 0 { 0.001 } else { 0.0025 };
                let a = fast.step(dt);
                let b = reference.step_reference(dt);
                assert_eq!(
                    a.total_power_w.to_bits(),
                    b.total_power_w.to_bits(),
                    "power diverges at tick {tick} ({threads} threads)"
                );
                assert_eq!(
                    a.instructions.to_bits(),
                    b.instructions.to_bits(),
                    "instructions diverge at tick {tick} ({threads} threads)"
                );
            }
            for i in 0..fast.state.temps.len() {
                assert_eq!(
                    fast.state.temps[i].to_bits(),
                    reference.state.temps[i].to_bits()
                );
            }
            assert_eq!(
                fast.state.energy_j.to_bits(),
                reference.state.energy_j.to_bits()
            );
            assert_eq!(fast.state.dtm_events, reference.state.dtm_events);
            if dtm_limit < 378.0 {
                assert!(fast.state.dtm_events > 0, "DTM case never fired");
            }
            for c in 0..fast.core_count() {
                assert_eq!(
                    fast.state.last_core_power[c].to_bits(),
                    reference.state.last_core_power[c].to_bits()
                );
                assert_eq!(
                    fast.state.last_core_ipc[c].to_bits(),
                    reference.state.last_core_ipc[c].to_bits()
                );
            }
            for (t_fast, t_ref) in fast.state.threads.iter().zip(&reference.state.threads) {
                assert_eq!(
                    t_fast.l2_alloc_mb().to_bits(),
                    t_ref.l2_alloc_mb().to_bits()
                );
            }
        }
    }

    /// A floorplan with no L2 strips used to drop the access-driven L2
    /// dynamic power on the floor; it must now be charged to the chip
    /// total (die-level sink).
    #[test]
    fn l2_dynamic_power_charged_without_strips() {
        use floorplan::{Block, Rect};
        let blocks: Vec<Block> = (0..4)
            .map(|i| Block {
                kind: BlockKind::Core(i),
                rect: Rect::new(0.05 + 0.24 * i as f64, 0.3, 0.2, 0.4),
            })
            .collect();
        let fp = Floorplan::new(18.0, 18.0, blocks);
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(42));

        let run = |l2_access_energy_j: f64| -> f64 {
            let config = MachineConfig {
                l2_access_energy_j,
                ..MachineConfig::paper_default()
            };
            let mut m = Machine::new(&die, &fp, config.clone());
            assert!(m.l2.is_empty(), "floorplan unexpectedly has L2 strips");
            let pool = app_pool(&config.dynamic);
            let mut rng = SimRng::seed_from(11);
            let w = Workload::draw(&pool, 4, &mut rng);
            m.load_threads(w.spawn_threads(&mut rng));
            m.assign(&[Some(0), Some(1), Some(2), Some(3)]);
            let mut last = 0.0;
            for _ in 0..5 {
                last = m.step(0.001).total_power_w;
            }
            assert!((m.sensor_total_power() - last).abs() < 1e-12);
            last
        };

        let with_dynamic = run(MachineConfig::paper_default().l2_access_energy_j);
        let without_dynamic = run(0.0);
        assert!(
            with_dynamic > without_dynamic,
            "L2 dynamic power is still dropped: {with_dynamic} vs {without_dynamic}"
        );
    }

    /// The sensor memo must return the exact cached value within one
    /// interval and must not survive a simulation step.
    #[test]
    fn predicted_power_memo_exact_and_invalidated_by_step() {
        let mut m = loaded_machine(12, 7);
        for _ in 0..30 {
            m.step(0.001);
        }
        let fresh = m.clone(); // identical state, memo untouched
        for core in 0..m.core_count() {
            for level in 0..m.vf_table(core).len() {
                let first = m.predicted_core_power(core, level);
                let memoized = m.predicted_core_power(core, level);
                let independent = fresh.predicted_core_power(core, level);
                assert_eq!(first.map(f64::to_bits), memoized.map(f64::to_bits));
                assert_eq!(first.map(f64::to_bits), independent.map(f64::to_bits));
            }
        }
        // Advance the simulation: temperatures move, so a stale memo
        // would now disagree with a memo-free evaluation.
        for _ in 0..50 {
            m.step(0.001);
        }
        let mut cleared = m.clone();
        cleared.leak_memo.get_mut().invalidate();
        for core in 0..m.core_count() {
            assert_eq!(
                m.predicted_core_power(core, 0).map(f64::to_bits),
                cleared.predicted_core_power(core, 0).map(f64::to_bits),
                "stale memo on core {core}"
            );
        }
    }

    #[test]
    fn machine_has_twenty_cores() {
        let (die, fp) = test_die();
        let m = Machine::new(&die, &fp, MachineConfig::paper_default());
        assert_eq!(m.core_count(), 20);
    }

    #[test]
    fn cores_have_different_rated_frequencies() {
        let (die, fp) = test_die();
        let m = Machine::new(&die, &fp, MachineConfig::paper_default());
        let freqs: Vec<f64> = (0..20).map(|c| m.rated_max_freq(c)).collect();
        let max = freqs.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = freqs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(max / min > 1.1, "spread {}", max / min);
    }

    #[test]
    fn idle_cores_consume_nothing() {
        let mut m = loaded_machine(4, 1);
        m.step(0.001);
        for core in 4..20 {
            assert_eq!(m.sensor_core_power(core), 0.0);
            assert_eq!(m.sensor_core_ipc(core), 0.0);
        }
        for core in 0..4 {
            assert!(m.sensor_core_power(core) > 0.0);
        }
    }

    #[test]
    fn total_power_plausible_at_full_load() {
        let mut m = loaded_machine(20, 2);
        // Run 50 ms to warm up.
        for _ in 0..50 {
            m.step(0.001);
        }
        let p = m.sensor_total_power();
        assert!(p > 50.0 && p < 160.0, "full-load power {p} W");
    }

    #[test]
    fn lowering_level_cuts_power_and_throughput() {
        let mut a = loaded_machine(8, 3);
        let mut b = loaded_machine(8, 3);
        for c in 0..8 {
            b.set_level(c, 0); // minimum V/f
        }
        for _ in 0..20 {
            a.step(0.001);
            b.step(0.001);
        }
        assert!(b.sensor_total_power() < a.sensor_total_power() * 0.6);
        assert!(b.average_mips() < a.average_mips());
    }

    #[test]
    fn temperatures_rise_under_load() {
        let mut m = loaded_machine(20, 4);
        let ambient = m.config().thermal.ambient_k;
        for _ in 0..200 {
            m.step(0.001);
        }
        let hottest = m.temperatures().iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(hottest > ambient + 5.0, "hottest {hottest}");
    }

    #[test]
    fn uniform_frequency_is_common_minimum() {
        let mut m = loaded_machine(20, 5);
        let chip_f = m.set_uniform_frequency();
        let min_rated = (0..20)
            .map(|c| m.rated_max_freq(c))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(chip_f, min_rated);
        for c in 0..20 {
            let vf = m.vf_table(c);
            assert!(vf.freq_at(m.level(c)) >= chip_f);
        }
    }

    #[test]
    fn instructions_accumulate() {
        let mut m = loaded_machine(4, 6);
        let s1 = m.step(0.001);
        assert!(s1.instructions > 0.0);
        let total_before = m.total_instructions();
        m.step(0.001);
        assert!(m.total_instructions() > total_before);
        assert!(m.average_mips() > 0.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut m = loaded_machine(8, 7);
        let mut expected = 0.0;
        for _ in 0..10 {
            let s = m.step(0.001);
            expected += s.total_power_w * s.dt_s;
        }
        assert!((m.energy_j() - expected).abs() < 1e-9);
    }

    #[test]
    fn manufacturer_profile_monotone_in_voltage() {
        let (die, fp) = test_die();
        let m = Machine::new(&die, &fp, MachineConfig::paper_default());
        for core in 0..20 {
            let lo = m.manufacturer_static_power(core, 0.6);
            let hi = m.manufacturer_static_power(core, 1.0);
            assert!(hi > lo);
        }
    }

    #[test]
    fn load_resets_statistics() {
        let mut m = loaded_machine(4, 8);
        m.step(0.001);
        assert!(m.energy_j() > 0.0);
        let pool = app_pool(&m.config().dynamic);
        let mut rng = SimRng::seed_from(99);
        let w = Workload::draw(&pool, 2, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        assert_eq!(m.energy_j(), 0.0);
        assert_eq!(m.total_instructions(), 0.0);
        assert!(m.assignment().iter().all(|a| a.is_none()));
    }

    #[test]
    #[should_panic(expected = "two cores")]
    fn duplicate_assignment_rejected() {
        let mut m = loaded_machine(4, 9);
        let mut mapping = vec![None; 20];
        mapping[0] = Some(1);
        mapping[1] = Some(1);
        m.assign(&mapping);
    }

    #[test]
    fn solo_thread_gets_whole_l2() {
        let mut m = loaded_machine(1, 40);
        m.step(0.001);
        assert!((m.threads()[0].l2_alloc_mb() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn corunners_shrink_each_others_cache() {
        let mut m = loaded_machine(12, 41);
        for _ in 0..50 {
            m.step(0.001);
        }
        let shares: Vec<f64> = m.threads().iter().map(|t| t.l2_alloc_mb()).collect();
        let total: f64 = shares.iter().sum();
        assert!(
            (total - 8.0).abs() < 1e-6,
            "shares must tile the L2: {total}"
        );
        assert!(shares.iter().all(|&s| s < 8.0));
        // Cache-hungry threads hold more than cache-light ones.
        let hungriest = m
            .threads()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.spec().ws_mb.total_cmp(&b.1.spec().ws_mb))
            .unwrap()
            .0;
        let lightest = m
            .threads()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.spec().ws_mb.total_cmp(&b.1.spec().ws_mb))
            .unwrap()
            .0;
        if m.threads()[hungriest].spec().ws_mb > 2.0 * m.threads()[lightest].spec().ws_mb {
            assert!(
                shares[hungriest] > shares[lightest],
                "hungry {} light {}",
                shares[hungriest],
                shares[lightest]
            );
        }
    }

    #[test]
    fn contention_costs_throughput() {
        // Same workload with and without the contention model: shared-L2
        // pressure must reduce chip throughput at high occupancy.
        let (die, fp) = test_die();
        let mut with = Machine::new(&die, &fp, MachineConfig::paper_default());
        let mut cfg = MachineConfig::paper_default();
        cfg.cache = None;
        let mut without = Machine::new(&die, &fp, cfg);
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        for m in [&mut with, &mut without] {
            let mut rng = SimRng::seed_from(42);
            let w = Workload::draw(&pool, 16, &mut rng);
            m.load_threads(w.spawn_threads(&mut rng));
            let mapping: Vec<Option<usize>> = (0..20).map(|c| (c < 16).then_some(c)).collect();
            m.assign(&mapping);
            for _ in 0..50 {
                m.step(0.001);
            }
        }
        assert!(
            with.average_mips() < without.average_mips(),
            "contention {} vs isolated {}",
            with.average_mips(),
            without.average_mips()
        );
    }

    #[test]
    fn dtm_bounds_runaway_temperatures() {
        // 20 hot threads at max levels, unmanaged, for 5 simulated
        // seconds: without DTM the leakage-temperature loop can run
        // away on leaky dies; with it, temperatures stay bounded.
        let mut m = loaded_machine(20, 30);
        for _ in 0..5000 {
            m.step(0.001);
        }
        let hottest = m.temperatures().iter().cloned().fold(0.0f64, f64::max);
        assert!(hottest.is_finite());
        assert!(
            hottest < m.config().dtm_limit_k + 5.0,
            "hottest {hottest} K vs DTM limit {}",
            m.config().dtm_limit_k
        );
        // The machine kept running the whole time.
        assert!(m.total_instructions() > 0.0);
    }

    #[test]
    fn transition_stall_charged_on_level_change() {
        let mut m = loaded_machine(2, 20);
        let dv = m.vf_table(0).voltage_at(m.vf_table(0).max_level()) - m.vf_table(0).voltage_at(0);
        m.set_level(0, 0);
        let expect = m.config().transition.stall_s(dv);
        assert!((m.transition_stall_s(0) - expect).abs() < 1e-12);
        // Setting the same level again costs nothing more.
        m.set_level(0, 0);
        assert!((m.transition_stall_s(0) - expect).abs() < 1e-12);
    }

    #[test]
    fn transition_stall_suppresses_instructions() {
        let mut with_cost = loaded_machine(1, 21);
        let mut free = loaded_machine(1, 21);
        // Give `free` an on-chip regulator (nanosecond-class
        // transitions, negligible at millisecond ticks).
        let mut cfg = free.config().clone();
        cfg.transition = DvfsTransition {
            s_per_volt: 0.0,
            overhead_s: 0.0,
        };
        let (die_cfg, fp) = test_die();
        let mut free2 = Machine::new(&die_cfg, &fp, cfg);
        let pool = app_pool(&free2.config().dynamic);
        let mut rng = SimRng::seed_from(21);
        let w = Workload::draw(&pool, 1, &mut rng);
        free2.load_threads(w.spawn_threads(&mut rng));
        let mut mapping = vec![None; 20];
        mapping[0] = Some(0);
        free2.assign(&mapping);
        free = free2;

        // Bounce the level every tick on both machines.
        for tick in 0..20 {
            let lvl = if tick % 2 == 0 { 0 } else { 4 };
            with_cost.set_level(0, lvl);
            free.set_level(0, lvl);
            with_cost.step(0.001);
            free.step(0.001);
        }
        assert!(
            with_cost.total_instructions() < free.total_instructions(),
            "transition stalls should cost throughput: {} vs {}",
            with_cost.total_instructions(),
            free.total_instructions()
        );
    }

    #[test]
    fn stall_drains_over_time() {
        let mut m = loaded_machine(1, 22);
        m.set_level(0, 0);
        let before = m.transition_stall_s(0);
        assert!(before > 0.0);
        m.step(0.001);
        assert!(m.transition_stall_s(0) < before);
        for _ in 0..10 {
            m.step(0.001);
        }
        assert_eq!(m.transition_stall_s(0), 0.0);
    }

    #[test]
    fn add_thread_preserves_statistics() {
        let mut m = loaded_machine(2, 50);
        for _ in 0..10 {
            m.step(0.001);
        }
        let energy = m.energy_j();
        let instructions = m.total_instructions();
        assert!(energy > 0.0);
        let pool = app_pool(&m.config().dynamic);
        let tid = m.add_thread(Thread::new(pool[0].clone()));
        assert_eq!(tid, 2);
        assert_eq!(m.energy_j(), energy);
        assert_eq!(m.total_instructions(), instructions);
        // The new thread runs once assigned.
        let mut mapping = m.assignment().to_vec();
        mapping[10] = Some(tid);
        m.assign(&mapping);
        m.step(0.001);
        assert!(m.threads()[tid].instructions() > 0.0);
    }

    #[test]
    fn remove_thread_frees_core_and_remaps_last() {
        let mut m = loaded_machine(4, 51);
        m.step(0.001);
        // Remove thread 1: thread 3 (on core 3) takes index 1.
        let before = m.threads()[3].clone();
        let removed = m.remove_thread(1);
        assert_eq!(m.threads().len(), 3);
        assert_eq!(m.thread_of(1), None, "removed thread's core is freed");
        assert_eq!(m.thread_of(3), Some(1), "last thread re-pointed");
        assert_eq!(m.threads()[1], before);
        assert!(removed.instructions() > 0.0);
        // The machine keeps stepping consistently afterwards.
        let stats = m.step(0.001);
        assert!(stats.total_power_w > 0.0);
    }

    #[test]
    fn remove_last_thread_needs_no_remap() {
        let mut m = loaded_machine(3, 52);
        m.remove_thread(2);
        assert_eq!(m.threads().len(), 2);
        assert_eq!(m.thread_of(2), None);
        assert_eq!(m.thread_of(0), Some(0));
        assert_eq!(m.thread_of(1), Some(1));
    }

    #[test]
    #[should_panic(expected = "all 20 cores")]
    fn add_thread_rejected_when_full() {
        let mut m = loaded_machine(20, 53);
        let pool = app_pool(&m.config().dynamic);
        m.add_thread(Thread::new(pool[0].clone()));
    }

    #[test]
    fn charged_stall_suppresses_retirement() {
        let mut a = loaded_machine(1, 54);
        let mut b = loaded_machine(1, 54);
        b.charge_stall(0, 0.002);
        assert_eq!(b.transition_stall_s(0), 0.002);
        for _ in 0..5 {
            a.step(0.001);
            b.step(0.001);
        }
        assert!(
            b.total_instructions() < a.total_instructions(),
            "stalled machine must retire less: {} vs {}",
            b.total_instructions(),
            a.total_instructions()
        );
    }

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        let mut a = loaded_machine(8, 60);
        let mut b = loaded_machine(8, 60);
        b.install_faults(&FaultPlan::none()).unwrap();
        assert!(!b.has_active_faults());
        for _ in 0..20 {
            assert_eq!(a.step(0.001), b.step(0.001));
        }
        for c in 0..20 {
            assert_eq!(a.sensor_core_power(c), b.sensor_core_power(c));
            assert_eq!(a.sensor_core_ipc(c), b.sensor_core_ipc(c));
        }
        assert_eq!(a.sensor_total_power(), b.sensor_total_power());
    }

    #[test]
    fn sensor_noise_distorts_readings_but_not_physics() {
        let mut a = loaded_machine(8, 62);
        let mut b = loaded_machine(8, 62);
        b.install_faults(&FaultPlan::none().with_seed(1).with_sensor_noise(0.1))
            .unwrap();
        for _ in 0..10 {
            // The physics stays truthful: noise lives only on the
            // sensor path.
            assert_eq!(a.step(0.001), b.step(0.001));
        }
        assert_ne!(a.sensor_total_power(), b.sensor_total_power());
        assert_eq!(a.average_power(), b.average_power());
    }

    #[test]
    fn core_failure_unschedules_and_powers_off() {
        let mut m = loaded_machine(4, 61);
        m.install_faults(&FaultPlan::none().with_core_failure(2, 5.0))
            .unwrap();
        for _ in 0..10 {
            m.step(0.001);
        }
        assert!(!m.core_alive(2));
        assert_eq!(m.alive_core_count(), 19);
        assert_eq!(m.thread_of(2), None, "dead core's thread unscheduled");
        assert_eq!(m.sensor_core_power(2), 0.0);
        let events = m.take_fault_events();
        assert!(events.contains(&FaultEvent::CoreFailed { core: 2 }));
    }

    #[test]
    #[should_panic(expected = "dead core")]
    fn assign_to_dead_core_panics() {
        let mut m = loaded_machine(2, 63);
        m.install_faults(&FaultPlan::none().with_core_failure(5, 0.0))
            .unwrap();
        m.step(0.001);
        let mut mapping = vec![None; 20];
        mapping[5] = Some(0);
        m.assign(&mapping);
    }

    /// `load_threads` leaves nothing of the previous run behind: a
    /// machine that ran through every fault kind, DTM, stalls, caps and
    /// level changes exports exactly the state of a fresh machine that
    /// loaded the same threads.
    #[test]
    fn load_threads_resets_every_field_to_a_fresh_load() {
        let (die, fp) = test_die();
        let config = MachineConfig {
            dtm_limit_k: 318.2,
            ..MachineConfig::paper_default()
        };
        let mut used = Machine::new(&die, &fp, config.clone());
        let pool = app_pool(&config.dynamic);
        let mut rng = SimRng::seed_from(31);
        used.load_threads(Workload::draw(&pool, 6, &mut rng).spawn_threads(&mut rng));
        used.assign(&(0..20).map(|c| (c < 6).then_some(c)).collect::<Vec<_>>());
        let plan = FaultPlan::none()
            .with_seed(8)
            .with_sensor_noise(0.02)
            .with_budget_drop(1.0, 6.0, 0.8)
            .with_stuck_sensor(1, 2.0)
            .with_core_failure(2, 3.0);
        used.install_faults(&plan).unwrap();
        used.set_level(10, 0);
        used.charge_stall(11, 0.05);
        used.set_uniform_frequency();
        let mut fired = Vec::new();
        for _ in 0..5 {
            used.step(0.001);
            fired.extend(used.take_fault_events());
        }
        for event in [
            FaultEvent::BudgetDropBegan { factor: 0.8 },
            FaultEvent::SensorStuck { core: 1 },
            FaultEvent::CoreFailed { core: 2 },
        ] {
            assert!(fired.contains(&event), "{event:?} never fired");
        }
        for _ in 0..3 {
            used.step(0.001); // the restore stays pending
        }
        assert!(used.dtm_events() > 0);

        let threads = Workload::draw(&pool, 4, &mut rng).spawn_threads(&mut rng);
        let mut fresh = Machine::new(&die, &fp, config);
        fresh.load_threads(threads.clone());
        assert_eq!(
            shared_fields(&used.state, &fresh.state),
            Vec::<&str>::new(),
            "the used machine must differ from a fresh load in every field"
        );
        used.load_threads(threads);
        assert_eq!(used.export_state(), fresh.export_state());
        assert!(used.take_fault_events().is_empty());
        assert!(!used.has_active_faults());
        assert_eq!(used.fault_plan, FaultPlan::none());
    }

    #[test]
    fn load_threads_clears_fault_state() {
        let mut m = loaded_machine(2, 64);
        m.install_faults(&FaultPlan::none().with_core_failure(0, 0.0))
            .unwrap();
        m.step(0.001);
        assert!(!m.core_alive(0));
        let pool = app_pool(&m.config().dynamic);
        let mut rng = SimRng::seed_from(64);
        let w = Workload::draw(&pool, 2, &mut rng);
        m.load_threads(w.spawn_threads(&mut rng));
        assert!(m.core_alive(0));
        assert!(!m.has_active_faults());
    }

    #[test]
    fn deterministic_simulation() {
        let mut a = loaded_machine(8, 10);
        let mut b = loaded_machine(8, 10);
        for _ in 0..20 {
            let sa = a.step(0.001);
            let sb = b.step(0.001);
            assert_eq!(sa, sb);
        }
    }
}
