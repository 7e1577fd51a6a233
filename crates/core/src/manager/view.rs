//! The sensor snapshot power managers operate on.

use crate::manager::PowerBudget;
use cmpsim::Machine;
use std::sync::Arc;

/// Sensor data for one active core at manager-invocation time.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreView {
    /// Core index in the machine.
    pub core: usize,
    /// Profiled IPC of the thread on this core (assumed
    /// frequency-independent, §4.3.1).
    pub ipc: f64,
    /// Table voltages, ascending (volts). Shared: the machine hands
    /// every core the same ladder, so snapshots and domain aggregates
    /// alias one allocation instead of cloning it per core.
    pub voltages: Arc<[f64]>,
    /// Table frequencies per level (Hz).
    pub freqs: Vec<f64>,
    /// Measured total core power per level (watts) — the "power sensor
    /// history" of §5.2.
    pub power_w: Vec<f64>,
}

impl CoreView {
    /// Number of (V, f) levels.
    pub fn level_count(&self) -> usize {
        self.voltages.len()
    }

    /// Throughput (MIPS) this core would deliver at `level`.
    pub fn mips_at(&self, level: usize) -> f64 {
        self.ipc * self.freqs[level] / 1e6
    }
}

/// Snapshot of every active core, taken at the start of a manager
/// invocation. The default view is empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PmView {
    cores: Vec<CoreView>,
    /// Measured power of everything the manager cannot scale — the L2
    /// strips — read from the chip sensors (total minus per-core).
    /// Counted against `Ptarget` alongside the core powers.
    uncore_w: f64,
}

impl PmView {
    /// Builds the snapshot from the machine's sensors. Only cores with
    /// an assigned thread appear. The allocating form of
    /// [`PmView::refresh`].
    pub fn from_machine(machine: &Machine) -> Self {
        let mut view = Self::default();
        view.refresh(machine);
        view
    }

    /// Re-reads the machine's sensors into this snapshot in place: one
    /// [`Machine::read_core_sensors`] per active core. Entries are
    /// reused position by position with their `Vec`s, so a controller
    /// that keeps one view across DVFS intervals allocates only the
    /// shared voltage ladder per refresh. The result equals
    /// [`PmView::from_machine`] whatever the view held before.
    pub fn refresh(&mut self, machine: &Machine) {
        let mut n = 0;
        let mut ladder: Option<Arc<[f64]>> = None;
        for core in 0..machine.core_count() {
            if machine.thread_of(core).is_none() {
                continue;
            }
            if n == self.cores.len() {
                self.cores.push(CoreView {
                    core,
                    ipc: 0.0,
                    voltages: Arc::from([]),
                    freqs: Vec::new(),
                    power_w: Vec::new(),
                });
            }
            let entry = &mut self.cores[n];
            let Some(ipc) = machine.read_core_sensors(core, &mut entry.power_w) else {
                continue;
            };
            let vf = machine.vf_table(core);
            entry.voltages = match &ladder {
                // The machine builds one uniform voltage ladder; share
                // the first core's allocation with the rest.
                Some(l) if l.len() == vf.len() => Arc::clone(l),
                _ => {
                    let fresh: Arc<[f64]> = vf.entries().iter().map(|&(v, _)| v).collect();
                    ladder = Some(Arc::clone(&fresh));
                    fresh
                }
            };
            entry.core = core;
            entry.ipc = ipc;
            entry.freqs.clear();
            entry.freqs.extend(vf.entries().iter().map(|&(_, f)| f));
            n += 1;
        }
        self.cores.truncate(n);
        let core_sum: f64 = (0..machine.core_count())
            .map(|c| machine.sensor_core_power(c))
            .sum();
        self.uncore_w = (machine.sensor_total_power() - core_sum).max(0.0);
    }

    /// Builds a view directly from core data (used by tests and by the
    /// Figure 15 timing harness, which synthesizes views of various
    /// sizes).
    ///
    /// # Panics
    ///
    /// Panics if any core has inconsistent table lengths.
    pub fn from_cores(cores: Vec<CoreView>) -> Self {
        for c in &cores {
            assert_eq!(c.voltages.len(), c.freqs.len(), "table length mismatch");
            assert_eq!(c.voltages.len(), c.power_w.len(), "table length mismatch");
            assert!(!c.voltages.is_empty(), "core has no levels");
        }
        Self {
            cores,
            uncore_w: 0.0,
        }
    }

    /// Sets the measured uncore (L2) power counted against `Ptarget`.
    pub fn with_uncore_power(mut self, uncore_w: f64) -> Self {
        assert!(uncore_w >= 0.0, "uncore power must be non-negative");
        self.uncore_w = uncore_w;
        self
    }

    /// The measured uncore power (watts).
    pub fn uncore_power(&self) -> f64 {
        self.uncore_w
    }

    /// The active cores in the snapshot.
    pub fn cores(&self) -> &[CoreView] {
        &self.cores
    }

    /// Number of active cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether no cores are active.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Total throughput (MIPS) at the given per-active-core levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != len()`.
    pub fn throughput_mips(&self, levels: &[usize]) -> f64 {
        assert_eq!(levels.len(), self.cores.len(), "level vector mismatch");
        self.cores
            .iter()
            .zip(levels)
            .map(|(c, &l)| c.mips_at(l))
            .sum()
    }

    /// Total measured chip power (watts) at the given levels: the sum
    /// of per-core powers plus the (fixed) uncore power.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != len()`.
    pub fn total_power(&self, levels: &[usize]) -> f64 {
        assert_eq!(levels.len(), self.cores.len(), "level vector mismatch");
        self.uncore_w
            + self
                .cores
                .iter()
                .zip(levels)
                .map(|(c, &l)| c.power_w[l])
                .sum::<f64>()
    }

    /// Whether the given levels satisfy both budget constraints.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != len()`.
    pub fn feasible(&self, levels: &[usize], budget: &PowerBudget) -> bool {
        assert_eq!(levels.len(), self.cores.len(), "level vector mismatch");
        if self.total_power(levels) > budget.chip_w + 1e-9 {
            return false;
        }
        self.cores
            .iter()
            .zip(levels)
            .all(|(c, &l)| c.power_w[l] <= budget.per_core_w + 1e-9)
    }

    /// The all-minimum level vector.
    pub fn min_levels(&self) -> Vec<usize> {
        vec![0; self.cores.len()]
    }

    /// The all-maximum level vector.
    pub fn max_levels(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.level_count() - 1).collect()
    }

    /// Applies per-active-core levels back onto the machine.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != len()`.
    pub fn apply(&self, machine: &mut Machine, levels: &[usize]) {
        assert_eq!(levels.len(), self.cores.len(), "level vector mismatch");
        for (c, &l) in self.cores.iter().zip(levels) {
            machine.set_level(c.core, l);
        }
    }
}

/// Feasibility repair against measured sensor powers.
///
/// The paper's system "continuously monitors the total power and the
/// per-core powers. These values are compared to Ptarget and Pcoremax"
/// (§5.2). When an optimizer's chosen levels overshoot either limit —
/// LinOpt's linear power fit underestimates the convex power curve near
/// `Vhigh` — the controller steps levels down until the *measured*
/// powers comply, removing the level that costs the least throughput
/// per watt saved.
///
/// # Panics
///
/// Panics if `levels.len() != view.len()`.
pub fn repair_to_budget(view: &PmView, budget: &PowerBudget, levels: &mut [usize]) {
    assert_eq!(levels.len(), view.len(), "level vector mismatch");
    // Per-core cap first: a violating core can only fix itself.
    for (i, core) in view.cores().iter().enumerate() {
        while core.power_w[levels[i]] > budget.per_core_w && levels[i] > 0 {
            levels[i] -= 1;
        }
    }
    // Chip cap: cheapest-throughput reductions first.
    while view.total_power(levels) > budget.chip_w {
        let mut best: Option<(usize, f64)> = None;
        for (i, core) in view.cores().iter().enumerate() {
            if levels[i] == 0 {
                continue;
            }
            let dp = core.power_w[levels[i]] - core.power_w[levels[i] - 1];
            let dtp = core.mips_at(levels[i]) - core.mips_at(levels[i] - 1);
            let cost = if dp > 1e-12 {
                dtp / dp
            } else {
                f64::NEG_INFINITY
            };
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
        }
        match best {
            Some((i, _)) => levels[i] -= 1,
            None => return, // everything at minimum
        }
    }
}

/// Greedy slack fill: while measured power sits below the chip target,
/// grant one more level to the core with the best marginal throughput
/// per watt, as long as both constraints keep holding.
///
/// Rounding the LP's continuous voltages down to discrete levels leaves
/// slack between the chosen operating point and `Ptarget`; this pass
/// converts that slack back into throughput, keeping the realized power
/// within one level step of the target (the paper reports deviations
/// under 1% at 10 ms intervals, Figure 14).
///
/// # Panics
///
/// Panics if `levels.len() != view.len()`.
pub fn greedy_fill(view: &PmView, budget: &PowerBudget, levels: &mut [usize]) {
    assert_eq!(levels.len(), view.len(), "level vector mismatch");
    loop {
        let current = view.total_power(levels);
        let mut best: Option<(usize, f64)> = None;
        for (i, core) in view.cores().iter().enumerate() {
            if levels[i] + 1 >= core.level_count() {
                continue;
            }
            let next_power = core.power_w[levels[i] + 1];
            let dp = next_power - core.power_w[levels[i]];
            if current + dp > budget.chip_w || next_power > budget.per_core_w {
                continue;
            }
            let dtp = core.mips_at(levels[i] + 1) - core.mips_at(levels[i]);
            let gain = if dp > 1e-12 { dtp / dp } else { f64::INFINITY };
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            Some((i, _)) => levels[i] += 1,
            None => return,
        }
    }
}

/// Builds a synthetic [`CoreView`] for tests and timing harnesses:
/// `levels` voltage steps on 0.6–1.0 V, linear frequency `slope_hz_per_v`,
/// and quadratic-ish power scaled by `power_scale`.
pub fn synthetic_core(core: usize, ipc: f64, levels: usize, power_scale: f64) -> CoreView {
    assert!(levels >= 2, "need at least two levels");
    let voltages: Arc<[f64]> = (0..levels)
        .map(|i| 0.6 + 0.4 * i as f64 / (levels - 1) as f64)
        .collect();
    let freqs: Vec<f64> = voltages
        .iter()
        .map(|v| (5.0 * v - 1.0).max(0.1) * 1e9)
        .collect();
    let power_w: Vec<f64> = voltages
        .iter()
        .zip(&freqs)
        .map(|(v, f)| power_scale * (2.5 * v * v * (f / 4.0e9) + 1.2 * v * v))
        .collect();
    CoreView {
        core,
        ipc,
        voltages,
        freqs,
        power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ServingSite;
    use cmpsim::{MachineConfig, Workload};
    use vastats::SimRng;

    /// A grid-24 machine under `config` on the die of `seed`, with
    /// `threads` threads loaded and none placed.
    fn machine_on(config: MachineConfig, seed: u64, threads: usize) -> Machine {
        let site = ServingSite::at_grid(24);
        let mut rng = SimRng::seed_from(seed);
        let die = site.ctx().make_die(&mut rng);
        let mut m = Machine::new(&die, site.ctx().floorplan(), config);
        m.load_threads(Workload::draw(site.pool(), threads, &mut rng).spawn_threads(&mut rng));
        m
    }

    /// Places thread `t` on `cores[t]`, then runs the machine for
    /// `ticks` 1 ms steps.
    fn place_and_run(m: &mut Machine, cores: &[usize], ticks: usize) {
        let mut mapping = vec![None; m.core_count()];
        for (t, &c) in cores.iter().enumerate() {
            mapping[c] = Some(t);
        }
        m.assign(&mapping);
        for _ in 0..ticks {
            m.step(0.001);
        }
    }

    /// Asserts that `a` and `b` hold the same cores, tables, readings
    /// and uncore power, bit for bit.
    fn assert_same_bits(a: &PmView, b: &PmView, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.len(), b.len(), "{what}: core count");
        assert_eq!(a.uncore_w.to_bits(), b.uncore_w.to_bits(), "{what}: uncore");
        for (x, y) in a.cores().iter().zip(b.cores()) {
            assert_eq!(x.core, y.core, "{what}");
            assert_eq!(x.ipc.to_bits(), y.ipc.to_bits(), "{what}: core {}", x.core);
            assert_eq!(
                bits(&x.voltages),
                bits(&y.voltages),
                "{what}: core {}",
                x.core
            );
            assert_eq!(bits(&x.freqs), bits(&y.freqs), "{what}: core {}", x.core);
            assert_eq!(
                bits(&x.power_w),
                bits(&y.power_w),
                "{what}: core {}",
                x.core
            );
        }
    }

    /// One view refreshed in place equals a fresh `from_machine` while
    /// the active core set shrinks, grows and moves, across dies that
    /// share core indices and machines whose ladders differ in length,
    /// and down to no active core. All cores share one ladder, and an
    /// unchanged active set with idle cores after its last reuses every
    /// entry and per-core buffer.
    #[test]
    fn refreshed_view_equals_a_fresh_view_as_the_active_set_changes() {
        let mut m = machine_on(MachineConfig::paper_default(), 3, 14);
        let mut view = PmView::default();
        let check = |view: &mut PmView, m: &Machine, what: &str| {
            view.refresh(m);
            assert_same_bits(view, &PmView::from_machine(m), what);
            let ladders = view.cores().windows(2);
            assert!(
                ladders
                    .into_iter()
                    .all(|w| Arc::ptr_eq(&w[0].voltages, &w[1].voltages)),
                "{what}: cores do not share one ladder"
            );
        };
        // Threads on cores 0..14 of 20: the last six cores are idle.
        // With the entries trimmed to fit, any entry a steady refresh
        // pushed, even one it truncates again, would regrow them.
        place_and_run(&mut m, &(0..14).collect::<Vec<_>>(), 5);
        check(&mut view, &m, "14 cores");
        view.cores.shrink_to_fit();
        let buffers = |view: &PmView| {
            let per_core = view.cores().iter();
            let ptrs = per_core.map(|c| (c.power_w.as_ptr(), c.freqs.as_ptr()));
            (view.cores.capacity(), ptrs.collect::<Vec<_>>())
        };
        let before = buffers(&view);
        m.step(0.001);
        check(&mut view, &m, "same set, one step on");
        assert_eq!(before, buffers(&view), "an unchanged set reallocated");

        place_and_run(&mut m, &[19, 3, 7, 0, 11], 3);
        check(&mut view, &m, "shrunk to 5, moved");
        place_and_run(&mut m, &(0..14).map(|t| 19 - t).collect::<Vec<_>>(), 3);
        check(&mut view, &m, "grown to 14, reversed");
        // Another die, threads on the same cores: every entry keeps its
        // core index while its tables change.
        let mut twin = machine_on(MachineConfig::paper_default(), 4, 14);
        place_and_run(&mut twin, &(0..14).map(|t| 19 - t).collect::<Vec<_>>(), 3);
        check(&mut view, &twin, "same cores on another die");
        check(&mut view, &m, "back to the first die");

        // Another die with a shorter ladder, straight from a full view,
        // then back to nine levels.
        let short = MachineConfig {
            voltages: (0..5).map(|i| 0.6 + 0.1 * i as f64).collect(),
            ..MachineConfig::paper_default()
        };
        let mut other = machine_on(short, 8, 9);
        place_and_run(&mut other, &(2..11).collect::<Vec<_>>(), 4);
        check(&mut view, &other, "five-level machine");
        check(&mut view, &m, "back to the nine-level machine");

        m.assign(&vec![None; m.core_count()]);
        check(&mut view, &m, "no active core");
        assert!(view.is_empty());
        place_and_run(&mut m, &(0..12).collect::<Vec<_>>(), 2);
        check(&mut view, &m, "nine-level machine again");
    }

    #[test]
    fn synthetic_core_is_monotone() {
        let c = synthetic_core(0, 1.0, 9, 1.0);
        for w in c.voltages.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in c.freqs.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in c.power_w.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn view_aggregates() {
        let view = PmView::from_cores(vec![
            synthetic_core(0, 1.0, 3, 1.0),
            synthetic_core(5, 0.5, 3, 1.0),
        ]);
        assert_eq!(view.len(), 2);
        let max = view.max_levels();
        assert_eq!(max, vec![2, 2]);
        let tp = view.throughput_mips(&max);
        let c0 = &view.cores()[0];
        let c1 = &view.cores()[1];
        let expect = 1.0 * c0.freqs[2] / 1e6 + 0.5 * c1.freqs[2] / 1e6;
        assert!((tp - expect).abs() < 1e-9);
        assert!(view.total_power(&max) > view.total_power(&view.min_levels()));
    }

    #[test]
    fn feasibility_checks_both_constraints() {
        let view = PmView::from_cores(vec![synthetic_core(0, 1.0, 3, 1.0)]);
        let max = view.max_levels();
        let p = view.total_power(&max);
        let ok = PowerBudget {
            chip_w: p + 1.0,
            per_core_w: p + 1.0,
        };
        assert!(view.feasible(&max, &ok));
        let chip_tight = PowerBudget {
            chip_w: p - 0.1,
            per_core_w: p + 1.0,
        };
        assert!(!view.feasible(&max, &chip_tight));
        let core_tight = PowerBudget {
            chip_w: p + 1.0,
            per_core_w: p - 0.1,
        };
        assert!(!view.feasible(&max, &core_tight));
    }
}
