//! PCGov-style thermal-aware thread mapping (HotSniper's `pcgov.cc`).
//!
//! Table 1's policies place threads by *electrical* profile (static
//! power, rated frequency) and ignore *where* the chosen cores sit on
//! the die. Packing hot threads onto adjacent cores couples them
//! through the lateral thermal resistances: each heats its neighbors,
//! leakage rises with temperature, and the power manager pays for it
//! in throttled levels. The PCGov heuristic works the floorplan
//! geometry instead: hottest threads first, each placed on the
//! candidate core with the best blend of
//!
//! * **coolness** — lowest current lumped-RC block temperature,
//! * **periphery** — highest mean Manhattan distance to all cores
//!   (AMD), preferring edge/corner cores whose heat has fewer
//!   neighbors to flow into, and
//! * **spreading** — highest minimum Manhattan distance to the cores
//!   already picked this epoch.
//!
//! The mapper reads temperatures and geometry through the
//! [`Scheduler::observe`] hook every execution path calls right before
//! [`Scheduler::assign`]; it draws no RNG and keeps no cross-interval
//! state (the observation cache is refreshed right before every
//! assignment), so a run resumed from a checkpoint with a fresh mapper
//! continues byte-identically.

use crate::profile::{CoreProfile, ThreadProfile};
use crate::sched::Scheduler;
use cmpsim::Machine;
use vastats::SimRng;

/// Weight of normalized block temperature in the placement score.
const W_TEMP: f64 = 1.0;
/// Weight of normalized AMD (periphery preference).
const W_AMD: f64 = 0.4;
/// Weight of normalized spreading distance to already-picked cores.
const W_SPREAD: f64 = 0.6;

/// The thermal-aware mapper behind
/// [`crate::sched::SchedulerSpec::ThermalMap`].
#[derive(Debug, Clone, Default)]
pub struct ThermalMapper {
    /// Per-machine-core block temperatures (kelvin) from the last
    /// [`Scheduler::observe`].
    temps: Vec<f64>,
    /// Per-machine-core block centers, normalized die coordinates.
    centers: Vec<(f64, f64)>,
}

impl ThermalMapper {
    /// A mapper with no observations yet (it falls back to synthetic
    /// near-square-grid geometry and flat temperatures until the first
    /// [`Scheduler::observe`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached center of a machine core, or its position in a
    /// synthetic near-square grid when the core was never observed
    /// (direct `assign` calls in tests and harnesses).
    fn center_of(&self, core: usize) -> (f64, f64) {
        if let Some(&c) = self.centers.get(core) {
            return c;
        }
        let cols = ((core + 1) as f64).sqrt().ceil().max(1.0) as usize;
        ((core % cols) as f64, (core / cols) as f64)
    }

    fn temp_of(&self, core: usize) -> f64 {
        self.temps.get(core).copied().unwrap_or(0.0)
    }
}

fn manhattan(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

impl Scheduler for ThermalMapper {
    fn name(&self) -> &'static str {
        "ThermalMap"
    }

    fn observe(&mut self, machine: &Machine) {
        let n = machine.core_count();
        self.temps.clear();
        self.centers.clear();
        for core in 0..n {
            self.temps.push(machine.core_temperature(core));
            self.centers.push(machine.core_center(core));
        }
    }

    fn assign(
        &mut self,
        cores: &[CoreProfile],
        threads: &[ThreadProfile],
        _rng: &mut SimRng,
    ) -> Vec<Option<usize>> {
        assert!(!cores.is_empty(), "no cores to schedule on");
        assert!(!threads.is_empty(), "no threads to schedule");
        assert!(
            threads.len() <= cores.len(),
            "more threads ({}) than cores ({})",
            threads.len(),
            cores.len()
        );

        // Per-candidate geometry and temperature, normalized over the
        // candidate set so the weights blend comparable quantities.
        let centers: Vec<(f64, f64)> = cores.iter().map(|c| self.center_of(c.core)).collect();
        let temps: Vec<f64> = cores.iter().map(|c| self.temp_of(c.core)).collect();
        let (t_min, t_max) = temps
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        let t_span = (t_max - t_min).max(1e-12);
        let amd: Vec<f64> = centers
            .iter()
            .map(|&a| centers.iter().map(|&b| manhattan(a, b)).sum::<f64>() / centers.len() as f64)
            .collect();
        let (a_min, a_max) = amd
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &d| {
                (lo.min(d), hi.max(d))
            });
        let a_span = (a_max - a_min).max(1e-12);
        let d_max = centers
            .iter()
            .flat_map(|&a| centers.iter().map(move |&b| manhattan(a, b)))
            .fold(0.0f64, f64::max)
            .max(1e-12);

        // Hottest threads first (deterministic ties by index).
        let mut thread_order: Vec<usize> = (0..threads.len()).collect();
        thread_order.sort_by(|&a, &b| {
            threads[b]
                .dynamic_power_w
                .total_cmp(&threads[a].dynamic_power_w)
                .then(a.cmp(&b))
        });

        let mut mapping = vec![None; cores.len()];
        let mut taken = vec![false; cores.len()];
        let mut picked: Vec<(f64, f64)> = Vec::with_capacity(threads.len());
        for &thread_pos in &thread_order {
            let mut best: Option<(usize, f64)> = None;
            for (pos, &center) in centers.iter().enumerate() {
                if taken[pos] {
                    continue;
                }
                let temp_norm = (temps[pos] - t_min) / t_span;
                let amd_norm = (amd[pos] - a_min) / a_span;
                let spread_norm = picked
                    .iter()
                    .map(|&p| manhattan(center, p))
                    .fold(f64::INFINITY, f64::min);
                let spread_norm = if spread_norm.is_finite() {
                    spread_norm / d_max
                } else {
                    1.0 // nothing picked yet: the term is equal for all
                };
                let score = W_TEMP * temp_norm - W_AMD * amd_norm - W_SPREAD * spread_norm;
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((pos, score));
                }
            }
            let (pos, _) = best.expect("more cores than threads");
            taken[pos] = true;
            picked.push(centers[pos]);
            mapping[pos] = Some(thread_pos);
        }
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_cores(indices: &[usize]) -> Vec<CoreProfile> {
        indices
            .iter()
            .map(|&i| CoreProfile {
                core: i,
                static_power_w: vec![1.0],
                max_freq_hz: 4.0e9,
            })
            .collect()
    }

    fn fake_threads(n: usize) -> Vec<ThreadProfile> {
        (0..n)
            .map(|j| ThreadProfile {
                thread: j,
                dynamic_power_w: (j + 1) as f64,
                ipc: 0.1 * (j + 1) as f64,
                profiled_on: 0,
            })
            .collect()
    }

    fn is_valid(mapping: &[Option<usize>], n_threads: usize) {
        let mut seen = vec![false; n_threads];
        for t in mapping.iter().flatten() {
            assert!(!seen[*t], "thread {t} mapped twice");
            seen[*t] = true;
        }
        assert!(seen.iter().all(|&s| s), "every thread mapped exactly once");
    }

    #[test]
    fn maps_every_thread_once_without_observations() {
        let mut mapper = ThermalMapper::new();
        let cores = fake_cores(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let threads = fake_threads(5);
        let mapping = mapper.assign(&cores, &threads, &mut SimRng::seed_from(1));
        is_valid(&mapping, 5);
    }

    #[test]
    fn avoids_hot_cores() {
        let mut mapper = ThermalMapper::new();
        // 3x3 synthetic grid; core 4 (the center) is scorching.
        mapper.temps = vec![
            330.0, 330.0, 330.0, 330.0, 400.0, 330.0, 330.0, 330.0, 330.0,
        ];
        mapper.centers = (0..9).map(|i| ((i % 3) as f64, (i / 3) as f64)).collect();
        let cores = fake_cores(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let threads = fake_threads(4);
        let mapping = mapper.assign(&cores, &threads, &mut SimRng::seed_from(2));
        assert_eq!(mapping[4], None, "the hot center core must stay empty");
        is_valid(&mapping, 4);
    }

    #[test]
    fn spreads_threads_apart() {
        let mut mapper = ThermalMapper::new();
        // Flat temperatures on a 4x4 grid: placement is pure geometry,
        // so two threads should land at least half the die apart.
        mapper.temps = vec![330.0; 16];
        mapper.centers = (0..16)
            .map(|i| ((i % 4) as f64 / 3.0, (i / 4) as f64 / 3.0))
            .collect();
        let cores = fake_cores(&(0..16).collect::<Vec<_>>());
        let threads = fake_threads(2);
        let mapping = mapper.assign(&cores, &threads, &mut SimRng::seed_from(3));
        let placed: Vec<usize> = mapping
            .iter()
            .enumerate()
            .filter_map(|(pos, t)| t.map(|_| pos))
            .collect();
        assert_eq!(placed.len(), 2);
        let d = manhattan(mapper.centers[placed[0]], mapper.centers[placed[1]]);
        assert!(d >= 1.0, "threads packed together: distance {d}");
    }

    #[test]
    fn deterministic_and_rng_free() {
        let mut mapper = ThermalMapper::new();
        let cores = fake_cores(&[3, 5, 9, 12, 14]);
        let threads = fake_threads(3);
        let mut rng = SimRng::seed_from(7);
        let before = rng.clone();
        let a = mapper.assign(&cores, &threads, &mut rng);
        assert_eq!(before, rng, "assign must not draw RNG");
        let b = mapper.assign(&cores, &threads, &mut SimRng::seed_from(999));
        assert_eq!(a, b, "mapping must not depend on the seed");
    }

    #[test]
    fn positional_over_sub_slices() {
        // Machine core indices far above the slice length: the mapper
        // must index positionally, like every other scheduler.
        let mut mapper = ThermalMapper::new();
        mapper.temps = vec![330.0; 40];
        mapper.centers = (0..40).map(|i| ((i % 8) as f64, (i / 8) as f64)).collect();
        let cores = fake_cores(&[30, 33, 38]);
        let threads = fake_threads(3);
        let mapping = mapper.assign(&cores, &threads, &mut SimRng::seed_from(4));
        assert_eq!(mapping.len(), 3);
        is_valid(&mapping, 3);
    }
}
