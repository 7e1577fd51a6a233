//! Variation-aware application scheduling (paper §4, Table 1).
//!
//! All policies produce a thread→core mapping for `N ≤ cores` threads.
//! The variation-aware policies consume only profile data (Table 3).
//! Each picks the cores to use and the order to place threads on them:
//!
//! | Policy | Cores chosen | Threads placed |
//! |---|---|---|
//! | `Random` | random N cores | random order |
//! | `VarP` | N lowest-static-power cores | random order |
//! | `VarP&AppP` | N lowest-static-power cores | highest dynamic power → lowest static power |
//! | `VarF` | N highest-frequency cores | random order |
//! | `VarF&AppIPC` | N highest-frequency cores | highest IPC → highest frequency |
//!
//! [`SchedulerSpec`] names these five and the thermal-aware mapper;
//! [`SchedulerSpec::build`] turns a name into a [`Scheduler`].

use crate::manager::ControlState;
use crate::profile::{CoreProfile, ThreadProfile};
use crate::runtime::{ConfigError, RuntimeConfig};
use cmpsim::Machine;
use vastats::SimRng;

/// Which application scheduler to run: the declarative spec side of
/// the scheduling half of the control plane, mirroring
/// [`crate::manager::ManagerSpec`].
///
/// The first five variants are Table 1's profile-only policies;
/// [`SchedulerSpec::ThermalMap`] is the PCGov-style thermal-aware
/// mapper the tournament fields. The enum is `#[non_exhaustive]`:
/// downstream matches must carry a wildcard so new schedulers can join
/// without breaking them.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerSpec {
    /// Map threads on cores randomly (the baseline).
    Random,
    /// Map threads randomly on the cores with lowest static power.
    VarP,
    /// Map the highest-dynamic-power threads on the lowest-static-power
    /// cores.
    VarPAppP,
    /// Map threads randomly on the cores with highest frequency.
    VarF,
    /// Map the highest-IPC threads on the highest-frequency cores.
    VarFAppIpc,
    /// PCGov-style thermal-aware mapping: hot threads onto cool,
    /// mutually distant cores using floorplan geometry and lumped-RC
    /// temperatures (see [`crate::manager::ThermalMapper`]).
    ThermalMap,
}

impl SchedulerSpec {
    /// Name as used in the paper's figures, traces and reports. Stable
    /// across releases.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::Random => "Random",
            SchedulerSpec::VarP => "VarP",
            SchedulerSpec::VarPAppP => "VarP&AppP",
            SchedulerSpec::VarF => "VarF",
            SchedulerSpec::VarFAppIpc => "VarF&AppIPC",
            SchedulerSpec::ThermalMap => "ThermalMap",
        }
    }

    /// The single registry from spec to instance: constructs the boxed
    /// [`Scheduler`] this spec describes, mirroring
    /// [`crate::manager::ManagerSpec::build`]. Infallible today (no
    /// shipped scheduler has degenerate parameters), but the signature
    /// reserves [`ConfigError::BadManager`] for ones that will.
    ///
    /// # Example
    ///
    /// ```
    /// use vasched::profile::{CoreProfile, ThreadProfile};
    /// use vasched::runtime::RuntimeConfig;
    /// use vasched::sched::SchedulerSpec;
    /// use vastats::SimRng;
    ///
    /// // Two cores: core 1 is faster. One high-IPC thread.
    /// let cores = vec![
    ///     CoreProfile { core: 0, static_power_w: vec![1.0], max_freq_hz: 3.0e9 },
    ///     CoreProfile { core: 1, static_power_w: vec![1.2], max_freq_hz: 4.0e9 },
    /// ];
    /// let threads = vec![ThreadProfile {
    ///     thread: 0,
    ///     dynamic_power_w: 3.0,
    ///     ipc: 1.1,
    ///     profiled_on: 0,
    /// }];
    /// let mut scheduler = SchedulerSpec::VarFAppIpc
    ///     .build(&RuntimeConfig::paper_default())
    ///     .unwrap();
    /// let mapping = scheduler.assign(&cores, &threads, &mut SimRng::seed_from(1));
    /// assert_eq!(mapping[1], Some(0), "the thread lands on the fast core");
    /// ```
    pub fn build(&self, rt: &RuntimeConfig) -> Result<Box<dyn Scheduler>, ConfigError> {
        let _ = rt;
        let table1 = |cores, order| -> Box<dyn Scheduler> {
            Box::new(Table1 {
                name: self.name(),
                cores,
                order,
            })
        };
        Ok(match self {
            SchedulerSpec::Random => table1(CoreChoice::Random, ThreadOrder::Random),
            SchedulerSpec::VarP => table1(CoreChoice::LowestStaticPower, ThreadOrder::Random),
            SchedulerSpec::VarPAppP => table1(
                CoreChoice::LowestStaticPower,
                ThreadOrder::HighestDynamicPower,
            ),
            SchedulerSpec::VarF => table1(CoreChoice::HighestFrequency, ThreadOrder::Random),
            SchedulerSpec::VarFAppIpc => {
                table1(CoreChoice::HighestFrequency, ThreadOrder::HighestIpc)
            }
            SchedulerSpec::ThermalMap => Box::new(crate::manager::ThermalMapper::new()),
        })
    }
}

/// An OS-level application scheduler, invoked once per scheduling
/// interval to produce a thread→core mapping from profile data.
///
/// Like [`crate::manager::PowerManager`], schedulers are built once per
/// trial and may carry state across intervals; the paper's Table 1
/// policies are stateless.
pub trait Scheduler: Send {
    /// Name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Lets the scheduler read live machine sensors (temperatures,
    /// core liveness, geometry) before the next [`Scheduler::assign`].
    /// Called by every execution path right before each assignment.
    /// The default is a no-op and must stay RNG-free: Table 1's
    /// profile-only policies ignore the machine, and their RNG streams
    /// are golden-pinned.
    fn observe(&mut self, machine: &Machine) {
        let _ = machine;
    }

    /// Computes `mapping[core] = Some(thread)` for every scheduled
    /// thread. `cores` and `threads` are the profile data of Table 3;
    /// Table 1's policies read only the fields the paper allows them
    /// (e.g. `Random` reads nothing).
    ///
    /// # Panics
    ///
    /// Table 1's policies panic if there are more threads than cores or
    /// either slice is empty.
    fn assign(
        &mut self,
        cores: &[CoreProfile],
        threads: &[ThreadProfile],
        rng: &mut SimRng,
    ) -> Vec<Option<usize>>;

    /// Captures the scheduler's cross-interval state for a checkpoint.
    /// The paper's Table 1 policies are stateless; history-keeping
    /// schedulers override this (mirroring
    /// [`crate::manager::PowerManager::snapshot`]).
    fn snapshot(&self) -> ControlState {
        ControlState::Stateless
    }

    /// Restores state captured by [`Scheduler::snapshot`] onto a fresh
    /// instance of the same policy.
    fn restore(&mut self, _state: &ControlState) {}
}

/// Which N cores a Table 1 policy uses (the table's second column;
/// static power is taken at maximum voltage).
#[derive(Debug, Clone, Copy)]
enum CoreChoice {
    Random,
    LowestStaticPower,
    HighestFrequency,
}

/// The order a Table 1 policy places threads on its cores in, best
/// core first (the table's third column).
#[derive(Debug, Clone, Copy)]
enum ThreadOrder {
    Random,
    HighestDynamicPower,
    HighestIpc,
}

/// The [`Scheduler`] behind each of Table 1's policies: one row of the
/// table.
#[derive(Debug, Clone, Copy)]
struct Table1 {
    name: &'static str,
    cores: CoreChoice,
    order: ThreadOrder,
}

impl Scheduler for Table1 {
    fn name(&self) -> &'static str {
        self.name
    }

    fn assign(
        &mut self,
        cores: &[CoreProfile],
        threads: &[ThreadProfile],
        rng: &mut SimRng,
    ) -> Vec<Option<usize>> {
        assert!(!cores.is_empty(), "no cores to schedule on");
        assert!(!threads.is_empty(), "no threads to schedule");
        assert!(
            threads.len() <= cores.len(),
            "more threads ({}) than cores ({})",
            threads.len(),
            cores.len()
        );
        let n = threads.len();

        let selected: Vec<usize> = match self.cores {
            CoreChoice::Random => rng.sample_indices(cores.len(), n),
            CoreChoice::LowestStaticPower => {
                let mut ranked: Vec<usize> = (0..cores.len()).collect();
                ranked.sort_by(|&a, &b| {
                    cores[a]
                        .static_at_max_voltage()
                        .total_cmp(&cores[b].static_at_max_voltage())
                });
                ranked.truncate(n);
                ranked
            }
            CoreChoice::HighestFrequency => {
                let mut ranked: Vec<usize> = (0..cores.len()).collect();
                ranked.sort_by(|&a, &b| cores[b].max_freq_hz.total_cmp(&cores[a].max_freq_hz));
                ranked.truncate(n);
                ranked
            }
        };

        let mut thread_order: Vec<usize> = (0..n).collect();
        match self.order {
            ThreadOrder::Random => rng.shuffle(&mut thread_order),
            ThreadOrder::HighestDynamicPower => thread_order.sort_by(|&a, &b| {
                threads[b]
                    .dynamic_power_w
                    .total_cmp(&threads[a].dynamic_power_w)
            }),
            ThreadOrder::HighestIpc => {
                thread_order.sort_by(|&a, &b| threads[b].ipc.total_cmp(&threads[a].ipc))
            }
        }

        let mut mapping = vec![None; cores.len()];
        for (slot, &thread_idx) in thread_order.iter().enumerate() {
            mapping[selected[slot]] = Some(thread_idx);
        }
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE1: [SchedulerSpec; 5] = [
        SchedulerSpec::Random,
        SchedulerSpec::VarP,
        SchedulerSpec::VarPAppP,
        SchedulerSpec::VarF,
        SchedulerSpec::VarFAppIpc,
    ];

    fn schedule(
        spec: SchedulerSpec,
        cores: &[CoreProfile],
        threads: &[ThreadProfile],
        rng: &mut SimRng,
    ) -> Vec<Option<usize>> {
        spec.build(&RuntimeConfig::paper_default())
            .expect("valid spec")
            .assign(cores, threads, rng)
    }

    fn fake_cores(n: usize) -> Vec<CoreProfile> {
        // Core i: static power i+1 watts, frequency (4.0 - 0.1*i) GHz.
        (0..n)
            .map(|i| CoreProfile {
                core: i,
                static_power_w: vec![0.5 * (i + 1) as f64, (i + 1) as f64],
                max_freq_hz: (4.0 - 0.1 * i as f64) * 1e9,
            })
            .collect()
    }

    fn fake_threads(n: usize) -> Vec<ThreadProfile> {
        // Thread j: dynamic power j+1, IPC 0.1*(j+1).
        (0..n)
            .map(|j| ThreadProfile {
                thread: j,
                dynamic_power_w: (j + 1) as f64,
                ipc: 0.1 * (j + 1) as f64,
                profiled_on: 0,
            })
            .collect()
    }

    fn scheduled_cores(mapping: &[Option<usize>]) -> Vec<usize> {
        mapping
            .iter()
            .enumerate()
            .filter_map(|(c, t)| t.map(|_| c))
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
    fn all_policies_produce_valid_mappings() {
        let cores = fake_cores(10);
        let threads = fake_threads(6);
        for spec in TABLE1 {
            let mut rng = SimRng::seed_from(11);
            let mapping = schedule(spec, &cores, &threads, &mut rng);
            is_valid(&mapping, 6);
        }
    }

    #[test]
    fn varp_selects_lowest_static_cores() {
        let cores = fake_cores(10);
        let threads = fake_threads(4);
        let mut rng = SimRng::seed_from(1);
        let mapping = schedule(SchedulerSpec::VarP, &cores, &threads, &mut rng);
        assert_eq!(scheduled_cores(&mapping), vec![0, 1, 2, 3]);
    }

    #[test]
    fn varf_selects_fastest_cores() {
        let cores = fake_cores(10);
        let threads = fake_threads(3);
        let mut rng = SimRng::seed_from(2);
        let mapping = schedule(SchedulerSpec::VarF, &cores, &threads, &mut rng);
        // Fastest cores are the lowest indices in the fake data.
        assert_eq!(scheduled_cores(&mapping), vec![0, 1, 2]);
    }

    #[test]
    fn varp_appp_pairs_hot_threads_with_cool_cores() {
        let cores = fake_cores(8);
        let threads = fake_threads(4);
        let mut rng = SimRng::seed_from(3);
        let mapping = schedule(SchedulerSpec::VarPAppP, &cores, &threads, &mut rng);
        // Hottest thread (3) on coolest core (0), next (2) on core 1, ...
        assert_eq!(mapping[0], Some(3));
        assert_eq!(mapping[1], Some(2));
        assert_eq!(mapping[2], Some(1));
        assert_eq!(mapping[3], Some(0));
    }

    #[test]
    fn varf_appipc_pairs_high_ipc_with_fast_cores() {
        let cores = fake_cores(8);
        let threads = fake_threads(4);
        let mut rng = SimRng::seed_from(4);
        let mapping = schedule(SchedulerSpec::VarFAppIpc, &cores, &threads, &mut rng);
        // Highest-IPC thread (3) on fastest core (0).
        assert_eq!(mapping[0], Some(3));
        assert_eq!(mapping[1], Some(2));
        assert_eq!(mapping[2], Some(1));
        assert_eq!(mapping[3], Some(0));
    }

    #[test]
    fn random_uses_rng() {
        let cores = fake_cores(20);
        let threads = fake_threads(5);
        let a = schedule(
            SchedulerSpec::Random,
            &cores,
            &threads,
            &mut SimRng::seed_from(5),
        );
        let b = schedule(
            SchedulerSpec::Random,
            &cores,
            &threads,
            &mut SimRng::seed_from(6),
        );
        assert_ne!(a, b, "different seeds should give different mappings");
    }

    #[test]
    fn full_occupancy_schedules_everywhere() {
        let cores = fake_cores(6);
        let threads = fake_threads(6);
        let mut rng = SimRng::seed_from(7);
        let mapping = schedule(SchedulerSpec::VarFAppIpc, &cores, &threads, &mut rng);
        assert!(mapping.iter().all(|m| m.is_some()));
        is_valid(&mapping, 6);
    }

    #[test]
    #[should_panic(expected = "more threads")]
    fn too_many_threads_rejected() {
        let cores = fake_cores(2);
        let threads = fake_threads(3);
        schedule(
            SchedulerSpec::Random,
            &cores,
            &threads,
            &mut SimRng::seed_from(0),
        );
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(SchedulerSpec::VarPAppP.name(), "VarP&AppP");
        assert_eq!(SchedulerSpec::VarFAppIpc.name(), "VarF&AppIPC");
        let rt = RuntimeConfig::paper_default();
        for spec in TABLE1.into_iter().chain([SchedulerSpec::ThermalMap]) {
            assert_eq!(spec.build(&rt).expect("valid spec").name(), spec.name());
        }
    }
}
