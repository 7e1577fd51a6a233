//! The fleet dispatcher: routing arriving jobs to chips.
//!
//! Once per fleet epoch the cluster builds one [`ChipSummary`] per chip
//! — the capability digest a real cluster scheduler would gossip:
//! sorted effective-frequency profile of the live cores, current
//! resident/queued load, power allocation and draw — and routes the
//! epoch's arrivals one at a time. The dispatcher only ever sees
//! summaries, never machines, so every policy works from the same
//! information a datacenter-level scheduler would actually have.
//!
//! The policies ([`DispatchPolicy`]) bracket the design space:
//! round-robin ignores state entirely, least-loaded balances job
//! counts (the classic load-only baseline), and variation-aware
//! extends the paper's core-level insight to the fleet — it ranks
//! chips by their summed effective frequency divided by one plus the
//! backlog the job would queue behind, so among chips with a free core
//! the fastest silicon under budget wins, because process variation
//! makes some chips' cores measurably quicker at the same power.
//!
//! **The epoch index.** [`Dispatcher::begin_epoch`] sums each profile
//! once and heapifies the chips under the policy's total order;
//! [`Dispatcher::pick`] reads the top and [`Dispatcher::enqueued`]
//! re-keys it after the fleet queues a job there. A placement changes
//! only the picked chip's key and a shed changes nothing, so the top is
//! always the chip a full scan of the updated summaries would pick, at
//! O(chips × cores) per epoch plus O(log chips) per job.
//! [`Dispatcher::route`] is the one-shot form.

use crate::online::JobSpec;
use crate::order::desc_nan_worst;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The per-chip capability digest the dispatcher routes on.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSummary {
    /// Chip index within the fleet.
    pub chip: usize,
    /// Rack the chip belongs to.
    pub rack: usize,
    /// *Effective* frequency every live core currently sustains (its
    /// DVFS level under the chip's power allocation), sorted
    /// descending (Hz) — the chip's variation fingerprint as throttled
    /// by its budget: a low-leakage die runs measurably faster at the
    /// same watts.
    pub freq_profile_hz: Vec<f64>,
    /// Threads currently resident on cores.
    pub resident: usize,
    /// Jobs queued at the chip (routed or arrived, not yet admitted).
    pub queued: usize,
    /// Live cores (equals `freq_profile_hz.len()`).
    pub alive_cores: usize,
    /// The chip's current power allocation (watts).
    pub budget_w: f64,
    /// The chip's mean power over the last epoch (watts; 0 before the
    /// first).
    pub power_w: f64,
}

impl ChipSummary {
    /// Total jobs the chip is responsible for (resident + queued).
    pub fn load(&self) -> usize {
        self.resident + self.queued
    }
}

const NO_CHIPS: &str = "fleet has at least one chip";

/// The router of one fleet run, built by [`DispatchPolicy::build`]: the
/// policy, the round-robin cursor, and the epoch index the load-aware
/// policies route from.
///
/// Per epoch the fleet calls [`begin_epoch`](Self::begin_epoch) with
/// the chip summaries; then, per arriving job, [`pick`](Self::pick) for
/// its destination and, when it queues the job there instead of
/// shedding it, [`enqueued`](Self::enqueued). A policy thus sees the
/// consequences of its own decisions within the epoch.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    /// Round-robin: the next job's rotation index (carries across
    /// epochs).
    cursor: usize,
    /// Chips in the current epoch.
    chips: usize,
    /// Least-loaded index: the top is the lowest `(load, chip)`.
    by_load: BinaryHeap<Reverse<(usize, usize)>>,
    /// Variation-aware index: the top is the best-scoring chip.
    by_score: BinaryHeap<Scored>,
}

impl Dispatcher {
    /// Indexes the epoch's `summaries`, where `summaries[i].chip == i`
    /// (the fleet builds them in chip order). Sums each profile once;
    /// the round-robin cursor carries over from the previous epoch.
    pub fn begin_epoch(&mut self, summaries: &[ChipSummary]) {
        debug_assert!(
            summaries.iter().enumerate().all(|(i, s)| s.chip == i),
            "summaries[i].chip must equal i"
        );
        self.chips = summaries.len();
        match self.policy {
            DispatchPolicy::RoundRobin => {}
            DispatchPolicy::LeastLoaded => {
                self.by_load.clear();
                self.by_load
                    .extend(summaries.iter().map(|s| Reverse((s.load(), s.chip))));
            }
            DispatchPolicy::VariationAware => {
                self.by_score.clear();
                self.by_score.extend(summaries.iter().map(Scored::of));
            }
        }
    }

    /// The chip the next job goes to: the next in rotation, or the top
    /// of the epoch index.
    ///
    /// # Panics
    ///
    /// When the epoch has no chips.
    pub fn pick(&mut self) -> usize {
        match self.policy {
            DispatchPolicy::RoundRobin => {
                let chip = self.cursor % self.chips;
                self.cursor = self.cursor.wrapping_add(1);
                chip
            }
            DispatchPolicy::LeastLoaded => {
                let Reverse((_, chip)) = self.by_load.peek().expect(NO_CHIPS);
                *chip
            }
            DispatchPolicy::VariationAware => self.by_score.peek().expect(NO_CHIPS).chip,
        }
    }

    /// Records that the fleet queued a job at `chip`, the chip
    /// [`pick`](Self::pick) just returned: one sift-down re-keys it. A
    /// shed job needs no call, since it changes no chip's load.
    pub fn enqueued(&mut self, chip: usize) {
        match self.policy {
            DispatchPolicy::RoundRobin => {}
            DispatchPolicy::LeastLoaded => {
                let mut top = self.by_load.peek_mut().expect(NO_CHIPS);
                let Reverse((load, top_chip)) = &mut *top;
                debug_assert_eq!(*top_chip, chip, "only the picked chip is re-keyed");
                *load += 1;
            }
            DispatchPolicy::VariationAware => {
                let mut top = self.by_score.peek_mut().expect(NO_CHIPS);
                debug_assert_eq!(top.chip, chip, "only the picked chip is re-keyed");
                top.load += 1;
                top.score = score(top.speed_hz, top.load, top.alive_cores);
            }
        }
    }

    /// The chip to route `job` to, from `summaries` alone:
    /// [`begin_epoch`](Self::begin_epoch), then [`pick`](Self::pick).
    /// No policy reads the job itself.
    pub fn route(&mut self, _job: &JobSpec, summaries: &[ChipSummary]) -> usize {
        self.begin_epoch(summaries);
        self.pick()
    }
}

/// A chip in the variation-aware index, ordered so the heap's top is
/// the best chip: the higher [`score`] under [`desc_nan_worst`] (a NaN
/// score, e.g. from a poisoned frequency reading, loses to every real
/// chip), then the lower chip index.
#[derive(Debug, Clone, Copy)]
struct Scored {
    score: f64,
    chip: usize,
    /// The chip's summed effective frequency (Hz), summed once per
    /// epoch.
    speed_hz: f64,
    load: usize,
    alive_cores: usize,
}

impl Scored {
    fn of(s: &ChipSummary) -> Self {
        let speed_hz: f64 = s.freq_profile_hz.iter().sum();
        Self {
            score: score(speed_hz, s.load(), s.alive_cores),
            chip: s.chip,
            speed_hz,
            load: s.load(),
            alive_cores: s.alive_cores,
        }
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        desc_nan_worst(other.score, self.score).then(other.chip.cmp(&self.chip))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scored {}

/// The variation-aware score: the chip's summed effective frequency
/// divided by one plus the jobs that would sit ahead of the new job
/// beyond its free cores. A dead chip's empty profile sums to −0.0,
/// which ranks below every live chip's +0.0; every chip with a free
/// core outranks every saturated chip of equal silicon.
fn score(speed_hz: f64, load: usize, alive_cores: usize) -> f64 {
    let backlog = (load + 1).saturating_sub(alive_cores);
    speed_hz / (1.0 + backlog as f64)
}

/// The dispatcher selector — the spec-level counterpart of
/// [`crate::manager::ManagerSpec`]: a copyable tag experiments sweep
/// over, turned into a [`Dispatcher`] per run by
/// [`DispatchPolicy::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// State-blind rotation: job *i* goes to chip *i* mod *N*.
    RoundRobin,
    /// Load-only balancing: the chip with the fewest resident + queued
    /// jobs, ties to the lowest chip index.
    LeastLoaded,
    /// Variation-aware routing, the fleet analogue of the paper's VarF
    /// policy: the chip with the highest summed effective frequency
    /// divided by one plus the backlog the job would queue behind, ties
    /// to the lowest chip index. With a free core the fastest silicon
    /// under budget wins; saturated, the score approximates inverse
    /// waiting time, so where count-only [`LeastLoaded`](Self::LeastLoaded)
    /// treats a fast and a slow chip with equal queues as equal, this
    /// routes to the one that will start the job sooner.
    VariationAware,
}

impl DispatchPolicy {
    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "RoundRobin",
            DispatchPolicy::LeastLoaded => "LeastLoaded",
            DispatchPolicy::VariationAware => "VariationAware",
        }
    }

    /// A fresh dispatcher for one run.
    pub fn build(&self) -> Dispatcher {
        Dispatcher {
            policy: *self,
            cursor: 0,
            chips: 0,
            by_load: BinaryHeap::new(),
            by_score: BinaryHeap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fleet::DISPATCHERS;
    use vastats::SimRng;

    fn job() -> JobSpec {
        let pool = cmpsim::app_pool(&cmpsim::MachineConfig::paper_default().dynamic);
        JobSpec {
            arrival_ms: 0.0,
            spec: pool[0].clone(),
            instructions: 1.0e6,
            phase_offset_ms: 0.0,
        }
    }

    fn summary(chip: usize, freqs: &[f64], resident: usize, queued: usize) -> ChipSummary {
        ChipSummary {
            chip,
            rack: 0,
            freq_profile_hz: freqs.to_vec(),
            resident,
            queued,
            alive_cores: freqs.len(),
            budget_w: 40.0,
            power_w: 0.0,
        }
    }

    /// The per-job scans the epoch index replaced, kept as its oracle:
    /// every job re-reads every summary.
    fn scan(policy: DispatchPolicy, cursor: &mut usize, summaries: &[ChipSummary]) -> usize {
        let score = |s: &ChipSummary| {
            let speed_hz: f64 = s.freq_profile_hz.iter().sum();
            let backlog = (s.load() + 1).saturating_sub(s.alive_cores);
            speed_hz / (1.0 + backlog as f64)
        };
        match policy {
            DispatchPolicy::RoundRobin => {
                let chip = *cursor % summaries.len();
                *cursor = cursor.wrapping_add(1);
                chip
            }
            DispatchPolicy::LeastLoaded => {
                summaries
                    .iter()
                    .min_by_key(|s| (s.load(), s.chip))
                    .expect(NO_CHIPS)
                    .chip
            }
            DispatchPolicy::VariationAware => {
                summaries
                    .iter()
                    .max_by(|a, b| desc_nan_worst(score(b), score(a)).then(b.chip.cmp(&a.chip)))
                    .expect(NO_CHIPS)
                    .chip
            }
        }
    }

    /// Draws fresh loads for every chip: idle, partly busy, or
    /// saturated, each with a short queue.
    fn redraw_loads(fleet: &mut [ChipSummary], rng: &mut SimRng) {
        for s in fleet {
            s.resident = match rng.index(3) {
                0 => 0,
                1 => rng.index(s.alive_cores + 1),
                _ => s.alive_cores,
            };
            s.queued = rng.index(6);
        }
    }

    /// A seeded random fleet of 1–300 chips with up to 20 live cores
    /// each: dead chips, NaN readings, exactly tied speeds (few distinct
    /// levels, and chips copying an earlier chip's profile), and some
    /// fleets running every live core at 0 Hz, where only the sign of
    /// zero separates a live chip's score from a dead chip's.
    fn random_fleet(rng: &mut SimRng) -> Vec<ChipSummary> {
        let chips = 1 + rng.index(300);
        let levels: &[f64] = if rng.index(3) == 0 {
            &[0.0]
        } else {
            &[3.0e9, 3.5e9, 4.0e9, 4.5e9]
        };
        let mut fleet: Vec<ChipSummary> = Vec::with_capacity(chips);
        for chip in 0..chips {
            let freqs = if chip > 0 && rng.index(4) == 0 {
                fleet[rng.index(chip)].freq_profile_hz.clone()
            } else {
                let alive = if rng.index(5) == 0 {
                    0
                } else {
                    1 + rng.index(20)
                };
                let mut freqs: Vec<f64> = (0..alive)
                    .map(|_| {
                        if rng.index(50) == 0 {
                            f64::NAN
                        } else {
                            levels[rng.index(levels.len())]
                        }
                    })
                    .collect();
                freqs.sort_by(|a, b| b.total_cmp(a));
                freqs
            };
            fleet.push(summary(chip, &freqs, 0, 0));
        }
        redraw_loads(&mut fleet, rng);
        fleet
    }

    #[test]
    fn epoch_index_matches_the_scan_oracle() {
        let mut rng = SimRng::seed_from(0x0D15_BA7C);
        let j = job();
        let mut sheds = 0usize;
        for _ in 0..48 {
            let fleet = random_fleet(&mut rng);
            // Half the fleets cap the queues low enough to shed.
            let cap = if rng.index(2) == 0 {
                1 + rng.index(8)
            } else {
                usize::MAX
            };
            for policy in DISPATCHERS {
                let mut summaries = fleet.clone();
                let mut index = policy.build();
                let mut one_shot = policy.build();
                let mut cursor = 0usize;
                // 4 epochs of 500 jobs: the round-robin cursor must
                // carry across each boundary.
                for epoch in 0..4 {
                    if epoch > 0 {
                        redraw_loads(&mut summaries, &mut rng);
                    }
                    index.begin_epoch(&summaries);
                    for step in 0..500 {
                        let chip = index.pick();
                        let oracle = scan(policy, &mut cursor, &summaries);
                        assert_eq!(
                            chip,
                            oracle,
                            "{} epoch {epoch} job {step}: index vs scan over {} chips",
                            policy.name(),
                            summaries.len()
                        );
                        assert_eq!(one_shot.route(&j, &summaries), chip, "one-shot route");
                        if summaries[chip].queued >= cap {
                            sheds += 1;
                        } else {
                            summaries[chip].queued += 1;
                            index.enqueued(chip);
                        }
                    }
                }
            }
        }
        assert!(sheds > 0, "the capped fleets must shed");
    }

    #[test]
    fn round_robin_rotates_across_epochs() {
        let mut rr = DispatchPolicy::RoundRobin.build();
        let s = vec![
            summary(0, &[4.0e9], 0, 0),
            summary(1, &[4.0e9], 0, 0),
            summary(2, &[4.0e9], 0, 0),
        ];
        let j = job();
        let picks: Vec<usize> = (0..5).map(|_| rr.route(&j, &s)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
        // A new epoch continues the rotation rather than restarting it.
        rr.begin_epoch(&s[..2]);
        assert_eq!((rr.pick(), rr.pick()), (1, 0));
    }

    #[test]
    fn least_loaded_counts_queued_jobs_and_breaks_ties_low() {
        let mut ll = DispatchPolicy::LeastLoaded.build();
        let j = job();
        let s = vec![
            summary(0, &[4.0e9, 4.0e9], 1, 1),
            summary(1, &[4.0e9, 4.0e9], 1, 0),
            summary(2, &[4.0e9, 4.0e9], 0, 1),
        ];
        assert_eq!(ll.route(&j, &s), 1, "queued counts as load");
        // Each placement re-keys its chip; after two, every chip
        // carries two jobs.
        ll.enqueued(1);
        assert_eq!(ll.pick(), 2);
        ll.enqueued(2);
        assert_eq!(ll.pick(), 0, "ties go to the lowest chip");
        let tied = vec![summary(0, &[4.0e9], 1, 0), summary(1, &[4.0e9], 1, 0)];
        assert_eq!(ll.route(&j, &tied), 0, "ties go to the lowest chip");
    }

    /// A chip whose score collapses to NaN (here via a NaN frequency
    /// reading in its profile) must lose, not win the way
    /// `partial_cmp(..).unwrap_or(Equal)` silently allowed.
    #[test]
    fn variation_aware_never_routes_to_nan_score() {
        let mut va = DispatchPolicy::VariationAware.build();
        let j = job();
        let s = vec![
            summary(0, &[f64::NAN, 4.5e9], 0, 0),
            summary(1, &[3.0e9], 0, 0),
            summary(2, &[f64::NAN], 0, 0),
        ];
        assert_eq!(va.route(&j, &s), 1, "the only real score must win");
        // All-NaN fleet: still deterministic (lowest chip index).
        let s = vec![summary(0, &[f64::NAN], 0, 0), summary(1, &[f64::NAN], 0, 0)];
        assert_eq!(va.route(&j, &s), 0);
    }

    #[test]
    fn variation_aware_prefers_fast_free_silicon() {
        let mut va = DispatchPolicy::VariationAware.build();
        let j = job();
        // Chip 0: 7.8 GHz in total; chip 1: 8.2 GHz. Both have a free
        // core — the faster silicon must win.
        let s = vec![
            summary(0, &[4.0e9, 3.8e9], 1, 0),
            summary(1, &[4.2e9, 4.0e9], 1, 0),
        ];
        assert_eq!(va.route(&j, &s), 1);
        // A saturated fast chip loses to a slow chip with a free core.
        let s = vec![
            summary(0, &[4.5e9, 4.5e9], 2, 3),
            summary(1, &[3.5e9, 3.5e9], 1, 0),
        ];
        assert_eq!(va.route(&j, &s), 1);
        // All saturated: smallest backlog wins.
        let s = vec![summary(0, &[4.0e9], 1, 4), summary(1, &[4.0e9], 1, 2)];
        assert_eq!(va.route(&j, &s), 1);
        // Filling chip 1's free core leaves it with a backlog of one
        // (4.1 GHz), so the next job goes to chip 0 (7.8 GHz).
        let s = vec![
            summary(0, &[4.0e9, 3.8e9], 1, 0),
            summary(1, &[4.2e9, 4.0e9], 1, 0),
        ];
        va.begin_epoch(&s);
        assert_eq!(va.pick(), 1);
        va.enqueued(1);
        assert_eq!(va.pick(), 0);
    }

    /// A dead chip's empty profile sums to −0.0, which ranks below a
    /// live chip's +0.0: the index must keep the sign of zero.
    #[test]
    fn a_dead_chip_ranks_below_a_zero_speed_chip() {
        let mut va = DispatchPolicy::VariationAware.build();
        let s = vec![summary(0, &[], 0, 0), summary(1, &[0.0, 0.0], 0, 0)];
        assert_eq!(va.route(&job(), &s), 1);
        assert_eq!(scan(DispatchPolicy::VariationAware, &mut 0, &s), 1);
    }
}
