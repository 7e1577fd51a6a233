//! The seeded arrival process: open-loop job generation over the
//! calibrated application pool.
//!
//! Jobs arrive as a Poisson process (exponential inter-arrival times),
//! each drawing an application uniformly from the pool (restricted to a
//! [`Mix`]), an instruction budget around the configured mean, and a
//! phase offset so identical applications do not march in lock-step.
//! The whole schedule comes from one RNG of its own (drawn up front, or
//! lazily as the fleet routes it), so the event loop's behaviour can
//! never perturb the workload it serves.

use crate::runtime::ConfigError;
use cmpsim::{AppSpec, Mix};
use vastats::SimRng;

/// Parameters of the job arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Mean arrival rate (jobs per second). Zero disables arrivals —
    /// the system is closed and only the initial residents run.
    pub rate_per_s: f64,
    /// Mean per-job instruction budget. Use `f64::INFINITY` for jobs
    /// that never complete within the horizon (the closed-system
    /// batch regime).
    pub mean_instructions: f64,
    /// Half-width of the uniform jitter around the mean budget, as a
    /// fraction of the mean (0 = every job identical, must be < 1).
    pub instructions_jitter: f64,
    /// Hard cap on generated arrivals (0 = bounded only by the
    /// horizon).
    pub max_jobs: usize,
}

impl ArrivalConfig {
    /// No arrivals: the closed-system configuration whose online run
    /// reduces to the batch engine.
    pub fn closed() -> Self {
        Self {
            rate_per_s: 0.0,
            mean_instructions: f64::INFINITY,
            instructions_jitter: 0.0,
            max_jobs: 0,
        }
    }

    /// An open system at `rate_per_s` jobs/s with the given mean
    /// budget and ±25% budget jitter.
    pub fn poisson(rate_per_s: f64, mean_instructions: f64) -> Self {
        Self {
            rate_per_s,
            mean_instructions,
            instructions_jitter: 0.25,
            max_jobs: 0,
        }
    }

    /// Validates rates and budgets: [`ConfigError::BadArrivalProcess`]
    /// if the rate is negative, infinite or NaN (an infinite rate makes
    /// every gap zero, so the schedule never reaches its horizon), the
    /// mean budget is not positive, or the jitter is outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let rate_ok = (0.0..f64::INFINITY).contains(&self.rate_per_s);
        let work_ok = self.mean_instructions > 0.0;
        if rate_ok && work_ok && (0.0..1.0).contains(&self.instructions_jitter) {
            Ok(())
        } else {
            Err(ConfigError::BadArrivalProcess)
        }
    }
}

/// One generated job: when it arrives, what it runs, and how much work
/// it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Arrival time (milliseconds since the start of the run).
    pub arrival_ms: f64,
    /// The application the job runs.
    pub spec: AppSpec,
    /// Instructions the job must retire to complete.
    pub instructions: f64,
    /// Phase offset the job's thread starts at (milliseconds).
    pub phase_offset_ms: f64,
}

/// Pre-draws the whole arrival schedule for one run: Poisson arrival
/// times within `[0, horizon_ms)`, applications drawn uniformly from
/// the mix-filtered pool, budgets uniform in
/// `mean · (1 ± jitter)`, and staggered phase offsets.
///
/// Returns an empty schedule when the rate is zero. All randomness
/// comes from `rng`, in arrival order, so the schedule is a pure
/// function of the seed.
///
/// # Panics
///
/// Panics if the configuration is invalid, the horizon is not
/// positive, or the mix admits no application from the pool.
pub fn generate_arrivals(
    pool: &[AppSpec],
    mix: Mix,
    config: &ArrivalConfig,
    horizon_ms: f64,
    rng: &mut SimRng,
) -> Vec<JobSpec> {
    arrivals(pool, mix, config, horizon_ms, rng).collect()
}

/// The schedule of [`generate_arrivals`], drawn one job at a time (the
/// same jobs from the same draws) for a caller that hands each job on
/// as it goes instead of holding the whole schedule.
///
/// # Panics
///
/// As [`generate_arrivals`], when called.
pub(crate) fn arrivals<'a>(
    pool: &'a [AppSpec],
    mix: Mix,
    config: &ArrivalConfig,
    horizon_ms: f64,
    rng: &'a mut SimRng,
) -> impl Iterator<Item = JobSpec> + 'a {
    if let Err(e) = config.validate() {
        panic!("{e}: {config:?}");
    }
    assert!(horizon_ms > 0.0, "horizon must be positive");
    let config = *config;
    let apps: Vec<&AppSpec> = pool.iter().filter(|a| mix.admits(a)).collect();
    assert!(
        config.rate_per_s == 0.0 || !apps.is_empty(),
        "mix {mix:?} admits no application from the pool"
    );
    let cap = if config.rate_per_s == 0.0 {
        0
    } else if config.max_jobs == 0 {
        usize::MAX
    } else {
        config.max_jobs
    };
    let mut t_ms = 0.0f64;
    std::iter::from_fn(move || {
        // Exponential inter-arrival: -ln(1 - u) / λ, in milliseconds.
        let u = rng.next_f64();
        t_ms += -(1.0 - u).ln() / config.rate_per_s * 1e3;
        if t_ms >= horizon_ms {
            return None;
        }
        let spec = apps[rng.index(apps.len())].clone();
        let jitter = config.instructions_jitter;
        let instructions = if config.mean_instructions.is_finite() && jitter > 0.0 {
            rng.uniform(
                config.mean_instructions * (1.0 - jitter),
                config.mean_instructions * (1.0 + jitter),
            )
        } else {
            config.mean_instructions
        };
        let phase_offset_ms = rng.uniform(0.0, spec.phase_cycle_ms());
        Some(JobSpec {
            arrival_ms: t_ms,
            spec,
            instructions,
            phase_offset_ms,
        })
    })
    .take(cap)
    .fuse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::app_pool;
    use powermodel::DynamicPower;

    fn pool() -> Vec<AppSpec> {
        app_pool(&DynamicPower::paper_default())
    }

    #[test]
    fn zero_rate_generates_nothing_and_consumes_no_rng() {
        let pool = pool();
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        let jobs = generate_arrivals(
            &pool,
            Mix::Balanced,
            &ArrivalConfig::closed(),
            500.0,
            &mut rng,
        );
        assert!(jobs.is_empty());
        assert_eq!(rng, before, "zero-rate generation must not touch the RNG");
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let pool = pool();
        let cfg = ArrivalConfig::poisson(200.0, 100.0e6);
        let a = generate_arrivals(
            &pool,
            Mix::Balanced,
            &cfg,
            1000.0,
            &mut SimRng::seed_from(9),
        );
        let b = generate_arrivals(
            &pool,
            Mix::Balanced,
            &cfg,
            1000.0,
            &mut SimRng::seed_from(9),
        );
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(
                w[0].arrival_ms <= w[1].arrival_ms,
                "arrivals must be ordered"
            );
        }
        for j in &a {
            assert!(j.arrival_ms < 1000.0);
            assert!(j.instructions >= 75.0e6 && j.instructions <= 125.0e6);
            assert!(j.phase_offset_ms >= 0.0);
        }
    }

    #[test]
    fn rate_sets_the_mean_count() {
        let pool = pool();
        let cfg = ArrivalConfig::poisson(100.0, 1.0e6);
        let mut total = 0usize;
        for seed in 0..20 {
            total += generate_arrivals(
                &pool,
                Mix::Balanced,
                &cfg,
                1000.0,
                &mut SimRng::seed_from(seed),
            )
            .len();
        }
        let mean = total as f64 / 20.0;
        // 100 jobs/s over 1 s: mean 100, σ = 10.
        assert!((mean - 100.0).abs() < 15.0, "mean arrivals {mean}");
    }

    #[test]
    fn mix_restricts_the_draw() {
        let pool = pool();
        let cfg = ArrivalConfig::poisson(300.0, 1.0e6);
        let jobs = generate_arrivals(
            &pool,
            Mix::MemoryHeavy,
            &cfg,
            500.0,
            &mut SimRng::seed_from(3),
        );
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| j.spec.mem_bound >= 0.6));
    }

    #[test]
    fn max_jobs_caps_generation() {
        let pool = pool();
        let cfg = ArrivalConfig {
            max_jobs: 5,
            ..ArrivalConfig::poisson(1000.0, 1.0e6)
        };
        let jobs = generate_arrivals(
            &pool,
            Mix::Balanced,
            &cfg,
            10_000.0,
            &mut SimRng::seed_from(4),
        );
        assert_eq!(jobs.len(), 5);
    }
}
