//! Runtime thread state.
//!
//! A [`Thread`] is one running instance of an application: it tracks
//! wall-clock progress through the app's phases and the instructions it
//! has retired, and answers the instantaneous IPC/power queries the
//! machine and the profiling sensors need.

use crate::apps::AppSpec;
use powermodel::DynamicPower;

/// One running application instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Thread {
    spec: AppSpec,
    /// Current share of the shared L2 (MB), set by the machine's
    /// contention model; defaults to the whole cache (solo behaviour).
    l2_alloc_mb: f64,
    /// Wall-clock milliseconds of execution so far (drives phases).
    elapsed_ms: f64,
    /// Instructions retired so far.
    instructions: f64,
    /// Seconds of execution (for per-thread MIPS).
    elapsed_s: f64,
}

impl Thread {
    /// Creates a thread at the start of its first phase.
    pub fn new(spec: AppSpec) -> Self {
        Self {
            spec,
            l2_alloc_mb: 8.0,
            elapsed_ms: 0.0,
            instructions: 0.0,
            elapsed_s: 0.0,
        }
    }

    /// Creates a thread starting at a phase offset (milliseconds into
    /// the phase cycle), so identical apps in one workload don't march
    /// in lock-step.
    pub fn with_phase_offset(spec: AppSpec, offset_ms: f64) -> Self {
        Self {
            spec,
            l2_alloc_mb: 8.0,
            elapsed_ms: offset_ms.max(0.0),
            instructions: 0.0,
            elapsed_s: 0.0,
        }
    }

    /// Rebuilds a thread from checkpointed progress counters, exactly as
    /// [`Thread::state`] captured them.
    pub fn from_parts(
        spec: AppSpec,
        l2_alloc_mb: f64,
        elapsed_ms: f64,
        instructions: f64,
        elapsed_s: f64,
    ) -> Self {
        Self {
            spec,
            l2_alloc_mb,
            elapsed_ms,
            instructions,
            elapsed_s,
        }
    }

    /// The thread's mutable progress counters
    /// `(l2_alloc_mb, elapsed_ms, instructions, elapsed_s)`, for
    /// checkpointing. The spec is identified separately by app name.
    pub fn state(&self) -> (f64, f64, f64, f64) {
        (
            self.l2_alloc_mb,
            self.elapsed_ms,
            self.instructions,
            self.elapsed_s,
        )
    }

    /// The application this thread runs.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Instantaneous IPC at frequency `f_hz` (includes the current
    /// phase's multiplier and the thread's current L2 share).
    pub fn ipc_now(&self, f_hz: f64) -> f64 {
        let (ipc_mult, _) = self.spec.phase_at(self.elapsed_ms);
        self.spec.ipc_at_share(f_hz, self.l2_alloc_mb) * ipc_mult
    }

    /// The phase multipliers `(ipc_mult, power_mult)` in effect right
    /// now. Callers that need IPC *and* power in one tick evaluate this
    /// once instead of paying the phase scan inside both
    /// [`Thread::ipc_now`] and [`Thread::dynamic_power_now`].
    pub fn phase_now(&self) -> (f64, f64) {
        self.spec.phase_at(self.elapsed_ms)
    }

    /// The phase multipliers [`Thread::phase_now`] would return after
    /// [`Thread::run_at`] ran the thread for `run_s` seconds, without
    /// running it: the clock advances by the same expression.
    pub(crate) fn phase_after(&self, run_s: f64) -> (f64, f64) {
        self.spec.phase_at(self.elapsed_ms + run_s * 1e3)
    }

    /// Current share of the shared L2 (MB).
    pub fn l2_alloc_mb(&self) -> f64 {
        self.l2_alloc_mb
    }

    /// Sets the thread's share of the shared L2 (MB). Called by the
    /// machine's contention model each tick.
    ///
    /// # Panics
    ///
    /// Panics if the share is not positive.
    pub fn set_l2_alloc_mb(&mut self, mb: f64) {
        assert!(mb > 0.0, "cache share must be positive");
        self.l2_alloc_mb = mb;
    }

    /// Instantaneous dynamic power (watts) at the given operating point
    /// (includes the current phase's multiplier).
    pub fn dynamic_power_now(&self, model: &DynamicPower, v: f64, f_hz: f64) -> f64 {
        let (_, power_mult) = self.spec.phase_at(self.elapsed_ms);
        model.power(self.spec.activity(), v, f_hz) * power_mult
    }

    /// Advances the thread by `dt_s` seconds running at `f_hz`,
    /// retiring instructions at the current-phase IPC. Returns the
    /// instructions retired in this step.
    ///
    /// A thread that is not scheduled this interval should be advanced
    /// with [`Thread::idle`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or `f_hz` is not positive.
    pub fn run(&mut self, dt_s: f64, f_hz: f64) -> f64 {
        let ipc = self.ipc_now(f_hz);
        self.run_at(dt_s, f_hz, ipc)
    }

    /// [`Thread::run`] with the instantaneous IPC supplied by the
    /// caller, for tick loops that already evaluated [`Thread::ipc_now`]
    /// this tick (nothing the IPC depends on — phase, share, frequency —
    /// may have changed in between). Passing exactly that value makes
    /// this bit-identical to `run`, without re-paying the phase scan and
    /// miss-curve `powf`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or `f_hz` is not positive.
    pub fn run_at(&mut self, dt_s: f64, f_hz: f64, ipc: f64) -> f64 {
        assert!(dt_s >= 0.0, "time step must be non-negative");
        assert!(f_hz > 0.0, "frequency must be positive");
        let retired = ipc * f_hz * dt_s;
        self.elapsed_ms += dt_s * 1e3;
        self.elapsed_s += dt_s;
        self.instructions += retired;
        retired
    }

    /// Marks `dt_s` seconds of wall-clock time during which the thread
    /// did not execute (descheduled). Phases do not advance: the
    /// application is frozen, not running.
    pub fn idle(&mut self, _dt_s: f64) {}

    /// Total instructions retired.
    pub fn instructions(&self) -> f64 {
        self.instructions
    }

    /// Total seconds of execution.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Average MIPS over the thread's execution so far.
    ///
    /// Returns 0 for a thread that has not run yet.
    pub fn average_mips(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.instructions / self.elapsed_s / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::app_pool;
    use powermodel::DynamicPower;

    fn bzip2() -> AppSpec {
        app_pool(&DynamicPower::paper_default())
            .into_iter()
            .find(|a| a.name == "bzip2")
            .unwrap()
    }

    #[test]
    fn run_accumulates_instructions() {
        let mut t = Thread::new(bzip2());
        let retired = t.run(0.001, 4.0e9);
        // bzip2 phase 0: ipc 1.1 * 1.30 at 4 GHz over 1 ms.
        let expect = 1.1 * 1.30 * 4.0e9 * 0.001;
        assert!((retired - expect).abs() / expect < 1e-9);
        assert!((t.instructions() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn phases_change_ipc_over_time() {
        let mut t = Thread::new(bzip2());
        let ipc_start = t.ipc_now(4.0e9);
        // Advance past the first phase (40 ms).
        t.run(0.045, 4.0e9);
        let ipc_later = t.ipc_now(4.0e9);
        assert!(
            (ipc_start - ipc_later).abs() > 1e-3,
            "phase change should move IPC"
        );
    }

    #[test]
    fn average_mips_matches_hand_calculation() {
        let mut t = Thread::new(bzip2());
        t.run(0.010, 2.0e9);
        let mips = t.average_mips();
        assert!((mips - t.instructions() / 0.010 / 1e6).abs() < 1e-6);
    }

    #[test]
    fn power_tracks_phase_multiplier() {
        let model = DynamicPower::paper_default();
        let mut t = Thread::new(bzip2());
        let p0 = t.dynamic_power_now(&model, 1.0, 4.0e9);
        // Phase 0 multiplier is 1.06 on a 3.7 W base.
        assert!((p0 - 3.7 * 1.06).abs() < 1e-9, "p0 {p0}");
        t.run(0.045, 4.0e9); // into phase 1 (mult 0.95)
        let p1 = t.dynamic_power_now(&model, 1.0, 4.0e9);
        assert!((p1 - 3.7 * 0.95).abs() < 1e-9, "p1 {p1}");
    }

    #[test]
    fn phase_offset_desynchronizes() {
        let a = Thread::new(bzip2());
        let b = Thread::with_phase_offset(bzip2(), 50.0);
        assert_ne!(a.ipc_now(4.0e9), b.ipc_now(4.0e9));
    }

    #[test]
    fn idle_freezes_everything() {
        let mut t = Thread::new(bzip2());
        let before = t.clone();
        t.idle(1.0);
        assert_eq!(t, before);
    }

    #[test]
    fn state_round_trip_is_exact() {
        let mut t = Thread::with_phase_offset(bzip2(), 12.5);
        t.run(0.017, 3.1e9);
        t.set_l2_alloc_mb(5.25);
        let (l2, ms, instr, s) = t.state();
        let rebuilt = Thread::from_parts(bzip2(), l2, ms, instr, s);
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn zero_time_step_is_noop_on_counters() {
        let mut t = Thread::new(bzip2());
        let retired = t.run(0.0, 4.0e9);
        assert_eq!(retired, 0.0);
        assert_eq!(t.average_mips(), 0.0);
    }
}
