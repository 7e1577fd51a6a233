//! SLO-aware serving sweep (beyond the paper): completed-job
//! throughput, p99 latency, shed rate, and migrations vs the batched
//! reschedule window, under deadline admission at 3× overload, against
//! the accept-everything per-event baseline.

use vasched::experiments::slo;
use vasp_bench::harness::Harness;

fn main() {
    let h = Harness::from_args();
    let sweep = slo::window_sweep(&h.scale, h.seed);
    println!(
        "(x = reschedule window ms; offered load {} jobs/s, slack {}x, {} ms migration penalty)",
        slo::SLO_ARRIVAL_RATE_PER_S,
        slo::SLO_DEADLINE_SLACK,
        slo::SLO_MIGRATION_PENALTY_MS
    );
    h.report(
        "slo_throughput",
        "SLO serving: completed jobs/s vs reschedule window (windowed batching beats per-event at high churn)",
        &sweep.completed_jobs_per_s,
    );
    h.report(
        "slo_p99_latency",
        "SLO serving: p99 completed-job latency (ms) vs window (admission keeps the tail below the no-SLO line)",
        &sweep.p99_latency_ms,
    );
    h.report(
        "slo_shed",
        "SLO serving: jobs shed per second vs window (deadline admission under 3x overload)",
        &sweep.shed_jobs_per_s,
    );
    h.report(
        "slo_migrations",
        "SLO serving: thread migrations per trial vs window (batching cuts migration stalls)",
        &sweep.migrations,
    );
}
