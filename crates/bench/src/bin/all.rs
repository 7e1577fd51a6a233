//! Runs the complete evaluation — every figure in
//! [`vasp_bench::figures::FIGURES`] — and writes `results/REPORT.md`,
//! a paper-vs-measured summary for every figure and table, plus all
//! the per-figure CSVs and the per-stage wall-times in
//! `results/BENCH_all.json`. This is the one-command reproduction entry
//! point:
//!
//! ```text
//! cargo run --release -p vasp-bench --bin all -- --scale quick
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use vasched::engine::TrialRunner;
use vasp_bench::figures::FIGURES;
use vasp_bench::harness::Harness;
use vasp_bench::json_report::BenchReport;

fn main() {
    let h = Harness::from_args();
    let scale = h.scale;
    // from_args installed --threads as the engine default; every
    // figure fans its trials out through this runner width.
    let workers = TrialRunner::new().workers();
    println!("trial engine: {workers} worker thread(s)");
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Reproduction report\n\nScale: {} dies, {} trials, {} ms/trial, grid {}, SAnn {} evals. Seed {}. {} runner worker(s).\n",
        scale.dies, scale.trials, scale.duration_ms, scale.grid, scale.sann_evaluations, h.seed, workers
    );
    let _ = writeln!(md, "| Artifact | Paper | Measured |");
    let _ = writeln!(md, "|---|---|---|");
    let mut bench = BenchReport::new();
    let run_start = Instant::now();
    for (i, (stage, figure)) in FIGURES.iter().enumerate() {
        println!("[{}/{}] {stage} ...", i + 1, FIGURES.len());
        let start = Instant::now();
        for row in figure(&h) {
            let _ = writeln!(md, "{row}");
        }
        bench.push_stage(stage, start.elapsed().as_secs_f64());
    }
    h.artifact("REPORT.md", &md);
    bench.push_stage("total", run_start.elapsed().as_secs_f64());
    match bench.write("all") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_all.json: {e}"),
    }
    println!("\n{md}");
}
