//! §6.5 validation: SAnn vs the exact optimum vs LinOpt, at 1–20
//! threads.

use vasched::experiments::validation;
use vasp_bench::harness::Harness;

fn main() {
    let h = Harness::from_args();
    let results = validation::sann_vs_exhaustive(h.scale(), h.seed(), &[1, 2, 4, 8, 16, 20]);
    println!(
        "{:>8} {:>16} {:>12} {:>12} {:>14} {:>14}",
        "threads", "exhaustive MIPS", "SAnn MIPS", "LinOpt MIPS", "SAnn/exh", "LinOpt/SAnn"
    );
    for r in &results {
        println!(
            "{:>8} {:>16.0} {:>12.0} {:>12.0} {:>14.4} {:>14.4}",
            r.threads,
            r.exhaustive_mips,
            r.sann_mips,
            r.linopt_mips,
            r.sann_vs_exhaustive(),
            r.linopt_vs_sann()
        );
    }
    println!("\n(paper: SAnn within 1% of exhaustive for <=4 threads;");
    println!(" LinOpt within ~2% of SAnn)");
}
