//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation: it runs the corresponding function from
//! [`vasched::experiments`], prints the series the paper plots, and
//! writes a CSV under `results/`.
//!
//! All binaries accept the same arguments:
//!
//! ```text
//! --scale smoke|quick|paper    experiment fidelity (default: quick)
//! --seed <u64>                 master seed (default: 20080621)
//! --threads <n>                trial-runner workers (default: all cores)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vasched::experiments::{Scale, Series};

pub mod harness;
pub mod json_report;
pub mod timing;

/// Default master seed (ISCA 2008's opening day).
pub const DEFAULT_SEED: u64 = 20_080_621;

/// Parsed command-line options for a figure binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Experiment fidelity.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Trial-runner worker count (0 = all available cores).
    pub threads: usize,
}

/// Parses `--scale`, `--seed`, and `--threads` from the process
/// arguments, and installs the thread count as the trial engine's
/// process-wide default.
///
/// # Panics
///
/// Panics with a usage message on unknown arguments or bad values —
/// appropriate for a CLI entry point.
pub fn parse_args() -> Options {
    let mut scale = Scale::quick();
    let mut seed = DEFAULT_SEED;
    let mut threads = 0usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args.get(i).expect("--scale needs a value");
                scale = match value.as_str() {
                    "smoke" => Scale::smoke(),
                    "quick" => Scale::quick(),
                    "paper" => Scale::paper(),
                    other => panic!("unknown scale '{other}' (smoke|quick|paper)"),
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an unsigned integer");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .expect("--threads needs a value")
                    .parse()
                    .expect("--threads must be an unsigned integer");
            }
            other => {
                panic!("unknown argument '{other}' (supported: --scale, --seed, --threads)")
            }
        }
        i += 1;
    }
    vasched::engine::set_default_workers(threads);
    Options {
        scale,
        seed,
        threads,
    }
}

/// Prints a group of series as an aligned table: one row per x value,
/// one column per series.
pub fn print_table(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    if series.is_empty() {
        println!("(no data)");
        return;
    }
    print!("{:>10}", "x");
    for s in series {
        print!("  {:>22}", s.label);
    }
    println!();
    for (i, &x) in series[0].x.iter().enumerate() {
        print!("{x:>10.3}");
        for s in series {
            print!("  {:>22.4}", s.y[i]);
        }
        println!();
    }
}

/// Prints the series and writes them to `results/<name>.csv`.
pub fn report(name: &str, title: &str, series: &[Series]) {
    print_table(title, series);
    match vasched::experiments::write_csv(name, series) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_table_handles_empty() {
        print_table("empty", &[]);
    }

    #[test]
    fn report_writes_csv() {
        let series = vec![Series::new("s", vec![1.0], vec![2.0])];
        report("bench_lib_test", "test", &series);
        let body = std::fs::read_to_string("results/bench_lib_test.csv").unwrap();
        assert!(body.contains("s,1,2"));
        // Only this test's own file: other tests write under the same
        // (gitignored) `results/` concurrently.
        let _ = std::fs::remove_file("results/bench_lib_test.csv");
    }
}
