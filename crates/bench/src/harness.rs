//! Bin-side harness: the boilerplate every binary would otherwise
//! repeat — CLI parsing, series reporting, label slugs, and writing
//! non-CSV artifacts under `results/` — behind one entry point.
//!
//! A binary reduces to:
//!
//! ```no_run
//! use vasp_bench::harness::Harness;
//!
//! let h = Harness::from_args();
//! let series = vasched::experiments::slo::window_sweep(&h.scale, h.seed);
//! h.report("slo_shed", "SLO serving: jobs shed per second", &series.shed_jobs_per_s);
//! ```
//!
//! [`Harness::report`] prints the aligned table and writes the CSV
//! (via the experiment layer's `write_csv`), and [`Harness::artifact`]
//! handles the JSONL/markdown outputs that don't fit the series shape
//! (run traces, `REPORT.md`), creating `results/` on demand. [`slug`]
//! turns arm labels into filesystem-safe file-name fragments
//! (`Foxton*` → `foxton_star`).

use crate::DEFAULT_SEED;
use std::path::PathBuf;
use vasched::experiments::{write_csv, Scale, Series};

/// One binary's run context: the standard CLI (`--scale`, `--seed`,
/// `--threads`) plus the output conventions all bins share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harness {
    /// Experiment fidelity (`--scale`, default quick).
    pub scale: Scale,
    /// Master seed (`--seed`, default [`DEFAULT_SEED`]).
    pub seed: u64,
    /// Trial-runner worker count (`--threads`, default 0 = all
    /// available cores).
    pub threads: usize,
}

impl Harness {
    /// Parses the process arguments and installs `--threads` as the
    /// trial engine's process-wide default — the first line of every
    /// `main`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown arguments or bad values —
    /// appropriate for a CLI entry point.
    pub fn from_args() -> Self {
        let mut h = Self {
            scale: Scale::quick(),
            seed: DEFAULT_SEED,
            threads: 0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
            match arg.as_str() {
                "--scale" => {
                    h.scale = match value().as_str() {
                        "smoke" => Scale::smoke(),
                        "quick" => Scale::quick(),
                        "paper" => Scale::paper(),
                        other => panic!("unknown scale '{other}' (smoke|quick|paper)"),
                    }
                }
                "--seed" => h.seed = value().parse().expect("--seed must be an unsigned integer"),
                "--threads" => {
                    h.threads = value()
                        .parse()
                        .expect("--threads must be an unsigned integer")
                }
                other => {
                    panic!("unknown argument '{other}' (supported: --scale, --seed, --threads)")
                }
            }
        }
        vasched::engine::set_default_workers(h.threads);
        h
    }

    /// Prints `series` as an aligned table (one row per x value, one
    /// column per series) and writes `results/<name>.csv`.
    pub fn report(&self, name: &str, title: &str, series: &[Series]) {
        println!("\n== {title} ==");
        if let Some(first) = series.first() {
            print!("{:>10}", "x");
            for s in series {
                print!("  {:>22}", s.label);
            }
            println!();
            for (i, &x) in first.x.iter().enumerate() {
                print!("{x:>10.3}");
                for s in series {
                    print!("  {:>22.4}", s.y[i]);
                }
                println!();
            }
        } else {
            println!("(no data)");
        }
        match write_csv(name, series) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }

    /// Writes a non-CSV artifact (JSONL trace, markdown report) to
    /// `results/<file_name>`, creating the directory if needed, and
    /// prints the path. Returns the path written.
    ///
    /// # Panics
    ///
    /// Panics if the directory or file cannot be written — these
    /// binaries have no useful way to continue without their output.
    pub fn artifact(&self, file_name: &str, contents: &str) -> PathBuf {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(file_name);
        std::fs::write(&path, contents).expect("write artifact");
        println!("wrote {}", path.display());
        path
    }
}

/// A filesystem-safe slug for an arm label (`Foxton*` → `foxton_star`,
/// `LinOpt` → `linopt`).
pub fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        match c {
            'A'..='Z' => out.push(c.to_ascii_lowercase()),
            'a'..='z' | '0'..='9' => out.push(c),
            '*' => out.push_str("_star"),
            _ => out.push('_'),
        }
    }
    out.trim_matches('_').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Harness {
        Harness {
            scale: Scale::smoke(),
            seed: DEFAULT_SEED,
            threads: 1,
        }
    }

    #[test]
    fn slug_flattens_labels_to_file_name_fragments() {
        assert_eq!(slug("Foxton*"), "foxton_star");
        assert_eq!(slug("LinOpt"), "linopt");
        assert_eq!(slug("chip-wide DVFS"), "chip_wide_dvfs");
        assert_eq!(slug("**"), "star_star");
    }

    #[test]
    fn report_writes_csv_and_handles_empty() {
        smoke().report("bench_lib_test_empty", "empty", &[]);
        let series = vec![Series::new("s", vec![1.0], vec![2.0])];
        smoke().report("bench_lib_test", "test", &series);
        let body = std::fs::read_to_string("results/bench_lib_test.csv").unwrap();
        assert!(body.contains("s,1,2"));
        // Only this test's own files: other tests write under the same
        // (gitignored) `results/` concurrently.
        let _ = std::fs::remove_file("results/bench_lib_test.csv");
        let _ = std::fs::remove_file("results/bench_lib_test_empty.csv");
    }

    #[test]
    fn artifact_writes_under_results() {
        let path = smoke().artifact("harness_test.txt", "hello\n");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "hello\n");
        // Only this test's own file: other tests write under the same
        // (gitignored) `results/` concurrently.
        let _ = std::fs::remove_file(&path);
    }
}
