//! Bin-side harness: the boilerplate every figure binary used to
//! repeat — CLI parsing, series reporting, label slugs, and writing
//! non-CSV artifacts under `results/` — behind one entry point.
//!
//! A figure binary reduces to:
//!
//! ```no_run
//! use vasp_bench::harness::Harness;
//!
//! let h = Harness::from_args();
//! let series = vasched::experiments::granularity::fig14(h.scale(), h.seed(), &[4, 20]);
//! h.report("fig14", "Figure 14: deviation vs interval", &series);
//! ```
//!
//! [`Harness::report`] prints the aligned table and writes the CSV
//! (via the experiment layer's `write_csv`), and [`Harness::artifact`]
//! handles the JSONL/markdown outputs that don't fit the series shape
//! (run traces, `REPORT.md`), creating `results/` on demand. [`slug`]
//! turns arm labels into filesystem-safe file-name fragments
//! (`Foxton*` → `foxton_star`).

use crate::{parse_args, report, Options};
use std::path::PathBuf;
use vasched::experiments::Scale;
use vasched::experiments::Series;

/// One binary's run context: the parsed standard CLI (`--scale`,
/// `--seed`, `--threads`) plus the output conventions all bins share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harness {
    opts: Options,
}

impl Harness {
    /// Parses the process arguments and installs `--threads` as the
    /// trial engine's default — the first line of every `main`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown arguments (see
    /// [`parse_args`]).
    pub fn from_args() -> Self {
        Self { opts: parse_args() }
    }

    /// A harness over explicit options (tests; no CLI, no engine
    /// side effects).
    pub fn with_options(opts: Options) -> Self {
        Self { opts }
    }

    /// The parsed options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Experiment fidelity from `--scale`.
    pub fn scale(&self) -> &Scale {
        &self.opts.scale
    }

    /// Master seed from `--seed`.
    pub fn seed(&self) -> u64 {
        self.opts.seed
    }

    /// Prints `series` as an aligned table and writes
    /// `results/<name>.csv`.
    pub fn report(&self, name: &str, title: &str, series: &[Series]) {
        report(name, title, series);
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
    use crate::DEFAULT_SEED;

    #[test]
    fn slug_flattens_labels_to_file_name_fragments() {
        assert_eq!(slug("Foxton*"), "foxton_star");
        assert_eq!(slug("LinOpt"), "linopt");
        assert_eq!(slug("chip-wide DVFS"), "chip_wide_dvfs");
        assert_eq!(slug("**"), "star_star");
    }

    #[test]
    fn artifact_writes_under_results() {
        let h = Harness::with_options(Options {
            scale: Scale::smoke(),
            seed: DEFAULT_SEED,
            threads: 1,
        });
        assert_eq!(h.seed(), DEFAULT_SEED);
        let path = h.artifact("harness_test.txt", "hello\n");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "hello\n");
        // Only this test's own file: other tests write under the same
        // (gitignored) `results/` concurrently.
        let _ = std::fs::remove_file(&path);
    }
}
