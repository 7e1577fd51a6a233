//! Machine-readable benchmark output: `results/BENCH_<name>.json`.
//!
//! The text tables the bench binaries print are for humans; CI and
//! regression tooling need something parseable. [`BenchReport`]
//! collects [`BenchCase`]s (one per timed case, straight from
//! [`crate::timing::Measurement`]) and stage wall-times, then renders
//! one JSON document with a schema tag so consumers can validate
//! before trusting the numbers. `vasched`'s dependency-free JSON
//! writer keeps the output deterministic (shortest-roundtrip floats,
//! insertion order preserved).

use std::io;
use std::path::PathBuf;

use vasched::obs::json::{push_json_f64, push_json_str};

use crate::timing::Measurement;

/// Schema tag stamped into every report.
pub const BENCH_SCHEMA: &str = "vasp.bench.v1";

/// One timed case inside a report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// `group/name` identifier, e.g. `solver/linopt_cold_20c`.
    pub id: String,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-iteration nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration nanoseconds.
    pub max_ns: f64,
    /// Iterations per sample batch.
    pub iters: u32,
    /// Number of sample batches.
    pub samples: usize,
}

/// A benchmark report: timed cases plus coarse stage wall-times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    cases: Vec<BenchCase>,
    /// `(stage, seconds)` wall-clock entries, in execution order.
    stages: Vec<(String, f64)>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a timed case under `group/name`.
    pub fn push_case(&mut self, group: &str, name: &str, m: Measurement) {
        self.cases.push(BenchCase {
            id: format!("{group}/{name}"),
            median_ns: m.median_ns,
            min_ns: m.min_ns,
            max_ns: m.max_ns,
            iters: m.iters,
            samples: m.samples,
        });
    }

    /// Records a stage wall-time in seconds.
    pub fn push_stage(&mut self, stage: &str, seconds: f64) {
        self.stages.push((stage.to_string(), seconds));
    }

    /// Median of the case recorded under `id`, if any.
    pub fn median_of(&self, id: &str) -> Option<f64> {
        self.cases.iter().find(|c| c.id == id).map(|c| c.median_ns)
    }

    /// Renders the report as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":");
        push_json_str(&mut out, BENCH_SCHEMA);
        out.push_str(",\"cases\":[");
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_str(&mut out, &case.id);
            out.push_str(",\"median_ns\":");
            push_json_f64(&mut out, case.median_ns);
            out.push_str(",\"min_ns\":");
            push_json_f64(&mut out, case.min_ns);
            out.push_str(",\"max_ns\":");
            push_json_f64(&mut out, case.max_ns);
            out.push_str(",\"iters\":");
            out.push_str(&case.iters.to_string());
            out.push_str(",\"samples\":");
            out.push_str(&case.samples.to_string());
            out.push('}');
        }
        out.push_str("],\"stages\":[");
        for (i, (stage, seconds)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":");
            push_json_str(&mut out, stage);
            out.push_str(",\"wall_s\":");
            push_json_f64(&mut out, *seconds);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the report to `results/BENCH_<name>.json` (creating
    /// `results/` if needed) and returns the path.
    pub fn write(&self, name: &str) -> io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vasched::obs::parse_json;

    fn sample_measurement() -> Measurement {
        Measurement {
            median_ns: 123.5,
            min_ns: 100.25,
            max_ns: 150.75,
            iters: 1000,
            samples: 5,
        }
    }

    #[test]
    fn report_renders_valid_json_with_schema() {
        let mut report = BenchReport::new();
        report.push_case("group", "case", sample_measurement());
        report.push_stage("fig15", 1.25);
        let doc = parse_json(&report.to_json()).expect("report JSON parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        let cases = doc.get("cases").unwrap().as_arr().unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].get("id").unwrap().as_str(), Some("group/case"));
        assert_eq!(cases[0].get("median_ns").unwrap().as_f64(), Some(123.5));
        let stages = doc.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages[0].get("wall_s").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn empty_report_is_still_well_formed() {
        let doc = parse_json(&BenchReport::new().to_json()).unwrap();
        assert_eq!(doc.get("cases").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(doc.get("stages").unwrap().as_arr().unwrap().len(), 0);
    }
}
